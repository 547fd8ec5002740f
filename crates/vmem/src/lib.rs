//! Simulated 64-bit virtual address space for the DangSan reproduction.
//!
//! DangSan instruments a real process: pointer stores, heap operations and
//! pointer invalidations all act on actual virtual memory, and the detector
//! relies on two properties of that memory system:
//!
//! 1. Dereferencing a *non-canonical* address (most-significant bit set, the
//!    value DangSan rewrites dangling pointers to) traps. This is the
//!    detection mechanism itself.
//! 2. Reading from an *unmapped* page raises SIGSEGV, which DangSan catches
//!    and skips during `invalptrs` (the location that used to hold a pointer
//!    may itself have been released back to the OS).
//!
//! This crate provides those semantics as a library: a sparse, thread-safe
//! address space made of 4 KiB pages of atomic 8-byte words. Faults are
//! reported as [`MemFault`] values instead of signals, which lets the rest
//! of the system exercise exactly the same control flow as the paper's
//! runtime without requiring signal handlers.
//!
//! The page table is a lock-free three-level radix over the 48-bit canonical
//! user address space, so concurrent accesses from workload threads and the
//! detector never contend on a lock. Its node, [`Dir`], is the crate's one
//! page directory: the heap's span registry and the shadow metapagetable
//! are built on it too.

mod bump;
mod dir;
mod layout;
pub mod rng;
mod space;

pub use bump::BumpSegment;
pub use dir::{heap_page, Dir, Zeroed, DIR_FANOUT};
pub use layout::{
    canonical, is_canonical_user, page_of, tag_of, untag, with_tag, word_index, Addr, GLOBALS_BASE,
    GLOBALS_SIZE, HEAP_BASE, HEAP_SIZE, INVALID_BIT, PAGE_SHIFT, PAGE_SIZE, STACKS_BASE,
    STACKS_SIZE, TAG_BITS, TAG_MASK, TAG_SHIFT, WORDS_PER_PAGE,
};
pub use space::{AddressSpace, PageRef};

/// The kind of memory fault produced by an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The address has bit 63 set (or exceeds the 48-bit canonical range).
    ///
    /// DangSan rewrites dangling pointers into this form, so for the
    /// workloads in this repository a `NonCanonical` fault on a data access
    /// is the moment a use-after-free is *detected*.
    NonCanonical,
    /// The page containing the address is not mapped (simulated SIGSEGV).
    Unmapped,
    /// A word access was not 8-byte aligned.
    Unaligned,
}

/// A memory access fault, the library-level stand-in for a hardware trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Why the access faulted.
    pub kind: FaultKind,
    /// The faulting address, as reported in a real SIGSEGV `si_addr`.
    ///
    /// For [`FaultKind::NonCanonical`] faults this still contains the
    /// original (pre-invalidation) address bits, which is the debugging
    /// benefit the paper cites for bit-setting over nullification.
    pub addr: Addr,
}

impl MemFault {
    /// Returns the address with the invalidation bit stripped, i.e. the
    /// pointer value the program originally held before DangSan invalidated
    /// it. Useful when reporting a detected use-after-free.
    pub fn original_addr(&self) -> Addr {
        self.addr & !INVALID_BIT
    }
}

impl core::fmt::Display for MemFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.kind {
            FaultKind::NonCanonical => write!(
                f,
                "non-canonical address {:#x} (invalidated pointer to {:#x})",
                self.addr,
                self.original_addr()
            ),
            FaultKind::Unmapped => write!(f, "unmapped address {:#x}", self.addr),
            FaultKind::Unaligned => write!(f, "unaligned word access at {:#x}", self.addr),
        }
    }
}

impl std::error::Error for MemFault {}

/// Errors returned by mapping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// Part of the requested range is already mapped.
    AlreadyMapped(Addr),
    /// Part of the requested range is not mapped (for `unmap`).
    NotMapped(Addr),
    /// The range is empty, wraps around, or leaves the canonical space.
    BadRange,
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::AlreadyMapped(a) => write!(f, "page at {a:#x} already mapped"),
            MapError::NotMapped(a) => write!(f, "page at {a:#x} not mapped"),
            MapError::BadRange => write!(f, "bad address range"),
        }
    }
}

impl std::error::Error for MapError {}
