//! A tcmalloc-style allocator over the simulated address space.
//!
//! DangSan is "implemented as a tcmalloc extension" (paper §5): the
//! pointer-to-object mapper depends on tcmalloc's layout invariant that a
//! *span* (a run of whole pages) is carved into objects of a single size
//! class placed at a fixed stride from the span start. That invariant is
//! what makes variable-compression-ratio memory shadowing possible — the
//! shadow shift for a page is `log2` of the largest power of two dividing
//! the stride, and every shadow slot then falls entirely inside one object.
//!
//! This crate reproduces that allocator on [`dangsan_vmem::AddressSpace`]:
//!
//! * **size classes** generated with tcmalloc's waste-bounded spacing rule,
//! * a **page heap** handing out spans (bump-allocated address space, spans
//!   permanently bound to their class, as tcmalloc rarely returns memory),
//! * **central free lists** per class, guarded by fine-grained locks,
//! * **per-thread caches** moving objects to and from the central lists in
//!   batches, so the malloc/free fast path is lock-free,
//! * the paper's **+1 byte allocation guard** (§4.4): every requested size
//!   is bumped by one byte before class selection so that a pointer just
//!   past the end of an object can never point into the next object,
//! * **double-free and invalid-pointer detection** on `free`, reproducing
//!   the `src/tcmalloc.cc:290] Attempt to free invalid pointer` behaviour
//!   the paper shows for the OpenSSL exploit.

mod heap;
mod magazine;
mod size_classes;
mod span;

pub use heap::{Heap, ReallocOutcome, CENTRAL_SHARDS};
pub use size_classes::{class_for_size, classes, SizeClass, MAX_SMALL};
pub use span::SpanInfo;

use dangsan_vmem::Addr;

/// A successful allocation, with the layout facts the detector needs to
/// register the object in the metapagetable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// First byte of the object.
    pub base: Addr,
    /// The size the caller asked for.
    pub requested: u64,
    /// Bytes usable by the program (stride minus the guard byte).
    pub usable: u64,
    /// First byte of the containing span.
    pub span_start: Addr,
    /// Span length in pages.
    pub span_pages: u64,
    /// Object stride within the span (equals the size-class size).
    pub stride: u64,
    /// Shadow compression shift for this span's pages.
    pub shift: u32,
}

/// Information about a freed object, reported back to the heap tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeInfo {
    /// First byte of the object that was freed.
    pub base: Addr,
    /// Usable size the object had.
    pub usable: u64,
}

/// Allocator errors. The `InvalidPointer` variant is the allocator-level
/// use-after-free/double-free defence the paper demonstrates in §8.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The simulated heap address space is exhausted.
    OutOfMemory,
    /// `free`/`realloc` was handed an address with the invalidation bit set
    /// — a dangling pointer that DangSan already neutralised.
    ///
    /// Matches tcmalloc's "Attempt to free invalid pointer" abort.
    InvalidPointer(Addr),
    /// The address does not point at the start of a live heap object.
    NotAnObject(Addr),
    /// The object was already freed (double free).
    DoubleFree(Addr),
    /// Requested size is zero or overflows the size computation.
    BadSize,
}

impl core::fmt::Display for AllocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "simulated heap exhausted"),
            AllocError::InvalidPointer(a) => {
                write!(f, "Attempt to free invalid pointer {a:#x}")
            }
            AllocError::NotAnObject(a) => write!(f, "{a:#x} is not the start of a heap object"),
            AllocError::DoubleFree(a) => write!(f, "double free of {a:#x}"),
            AllocError::BadSize => write!(f, "bad allocation size"),
        }
    }
}

impl std::error::Error for AllocError {}
