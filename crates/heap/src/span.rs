//! Spans and the page-to-span registry.
//!
//! A span is a run of whole pages dedicated to one size class. The registry
//! maps every heap page to its span's metadata through a lock-free
//! two-level radix, so `free(ptr)` can recover the owning span — and hence
//! the object's base, stride and liveness bit — without taking a lock.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::ptr;

use dangsan_vmem::{Addr, HEAP_BASE, HEAP_SIZE, PAGE_SHIFT};

/// Metadata of one span. Created when the page heap carves out the span and
/// kept alive for the lifetime of the `SpanRegistry` (spans are
/// permanently bound to their class, so there is no reclamation race).
pub struct SpanInfo {
    /// First address of the span.
    pub start: Addr,
    /// Length in pages.
    pub pages: u64,
    /// Object stride (class size; for large spans, the whole span).
    pub stride: u64,
    /// Number of objects carved from this span.
    pub objects: u64,
    /// Shadow compression shift for this span.
    pub shift: u32,
    /// `true` for a dedicated large-allocation span.
    pub large: bool,
    /// One bit per object: set while allocated. Gives lock-free double-free
    /// detection on the fast path.
    alloc_bitmap: Box<[AtomicU64]>,
}

impl SpanInfo {
    pub(crate) fn new(
        start: Addr,
        pages: u64,
        stride: u64,
        objects: u64,
        shift: u32,
        large: bool,
    ) -> Box<SpanInfo> {
        let words = (objects as usize).div_ceil(64);
        let alloc_bitmap = (0..words).map(|_| AtomicU64::new(0)).collect();
        Box::new(SpanInfo {
            start,
            pages,
            stride,
            objects,
            shift,
            large,
            alloc_bitmap,
        })
    }

    /// Index of the object containing `addr`, if `addr` is inside the span's
    /// object area.
    pub fn object_index(&self, addr: Addr) -> Option<u64> {
        if addr < self.start {
            return None;
        }
        let idx = (addr - self.start) / self.stride;
        (idx < self.objects).then_some(idx)
    }

    /// Base address of object `idx`.
    pub fn object_base(&self, idx: u64) -> Addr {
        self.start + idx * self.stride
    }

    /// Atomically marks object `idx` allocated. Returns `false` if it
    /// already was (allocator invariant violation).
    pub(crate) fn mark_allocated(&self, idx: u64) -> bool {
        let word = &self.alloc_bitmap[(idx / 64) as usize];
        let bit = 1u64 << (idx % 64);
        word.fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Atomically marks object `idx` free. Returns `false` on double free.
    pub(crate) fn mark_free(&self, idx: u64) -> bool {
        let word = &self.alloc_bitmap[(idx / 64) as usize];
        let bit = 1u64 << (idx % 64);
        word.fetch_and(!bit, Ordering::AcqRel) & bit != 0
    }

    /// Whether object `idx` is currently allocated.
    pub fn is_allocated(&self, idx: u64) -> bool {
        let word = &self.alloc_bitmap[(idx / 64) as usize];
        word.load(Ordering::Acquire) & (1u64 << (idx % 64)) != 0
    }

    /// Approximate host-side metadata footprint of this span record.
    pub fn metadata_bytes(&self) -> u64 {
        (core::mem::size_of::<SpanInfo>() + self.alloc_bitmap.len() * 8) as u64
    }
}

const FANOUT: usize = 1 << 12;
const L2_COUNT: usize = (HEAP_SIZE >> PAGE_SHIFT) as usize / FANOUT;

struct Leaf {
    spans: [AtomicPtr<SpanInfo>; FANOUT],
}

/// Lock-free map from heap page index to [`SpanInfo`].
pub struct SpanRegistry {
    l1: Box<[AtomicPtr<Leaf>]>,
}

// SAFETY: interior mutability is exclusively through atomics; `SpanInfo`
// pointers are installed once and freed only in `Drop` with `&mut self`.
unsafe impl Send for SpanRegistry {}
// SAFETY: as above.
unsafe impl Sync for SpanRegistry {}

impl Default for SpanRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRegistry {
    /// Creates an empty registry covering the whole simulated heap.
    pub fn new() -> Self {
        let l1 = (0..L2_COUNT)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect();
        SpanRegistry { l1 }
    }

    fn page_index(addr: Addr) -> Option<usize> {
        if !(HEAP_BASE..HEAP_BASE + HEAP_SIZE).contains(&addr) {
            return None;
        }
        Some(((addr - HEAP_BASE) >> PAGE_SHIFT) as usize)
    }

    fn leaf(&self, l1_idx: usize, create: bool) -> Option<&Leaf> {
        let slot = &self.l1[l1_idx];
        let mut cur = slot.load(Ordering::Acquire);
        if cur.is_null() {
            if !create {
                return None;
            }
            // SAFETY: a `Leaf` is an array of atomics for which all-zero
            // (null) is valid; allocation uses the leaf's own layout.
            let fresh = unsafe {
                let layout = std::alloc::Layout::new::<Leaf>();
                let raw = std::alloc::alloc_zeroed(layout) as *mut Leaf;
                if raw.is_null() {
                    std::alloc::handle_alloc_error(layout);
                }
                raw
            };
            match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => cur = fresh,
                Err(winner) => {
                    // SAFETY: `fresh` lost the race and was never shared.
                    unsafe { drop(Box::from_raw(fresh)) };
                    cur = winner;
                }
            }
        }
        // SAFETY: non-null leaves are valid and live as long as `self`.
        Some(unsafe { &*cur })
    }

    /// Registers `span` (an owning pointer) for all of its pages.
    ///
    /// Takes ownership of the box; the registry frees it on drop.
    pub fn insert(&self, span: Box<SpanInfo>) -> &SpanInfo {
        let raw = Box::into_raw(span);
        // SAFETY: just created from a box; valid for the registry lifetime.
        let span = unsafe { &*raw };
        let first = Self::page_index(span.start).expect("span inside heap");
        for p in first..first + span.pages as usize {
            let leaf = self.leaf(p / FANOUT, true).expect("created");
            leaf.spans[p % FANOUT].store(raw, Ordering::Release);
        }
        span
    }

    /// Looks up the span covering `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<&SpanInfo> {
        let p = Self::page_index(addr)?;
        let leaf = self.leaf(p / FANOUT, false)?;
        let raw = leaf.spans[p % FANOUT].load(Ordering::Acquire);
        if raw.is_null() {
            return None;
        }
        // SAFETY: span pointers are never freed while the registry lives.
        Some(unsafe { &*raw })
    }

    /// Resolves an arbitrary interior pointer to its live object, used by
    /// tests and slow paths.
    pub fn object_of(&self, addr: Addr) -> Option<(Addr, u64)> {
        let span = self.lookup(addr)?;
        let idx = span.object_index(addr)?;
        span.is_allocated(idx)
            .then(|| (span.object_base(idx), span.stride - 1))
    }
}

impl Drop for SpanRegistry {
    fn drop(&mut self) {
        // Multi-page spans appear in one slot per page; dedup so each
        // record is freed exactly once.
        let mut unique = std::collections::HashSet::new();
        for slot in self.l1.iter() {
            let leaf = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if leaf.is_null() {
                continue;
            }
            // SAFETY: `&mut self` guarantees exclusive access in drop.
            let leaf = unsafe { Box::from_raw(leaf) };
            for s in leaf.spans.iter() {
                let raw = s.swap(ptr::null_mut(), Ordering::AcqRel);
                if !raw.is_null() {
                    unique.insert(raw as usize);
                }
            }
        }
        for raw in unique {
            // SAFETY: each unique record was created by `Box::into_raw` in
            // `insert` and is freed exactly once here, under exclusive
            // access to the registry.
            unsafe { drop(Box::from_raw(raw as *mut SpanInfo)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan_vmem::PAGE_SIZE;

    #[test]
    fn insert_and_lookup_interior_pointers() {
        let reg = SpanRegistry::new();
        let span = SpanInfo::new(HEAP_BASE, 2, 64, 128, 6, false);
        reg.insert(span);
        let s = reg.lookup(HEAP_BASE + 100).unwrap();
        assert_eq!(s.start, HEAP_BASE);
        // Second page resolves to the same span.
        let s2 = reg.lookup(HEAP_BASE + PAGE_SIZE + 8).unwrap();
        assert_eq!(s2.start, HEAP_BASE);
        assert!(reg.lookup(HEAP_BASE + 2 * PAGE_SIZE).is_none());
    }

    #[test]
    fn object_indexing() {
        let span = SpanInfo::new(HEAP_BASE, 1, 48, 85, 4, false);
        assert_eq!(span.object_index(HEAP_BASE), Some(0));
        assert_eq!(span.object_index(HEAP_BASE + 47), Some(0));
        assert_eq!(span.object_index(HEAP_BASE + 48), Some(1));
        assert_eq!(span.object_index(HEAP_BASE + 84 * 48), Some(84));
        assert_eq!(span.object_index(HEAP_BASE + 85 * 48), None);
        assert_eq!(span.object_base(3), HEAP_BASE + 3 * 48);
    }

    #[test]
    fn bitmap_detects_double_transitions() {
        let span = SpanInfo::new(HEAP_BASE, 1, 8, 512, 3, false);
        assert!(span.mark_allocated(7));
        assert!(!span.mark_allocated(7));
        assert!(span.is_allocated(7));
        assert!(span.mark_free(7));
        assert!(!span.mark_free(7));
        assert!(!span.is_allocated(7));
    }

    #[test]
    fn object_of_respects_liveness() {
        let reg = SpanRegistry::new();
        let span = reg.insert(SpanInfo::new(HEAP_BASE, 1, 32, 128, 5, false));
        assert!(reg.object_of(HEAP_BASE + 40).is_none());
        span.mark_allocated(1);
        assert_eq!(reg.object_of(HEAP_BASE + 40), Some((HEAP_BASE + 32, 31)));
    }

    #[test]
    fn lookup_outside_heap_is_none() {
        let reg = SpanRegistry::new();
        assert!(reg.lookup(0x1000).is_none());
        assert!(reg.lookup(HEAP_BASE - 8).is_none());
        assert!(reg.lookup(HEAP_BASE + HEAP_SIZE).is_none());
    }
}
