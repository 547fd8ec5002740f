//! Spans and the page-to-span registry.
//!
//! A span is a run of whole pages dedicated to one size class. The registry
//! maps every heap page to its span's metadata through a lock-free
//! two-level page directory ([`Dir`]), so `free(ptr)` can recover the
//! owning span — and hence the object's base, stride and liveness bit —
//! without taking a lock.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use dangsan_vmem::{heap_page, Addr, Dir, Zeroed, DIR_FANOUT, PAGE_SIZE};

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

/// One registry leaf: the span of each of [`DIR_FANOUT`] heap pages.
struct Leaf {
    spans: [AtomicPtr<SpanInfo>; DIR_FANOUT],
}

// SAFETY: a leaf is all `AtomicPtr`s, for which zero is null.
unsafe impl Zeroed for Leaf {}

/// Lock-free map from heap page to [`SpanInfo`].
///
/// A span is registered at every page it covers and owned by its first
/// page's slot, which frees it when the registry drops.
pub struct SpanRegistry {
    leaves: Box<Dir<Leaf>>,
}

impl Default for SpanRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRegistry {
    /// Creates an empty registry covering the whole simulated heap.
    pub fn new() -> Self {
        SpanRegistry { leaves: Dir::new() }
    }

    /// Registers `span` (an owning pointer) for all of its pages.
    ///
    /// Takes ownership of the box; the registry frees it on drop.
    pub fn insert(&self, span: Box<SpanInfo>) -> &SpanInfo {
        let (start, pages) = (span.start, span.pages);
        let raw = Box::into_raw(span);
        for p in 0..pages {
            let (leaf, slot) = heap_page(start + p * PAGE_SIZE).expect("span inside heap");
            let leaf = self.leaves.get_or_install(leaf, Leaf::zeroed_box).0;
            leaf.spans[slot].store(raw, Ordering::Release);
        }
        // SAFETY: the registry owns the record from here on and frees it
        // only when it drops.
        unsafe { &*raw }
    }

    /// Looks up the span covering `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<&SpanInfo> {
        let (leaf, slot) = heap_page(addr)?;
        let span = self.leaves.get(leaf)?.spans[slot].load(Ordering::Acquire);
        // SAFETY: a registered record lives as long as the registry.
        unsafe { span.as_ref() }
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
        // Pages are walked top down, so a span is freed at its first page
        // only after every other page naming it was passed, and no freed
        // record is read again.
        for l in (0..DIR_FANOUT).rev() {
            let Some(leaf) = self.leaves.get(l) else {
                continue;
            };
            for (s, slot) in leaf.spans.iter().enumerate().rev() {
                let span = slot.load(Ordering::Relaxed);
                // SAFETY: `&mut self` excludes every reader. A non-null
                // slot names a record from `insert` whose first page is at
                // or below this one, so it is not yet freed; it is freed
                // here, at its first page, exactly once.
                unsafe {
                    if span
                        .as_ref()
                        .is_some_and(|sp| heap_page(sp.start) == Some((l, s)))
                    {
                        drop(Box::from_raw(span));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan_vmem::{HEAP_BASE, HEAP_SIZE};
    use std::cell::Cell;

    thread_local! {
        /// Span records dropped on this thread.
        static SPANS_DROPPED: Cell<usize> = const { Cell::new(0) };
    }

    impl Drop for SpanInfo {
        fn drop(&mut self) {
            SPANS_DROPPED.with(|n| n.set(n.get() + 1));
        }
    }

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

    #[test]
    fn span_straddling_two_leaves_resolves_from_both_and_is_freed_once() {
        let reg = SpanRegistry::new();
        let start = HEAP_BASE + (DIR_FANOUT as u64 - 1) * PAGE_SIZE;
        reg.insert(SpanInfo::new(start, 2, 64, 128, 6, false));
        assert_ne!(
            heap_page(start).unwrap().0,
            heap_page(start + PAGE_SIZE).unwrap().0
        );
        for addr in [start + 8, start + PAGE_SIZE + 8] {
            assert_eq!(reg.lookup(addr).expect("registered").start, start);
        }
        let before = SPANS_DROPPED.with(Cell::get);
        drop(reg);
        assert_eq!(SPANS_DROPPED.with(Cell::get) - before, 1);
    }
}
