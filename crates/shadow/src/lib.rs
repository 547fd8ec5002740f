//! Variable-compression-ratio memory shadowing — the *pointer-to-object
//! mapper* of DangSan (paper §4.3, Figure 5).
//!
//! DangSan must map an arbitrary (interior) pointer to the metadata of the
//! object it points into, on every instrumented pointer store. Hash tables
//! cannot answer range queries and trees degrade as the heap grows, so the
//! paper uses memory shadowing. Because DangSan needs a full 8-byte
//! metadata pointer per object, a *fixed* compression ratio would explode
//! either memory (fine-grained shadow) or fragmentation (coarse alignment).
//! The solution, taken from METAlloc, is a **metapagetable**:
//!
//! * level 1: one 8-byte entry per 4 KiB page of program memory. Seven
//!   bytes hold a pointer to that page's metadata array, one byte holds the
//!   page's *compression shift*;
//! * level 2: the per-page metadata array, with one 8-byte entry per
//!   `2^shift` bytes of the page, each pointing at the metadata of the
//!   object occupying those bytes.
//!
//! A lookup is two dependent loads:
//! `meta = *(entry.base + ((addr & 0xFFF) >> entry.shift) * 8)`.
//! Here the level-1 entries sit in the leaves of a two-level page
//! directory ([`Dir`]) over the heap segment, so the walk adds one
//! directory load in front: the simulated heap is 64 GiB of sparse
//! address space, not the whole of a process.
//!
//! The allocator guarantees every object in a span lies at a multiple of
//! the span's stride, and `2^shift` divides the stride, so each slot
//! belongs to exactly one object. Large spans use `shift = 12` (one entry
//! per page) — the *variable* ratio that keeps big allocations cheap to
//! register.
//!
//! Entries store an opaque `u64` metadata value (the detector stores a
//! pointer to its per-object record). Zero means "no object".

use core::sync::atomic::{AtomicU64, Ordering};
use std::ptr;
use std::sync::Arc;

use dangsan_trace::{EventCode, Trace, TraceLevel, Tracer};
use dangsan_vmem::{heap_page, Addr, Dir, Zeroed, DIR_FANOUT, PAGE_SIZE};

/// Packs a metadata-array pointer (≤ 56 bits on every supported platform)
/// and a shift into one metapagetable entry, exactly as the paper's Figure 5
/// packs "seven bytes of pointer, one byte of compression ratio".
fn pack_entry(array: *mut AtomicU64, shift: u32) -> u64 {
    let p = array as u64;
    debug_assert_eq!(p >> 56, 0, "host pointers exceed 56 bits");
    p | ((shift as u64) << 56)
}

fn unpack_entry(entry: u64) -> (*mut AtomicU64, u32) {
    (
        (entry & ((1 << 56) - 1)) as *mut AtomicU64,
        (entry >> 56) as u32,
    )
}

/// The length of a page's metadata array at compression `shift`: one
/// slot per `2^shift` bytes.
fn array_slots(shift: u32) -> usize {
    (PAGE_SIZE >> shift) as usize
}

/// One metapagetable leaf: the packed entry of each of [`DIR_FANOUT`]
/// heap pages (0 = page not registered). It owns the metadata arrays its
/// entries point at.
struct Leaf {
    entries: [AtomicU64; DIR_FANOUT],
}

// SAFETY: a leaf is all `AtomicU64`s, for which zero is a valid value.
unsafe impl Zeroed for Leaf {}

impl Drop for Leaf {
    fn drop(&mut self) {
        for entry in &mut self.entries {
            let (array, shift) = unpack_entry(*entry.get_mut());
            if !array.is_null() {
                // SAFETY: `&mut self` excludes every reader, and the array
                // was made by `register_span` as a box of exactly
                // `array_slots(shift)` entries, owned by this entry alone.
                drop(unsafe {
                    Box::from_raw(ptr::slice_from_raw_parts_mut(array, array_slots(shift)))
                });
            }
        }
    }
}

/// The metapagetable covering the simulated heap.
///
/// Thread-safe and lock-free: leaves and metadata arrays are installed with
/// CAS and retired only on drop. Metadata arrays are allocated once per
/// span and reused across the allocator's object reuse, mirroring how the
/// real implementation piggybacks on tcmalloc's span lifetime.
pub struct MetaPageTable {
    leaves: Box<Dir<Leaf>>,
    /// Host bytes spent on leaves + metadata arrays (for Figure 11/12).
    /// Only the install that wins a race counts its bytes.
    shadow_bytes: AtomicU64,
    /// Flight-recorder attach point; shadow remaps (object set/clear,
    /// span registration) are recorded here as Full-level events. The
    /// lookup fast path never touches it.
    trace: Trace,
}

impl Default for MetaPageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaPageTable {
    /// Creates an empty metapagetable.
    pub fn new() -> Self {
        MetaPageTable {
            leaves: Dir::new(),
            shadow_bytes: AtomicU64::new(0),
            trace: Trace::new(),
        }
    }

    /// Attaches a flight recorder; shadow remaps are recorded from then
    /// on (at [`TraceLevel::Full`]). Once-only: the first tracer wins.
    pub fn set_tracer(&self, tracer: &Arc<Tracer>) {
        self.trace.attach(tracer);
    }

    /// The packed entry of the page holding `addr`, if the page is a
    /// registered heap page.
    #[inline]
    fn entry(&self, addr: Addr) -> Option<u64> {
        let (leaf, slot) = heap_page(addr)?;
        let entry = self.leaves.get(leaf)?.entries[slot].load(Ordering::Acquire);
        (entry != 0).then_some(entry)
    }

    /// Registers a span's pages with compression `shift`, allocating each
    /// page's metadata array if not already present. Idempotent: pages that
    /// already carry an array are left untouched (spans never change class,
    /// so the shift never changes).
    pub fn register_span(&self, span_start: Addr, span_pages: u64, shift: u32) {
        debug_assert_eq!(span_start % PAGE_SIZE, 0);
        // A larger shift would leave an empty array that `lookup` reads.
        assert!(shift <= 12, "compression shift {shift} exceeds the page");
        let mut fresh_pages = 0u64;
        for p in 0..span_pages {
            let (leaf, slot) = heap_page(span_start + p * PAGE_SIZE).expect("span inside heap");
            let (leaf, fresh_leaf) = self.leaves.get_or_install(leaf, Leaf::zeroed_box);
            if fresh_leaf {
                self.shadow_bytes
                    .fetch_add(size_of::<Leaf>() as u64, Ordering::Relaxed);
            }
            let entry = &leaf.entries[slot];
            if entry.load(Ordering::Acquire) != 0 {
                continue;
            }
            let slots = array_slots(shift);
            let array: Box<[AtomicU64]> = (0..slots).map(|_| AtomicU64::new(0)).collect();
            let raw = Box::into_raw(array) as *mut AtomicU64;
            let packed = pack_entry(raw, shift);
            match entry.compare_exchange(0, packed, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.shadow_bytes
                        .fetch_add(slots as u64 * 8, Ordering::Relaxed);
                    fresh_pages += 1;
                }
                Err(_) => {
                    // Another thread registered the page concurrently.
                    // SAFETY: `raw` was just made from a box of `slots`
                    // entries and never published.
                    drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(raw, slots)) });
                }
            }
        }
        if fresh_pages > 0 {
            // Only spans that actually materialised shadow pages are
            // events; the idempotent re-registration on every alloc is not.
            self.trace.record(
                TraceLevel::Full,
                EventCode::SpanRegister,
                span_start,
                fresh_pages,
                shift as u64,
            );
        }
    }

    /// `createobj` (paper §4.3): points every shadow slot covered by
    /// `[base, base + len)` at `meta`. The span must have been registered.
    pub fn set_object(&self, base: Addr, len: u64, meta: u64) {
        let span = self.trace.span_start(TraceLevel::Full);
        self.set_slots(base, len, meta);
        self.trace.span_end(span, EventCode::ShadowSet, base, len);
    }

    fn set_slots(&self, base: Addr, len: u64, meta: u64) {
        let mut addr = base;
        let end = base + len.max(1);
        while addr < end {
            let (array, shift) = unpack_entry(self.entry(addr).expect("span registered"));
            let page_base = addr & !(PAGE_SIZE - 1);
            let page_end = page_base + PAGE_SIZE;
            let first_slot = ((addr - page_base) >> shift) as usize;
            let last_byte = end.min(page_end) - 1;
            let last_slot = ((last_byte - page_base) >> shift) as usize;
            // SAFETY: `array` is a live metadata array of
            // `array_slots(shift)` entries, and `last_slot` is below that.
            let slots = unsafe { &*ptr::slice_from_raw_parts(array, array_slots(shift)) };
            for slot in &slots[first_slot..=last_slot] {
                slot.store(meta, Ordering::Release);
            }
            addr = page_end;
        }
    }

    /// Clears the object mapping for `[base, base + len)` (called on free).
    pub fn clear_object(&self, base: Addr, len: u64) {
        let span = self.trace.span_start(TraceLevel::Full);
        self.set_slots(base, len, 0);
        self.trace.span_end(span, EventCode::ShadowClear, base, len);
    }

    /// `ptr2obj` (paper §4.3, Figure 5): maps any interior pointer to its
    /// object's metadata value, or `None` — also for an address outside
    /// the heap segment.
    ///
    /// Inline and uncached: the directory load, the packed-entry load and
    /// the metadata-array load, each dependent on the one before.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<u64> {
        let (array, shift) = unpack_entry(self.entry(addr)?);
        let slot = ((addr & (PAGE_SIZE - 1)) >> shift) as usize;
        // SAFETY: the array has `array_slots(shift)` entries and
        // `(addr & 0xFFF) >> shift` is below that bound.
        let meta = unsafe { (*array.add(slot)).load(Ordering::Acquire) };
        (meta != 0).then_some(meta)
    }

    /// Host bytes consumed by the shadow structures.
    pub fn shadow_bytes(&self) -> u64 {
        self.shadow_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan_vmem::HEAP_BASE;

    #[test]
    fn lookup_on_empty_table_is_none() {
        let t = MetaPageTable::new();
        assert_eq!(t.lookup(HEAP_BASE), None);
        assert_eq!(t.lookup(HEAP_BASE + 123), None);
        assert_eq!(t.lookup(0x1000), None); // outside heap
    }

    #[test]
    fn set_and_lookup_small_object() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 1, 5); // 32-byte slots
        t.set_object(HEAP_BASE + 64, 32, 0xABCD);
        assert_eq!(t.lookup(HEAP_BASE + 64), Some(0xABCD));
        assert_eq!(t.lookup(HEAP_BASE + 95), Some(0xABCD));
        assert_eq!(t.lookup(HEAP_BASE + 63), None);
        assert_eq!(t.lookup(HEAP_BASE + 96), None);
    }

    #[test]
    fn object_spanning_pages() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 4, 12); // large span: one slot per page
        t.set_object(HEAP_BASE, 4 * PAGE_SIZE, 7);
        for off in [0u64, 1, PAGE_SIZE, 2 * PAGE_SIZE + 77, 4 * PAGE_SIZE - 1] {
            assert_eq!(t.lookup(HEAP_BASE + off), Some(7), "offset {off}");
        }
        assert_eq!(t.lookup(HEAP_BASE + 4 * PAGE_SIZE), None);
    }

    #[test]
    fn clear_removes_mapping() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 1, 4);
        t.set_object(HEAP_BASE + 48, 48, 1);
        t.clear_object(HEAP_BASE + 48, 48);
        assert_eq!(t.lookup(HEAP_BASE + 48), None);
    }

    #[test]
    fn neighbouring_objects_do_not_bleed() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 1, 4); // 16-byte slots, e.g. stride 48
        t.set_object(HEAP_BASE, 48, 1);
        t.set_object(HEAP_BASE + 48, 48, 2);
        assert_eq!(t.lookup(HEAP_BASE + 47), Some(1));
        assert_eq!(t.lookup(HEAP_BASE + 48), Some(2));
        t.clear_object(HEAP_BASE, 48);
        assert_eq!(t.lookup(HEAP_BASE), None);
        assert_eq!(t.lookup(HEAP_BASE + 48), Some(2));
    }

    /// The shadow bytes of `pages` pages at `shift` in one leaf: the
    /// leaf, plus one metadata array per page.
    fn one_leaf_bytes(pages: u64, shift: u32) -> u64 {
        size_of::<Leaf>() as u64 + pages * array_slots(shift) as u64 * 8
    }

    #[test]
    fn register_is_idempotent_and_accounts_bytes() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 2, 3);
        assert_eq!(t.shadow_bytes(), one_leaf_bytes(2, 3));
        t.register_span(HEAP_BASE, 2, 3);
        assert_eq!(
            t.shadow_bytes(),
            one_leaf_bytes(2, 3),
            "re-registration allocates nothing"
        );
    }

    #[test]
    fn entry_packing_roundtrip() {
        let array = Box::into_raw(
            (0..4)
                .map(|_| AtomicU64::new(0))
                .collect::<Box<[AtomicU64]>>(),
        ) as *mut AtomicU64;
        let packed = pack_entry(array, 9);
        let (p, s) = unpack_entry(packed);
        assert_eq!(p, array);
        assert_eq!(s, 9);
        // SAFETY: reclaim the test allocation (4 entries).
        unsafe { drop(Box::from_raw(ptr::slice_from_raw_parts_mut(array, 4))) };
    }

    #[test]
    fn concurrent_registration_and_lookup() {
        use std::sync::Arc;
        let t = Arc::new(MetaPageTable::new());
        let mut handles = Vec::new();
        for th in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let span = HEAP_BASE + th * 4 * PAGE_SIZE;
                t.register_span(span, 4, 6);
                for i in 0..64u64 {
                    t.set_object(span + i * 256, 256, th * 100 + i + 1);
                }
                for i in 0..64u64 {
                    assert_eq!(t.lookup(span + i * 256 + 128), Some(th * 100 + i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn recycled_slots_resolve_to_the_new_object() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 1, 6); // 64-byte slots
        t.set_object(HEAP_BASE, 64, 0x0_1D1);
        assert_eq!(t.lookup(HEAP_BASE + 8), Some(0x0_1D1));
        // Free the object and recycle its slots for a new one, as the
        // allocator does when a span's object is reused.
        t.clear_object(HEAP_BASE, 64);
        assert_eq!(t.lookup(HEAP_BASE + 8), None, "freed object resolves");
        t.set_object(HEAP_BASE, 64, 0x0_2E2);
        assert_eq!(t.lookup(HEAP_BASE + 8), Some(0x0_2E2));
        assert_eq!(t.lookup(HEAP_BASE + 63), Some(0x0_2E2));
    }

    #[test]
    fn tables_do_not_share_entries() {
        let a = MetaPageTable::new();
        let b = MetaPageTable::new();
        a.register_span(HEAP_BASE, 1, 4);
        a.set_object(HEAP_BASE, 16, 1);
        assert_eq!(a.lookup(HEAP_BASE), Some(1));
        assert_eq!(b.lookup(HEAP_BASE), None, "B has nothing registered");
        b.register_span(HEAP_BASE, 1, 12);
        b.set_object(HEAP_BASE, 16, 2);
        assert_eq!(a.lookup(HEAP_BASE), Some(1));
        assert_eq!(b.lookup(HEAP_BASE), Some(2));
    }

    #[test]
    fn racing_register_same_span_is_safe() {
        use std::sync::{Arc, Barrier};
        let t = Arc::new(MetaPageTable::new());
        let start = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (t, start) = (Arc::clone(&t), Arc::clone(&start));
            handles.push(std::thread::spawn(move || {
                start.wait();
                t.register_span(HEAP_BASE, 8, 4);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every lost race, for the leaf or a page's array, counts nothing.
        assert_eq!(t.shadow_bytes(), one_leaf_bytes(8, 4));
        t.set_object(HEAP_BASE + 16, 16, 5);
        assert_eq!(t.lookup(HEAP_BASE + 16), Some(5));
    }
}
