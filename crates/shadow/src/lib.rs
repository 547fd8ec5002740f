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
//!
//! The allocator guarantees every object in a span lies at a multiple of
//! the span's stride, and `2^shift` divides the stride, so each slot
//! belongs to exactly one object. Large spans use `shift = 12` (one entry
//! per page) — the *variable* ratio that keeps big allocations cheap to
//! register.
//!
//! Entries store an opaque `u64` metadata value (the detector stores a
//! pointer to its per-object record). Zero means "no object".

use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::cell::Cell;
use std::ptr;
use std::sync::Arc;

use dangsan_trace::{EventCode, Trace, TraceLevel, Tracer};
use dangsan_vmem::{Addr, HitCountdown, HEAP_BASE, HEAP_SIZE, PAGE_SHIFT, PAGE_SIZE};

const FANOUT: usize = 1 << 12;
const L1_COUNT: usize = (HEAP_SIZE >> PAGE_SHIFT) as usize / FANOUT;

/// Entries in the per-thread `ptr2obj` translation cache (power of two).
const P2O_SLOTS: usize = 64;

/// One cached (heap page → packed metapagetable entry) translation.
///
/// Validity is a *single* u64 compare: the key packs the filling table's
/// never-reused identity (upper 40 bits) with the heap page index (lower
/// 24 bits — the 64 GiB heap has exactly 2^24 pages), so one equality
/// test proves both "this very table" and "this very page" at once. No
/// generation is needed: leaf entries are written exactly once by
/// [`MetaPageTable::register_span`] (CAS from zero, "spans never change
/// class") and freed only on drop, so a cached packed entry for a live
/// table — which `&self` guarantees — is immutable and can never dangle.
/// Object churn (`set_object`/`clear_object`) mutates the metadata
/// *array* the entry points at, which every lookup re-reads, so cached
/// translations stay exactly as precise as the full walk without any
/// flush on free.
#[derive(Clone, Copy)]
struct P2oSlot {
    /// `table identity << 24 | page index`; identities start at 1, so a
    /// zeroed slot (key 0) can never match.
    key: u64,
    /// The packed (array pointer | shift) leaf entry.
    entry: u64,
}

impl P2oSlot {
    const EMPTY: P2oSlot = P2oSlot { key: 0, entry: 0 };
}

struct ThreadP2o {
    slots: [Cell<P2oSlot>; P2O_SLOTS],
    /// Hits not yet credited, keeping a shared `fetch_add` off the
    /// instrumented-store fast path. Owned by the pre-shifted identity of
    /// the last table that missed on this thread; in the single-live-table
    /// steady state every process has, the attribution is exact (see
    /// [`MetaPageTable::cache_stats`]).
    hits: HitCountdown,
}

thread_local! {
    static P2O: ThreadP2o = const {
        ThreadP2o {
            slots: [const { Cell::new(P2oSlot::EMPTY) }; P2O_SLOTS],
            hits: HitCountdown::new(),
        }
    };
}

/// Table identities are handed out once and never reused, so a stale
/// thread-local entry — from a dropped table or another live one — can
/// never match a key built from a different table's identity.
static NEXT_TABLE_IDENTITY: AtomicU64 = AtomicU64::new(1);

/// Returns a fresh identity, pre-shifted into the upper bits of the
/// packed cache key (see [`P2oSlot`]).
fn fresh_table_identity() -> u64 {
    let id = NEXT_TABLE_IDENTITY.fetch_add(1, Ordering::Relaxed);
    debug_assert!(id < 1 << 40, "table identities exhausted");
    id << 24
}

/// Hit/miss counters for a table's per-thread `ptr2obj` caches (see
/// [`MetaPageTable::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct P2oCacheStats {
    /// Lookups whose leaf entry came from the calling threads' caches.
    pub hits: u64,
    /// Lookups that walked the two metapagetable levels.
    pub misses: u64,
}

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

struct Leaf {
    /// One packed entry per page; 0 = page not registered.
    entries: [AtomicU64; FANOUT],
}

/// The metapagetable covering the simulated heap.
///
/// Thread-safe and lock-free: leaves and metadata arrays are installed with
/// CAS and retired only on drop. Metadata arrays are allocated once per
/// span and reused across the allocator's object reuse, mirroring how the
/// real implementation piggybacks on tcmalloc's span lifetime.
pub struct MetaPageTable {
    l1: Box<[AtomicPtr<Leaf>]>,
    /// Host bytes spent on leaves + metadata arrays (for Figure 11/12).
    shadow_bytes: AtomicU64,
    /// This table's never-reused identity, pre-shifted for key packing
    /// (see [`P2oSlot`]). Immutable for the table's lifetime — the cache
    /// never needs flushing, so freeing an object costs other threads'
    /// warm translations nothing.
    identity: u64,
    /// Runtime kill switch used by the hot-path benchmarks.
    cache_enabled: AtomicBool,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Flight-recorder attach point; shadow remaps (object set/clear,
    /// span registration) are recorded here as Full-level events. The
    /// lookup fast paths never touch it.
    trace: Trace,
}

// SAFETY: all shared state is accessed through atomics; raw pointers are
// installed via CAS, never mutated afterwards, and freed only in `Drop`.
unsafe impl Send for MetaPageTable {}
// SAFETY: as above.
unsafe impl Sync for MetaPageTable {}

impl Default for MetaPageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaPageTable {
    /// Creates an empty metapagetable.
    pub fn new() -> Self {
        MetaPageTable {
            l1: (0..L1_COUNT)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            shadow_bytes: AtomicU64::new(0),
            identity: fresh_table_identity(),
            cache_enabled: AtomicBool::new(true),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            trace: Trace::new(),
        }
    }

    /// Attaches a flight recorder; shadow remaps are recorded from then
    /// on (at [`TraceLevel::Full`]). Once-only: the first tracer wins.
    pub fn set_tracer(&self, tracer: &Arc<Tracer>) {
        self.trace.attach(tracer);
    }

    fn page_index(addr: Addr) -> Option<usize> {
        if !(HEAP_BASE..HEAP_BASE + HEAP_SIZE).contains(&addr) {
            return None;
        }
        Some(((addr - HEAP_BASE) >> PAGE_SHIFT) as usize)
    }

    fn leaf(&self, idx: usize, create: bool) -> Option<&Leaf> {
        let slot = &self.l1[idx];
        let mut cur = slot.load(Ordering::Acquire);
        if cur.is_null() {
            if !create {
                return None;
            }
            // SAFETY: a `Leaf` is an all-atomic struct for which zeroed
            // memory is a valid value; allocated with its own layout.
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
                Ok(_) => {
                    self.shadow_bytes
                        .fetch_add(core::mem::size_of::<Leaf>() as u64, Ordering::Relaxed);
                    cur = fresh;
                }
                Err(winner) => {
                    // SAFETY: `fresh` lost the race and was never shared.
                    unsafe { drop(Box::from_raw(fresh)) };
                    cur = winner;
                }
            }
        }
        // SAFETY: non-null leaves are valid for the table's lifetime.
        Some(unsafe { &*cur })
    }

    /// Registers a span's pages with compression `shift`, allocating each
    /// page's metadata array if not already present. Idempotent: pages that
    /// already carry an array are left untouched (spans never change class,
    /// so the shift never changes).
    pub fn register_span(&self, span_start: Addr, span_pages: u64, shift: u32) {
        debug_assert_eq!(span_start % PAGE_SIZE, 0);
        debug_assert!(shift <= 12);
        let mut fresh_pages = 0u64;
        for p in 0..span_pages {
            let page_addr = span_start + p * PAGE_SIZE;
            let idx = Self::page_index(page_addr).expect("span inside heap");
            let leaf = self.leaf(idx / FANOUT, true).expect("created");
            let slot = &leaf.entries[idx % FANOUT];
            if slot.load(Ordering::Acquire) != 0 {
                continue;
            }
            let slots = (PAGE_SIZE >> shift) as usize;
            let array: Box<[AtomicU64]> = (0..slots).map(|_| AtomicU64::new(0)).collect();
            let raw = Box::into_raw(array) as *mut AtomicU64;
            let packed = pack_entry(raw, shift);
            match slot.compare_exchange(0, packed, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.shadow_bytes
                        .fetch_add(slots as u64 * 8, Ordering::Relaxed);
                    fresh_pages += 1;
                }
                Err(_) => {
                    // Another thread registered the page concurrently.
                    // SAFETY: `raw` was just created from a box of length
                    // `slots` and never shared.
                    unsafe {
                        drop(Box::from_raw(ptr::slice_from_raw_parts_mut(raw, slots)));
                    }
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
            let idx = Self::page_index(addr).expect("object inside heap");
            let leaf = self.leaf(idx / FANOUT, false).expect("span registered");
            let entry = leaf.entries[idx % FANOUT].load(Ordering::Acquire);
            debug_assert_ne!(entry, 0, "page not registered");
            let (array, shift) = unpack_entry(entry);
            let page_base = addr & !(PAGE_SIZE - 1);
            let page_end = page_base + PAGE_SIZE;
            let first_slot = ((addr - page_base) >> shift) as usize;
            let last_byte = end.min(page_end) - 1;
            let last_slot = ((last_byte - page_base) >> shift) as usize;
            for s in first_slot..=last_slot {
                // SAFETY: `array` points at a live metadata array of
                // `PAGE_SIZE >> shift` entries; `s` is below that bound by
                // construction.
                unsafe { (*array.add(s)).store(meta, Ordering::Release) };
            }
            addr = page_end;
        }
    }

    /// Clears the object mapping for `[base, base + len)` (called on free).
    ///
    /// Deliberately does *not* touch the per-thread translation caches:
    /// they memoize the page's packed leaf entry, which is immutable, while
    /// this call zeroes the metadata array behind it — which every lookup
    /// re-reads. A warm cache therefore observes the clear (and any later
    /// reuse of the slots) immediately, at zero cost to other threads.
    pub fn clear_object(&self, base: Addr, len: u64) {
        let span = self.trace.span_start(TraceLevel::Full);
        self.set_slots(base, len, 0);
        self.trace.span_end(span, EventCode::ShadowClear, base, len);
    }

    /// `ptr2obj` (paper §4.3, Figure 5): maps any interior pointer to its
    /// object's metadata value, or `None`.
    ///
    /// The uncached walk is two dependent loads (leaf pointer, packed
    /// entry) plus the metadata-array load. A per-thread direct-mapped
    /// cache memoizes the first two; the array load always happens, which
    /// is what keeps pages holding many small objects — and object
    /// clears — exactly as precise as the full walk.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<u64> {
        let idx = Self::page_index(addr)?;
        let entry = self.entry_for_page(idx)?;
        let (array, shift) = unpack_entry(entry);
        let slot = ((addr & (PAGE_SIZE - 1)) >> shift) as usize;
        // SAFETY: the array has `PAGE_SIZE >> shift` slots and
        // `addr & 0xFFF >> shift` is below that bound.
        let meta = unsafe { (*array.add(slot)).load(Ordering::Acquire) };
        (meta != 0).then_some(meta)
    }

    /// [`Self::lookup`] minus the per-thread cache: the straight two-load
    /// walk, unconditionally. A one-shot resolution — the single `ptr2obj`
    /// of a free or a realloc — touches its entry once, so probing the
    /// cache can only add cost and evict a slot some hot store loop is
    /// using; callers on those paths use this instead.
    #[inline]
    pub fn lookup_cold(&self, addr: Addr) -> Option<u64> {
        let idx = Self::page_index(addr)?;
        let entry = self.entry_walk(idx)?;
        let (array, shift) = unpack_entry(entry);
        let slot = ((addr & (PAGE_SIZE - 1)) >> shift) as usize;
        // SAFETY: the array has `PAGE_SIZE >> shift` slots and
        // `addr & 0xFFF >> shift` is below that bound.
        let meta = unsafe { (*array.add(slot)).load(Ordering::Acquire) };
        (meta != 0).then_some(meta)
    }

    /// Resolves the packed leaf entry for global heap page `idx`, consulting
    /// the calling thread's cache first. The hit path is one u64 compare
    /// against the packed (identity | page) key — no atomic load, no second
    /// branch — which is what lets it beat the two-load walk even when the
    /// walk's cache lines are L1-resident.
    #[inline]
    fn entry_for_page(&self, idx: usize) -> Option<u64> {
        if !self.cache_enabled.load(Ordering::Relaxed) {
            return self.entry_walk(idx);
        }
        let key = self.identity | idx as u64;
        P2O.with(|cache| {
            let slot = cache.slots[idx & (P2O_SLOTS - 1)].get();
            if slot.key == key {
                cache.hits.hit(self.identity, &self.cache_hits);
                Some(slot.entry)
            } else {
                self.fill_slot(cache, idx, key)
            }
        })
    }

    /// The miss path: flush the hit batch, walk, fill the slot. Kept out
    /// of line so the hit path compiles to a handful of instructions.
    #[cold]
    fn fill_slot(&self, cache: &ThreadP2o, idx: usize, key: u64) -> Option<u64> {
        // The batch that starts now is this table's (any foreign remnant
        // is dropped by the flush).
        cache.hits.restart(self.identity, &self.cache_hits);
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let entry = self.entry_walk(idx)?;
        // Unregistered pages (None) are never cached: registration
        // must become visible on the very next lookup.
        cache.slots[idx & (P2O_SLOTS - 1)].set(P2oSlot { key, entry });
        Some(entry)
    }

    /// The uncached two-level walk.
    #[inline]
    fn entry_walk(&self, idx: usize) -> Option<u64> {
        let leaf = self.leaf(idx / FANOUT, false)?;
        let entry = leaf.entries[idx % FANOUT].load(Ordering::Acquire);
        (entry != 0).then_some(entry)
    }

    /// `ptr2obj`-cache hit/miss counters for this table.
    ///
    /// The calling thread's pending hit batch is flushed first, so
    /// single-threaded counts are exact; concurrent threads may each lag
    /// by one unflushed batch. When lookups of *several* live tables
    /// interleave on one thread with no miss in between, a mixed batch is
    /// attributed to the table that started it (hits are accounted at
    /// flush time, not per lookup) — a deliberate, bounded imprecision
    /// that keeps the hit path to four instructions of accounting.
    pub fn cache_stats(&self) -> P2oCacheStats {
        P2O.with(|cache| cache.hits.flush(self.identity, &self.cache_hits));
        P2oCacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Enables or disables the per-thread `ptr2obj` cache at runtime (it
    /// starts enabled). Behaviour is identical either way; the hot-path
    /// benchmarks use this to measure both configurations in one process.
    pub fn set_cache_enabled(&self, on: bool) {
        self.cache_enabled.store(on, Ordering::Relaxed);
    }

    /// Host bytes consumed by the shadow structures.
    pub fn shadow_bytes(&self) -> u64 {
        self.shadow_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for MetaPageTable {
    fn drop(&mut self) {
        for slot in self.l1.iter() {
            let leaf = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if leaf.is_null() {
                continue;
            }
            // SAFETY: exclusive access in drop; leaves own their arrays.
            let leaf = unsafe { Box::from_raw(leaf) };
            for e in leaf.entries.iter() {
                let entry = e.swap(0, Ordering::AcqRel);
                if entry == 0 {
                    continue;
                }
                let (array, shift) = unpack_entry(entry);
                let slots = (PAGE_SIZE >> shift) as usize;
                // SAFETY: arrays were created by `Box::into_raw` with
                // exactly `slots` elements and are freed exactly once here.
                unsafe {
                    drop(Box::from_raw(ptr::slice_from_raw_parts_mut(array, slots)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn register_is_idempotent_and_accounts_bytes() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 2, 3);
        let bytes = t.shadow_bytes();
        assert!(bytes >= 2 * (PAGE_SIZE >> 3) * 8);
        t.register_span(HEAP_BASE, 2, 3);
        assert_eq!(t.shadow_bytes(), bytes, "re-registration allocates nothing");
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
    fn warm_cache_resolves_recycled_page_to_new_object() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 1, 6); // 64-byte slots
        t.set_object(HEAP_BASE, 64, 0x0_1D1);
        // Warm the thread-local cache on this page.
        for _ in 0..10 {
            assert_eq!(t.lookup(HEAP_BASE + 8), Some(0x0_1D1));
        }
        // Free the object and recycle its slots for a new one, as the
        // allocator does when a span's object is reused.
        t.clear_object(HEAP_BASE, 64);
        assert_eq!(t.lookup(HEAP_BASE + 8), None, "freed object resolves");
        t.set_object(HEAP_BASE, 64, 0x0_2E2);
        // A still-warm cache must yield the NEW object's metadata.
        assert_eq!(t.lookup(HEAP_BASE + 8), Some(0x0_2E2));
        assert_eq!(t.lookup(HEAP_BASE + 63), Some(0x0_2E2));
    }

    #[test]
    fn cache_hits_accumulate_and_disable_works() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 1, 4);
        t.set_object(HEAP_BASE, 16, 9);
        for _ in 0..1000 {
            assert_eq!(t.lookup(HEAP_BASE), Some(9));
        }
        let s = t.cache_stats();
        assert!(s.hits >= 990, "repeated lookups should hit: {s:?}");
        assert!(s.misses >= 1);
        t.set_cache_enabled(false);
        for _ in 0..100 {
            assert_eq!(t.lookup(HEAP_BASE), Some(9));
        }
        assert_eq!(t.cache_stats(), s, "disabled cache counts nothing");
    }

    #[test]
    fn clear_object_keeps_other_pages_translations_warm() {
        let t = MetaPageTable::new();
        t.register_span(HEAP_BASE, 2, 6);
        t.set_object(HEAP_BASE, 64, 1); // page 0
        t.set_object(HEAP_BASE + PAGE_SIZE, 64, 2); // page 1
                                                    // Warm both pages' translations, then drain the pending batch so
                                                    // the counters below are exact.
        for _ in 0..10 {
            assert_eq!(t.lookup(HEAP_BASE), Some(1));
            assert_eq!(t.lookup(HEAP_BASE + PAGE_SIZE), Some(2));
        }
        let before = t.cache_stats();
        // Freeing the object on page 0 must not flush page 1's slot: the
        // next lookups are all hits, zero new misses.
        t.clear_object(HEAP_BASE, 64);
        assert_eq!(t.lookup(HEAP_BASE + PAGE_SIZE), Some(2));
        assert_eq!(t.lookup(HEAP_BASE), None, "clear itself is observed");
        let after = t.cache_stats();
        assert_eq!(after.misses, before.misses, "free flushed a translation");
        assert_eq!(after.hits, before.hits + 2);
    }

    #[test]
    fn cache_entries_do_not_leak_across_tables() {
        let a = MetaPageTable::new();
        let b = MetaPageTable::new();
        a.register_span(HEAP_BASE, 1, 4);
        a.set_object(HEAP_BASE, 16, 1);
        assert_eq!(a.lookup(HEAP_BASE), Some(1)); // warm A
        assert_eq!(b.lookup(HEAP_BASE), None, "B has nothing registered");
        b.register_span(HEAP_BASE, 1, 12);
        b.set_object(HEAP_BASE, 16, 2);
        assert_eq!(a.lookup(HEAP_BASE), Some(1));
        assert_eq!(b.lookup(HEAP_BASE), Some(2));
    }

    #[test]
    fn racing_register_same_span_is_safe() {
        use std::sync::Arc;
        let t = Arc::new(MetaPageTable::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                t.register_span(HEAP_BASE, 8, 4);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.set_object(HEAP_BASE + 16, 16, 5);
        assert_eq!(t.lookup(HEAP_BASE + 16), Some(5));
    }
}
