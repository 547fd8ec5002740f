//! Detector statistics — the counters behind the paper's Table 1.
//!
//! The counters hit on every instrumented store (`# ptrs`, `# dup`, …)
//! are batched per thread: a locked `fetch_add` on a shared cache line
//! costs more than the rest of the registration fast path combined, so
//! each thread accumulates into a private slab of single-writer atomics
//! (plain load + store — uncontended, no RMW). Slabs register with their
//! `Stats` instance, and `snapshot()` sums the shared totals plus every
//! live slab under a mutex, so totals are exact for the counting thread
//! itself and for any reader ordered after the counting (a `join` or the
//! end of a `thread::scope`). Nothing depends on TLS-destructor timing —
//! a scoped thread's destructors can run *after* `scope` returns, so a
//! flush-on-exit scheme would race with the post-join reader; the
//! destructor here only retires the slab to bound memory.

use core::sync::atomic::{AtomicU64, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, Weak};

/// Number of hot (per-store or per-free) counters batched per thread.
const HOT_COUNTERS: usize = 13;

/// Index of one hot counter in the per-thread batch.
#[derive(Debug, Clone, Copy)]
pub enum Hot {
    /// `# ptrs` — pointer registrations that resolved to a tracked object.
    PtrsRegistered = 0,
    /// `# dup` — registrations suppressed by lookback/compression/hash.
    DupPtrs = 1,
    /// Log entries that ended up sharing a compressed slot (Figure 8 wins).
    CompressedMerges = 2,
    /// `registerptr` calls answered by the per-thread caches.
    LogCacheHits = 3,
    /// `registerptr` calls that took the uncached walk while caches were on.
    LogCacheMisses = 4,
    /// Locations drained from all log tiers at free time, duplicates
    /// included (the size of the invalidation walk before dedup).
    FreeLocsWalked = 5,
    /// Distinct vmem pages the free path resolved (each translated once).
    FreePagesTouched = 6,
    /// Drained locations discarded as duplicates before translation
    /// (cross-thread repeats plus same-thread repeats the lookback
    /// window missed).
    FreeDupLocs = 7,
    /// Frees that drained no locations at all.
    FreeHistEmpty = 8,
    /// Frees that drained 1–8 locations (embedded tier only).
    FreeHistSmall = 9,
    /// Frees that drained 9–64 locations.
    FreeHistMedium = 10,
    /// Frees that drained 65–512 locations.
    FreeHistLarge = 11,
    /// Frees that drained more than 512 locations.
    FreeHistHuge = 12,
}

impl Hot {
    /// The free-size histogram bucket for a free that drained `walked`
    /// locations.
    pub fn free_hist_bucket(walked: u64) -> Hot {
        match walked {
            0 => Hot::FreeHistEmpty,
            1..=8 => Hot::FreeHistSmall,
            9..=64 => Hot::FreeHistMedium,
            65..=512 => Hot::FreeHistLarge,
            _ => Hot::FreeHistHuge,
        }
    }
}

/// One thread's hot counts for one `Stats` instance. Only the owning
/// thread writes (plain load + store, never an RMW), so the atomics are
/// uncontended; any thread may *read* them through the registry.
#[derive(Debug, Default)]
struct BatchSlab {
    counts: [AtomicU64; HOT_COUNTERS],
}

/// The shared accumulation target for the hot counters. `Arc`ed so a
/// thread-local batch can hold a `Weak` to it and retire its slab on
/// thread exit without keeping a dropped detector's stats alive.
#[derive(Debug, Default)]
struct HotShared {
    /// Totals handed over by retired slabs (exited or retargeted threads).
    retired: [AtomicU64; HOT_COUNTERS],
    /// Live per-thread slabs; `snapshot()` sums these under the lock.
    live: Mutex<Vec<Arc<BatchSlab>>>,
}

/// Identifies `HotShared` instances; ids are never reused, so a stale
/// thread-local batch can never alias a new detector's stats.
static NEXT_STATS_ID: AtomicU64 = AtomicU64::new(1);

/// The calling thread's current batch: which `Stats` it counts for and
/// the slab it counts into.
struct HotBatch {
    /// `Stats::hot_id` of the instance the slab belongs to; 0 = none.
    id: Cell<u64>,
    /// The registered slab, kept alive by the `Arc`; the raw pointer is a
    /// borrow of it so the bump path skips the `RefCell` flag dance.
    slab: Cell<*const BatchSlab>,
    hold: RefCell<Option<(Weak<HotShared>, Arc<BatchSlab>)>>,
}

impl HotBatch {
    /// Hands the slab's counts over to its `HotShared` (if still alive)
    /// and deregisters it. Holding the registry lock across the handover
    /// keeps a concurrent `snapshot()` from seeing the counts 0 or 2
    /// times — it sees the slab in `live` or its totals in `retired`.
    fn retire(&self) {
        self.id.set(0);
        self.slab.set(core::ptr::null());
        if let Some((target, slab)) = self.hold.borrow_mut().take() {
            if let Some(shared) = target.upgrade() {
                let mut live = shared.live.lock().unwrap();
                live.retain(|s| !Arc::ptr_eq(s, &slab));
                for i in 0..HOT_COUNTERS {
                    let n = slab.counts[i].load(Ordering::Relaxed);
                    if n > 0 {
                        shared.retired[i].fetch_add(n, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

impl Drop for HotBatch {
    fn drop(&mut self) {
        // Thread exit: retire the slab so the registry doesn't grow with
        // thread churn. Exactness never depends on this running at any
        // particular time — the counts stay readable while registered.
        self.retire();
    }
}

thread_local! {
    static HOT_BATCH: HotBatch = const {
        HotBatch {
            id: Cell::new(0),
            slab: Cell::new(core::ptr::null()),
            hold: RefCell::new(None),
        }
    };
}

/// Monotonic counters maintained by a detector. Field names follow the
/// columns of Table 1 ("Statistics for SPEC CPU2006").
#[derive(Debug)]
pub struct Stats {
    /// `# obj alloc` — objects registered with the detector.
    pub objects_allocated: AtomicU64,
    /// Objects freed (and their pointers invalidated).
    pub objects_freed: AtomicU64,
    /// `# hashtable` — hash tables allocated as log fallback. Counts
    /// allocations, like `indirect_blocks`: a lifetime that takes its
    /// log's parked spare table back is not counted again.
    pub hashtables: AtomicU64,
    /// `# inval` — pointers actually rewritten at free time.
    pub ptrs_invalidated: AtomicU64,
    /// `# stale` — logged locations that no longer referenced the object.
    pub stale_ptrs: AtomicU64,
    /// Locations skipped because their memory was unmapped (the simulated
    /// "catch SIGSEGV and skip" path of §4.4).
    pub sigsegv_skips: AtomicU64,
    /// Per-thread logs created (lock-free list insertions).
    pub logs_created: AtomicU64,
    /// Indirect (overflow) log blocks allocated.
    pub indirect_blocks: AtomicU64,
    /// Frees whose invalidation sweep was enqueued on the deferred
    /// quarantine queue instead of running inline.
    pub frees_deferred: AtomicU64,
    /// Deferred sweeps executed inline by a freeing thread because the
    /// quarantine hit its byte/object cap (backpressure).
    pub sweeps_backpressure: AtomicU64,
    /// Deferred sweeps a helper thread stole from a non-home shard.
    pub sweep_steals: AtomicU64,
    /// Page-wise sub-tasks spawned beyond the first for large sweeps.
    pub sweep_splits: AtomicU64,
    /// Allocations routed to the Thin tier by the site policy.
    pub routed_thin: AtomicU64,
    /// Allocations routed to the Hardened tier by the site policy.
    pub routed_hardened: AtomicU64,
    /// Thin-routed frees that completed on the epoch-only fast path
    /// (empty log chain, no sweep machinery).
    pub frees_thin: AtomicU64,
    /// Thin objects promoted to Standard by a `registerptr` (the lazy
    /// upgrade that keeps routing detection-safe).
    pub thin_promotions: AtomicU64,
    /// Sites demoted out of Thin routing (promotion or a non-empty
    /// chain found at free).
    pub site_demotions: AtomicU64,
    /// Swept Hardened blocks pinned before allocator reuse.
    pub hardened_pins: AtomicU64,
    /// The per-store counters (see [`Hot`]), batched per thread.
    hot: Arc<HotShared>,
    /// Never-reused identity of `hot` for the thread-local batches.
    hot_id: u64,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            objects_allocated: AtomicU64::new(0),
            objects_freed: AtomicU64::new(0),
            hashtables: AtomicU64::new(0),
            ptrs_invalidated: AtomicU64::new(0),
            stale_ptrs: AtomicU64::new(0),
            sigsegv_skips: AtomicU64::new(0),
            logs_created: AtomicU64::new(0),
            indirect_blocks: AtomicU64::new(0),
            frees_deferred: AtomicU64::new(0),
            sweeps_backpressure: AtomicU64::new(0),
            sweep_steals: AtomicU64::new(0),
            sweep_splits: AtomicU64::new(0),
            routed_thin: AtomicU64::new(0),
            routed_hardened: AtomicU64::new(0),
            frees_thin: AtomicU64::new(0),
            thin_promotions: AtomicU64::new(0),
            site_demotions: AtomicU64::new(0),
            hardened_pins: AtomicU64::new(0),
            hot: Arc::new(HotShared::default()),
            hot_id: NEXT_STATS_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// A plain-old-data copy of [`Stats`], cheap to store and compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`Stats::objects_allocated`].
    pub objects_allocated: u64,
    /// See [`Stats::objects_freed`].
    pub objects_freed: u64,
    /// See [`Stats::hashtables`].
    pub hashtables: u64,
    /// See [`Hot::PtrsRegistered`].
    pub ptrs_registered: u64,
    /// See [`Stats::ptrs_invalidated`].
    pub ptrs_invalidated: u64,
    /// See [`Stats::stale_ptrs`].
    pub stale_ptrs: u64,
    /// See [`Hot::DupPtrs`].
    pub dup_ptrs: u64,
    /// See [`Stats::sigsegv_skips`].
    pub sigsegv_skips: u64,
    /// See [`Stats::logs_created`].
    pub logs_created: u64,
    /// See [`Stats::indirect_blocks`].
    pub indirect_blocks: u64,
    /// See [`Hot::CompressedMerges`].
    pub compressed_merges: u64,
    /// See [`Hot::LogCacheHits`].
    pub log_cache_hits: u64,
    /// See [`Hot::LogCacheMisses`].
    pub log_cache_misses: u64,
    /// Software-TLB hits in the underlying address space (filled in by
    /// [`crate::DangSan::stats`]; zero for detectors without one).
    pub tlb_hits: u64,
    /// Software-TLB misses in the underlying address space.
    pub tlb_misses: u64,
    /// Per-thread `ptr2obj` cache hits in the metapagetable (filled in by
    /// [`crate::DangSan::stats`]).
    pub ptr2obj_cache_hits: u64,
    /// Per-thread `ptr2obj` cache misses in the metapagetable.
    pub ptr2obj_cache_misses: u64,
    /// See [`Hot::FreeLocsWalked`].
    pub free_locs_walked: u64,
    /// See [`Hot::FreePagesTouched`].
    pub free_pages_touched: u64,
    /// See [`Hot::FreeDupLocs`].
    pub free_dup_locs: u64,
    /// See [`Stats::frees_deferred`].
    pub frees_deferred: u64,
    /// See [`Stats::sweeps_backpressure`].
    pub sweeps_backpressure: u64,
    /// See [`Stats::sweep_steals`].
    pub sweep_steals: u64,
    /// See [`Stats::sweep_splits`].
    pub sweep_splits: u64,
    /// See [`Stats::routed_thin`].
    pub routed_thin: u64,
    /// See [`Stats::routed_hardened`].
    pub routed_hardened: u64,
    /// See [`Stats::frees_thin`].
    pub frees_thin: u64,
    /// See [`Stats::thin_promotions`].
    pub thin_promotions: u64,
    /// See [`Stats::site_demotions`].
    pub site_demotions: u64,
    /// See [`Stats::hardened_pins`].
    pub hardened_pins: u64,
    /// Highest sweep-queue depth (jobs) each of the 4 shards ever saw
    /// (filled in by [`crate::DangSan::stats`]; zeros without a queue).
    pub sweep_shard_peaks: [u64; 4],
    /// Per-free histogram of locations drained: buckets 0, 1–8, 9–64,
    /// 65–512, >512 (see [`Hot::FreeHistEmpty`] and friends). Sums to
    /// `objects_freed` for frees that went through the walk.
    pub free_locs_hist: [u64; 5],
}

impl Stats {
    /// Takes a consistent-enough snapshot (counters are independent).
    ///
    /// Hot-counter totals sum the retired counts and every live slab, so
    /// they are exact for single-threaded histories and for any reader
    /// ordered after the counting — a `join`, or `thread::scope` ending
    /// (which orders the spawned closures before the scope's return even
    /// though the threads' TLS destructors may still be pending).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut hot = [0u64; HOT_COUNTERS];
        {
            let live = self.hot.live.lock().unwrap();
            for (i, h) in hot.iter_mut().enumerate() {
                *h = self.hot.retired[i].load(Ordering::Relaxed);
                for slab in live.iter() {
                    *h += slab.counts[i].load(Ordering::Relaxed);
                }
            }
        }
        let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let h = |i: Hot| hot[i as usize];
        StatsSnapshot {
            objects_allocated: l(&self.objects_allocated),
            objects_freed: l(&self.objects_freed),
            hashtables: l(&self.hashtables),
            ptrs_registered: h(Hot::PtrsRegistered),
            ptrs_invalidated: l(&self.ptrs_invalidated),
            stale_ptrs: l(&self.stale_ptrs),
            dup_ptrs: h(Hot::DupPtrs),
            sigsegv_skips: l(&self.sigsegv_skips),
            logs_created: l(&self.logs_created),
            indirect_blocks: l(&self.indirect_blocks),
            compressed_merges: h(Hot::CompressedMerges),
            log_cache_hits: h(Hot::LogCacheHits),
            log_cache_misses: h(Hot::LogCacheMisses),
            // The memory-layer counters live in the address space and the
            // metapagetable; detectors that own those fill them in.
            tlb_hits: 0,
            tlb_misses: 0,
            ptr2obj_cache_hits: 0,
            ptr2obj_cache_misses: 0,
            free_locs_walked: h(Hot::FreeLocsWalked),
            free_pages_touched: h(Hot::FreePagesTouched),
            free_dup_locs: h(Hot::FreeDupLocs),
            frees_deferred: l(&self.frees_deferred),
            sweeps_backpressure: l(&self.sweeps_backpressure),
            sweep_steals: l(&self.sweep_steals),
            sweep_splits: l(&self.sweep_splits),
            routed_thin: l(&self.routed_thin),
            routed_hardened: l(&self.routed_hardened),
            frees_thin: l(&self.frees_thin),
            thin_promotions: l(&self.thin_promotions),
            site_demotions: l(&self.site_demotions),
            hardened_pins: l(&self.hardened_pins),
            // The queue owner fills these in (see the field docs).
            sweep_shard_peaks: [0; 4],
            free_locs_hist: [
                h(Hot::FreeHistEmpty),
                h(Hot::FreeHistSmall),
                h(Hot::FreeHistMedium),
                h(Hot::FreeHistLarge),
                h(Hot::FreeHistHuge),
            ],
        }
    }

    /// Relaxed increment helper for the cold (free-path) counters.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed bulk-add twin of [`Stats::bump`]; skips the RMW entirely
    /// for the common zero delta (e.g. a batch pop that stole nothing).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        if n != 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Runs `f` with the calling thread's slab for this instance,
    /// registering one (and retiring any previous target's) first.
    #[inline]
    fn with_batch(&self, f: impl FnOnce(&BatchSlab)) {
        HOT_BATCH.with(|b| {
            if b.id.get() != self.hot_id {
                // First count for a different detector: hand the previous
                // one its counts back, then register a fresh slab here.
                b.retire();
                let slab = Arc::new(BatchSlab::default());
                self.hot.live.lock().unwrap().push(Arc::clone(&slab));
                b.slab.set(Arc::as_ptr(&slab));
                *b.hold.borrow_mut() = Some((Arc::downgrade(&self.hot), slab));
                b.id.set(self.hot_id);
            }
            // SAFETY: `id == hot_id` implies `slab` points into the Arc in
            // `hold` (the two are only ever set/cleared together), which
            // pins the slab for the duration of the call.
            f(unsafe { &*b.slab.get() });
        });
    }

    /// Increments a hot (store-path) counter through the calling thread's
    /// slab: an uncontended load + store on a thread-private line instead
    /// of a locked read-modify-write on a line shared with every thread.
    #[inline]
    pub fn bump_hot(&self, which: Hot) {
        self.with_batch(|s| {
            let c = &s.counts[which as usize];
            c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        });
    }

    /// Increments two hot counters in one batch access (the cached
    /// registration path counts a registration plus a cache hit or miss
    /// per store; one thread-local round trip covers both).
    #[inline]
    pub fn bump_hot2(&self, a: Hot, b: Hot) {
        self.with_batch(|s| {
            for which in [a, b] {
                let c = &s.counts[which as usize];
                c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            }
        });
    }

    /// Increments three hot counters in one batch access (the cached
    /// registration fast path counts a registration, a duplicate and a
    /// cache hit per store; one thread-local round trip covers all three).
    #[inline]
    pub fn bump_hot3(&self, a: Hot, b: Hot, c: Hot) {
        self.with_batch(|s| {
            for which in [a, b, c] {
                let c = &s.counts[which as usize];
                c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            }
        });
    }

    /// Adds `deltas` to hot counters in one batch access — the free path
    /// accounts a whole invalidation walk (locations drained, pages
    /// touched, duplicates dropped, histogram bucket) with a single
    /// thread-local round trip. Zero deltas are skipped.
    #[inline]
    pub fn bump_hot_by(&self, deltas: &[(Hot, u64)]) {
        self.with_batch(|s| {
            for &(which, n) in deltas {
                if n > 0 {
                    let c = &s.counts[which as usize];
                    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
                }
            }
        });
    }
}

impl StatsSnapshot {
    /// Copy with the cache-effectiveness diagnostics zeroed, leaving only
    /// the behavioural (Table 1) counters.
    ///
    /// The hot-path caches are correctness-transparent, but their hit/miss
    /// *split* depends on where object metadata happens to be allocated
    /// (the cache slot index hashes the metadata address), so it is not
    /// stable across detector instances. Tests asserting two detector
    /// histories are behaviourally identical should compare this.
    pub fn behavioural(mut self) -> Self {
        self.log_cache_hits = 0;
        self.log_cache_misses = 0;
        self.tlb_hits = 0;
        self.tlb_misses = 0;
        self.ptr2obj_cache_hits = 0;
        self.ptr2obj_cache_misses = 0;
        // Sweep scheduling (deferred vs inline, steals, splits) is a
        // placement choice, not behaviour: the invalidation outcome is
        // identical whichever thread runs the sweep.
        self.frees_deferred = 0;
        self.sweeps_backpressure = 0;
        self.sweep_steals = 0;
        self.sweep_splits = 0;
        // Routing is a work-placement choice too: Thin/Standard/Hardened
        // change *how* a free is executed, never which pointers get
        // invalidated. The differential property tests pin this by
        // comparing behavioural snapshots across routing modes.
        self.routed_thin = 0;
        self.routed_hardened = 0;
        self.frees_thin = 0;
        self.thin_promotions = 0;
        self.site_demotions = 0;
        self.hardened_pins = 0;
        self.sweep_shard_peaks = [0; 4];
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = Stats::default();
        s.bump_hot(Hot::PtrsRegistered);
        s.bump_hot(Hot::PtrsRegistered);
        s.bump_hot(Hot::DupPtrs);
        let snap = s.snapshot();
        assert_eq!(snap.ptrs_registered, 2);
        assert_eq!(snap.dup_ptrs, 1);
        assert_eq!(snap.ptrs_invalidated, 0);
    }

    #[test]
    fn hot_counts_survive_detector_switch_and_scope_exit() {
        let a = Stats::default();
        let b = Stats::default();
        a.bump_hot(Hot::DupPtrs);
        b.bump_hot(Hot::DupPtrs); // switches the batch, retiring `a`'s slab
        b.bump_hot(Hot::DupPtrs);
        assert_eq!(a.snapshot().dup_ptrs, 1);
        assert_eq!(b.snapshot().dup_ptrs, 2);

        // Exactness right after `scope` returns, even though the spawned
        // thread's TLS destructors may not have run yet: the slab stays
        // registered and readable, so no exit-time flush is needed.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..100 {
                    a.bump_hot(Hot::PtrsRegistered);
                }
            });
        });
        assert_eq!(a.snapshot().ptrs_registered, 100);
    }

    #[test]
    fn bulk_bumps_and_histogram_buckets() {
        let s = Stats::default();
        s.bump_hot_by(&[
            (Hot::FreeLocsWalked, 70),
            (Hot::FreePagesTouched, 3),
            (Hot::FreeDupLocs, 0), // skipped, not stored
            (Hot::free_hist_bucket(70), 1),
        ]);
        s.bump_hot_by(&[(Hot::free_hist_bucket(0), 1)]);
        let snap = s.snapshot();
        assert_eq!(snap.free_locs_walked, 70);
        assert_eq!(snap.free_pages_touched, 3);
        assert_eq!(snap.free_dup_locs, 0);
        assert_eq!(snap.free_locs_hist, [1, 0, 0, 1, 0]);
        // Bucket boundaries.
        for (walked, bucket) in [
            (1u64, 1usize),
            (8, 1),
            (9, 2),
            (64, 2),
            (65, 3),
            (512, 3),
            (513, 4),
        ] {
            let t = Stats::default();
            t.bump_hot_by(&[(Hot::free_hist_bucket(walked), 1)]);
            let mut expect = [0u64; 5];
            expect[bucket] = 1;
            assert_eq!(t.snapshot().free_locs_hist, expect, "walked={walked}");
        }
    }

    #[test]
    fn pending_counts_for_a_dropped_stats_are_discarded() {
        let a = Stats::default();
        a.bump_hot(Hot::DupPtrs);
        drop(a);
        // Retiring the slab of a dead instance must not crash; counting
        // for a new instance retargets cleanly.
        let b = Stats::default();
        b.bump_hot(Hot::DupPtrs);
        assert_eq!(b.snapshot().dup_ptrs, 1);
    }
}
