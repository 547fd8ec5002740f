//! Detector statistics — the counters behind the paper's Table 1.
//!
//! Every counter is counted the way DangSan tracks pointers (§4.4): with
//! no shared read-modify-write. A locked `fetch_add` on a line every
//! thread writes costs more than the rest of the registration fast path
//! combined, and a malloc or free that bumps one stops scaling. So each
//! thread counts into a private slab of single-writer atomics (plain
//! load + store, never an RMW), one slab per `Stats` instance it counts
//! for, bound to it through the stack's one per-thread binding
//! ([`dangsan_trace::binding`]). `snapshot()` sums the retired totals plus
//! every registered slab under the registry lock. Totals are therefore
//! exact for the counting thread itself and for any reader ordered after
//! the counting (a `join` or the end of a `thread::scope`).
//!
//! A slab retires — folds its counts into the retired totals, under the
//! registry lock — when its thread starts counting for another instance
//! and at thread exit; a count made after the thread's slab was torn down
//! (from a later TLS destructor) goes through a slab of its own that
//! retires at once.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dangsan_trace::{Binding, Owner, Registry};

/// One counter in the per-thread slab.
#[derive(Debug, Clone, Copy)]
pub enum Counter {
    /// `# obj alloc` — objects registered with the detector.
    ObjectsAllocated,
    /// Objects freed (and their pointers invalidated).
    ObjectsFreed,
    /// Hash tables host-allocated for the hash tier: by a promotion when
    /// every table pool is empty, or by a grow when the pool of twice the
    /// size is. A table taken from a pool is not counted again.
    Hashtables,
    /// `# hashtable` — promotions of a log lifetime to the hash tier
    /// (its indirect block filled), whether the table is fresh or pooled.
    HashPromotions,
    /// `# ptrs` — pointer registrations that resolved to a tracked object.
    PtrsRegistered,
    /// `# inval` — pointers actually rewritten at free time.
    PtrsInvalidated,
    /// `# stale` — logged locations that no longer referenced the object.
    StalePtrs,
    /// `# dup` — registrations suppressed by lookback/compression/hash.
    DupPtrs,
    /// Locations skipped because their memory was unmapped (the simulated
    /// "catch SIGSEGV and skip" path of §4.4).
    SigsegvSkips,
    /// Per-thread logs created (lock-free list insertions).
    LogsCreated,
    /// Indirect (overflow) log blocks allocated.
    IndirectBlocks,
    /// Log entries that ended up sharing a compressed slot (Figure 8 wins).
    CompressedMerges,
    /// Locations drained from all log tiers at free time, duplicates
    /// included (the size of the invalidation walk before dedup).
    FreeLocsWalked,
    /// Distinct vmem pages the free path resolved (each translated once).
    FreePagesTouched,
    /// Drained locations discarded as duplicates before translation
    /// (cross-thread repeats plus same-thread repeats the lookback
    /// window missed).
    FreeDupLocs,
    /// Frees whose invalidation sweep was enqueued on the deferred
    /// quarantine queue instead of running inline.
    FreesDeferred,
    /// Deferred sweeps executed inline by a freeing thread because the
    /// quarantine hit its byte/object cap (backpressure).
    SweepsBackpressure,
    /// Backpressure-batch jobs a freeing thread took from a shard other
    /// than its home shard (its own held fewer than a batch).
    SweepSteals,
    /// Frees that drained no locations at all.
    FreeHistEmpty,
    /// Frees that drained 1–8 locations (embedded tier only).
    FreeHistSmall,
    /// Frees that drained 9–64 locations.
    FreeHistMedium,
    /// Frees that drained 65–512 locations.
    FreeHistLarge,
    /// Frees that drained more than 512 locations (the last counter).
    FreeHistHuge,
}

/// Number of counters in a slab.
const COUNTERS: usize = Counter::FreeHistHuge as usize + 1;

impl Counter {
    /// The free-size histogram bucket for a free that drained `walked`
    /// locations.
    pub fn free_hist_bucket(walked: u64) -> Counter {
        match walked {
            0 => Counter::FreeHistEmpty,
            1..=8 => Counter::FreeHistSmall,
            9..=64 => Counter::FreeHistMedium,
            65..=512 => Counter::FreeHistLarge,
            _ => Counter::FreeHistHuge,
        }
    }
}

/// One thread's counts for one `Stats` instance. Only the owning thread
/// writes (plain load + store, never an RMW), so the atomics are
/// uncontended; any thread may *read* them through the registry.
#[derive(Debug, Default)]
struct Slab {
    counts: [AtomicU64; COUNTERS],
}

impl Slab {
    #[inline(always)]
    fn add(&self, which: Counter, n: u64) {
        let c = &self.counts[which as usize];
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// A `Stats` instance's slabs and the totals retired slabs handed over.
#[derive(Debug, Default)]
struct Counts {
    registry: Registry<Slab>,
    /// Added to only under the registry lock, by retiring slabs (off the
    /// count path, so these RMWs cost the counting threads nothing).
    retired: [AtomicU64; COUNTERS],
}

impl Owner for Counts {
    type State = Slab;
    type Local = ();

    fn registry(&self) -> &Registry<Slab> {
        &self.registry
    }

    fn new_state(&self) -> Slab {
        Slab::default()
    }

    fn retire(&self, slab: &Slab, _: &mut ()) {
        for (total, n) in self.retired.iter().zip(&slab.counts) {
            total.fetch_add(n.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

thread_local! {
    static SLABS: Binding<Counts> = const { Binding::new() };
}

/// Monotonic counters maintained by a detector, one [`Counter`] per
/// column of Table 1 ("Statistics for SPEC CPU2006") plus the sweep and
/// free-shape diagnostics.
#[derive(Debug, Default)]
pub struct Stats {
    counts: Arc<Counts>,
}

/// A plain-old-data copy of [`Stats`], cheap to store and compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`Counter::ObjectsAllocated`].
    pub objects_allocated: u64,
    /// See [`Counter::ObjectsFreed`].
    pub objects_freed: u64,
    /// See [`Counter::Hashtables`].
    pub hashtables: u64,
    /// See [`Counter::HashPromotions`].
    pub hash_promotions: u64,
    /// See [`Counter::PtrsRegistered`].
    pub ptrs_registered: u64,
    /// See [`Counter::PtrsInvalidated`].
    pub ptrs_invalidated: u64,
    /// See [`Counter::StalePtrs`].
    pub stale_ptrs: u64,
    /// See [`Counter::DupPtrs`].
    pub dup_ptrs: u64,
    /// See [`Counter::SigsegvSkips`].
    pub sigsegv_skips: u64,
    /// See [`Counter::LogsCreated`].
    pub logs_created: u64,
    /// See [`Counter::IndirectBlocks`].
    pub indirect_blocks: u64,
    /// See [`Counter::CompressedMerges`].
    pub compressed_merges: u64,
    /// Always zero: `registerptr` walks the object's log list on every
    /// call, with no per-thread log cache in front. Kept while the
    /// `e2ebench` benchmark's traced `core.log_cache_hit_rate` row still
    /// reads it.
    pub log_cache_hits: u64,
    /// Always zero, like [`Self::log_cache_hits`].
    pub log_cache_misses: u64,
    /// Always zero: every word access walks the address space's page
    /// directory, with no software TLB in front. Kept while the
    /// `e2ebench` benchmark's traced `vmem.tlb_hit_rate` row still reads
    /// it.
    pub tlb_hits: u64,
    /// Always zero, like [`Self::tlb_hits`].
    pub tlb_misses: u64,
    /// Always zero: the metapagetable's `ptr2obj` walk is inline and has
    /// no per-thread cache to hit. Kept while the `e2ebench` benchmark's
    /// traced `shadow.p2o_hit_rate` row still reads it.
    pub ptr2obj_cache_hits: u64,
    /// Always zero, like [`Self::ptr2obj_cache_hits`].
    pub ptr2obj_cache_misses: u64,
    /// See [`Counter::FreeLocsWalked`].
    pub free_locs_walked: u64,
    /// See [`Counter::FreePagesTouched`].
    pub free_pages_touched: u64,
    /// See [`Counter::FreeDupLocs`].
    pub free_dup_locs: u64,
    /// See [`Counter::FreesDeferred`].
    pub frees_deferred: u64,
    /// See [`Counter::SweepsBackpressure`].
    pub sweeps_backpressure: u64,
    /// See [`Counter::SweepSteals`].
    pub sweep_steals: u64,
    /// Highest sweep-queue depth (jobs) each of the 4 shards ever saw
    /// (filled in by `DangSan`'s [`crate::Detector::stats`]; zeros without a queue).
    pub sweep_shard_peaks: [u64; 4],
    /// Per-free histogram of locations drained: buckets 0, 1–8, 9–64,
    /// 65–512, >512 (see [`Counter::FreeHistEmpty`] and friends). Sums to
    /// `objects_freed` once every deferred sweep has retired.
    pub free_locs_hist: [u64; 5],
}

impl Stats {
    /// Takes a consistent-enough snapshot (counters are independent).
    ///
    /// Totals sum the retired counts and every live slab, so they are
    /// exact for single-threaded histories and for any reader ordered
    /// after the counting — a `join`, or `thread::scope` ending (which
    /// orders the spawned closures before the scope's return even though
    /// the threads' TLS destructors may still be pending).
    pub fn snapshot(&self) -> StatsSnapshot {
        let c = self.counts.registry.read(|slabs| {
            let mut c = self
                .counts
                .retired
                .each_ref()
                .map(|n| n.load(Ordering::Relaxed));
            for slab in slabs {
                for (total, n) in c.iter_mut().zip(&slab.counts) {
                    *total += n.load(Ordering::Relaxed);
                }
            }
            c
        });
        let n = |which: Counter| c[which as usize];
        StatsSnapshot {
            objects_allocated: n(Counter::ObjectsAllocated),
            objects_freed: n(Counter::ObjectsFreed),
            hashtables: n(Counter::Hashtables),
            hash_promotions: n(Counter::HashPromotions),
            ptrs_registered: n(Counter::PtrsRegistered),
            ptrs_invalidated: n(Counter::PtrsInvalidated),
            stale_ptrs: n(Counter::StalePtrs),
            dup_ptrs: n(Counter::DupPtrs),
            sigsegv_skips: n(Counter::SigsegvSkips),
            logs_created: n(Counter::LogsCreated),
            indirect_blocks: n(Counter::IndirectBlocks),
            compressed_merges: n(Counter::CompressedMerges),
            log_cache_hits: 0,
            log_cache_misses: 0,
            tlb_hits: 0,
            tlb_misses: 0,
            ptr2obj_cache_hits: 0,
            ptr2obj_cache_misses: 0,
            free_locs_walked: n(Counter::FreeLocsWalked),
            free_pages_touched: n(Counter::FreePagesTouched),
            free_dup_locs: n(Counter::FreeDupLocs),
            frees_deferred: n(Counter::FreesDeferred),
            sweeps_backpressure: n(Counter::SweepsBackpressure),
            sweep_steals: n(Counter::SweepSteals),
            // The queue owner fills these in (see the field docs).
            sweep_shard_peaks: [0; 4],
            free_locs_hist: [
                n(Counter::FreeHistEmpty),
                n(Counter::FreeHistSmall),
                n(Counter::FreeHistMedium),
                n(Counter::FreeHistLarge),
                n(Counter::FreeHistHuge),
            ],
        }
    }

    /// Increments each of `counters` by one in a single slab access
    /// (e.g. a deferred free's free and deferral): an uncontended load +
    /// store per counter on a thread-private line, where a shared
    /// `fetch_add` would bounce a line between every counting thread.
    #[inline]
    pub fn bump(&self, counters: &[Counter]) {
        Binding::with(&SLABS, &self.counts, |s, _| {
            for &which in counters {
                s.add(which, 1);
            }
        });
    }

    /// Adds `deltas` in a single slab access — a free accounts its whole
    /// outcome (invalidated, stale, skipped) and walk shape (locations
    /// drained, pages touched, duplicates dropped, histogram bucket) in
    /// one call. Zero deltas are skipped.
    #[inline]
    pub fn add(&self, deltas: &[(Counter, u64)]) {
        Binding::with(&SLABS, &self.counts, |s, _| {
            for &(which, n) in deltas {
                if n > 0 {
                    s.add(which, n);
                }
            }
        });
    }
}

/// Where a detector's metadata bytes sit: every byte
/// [`crate::Detector::metadata_bytes`] reports belongs to exactly one
/// part, so the parts sum to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataLedger {
    /// Object metadata records, live or pooled.
    pub records: u64,
    /// Per-thread log records, live or pooled.
    pub logs: u64,
    /// Indirect log blocks, attached to their logs.
    pub indirect_blocks: u64,
    /// Hash tables, attached to a log or free in a table pool.
    pub hash_tables: u64,
    /// Shadow (metapagetable) memory.
    pub shadow: u64,
}

impl MetadataLedger {
    /// The parts with the names the detector's metrics source exports
    /// them under, in bytes.
    pub fn parts(&self) -> [(&'static str, u64); 5] {
        [
            ("metadata_records_bytes", self.records),
            ("metadata_logs_bytes", self.logs),
            ("metadata_indirect_bytes", self.indirect_blocks),
            ("metadata_tables_bytes", self.hash_tables),
            ("metadata_shadow_bytes", self.shadow),
        ]
    }

    /// The detector's metadata bytes: the parts' sum.
    pub fn total(&self) -> u64 {
        self.parts().iter().map(|&(_, bytes)| bytes).sum()
    }
}

impl StatsSnapshot {
    /// Copy with the sweep-scheduling counters zeroed, leaving only the
    /// behavioural (Table 1) counters. Tests asserting two detector
    /// histories are behaviourally identical should compare this.
    pub fn behavioural(mut self) -> Self {
        // Sweep scheduling (deferred vs inline, steals) is a placement
        // choice, not behaviour: the invalidation outcome is identical
        // whichever thread runs the sweep.
        self.frees_deferred = 0;
        self.sweeps_backpressure = 0;
        self.sweep_steals = 0;
        self.sweep_shard_peaks = [0; 4];
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn snapshot_reflects_counters() {
        let s = Stats::default();
        s.bump(&[Counter::PtrsRegistered]);
        s.bump(&[Counter::PtrsRegistered, Counter::DupPtrs]);
        s.add(&[(Counter::ObjectsFreed, 3)]);
        let snap = s.snapshot();
        assert_eq!(snap.ptrs_registered, 2);
        assert_eq!(snap.dup_ptrs, 1);
        assert_eq!(snap.objects_freed, 3);
        assert_eq!(snap.ptrs_invalidated, 0);
    }

    #[test]
    fn hot_counts_survive_detector_switch_and_scope_exit() {
        let a = Stats::default();
        let b = Stats::default();
        a.bump(&[Counter::DupPtrs]);
        b.bump(&[Counter::DupPtrs]); // switches the slab, retiring `a`'s
        b.bump(&[Counter::DupPtrs]);
        assert_eq!(a.snapshot().dup_ptrs, 1);
        assert_eq!(b.snapshot().dup_ptrs, 2);

        // Exactness right after `scope` returns, even though the spawned
        // thread's TLS destructors may not have run yet: the slab stays
        // registered and readable, so no exit-time flush is needed.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..100 {
                    a.bump(&[Counter::PtrsRegistered]);
                }
            });
        });
        assert_eq!(a.snapshot().ptrs_registered, 100);
    }

    #[test]
    fn bulk_bumps_and_histogram_buckets() {
        let s = Stats::default();
        s.add(&[
            (Counter::FreeLocsWalked, 70),
            (Counter::FreePagesTouched, 3),
            (Counter::FreeDupLocs, 0), // skipped, not stored
            (Counter::free_hist_bucket(70), 1),
        ]);
        s.add(&[(Counter::free_hist_bucket(0), 1)]);
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
            t.add(&[(Counter::free_hist_bucket(walked), 1)]);
            let mut expect = [0u64; 5];
            expect[bucket] = 1;
            assert_eq!(t.snapshot().free_locs_hist, expect, "walked={walked}");
        }
    }

    #[test]
    fn pending_counts_for_a_dropped_stats_are_discarded() {
        let a = Stats::default();
        a.bump(&[Counter::DupPtrs]);
        drop(a);
        // Retiring the slab of a dead instance must not crash; counting
        // for a new instance retargets cleanly.
        let b = Stats::default();
        b.bump(&[Counter::DupPtrs]);
        assert_eq!(b.snapshot().dup_ptrs, 1);
    }

    #[test]
    fn counts_from_thread_exit_destructors_are_kept() {
        // A thread-local whose destructor counts. Touching it before the
        // first count registers its destructor before the slab's, so on
        // platforms that run TLS destructors in reverse order the slab is
        // gone when it counts; either order must keep every count.
        struct CountOnExit(Arc<Stats>);
        impl Drop for CountOnExit {
            fn drop(&mut self) {
                self.0.add(&[(Counter::ObjectsFreed, 5)]);
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<Option<CountOnExit>> = const { RefCell::new(None) };
        }
        let s = Arc::new(Stats::default());
        let t = Arc::clone(&s);
        std::thread::spawn(move || {
            ON_EXIT.with(|e| *e.borrow_mut() = Some(CountOnExit(Arc::clone(&t))));
            t.bump(&[Counter::ObjectsFreed]);
        })
        .join()
        .unwrap();
        // `join` waits for the thread's TLS destructors.
        assert_eq!(s.snapshot().objects_freed, 6);
    }
}
