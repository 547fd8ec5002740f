//! Log-bucketed histograms with single-writer per-thread slabs.
//!
//! Bucketing is HDR-style: values below `SUB` get one exact bucket
//! each; every power-of-two octave above that is split into `SUB`
//! linear sub-buckets, so the relative quantization error is bounded by
//! `1/SUB` (12.5%) across the whole `u64` range — fine-grained enough
//! for latency percentiles, coarse enough that a slab is a few KiB.
//!
//! Recording follows DangSan's single-writer rule through the stack's one
//! per-thread binding ([`dangsan_trace::binding`]), as the detector's
//! counters do:
//!
//! * each (thread, histogram) pair owns one slab of `AtomicU64` buckets;
//!   only the owning thread writes, with plain load + store — zero RMWs,
//!   zero locks on the record path;
//! * slabs register with the histogram's registry; a snapshot sums the
//!   retired totals plus every registered slab under the registry lock,
//!   so totals are exact for any reader ordered after the recording (a
//!   `join` or `thread::scope` returning) without waiting on TLS
//!   destructors;
//! * a thread keeps its binding to every histogram it records into
//!   ([`dangsan_trace::Owner::SEVERAL`]), so alternating histograms — the
//!   `server` harness records each request into two — retires nothing;
//! * thread exit retires the slabs — counts move to the histogram's
//!   retired totals under the same lock, so a concurrent snapshot sees
//!   them exactly once — and a value recorded after the thread's binding
//!   was torn down (from a later TLS destructor) goes through a slab of
//!   its own that retires at once.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dangsan_trace::{Binding, Owner, Registry};

/// Bits of linear resolution inside one octave.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave (and the count of exact low buckets).
const SUB: usize = 1 << SUB_BITS;
/// Total buckets: `SUB` exact low values plus `SUB` sub-buckets for
/// each octave whose leading bit is at position `SUB_BITS..=63`.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket index recording `v` increments.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let shift = octave - SUB_BITS as usize;
    SUB + shift * SUB + ((v >> shift) & (SUB as u64 - 1)) as usize
}

/// The smallest value mapping to bucket `idx`.
pub fn bucket_low(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = SUB_BITS as usize + (idx - SUB) / SUB;
    let sub = ((idx - SUB) % SUB) as u64;
    (1u64 << octave) + (sub << (octave - SUB_BITS as usize))
}

/// The largest value mapping to bucket `idx` (inclusive).
pub fn bucket_high(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = SUB_BITS as usize + (idx - SUB) / SUB;
    bucket_low(idx) + ((1u64 << (octave - SUB_BITS as usize)) - 1)
}

/// One thread's buckets for one histogram. Only the owning thread
/// writes (plain load + store); any thread may read via the registry.
struct HistSlab {
    counts: [AtomicU64; BUCKETS],
    /// Exact maximum this thread recorded (single-writer, so the
    /// compare-and-store needs no RMW).
    max: AtomicU64,
}

impl HistSlab {
    fn new() -> HistSlab {
        HistSlab {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            max: AtomicU64::new(0),
        }
    }
}

/// A histogram's slabs and the totals retired slabs handed over.
struct Buckets {
    registry: Registry<HistSlab>,
    /// Added to only under the registry lock, by retiring slabs.
    retired: [AtomicU64; BUCKETS],
    retired_max: AtomicU64,
}

impl Owner for Buckets {
    type State = HistSlab;
    type Local = ();
    const SEVERAL: bool = true;

    fn registry(&self) -> &Registry<HistSlab> {
        &self.registry
    }

    fn new_state(&self) -> HistSlab {
        HistSlab::new()
    }

    fn retire(&self, slab: &HistSlab, _: &mut ()) {
        for (total, n) in self.retired.iter().zip(&slab.counts) {
            total.fetch_add(n.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.retired_max
            .fetch_max(slab.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

thread_local! {
    static SLABS: Binding<Buckets> = const { Binding::new() };
}

/// A concurrent log-bucketed histogram (see the module docs).
pub struct Histogram {
    buckets: Arc<Buckets>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Histogram").finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Arc::new(Buckets {
                registry: Registry::default(),
                retired: [const { AtomicU64::new(0) }; BUCKETS],
                retired_max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one value: a thread-local slab lookup plus an uncontended
    /// load + store on a thread-private line. First record per (thread,
    /// histogram) registers a slab (cold, takes the registry lock once).
    pub fn record(&self, v: u64) {
        let idx = bucket_index(v);
        Binding::with(&SLABS, &self.buckets, |slab, _| {
            let c = &slab.counts[idx];
            c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            if v > slab.max.load(Ordering::Relaxed) {
                slab.max.store(v, Ordering::Relaxed);
            }
        });
    }

    /// Sums retired totals and every live slab under the registry lock.
    /// Exact for any reader ordered after the recording (a `join`, or
    /// `thread::scope` returning).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKETS];
        let max = self.buckets.registry.read(|slabs| {
            let mut max = self.buckets.retired_max.load(Ordering::Relaxed);
            for (i, c) in counts.iter_mut().enumerate() {
                *c = self.buckets.retired[i].load(Ordering::Relaxed);
                for slab in slabs {
                    *c += slab.counts[i].load(Ordering::Relaxed);
                }
            }
            for slab in slabs {
                max = max.max(slab.max.load(Ordering::Relaxed));
            }
            max
        });
        let count = counts.iter().sum();
        HistogramSnapshot { counts, count, max }
    }
}

/// A point-in-time copy of a [`Histogram`]: plain data, mergeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact largest value recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds `other`'s counts into this snapshot (exact: both are sums
    /// of disjoint slab sets when taken from distinct histograms).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile (`pct` in 0..=100). Returns the upper
    /// bound of the bucket holding the ranked value, clamped to the
    /// exact recorded maximum — so the quantization error is bounded by
    /// the bucket width (≤ 12.5% relative) and `percentile(100)` is the
    /// exact max. 0 for an empty histogram.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (`percentile(50)`).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile — the tail the server gates watch.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn bucket_scheme_is_contiguous_and_monotone() {
        // Every bucket's low maps back to its own index, highs chain
        // into the next bucket's low, and indices never decrease.
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_low(idx)), idx, "low of {idx}");
            assert_eq!(bucket_index(bucket_high(idx)), idx, "high of {idx}");
            if idx + 1 < BUCKETS {
                assert_eq!(bucket_high(idx) + 1, bucket_low(idx + 1), "gap at {idx}");
            }
        }
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 7, 8, 9, 255, 256, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v && v <= bucket_high(idx), "v={v}");
        }
    }

    #[test]
    fn percentiles_are_ordered_and_max_is_exact() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 100_000);
        let (p50, p99, p999) = (s.p50(), s.p99(), s.p999());
        assert!(p50 <= p99 && p99 <= p999 && p999 <= s.max());
        assert_eq!(s.percentile(100.0), 100_000, "p100 is the exact max");
        // Bucket quantization is bounded: p50 within 12.5% above 50_000.
        assert!((50_000..=57_000).contains(&p50), "p50={p50}");
    }

    #[test]
    fn counts_exact_across_scope_exit_and_join() {
        let h = Histogram::new();
        const THREADS: u64 = 4;
        const EACH: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..EACH {
                        h.record(t * 1_000_000 + i);
                    }
                });
            }
        });
        // Exact immediately after the scope returns, even though the
        // workers' TLS destructors may not have run yet.
        let s = h.snapshot();
        assert_eq!(s.count(), THREADS * EACH);
        assert_eq!(s.max(), (THREADS - 1) * 1_000_000 + EACH - 1);

        // And again after a plain spawn + join (destructors have run for
        // some workers by now; retired totals must hold their counts).
        let h2 = Arc::new(Histogram::new());
        let hh = Arc::clone(&h2);
        std::thread::spawn(move || {
            for i in 0..EACH {
                hh.record(i);
            }
        })
        .join()
        .expect("recorder");
        assert_eq!(h2.snapshot().count(), EACH);
    }

    #[test]
    fn merge_is_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        for i in 0..500u64 {
            a.record(i);
            b.record(i + 1_000_000);
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 1_000_499);
    }

    #[test]
    fn thread_switching_between_histograms_keeps_both_exact() {
        // Unlike the single-slot stats batch, alternating histograms on
        // one thread must not retire anything (each keeps its own slab).
        let a = Histogram::new();
        let b = Histogram::new();
        for i in 0..100u64 {
            a.record(i);
            b.record(i);
        }
        assert_eq!(a.snapshot().count(), 100);
        assert_eq!(b.snapshot().count(), 100);
    }

    #[test]
    fn dropped_histogram_bindings_are_pruned() {
        // Recording into a long-dead histogram's id slot must not leak:
        // the next registration prunes bindings whose target died.
        for _ in 0..64 {
            let h = Histogram::new();
            h.record(7);
            drop(h);
        }
        let h = Histogram::new();
        h.record(7);
        assert_eq!(h.snapshot().count(), 1);
        SLABS.with(|b| {
            assert!(b.bindings() <= 2, "dead bindings must be pruned");
        });
    }

    #[test]
    fn records_from_thread_exit_destructors_are_kept() {
        // A thread-local whose destructor records. Touching it before the
        // first record registers its destructor before the slab
        // binding's, so on platforms that run TLS destructors in reverse
        // order the binding is gone when it records.
        struct RecordOnExit(Arc<Histogram>);
        impl Drop for RecordOnExit {
            fn drop(&mut self) {
                self.0.record(900);
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<Option<RecordOnExit>> = const { RefCell::new(None) };
        }
        let h = Arc::new(Histogram::new());
        let t = Arc::clone(&h);
        std::thread::spawn(move || {
            ON_EXIT.with(|e| *e.borrow_mut() = Some(RecordOnExit(Arc::clone(&t))));
            t.record(7);
        })
        .join()
        .unwrap();
        // `join` waits for the thread's TLS destructors.
        let s = h.snapshot();
        assert_eq!((s.count(), s.max()), (2, 900));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
    }
}
