//! Runtime configuration for the DangSan detector.
//!
//! The paper fixes these at compile time; the reproduction keeps them
//! runtime-tunable so the ablation benchmarks (`dangsan-bench`, bin
//! `ablations`) can sweep them without rebuilding.

use dangsan_trace::TraceLevel;

/// Entries embedded directly in each per-thread log (Figure 7's static log).
pub const EMBEDDED_ENTRIES: usize = 8;

/// Slots of a log's first hash table (Figure 7's fallback tier); each
/// grow doubles it.
pub(crate) const HASH_INITIAL_SLOTS: u32 = 64;

/// Detector tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// How many most-recent entries `regptr` re-checks before appending,
    /// to suppress repeated registration of the same location (§4.4:
    /// "we have chosen to use a lookback size of four").
    pub lookback: usize,
    /// Capacity (entries) of the first indirect overflow block.
    pub indirect_capacity: usize,
    /// Enable Figure 8 pointer compression (≤3 locations that differ only
    /// in their low byte share one 8-byte entry).
    pub compression: bool,
    /// Fall back to a hash table once the indirect log fills (§4.4). When
    /// disabled, indirect blocks chain and double instead — the
    /// "near-unbounded memory consumption" ablation.
    pub hash_fallback: bool,
    /// §7 extension (described but not implemented in the paper): hook
    /// `memcpy`-style moves and re-register any word that resolves to a
    /// tracked object at its new location. Closes the realloc-move false
    /// negative at the cost of scanning every copied word.
    pub hook_memcpy: bool,
    /// Enable the per-thread hot-path caches (software TLB, ptr2obj
    /// memoization, last-object→log). Off turns every instrumented store
    /// back into the three full tree walks — the before/after baseline for
    /// the hot-path micro-benchmarks. Behaviour is identical either way.
    pub hot_path_caches: bool,
    /// Serve the allocator's malloc/free from the heap's TLS magazines
    /// (tcmalloc's per-thread caches). Off routes every operation through
    /// the locked central free lists — the "locked allocator" baseline the
    /// scaling benchmark compares against. Allocation placement differs
    /// between the two paths; detector behaviour does not.
    pub thread_cached_heap: bool,
    /// Defer the free-time invalidation sweep off the freeing thread:
    /// `on_free` retires the object's epoch, detaches its logs, and
    /// enqueues a sweep job on the sharded quarantine queue, returning
    /// after O(1) bookkeeping. The block stays quarantined in the heap
    /// (unallocatable) until its sweep retires it. Off (the default)
    /// keeps the synchronous sweep. Counters and reports are exact
    /// after [`crate::DangSan::drain`] / detector drop either way.
    pub deferred_sweep: bool,
    /// Helper threads draining the sweep queue when `deferred_sweep` is
    /// on. `0` spawns none: jobs sit quarantined until backpressure or
    /// an explicit drain runs them — the deterministic mode the
    /// quarantine tests use. Ignored when `deferred_sweep` is off.
    pub sweep_threads: usize,
    /// Quarantine byte cap: once the estimated bytes held by pending
    /// sweep jobs exceed this, the freeing thread sweeps one batch of
    /// jobs inline (backpressure) so memory stays bounded.
    pub quarantine_max_bytes: u64,
    /// Quarantine object-count cap, same backpressure trigger.
    pub quarantine_max_objects: u64,
    /// Flight-recorder capture level. `Off` (the default) costs one
    /// relaxed load + branch at each record site — and the registration
    /// fast path has no record sites at all. `Lifecycles` captures what
    /// UAF forensics needs; `Full` adds sweep spans, tier promotions and
    /// shadow/heap events. [`crate::DangSan::new`] creates and attaches a
    /// tracer when this is not `Off` (see [`crate::DangSan::tracer`]).
    pub trace_level: TraceLevel,
    /// Enable the live telemetry plane (DESIGN.md §6): [`crate::DangSan::new`]
    /// creates a pull-based metrics hub, registers the detector's gauge
    /// and counter sources (quarantine levels, sweep-shard depths, cache
    /// hit rates) and starts a sampler thread emitting a JSONL time
    /// series every [`Config::metrics_interval_ms`].
    /// Off (the default) creates nothing: the registry is pull-based, so
    /// the detector's malloc/store/free paths carry no metrics sites at
    /// all and a telemetry-aware call site pays at most one relaxed
    /// load + untaken branch.
    pub metrics: bool,
    /// Sampler cadence in milliseconds when [`Config::metrics`] is on.
    pub metrics_interval_ms: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            lookback: 4,
            indirect_capacity: 64,
            compression: true,
            hash_fallback: true,
            hook_memcpy: false,
            hot_path_caches: true,
            thread_cached_heap: true,
            deferred_sweep: false,
            sweep_threads: 2,
            quarantine_max_bytes: 64 << 20,
            quarantine_max_objects: 256 * 1024,
            trace_level: TraceLevel::Off,
            metrics: false,
            metrics_interval_ms: 100,
        }
    }
}

impl Config {
    /// The paper's default configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Returns a copy with a different lookback window.
    pub fn with_lookback(mut self, lookback: usize) -> Self {
        self.lookback = lookback;
        self
    }

    /// Returns a copy with compression toggled.
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compression = on;
        self
    }

    /// Returns a copy with the hash fallback toggled.
    pub fn with_hash_fallback(mut self, on: bool) -> Self {
        self.hash_fallback = on;
        self
    }

    /// Returns a copy with the §7 memcpy-hook extension toggled.
    pub fn with_memcpy_hook(mut self, on: bool) -> Self {
        self.hook_memcpy = on;
        self
    }

    /// Returns a copy with the hot-path caches toggled.
    pub fn with_hot_path_caches(mut self, on: bool) -> Self {
        self.hot_path_caches = on;
        self
    }

    /// Returns a copy with the heap's TLS-magazine fast path toggled.
    pub fn with_thread_cached_heap(mut self, on: bool) -> Self {
        self.thread_cached_heap = on;
        self
    }

    /// Returns a copy with the deferred free sweep toggled.
    pub fn with_deferred_sweep(mut self, on: bool) -> Self {
        self.deferred_sweep = on;
        self
    }

    /// Returns a copy with a different sweep helper-thread count.
    pub fn with_sweep_threads(mut self, n: usize) -> Self {
        self.sweep_threads = n;
        self
    }

    /// Returns a copy with different quarantine backpressure caps.
    pub fn with_quarantine_caps(mut self, max_bytes: u64, max_objects: u64) -> Self {
        self.quarantine_max_bytes = max_bytes;
        self.quarantine_max_objects = max_objects;
        self
    }

    /// Returns a copy with a different flight-recorder capture level.
    pub fn with_trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Returns a copy with the live telemetry plane toggled.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Returns a copy with a different sampler cadence (milliseconds).
    pub fn with_metrics_interval_ms(mut self, ms: u64) -> Self {
        self.metrics_interval_ms = ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::paper();
        assert_eq!(c.lookback, 4);
        assert!(c.compression);
        assert!(c.hash_fallback);
        assert!(!c.hook_memcpy, "the paper did not implement the hook");
        assert!(c.thread_cached_heap, "tcmalloc base caches per thread");
        assert_eq!(c.trace_level, TraceLevel::Off, "tracing is an opt-in");
        assert!(!c.deferred_sweep, "the paper sweeps synchronously at free");
        assert!(!c.metrics, "the telemetry plane is an opt-in");
    }

    #[test]
    fn metrics_builders() {
        let c = Config::default()
            .with_metrics(true)
            .with_metrics_interval_ms(25);
        assert!(c.metrics);
        assert_eq!(c.metrics_interval_ms, 25);
    }

    #[test]
    fn builders_compose() {
        let c = Config::default()
            .with_lookback(1)
            .with_compression(false)
            .with_hash_fallback(false);
        assert_eq!(c.lookback, 1);
        assert!(!c.compression);
        assert!(!c.hash_fallback);
    }
}
