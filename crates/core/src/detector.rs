//! The DangSan detector: pointer tracker + pointer logger + invalidation.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::cell::Cell;
use std::ptr;
use std::sync::{Arc, Mutex, Weak};

use dangsan_heap::{Allocation, Heap};
use dangsan_shadow::MetaPageTable;
use dangsan_trace::{
    forensics, pack_size_site, pack_sweep_mode, EventCode, Trace, TraceLevel, Tracer,
    SWEEP_MODE_BACKPRESSURE, SWEEP_MODE_INLINE,
};
use dangsan_vmem::{Addr, AddressSpace, FaultKind, HEAP_BASE, HEAP_SIZE, INVALID_BIT, PAGE_SIZE};

use crate::api::{Detector, InvalidationReport};
use crate::config::Config;
use crate::log::{Overflow, ThreadLog};
use crate::object::{fresh_epoch, ObjectMeta};
use crate::pool::Pool;
use crate::stats::{Counter, MetadataLedger, Stats, StatsSnapshot};
use crate::sweep::{FreedObject, LogChain, MetaRef, ObjectSweep, SweepQueue};
use dangsan_telemetry::{Collector, MetricsHub, Sampler};

/// This thread's stable small integer id.
///
/// The paper's per-thread logs are keyed by thread; a monotonically
/// assigned id keeps the log list comparison a single integer compare.
/// Lives in `dangsan-trace` (re-exported here unchanged) so flight
/// recorder events and detector logs agree on thread identity.
pub use dangsan_trace::current_thread_id;

/// Jobs a free that trips a quarantine cap sweeps before it returns: one
/// batch, popped with one lock per visited shard (mirrors
/// `heap::magazine`'s refill `BATCH`: amortize the lock without holding
/// it across the sweeps themselves). This bounds a free's sweep work.
const BACKPRESSURE_BATCH: usize = 32;

/// Entries in the per-thread last-object → log cache (power of two).
///
/// Programs store runs of pointers into the same few objects (the paper's
/// locality argument for the lookback window), so even a small cache
/// removes most log-list walks. Slots are indexed by the *pointer value*
/// being stored (bits above the typical object alignment), so a hit
/// resolves value → log directly and the shadow lookup is skipped
/// altogether; 16 slots tolerate a handful of hot objects plus values
/// spanning a few 64-byte lines within each.
const LOG_CACHE_SLOTS: usize = 16;

/// One cached (pointer value → this thread's log) association.
///
/// A hit must establish that the stored value points into the same object
/// lifetime that filled the slot, *without* consulting the metapagetable —
/// skipping that lookup is the point of the cache. Validation is
/// three-staged, and the order is load-bearing:
///
/// 1. `det_id == self.id` proves the record belongs to the calling
///    detector's live, type-stable pool — only then may `meta_val` be
///    dereferenced (a slot left by a since-dropped detector would point
///    into freed memory).
/// 2. `meta.in_range(value)` checks the value against the record's
///    *current* range: the interior-pointer map invariant (§4.4) says a
///    value inside a live object's range resolves to that object.
/// 3. The epoch compare (see [`ObjectMeta::epoch`]) proves the record is
///    still in the lifetime that filled the slot: the range just checked
///    belongs to the same object, the cached log is still linked into its
///    list and still tagged with this thread's id.
///
/// Epochs are globally never reused and retired at both ends of a
/// lifetime, so freeing any *other* object costs this slot nothing; the
/// detector-global flush-on-free this replaces was the main regression in
/// the free-heavy benchmarks. The residual race — a free on another
/// thread between the epoch load and the append — is the same benign one
/// the uncached walk already has: logs are pool-owned type-stable memory,
/// and the value check at free time discards any entry that landed in a
/// recycled log.
#[derive(Clone, Copy)]
struct LogCacheSlot {
    /// The filling detector's never-reused id; 0 never issued.
    det_id: u64,
    /// The object's packed metadata value (`ObjectMeta::as_meta_value`).
    meta_val: u64,
    /// The record's epoch at fill time; 0 is never issued.
    epoch: u64,
    /// The calling thread's log for that object.
    log: *const ThreadLog,
}

impl LogCacheSlot {
    const EMPTY: LogCacheSlot = LogCacheSlot {
        det_id: 0,
        meta_val: 0,
        epoch: 0,
        log: ptr::null(),
    };
}

/// The detector's per-thread caches, bundled into one thread-local so the
/// registration fast path pays a single TLS round trip for both (plus one
/// each for the shadow cache and the stats slab — TLS accesses are the
/// dominant fixed cost of the cached path, so they are rationed).
struct DetCaches {
    /// Last-object → log slots (see [`LogCacheSlot`]).
    log: [Cell<LogCacheSlot>; LOG_CACHE_SLOTS],
    /// Memoized hash-tier registrations (see [`RegCacheSlot`]).
    reg: [Cell<RegCacheSlot>; REG_CACHE_SLOTS],
    /// Whether any memo slot was ever filled on this thread. Workloads
    /// that never drive a log into its hash tier skip the memo probe on
    /// this one test instead of a five-field compare per store.
    reg_used: Cell<bool>,
}

/// Entries in the per-thread registration memo (power of two).
///
/// The memo short-circuits `register_ptr` itself: once a (location, value)
/// pair has been pushed into the *hash tier* of this thread's log for the
/// target object, re-registering the identical pair is a guaranteed
/// duplicate until a free intervenes (hash membership only grows — see
/// [`ThreadLog::hash_active`]). 256 slots cover a 2 KiB window of
/// locations being stored to in a loop, the pattern that drives a log into
/// its hash tier in the first place.
const REG_CACHE_SLOTS: usize = 256;

/// One memoized (location, value) registration known to be a duplicate.
///
/// Validation is two-staged, and the order is load-bearing: the
/// `det_id` compare must pass *before* `meta_val` is dereferenced — a
/// matching id proves the record belongs to the calling detector's live,
/// type-stable pool, whereas a slot left by a since-dropped detector
/// would point into freed memory. Only then is the record's current
/// epoch compared against the captured one, proving the memoized hash
/// membership is from the object's current lifetime.
#[derive(Clone, Copy)]
struct RegCacheSlot {
    /// The filling detector's never-reused id; 0 never issued.
    det_id: u64,
    /// The target object's packed metadata value at fill time.
    meta_val: u64,
    /// The record's epoch at fill time.
    epoch: u64,
    /// The stored-to location.
    loc: u64,
    /// The pointer value stored there.
    value: u64,
}

impl RegCacheSlot {
    const EMPTY: RegCacheSlot = RegCacheSlot {
        det_id: 0,
        meta_val: 0,
        epoch: 0,
        loc: 0,
        value: 0,
    };
}

thread_local! {
    static DET_CACHES: DetCaches = const {
        DetCaches {
            log: [const { Cell::new(LogCacheSlot::EMPTY) }; LOG_CACHE_SLOTS],
            reg: [const { Cell::new(RegCacheSlot::EMPTY) }; REG_CACHE_SLOTS],
            reg_used: Cell::new(false),
        }
    };
    /// The sweep engine's location buffer, taken and put back by every
    /// [`DangSan::run_object_sweep`] on this thread. It keeps its
    /// capacity, so a steady-state workload reaches its high-water mark
    /// once and the free path never allocates (nor takes a lock) again.
    static SWEEP_SCRATCH: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// Detector ids are handed out once and never reused, so a stale
/// registration-memo slot from a dropped detector can never pass the
/// `det_id` guard of a live one.
static NEXT_DETECTOR_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_detector_id() -> u64 {
    NEXT_DETECTOR_ID.fetch_add(1, Ordering::Relaxed)
}

/// The DangSan use-after-free detector (the paper's contribution).
///
/// Construct with [`DangSan::new`], share via `Arc`, and drive through the
/// [`Detector`] hooks — usually via [`crate::HookedHeap`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dangsan_vmem::{AddressSpace, INVALID_BIT};
/// use dangsan_heap::Heap;
/// use dangsan::{DangSan, Detector, Config};
///
/// let mem = Arc::new(AddressSpace::new());
/// let heap = Heap::new(Arc::clone(&mem));
/// let det = DangSan::new(Arc::clone(&mem), Config::default());
///
/// let obj = heap.malloc(32).unwrap();
/// det.on_alloc(&obj);
/// let slot = heap.malloc(8).unwrap(); // a location holding a pointer
/// det.on_alloc(&slot);
/// mem.write_word(slot.base, obj.base).unwrap();
/// det.register_ptr(slot.base, obj.base);
///
/// let report = det.on_free(obj.base);
/// assert_eq!(report.invalidated, 1);
/// assert_eq!(mem.read_word(slot.base).unwrap(), obj.base | INVALID_BIT);
/// ```
pub struct DangSan {
    mem: Arc<AddressSpace>,
    map: MetaPageTable,
    cfg: Config,
    stats: Stats,
    meta_pool: Pool<ObjectMeta>,
    log_pool: Pool<ThreadLog>,
    /// The logs' indirect-block bytes and hash-table pools.
    overflow: Overflow,
    /// This detector's never-reused id, burned into registration-memo
    /// slots so a slot is only ever interpreted against the pool that
    /// filled it (see [`RegCacheSlot`]). Cache *validity* is per object
    /// lifetime via [`ObjectMeta::epoch`]; nothing detector-global is
    /// touched on free.
    id: u64,
    /// The detector's flight-recorder attach point. Holds the level and
    /// (once attached) the tracer; with `Config::trace_level` at `Off`
    /// every record site is a relaxed load + untaken branch.
    trace: Trace,
    /// The deferred-sweep quarantine queue; `Some` exactly when
    /// `Config::deferred_sweep` is on.
    sweep: Option<SweepQueue>,
    /// The heap this detector is hooked in front of (set by
    /// [`Detector::bind_heap`]); a retiring sweep requeues its
    /// quarantined block here. Shared (`Arc`) with the heap-gauge
    /// metrics source, so re-binding retargets the gauges too.
    heap: Arc<Mutex<Weak<Heap>>>,
    /// The telemetry hub; `Some` exactly when `Config::metrics` is on.
    /// Pull-based: sources registered here read the counters the
    /// detector already keeps, so the malloc/store/free paths carry no
    /// metrics sites at all.
    metrics: Option<Arc<MetricsHub>>,
    /// The sampler thread emitting the JSONL time series; stopped and
    /// joined by its own `Drop`, which runs after the final drain in
    /// [`Drop for DangSan`] — by then the hub's detector source fails its
    /// `Weak` upgrade and samples only heap gauges.
    sampler: Mutex<Option<Sampler>>,
    /// Whether [`Detector::bind_heap`] already registered the heap
    /// gauges, so re-binding cannot duplicate them.
    heap_gauges_bound: AtomicBool,
}

impl DangSan {
    /// Creates a detector for objects in `mem`'s heap segment.
    pub fn new(mem: Arc<AddressSpace>, cfg: Config) -> Arc<DangSan> {
        let map = MetaPageTable::new();
        map.set_cache_enabled(cfg.hot_path_caches);
        let trace = Trace::new();
        if cfg.trace_level != TraceLevel::Off {
            // One tracer spans the stack: detector, shadow mapper and
            // address space all feed the same per-thread rings, so a
            // forensics pass sees vmem traps next to frees.
            let tracer = Arc::new(Tracer::new(cfg.trace_level));
            trace.attach(&tracer);
            map.set_tracer(&tracer);
            mem.set_tracer(&tracer);
        }
        let sweep = cfg
            .deferred_sweep
            .then(|| SweepQueue::new(cfg.quarantine_max_bytes, cfg.quarantine_max_objects));
        let det = Arc::new(DangSan {
            mem,
            map,
            cfg,
            stats: Stats::default(),
            meta_pool: Pool::new(),
            log_pool: Pool::new(),
            overflow: Overflow::default(),
            id: fresh_detector_id(),
            trace,
            sweep,
            heap: Arc::new(Mutex::new(Weak::new())),
            metrics: cfg.metrics.then(MetricsHub::new),
            sampler: Mutex::new(None),
            heap_gauges_bound: AtomicBool::new(false),
        });
        if let Some(hub) = &det.metrics {
            // The source holds only a Weak: collection cannot keep a
            // dropped detector alive, and an upgrade failure (mid-drop
            // sampling) is simply an empty contribution.
            let weak = Arc::downgrade(&det);
            hub.register_source(move |c| {
                if let Some(det) = weak.upgrade() {
                    det.collect_metrics(c);
                }
            });
            let interval = std::time::Duration::from_millis(cfg.metrics_interval_ms.max(1));
            *det.sampler.lock().expect("not poisoned") = Some(hub.start_sampler(interval));
        }
        det
    }

    /// The flight recorder created by [`DangSan::new`], when
    /// `Config::trace_level` is not `Off`. Hand it to
    /// [`dangsan_heap::Heap::set_tracer`] to fold carve events into the
    /// same rings, or to [`dangsan_trace::forensics::uaf_report`].
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.trace.tracer()
    }

    /// Attributes a non-canonical trap (a [`FaultKind::NonCanonical`]
    /// dereference of an invalidated pointer) to the free that produced
    /// it, using the recorded event history. `None` when tracing is off
    /// or no recorded free covers the address.
    pub fn uaf_report(&self, fault_addr: u64) -> Option<forensics::UafReport> {
        forensics::uaf_report(self.trace.tracer()?, fault_addr)
    }

    /// The telemetry hub created by [`DangSan::new`], when
    /// `Config::metrics` is on. Register extra sources or histograms on
    /// it (e.g. a workload's latency histograms) and they ride the same
    /// sampler time series; call [`MetricsHub::prometheus`] for a text
    /// exposition dump.
    pub fn metrics(&self) -> Option<&Arc<MetricsHub>> {
        self.metrics.as_ref()
    }

    /// The detector's metrics source: every gauge and counter here is
    /// read from state the hot paths already maintain, so sampling costs
    /// the detector nothing between pulls. Counter names match the
    /// [`StatsSnapshot`] fields they mirror; `dangsan-bench --bin
    /// metrics_report` reconciles the two exactly.
    fn collect_metrics(&self, c: &mut Collector) {
        let snap = Detector::stats(self);
        c.counter("objects_allocated", snap.objects_allocated);
        c.counter("objects_freed", snap.objects_freed);
        c.counter("ptrs_registered", snap.ptrs_registered);
        c.counter("ptrs_invalidated", snap.ptrs_invalidated);
        c.counter("tlb_hits", snap.tlb_hits);
        c.counter("tlb_misses", snap.tlb_misses);
        c.counter("ptr2obj_cache_hits", snap.ptr2obj_cache_hits);
        c.counter("ptr2obj_cache_misses", snap.ptr2obj_cache_misses);
        c.counter("frees_deferred", snap.frees_deferred);
        c.counter("sweeps_backpressure", snap.sweeps_backpressure);
        c.counter("sweep_steals", snap.sweep_steals);
        let ledger = self.metadata_ledger();
        c.gauge("metadata_bytes", ledger.total());
        for (name, bytes) in ledger.parts() {
            c.gauge(name, bytes);
        }
        if let Some(queue) = &self.sweep {
            c.gauge("quarantine_objects", queue.pending());
            c.gauge("quarantine_bytes", queue.pending_bytes());
            for (i, depth) in queue.shard_depths().iter().enumerate() {
                c.gauge(&format!("sweep_shard_depth_{i}"), *depth);
            }
            for (i, peak) in snap.sweep_shard_peaks.iter().enumerate() {
                c.gauge(&format!("sweep_shard_peak_{i}"), *peak);
            }
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// `ptr2obj`: resolves a (possibly interior) pointer to its object's
    /// metadata, if tracked.
    #[inline]
    fn ptr2obj(&self, value: u64) -> Option<&ObjectMeta> {
        if !(HEAP_BASE..HEAP_BASE + HEAP_SIZE).contains(&value) {
            return None;
        }
        let meta_val = self.map.lookup(value)?;
        // SAFETY: metapagetable values are written exclusively by
        // `on_alloc` from `as_meta_value` on records owned by `meta_pool`,
        // which lives as long as `self`.
        Some(unsafe { ObjectMeta::from_meta_value(meta_val) })
    }

    /// [`Self::ptr2obj`] for one-shot resolutions (a free, a realloc):
    /// skips the per-thread shadow cache, whose probe-and-fill can only
    /// cost here — the entry is touched once and caching it may evict a
    /// slot a store loop is using.
    #[inline]
    fn ptr2obj_cold(&self, value: u64) -> Option<&ObjectMeta> {
        if !(HEAP_BASE..HEAP_BASE + HEAP_SIZE).contains(&value) {
            return None;
        }
        let meta_val = self.map.lookup_cold(value)?;
        // SAFETY: as in `ptr2obj`.
        Some(unsafe { ObjectMeta::from_meta_value(meta_val) })
    }

    /// Finds this thread's log in `meta`'s list, appending a fresh one if
    /// absent (Figure 6: CAS insert, conflicts are rare because objects
    /// are usually touched by few threads).
    fn find_or_create_log(&self, meta: &ObjectMeta) -> &ThreadLog {
        let tid = current_thread_id();
        let mut prev: Option<&ThreadLog> = None;
        let mut cur = meta.head.load(Ordering::Acquire);
        loop {
            while !cur.is_null() {
                // SAFETY: logs are pool-owned and type-stable.
                let log = unsafe { &*cur };
                if log.thread_id.load(Ordering::Acquire) == tid {
                    return log;
                }
                prev = Some(log);
                cur = log.next.load(Ordering::Acquire);
            }
            // Not found: take a log from the pool and CAS it onto the tail.
            let fresh = self.log_pool.take();
            fresh.thread_id.store(tid, Ordering::Release);
            fresh.next.store(ptr::null_mut(), Ordering::Release);
            let fresh_ptr = fresh as *const ThreadLog as *mut ThreadLog;
            let slot = match prev {
                Some(p) => &p.next,
                None => &meta.head,
            };
            match slot.compare_exchange(
                ptr::null_mut(),
                fresh_ptr,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.stats.bump(&[Counter::LogsCreated]);
                    return fresh;
                }
                Err(winner) => {
                    // Another thread appended first; give the log back and
                    // keep walking from the new node.
                    fresh.reset(&self.overflow);
                    self.log_pool.recycle(fresh);
                    cur = winner;
                }
            }
        }
    }

    /// The fully cached `register_ptr` path.
    ///
    /// Consults the per-thread registration memo first: a hit means this
    /// thread already pushed the identical (location, value) pair into the
    /// hash tier of its log for the target object, and the epoch match
    /// proves that object is still in the lifetime that filled the slot —
    /// its shadow slots still resolve to it, its logs are still attached,
    /// and hash membership only grows within a lifetime. The uncached walk
    /// would therefore take the hash tier's duplicate exit, so the walk is
    /// skipped and only its counter effects are applied.
    ///
    /// On a memo miss, the last-object cache replaces the log-list walk.
    /// An epoch match proves the slot was filled for `meta`'s *current*
    /// lifetime (epochs are globally never reused, and every lifetime of
    /// every record gets its own), which implies the fill was made through
    /// this very detector — `meta` is owned by `self.meta_pool` — and that
    /// no `on_free` of this object ran since: the cached log is still
    /// linked into the object's list and still tagged with this thread's
    /// id. The residual race — a free on another thread between the epoch
    /// load and the append — is the same benign one the uncached walk
    /// already has: logs are pool-owned type-stable memory, and the value
    /// check at free time discards any entry that landed in a recycled
    /// log.
    ///
    /// Everything observable (log contents, invalidation behaviour,
    /// Table 1 counters) is identical to the uncached
    /// [`Self::find_or_create_log`] + append.
    fn register_ptr_cached(&self, loc: Addr, value: u64) {
        // The caches are reached through a raw pointer fetched by a
        // closure small enough for `LocalKey::with` to inline. With this
        // whole body as the closure, `with` stays out of line and every
        // store pays an indirect call to the thread-local accessor.
        let caches = DET_CACHES.with(ptr::from_ref);
        // SAFETY: `DET_CACHES` is const-initialised and needs no
        // destructor, so its storage lives as long as this thread; the
        // borrow ends with this call.
        let caches = unsafe { &*caches };
        if caches.reg_used.get() {
            let slot = caches.reg[((loc >> 3) as usize) & (REG_CACHE_SLOTS - 1)].get();
            let memo_hit = slot.det_id == self.id && slot.loc == loc && slot.value == value && {
                // SAFETY: the det_id compare just passed, so `meta_val`
                // names a record in this detector's live, type-stable
                // pool (see [`RegCacheSlot`] — the order matters).
                let meta = unsafe { ObjectMeta::from_meta_value(slot.meta_val) };
                meta.epoch.load(Ordering::Acquire) == slot.epoch
            };
            if memo_hit {
                // Counter effects of the skipped walk: one registration,
                // one hash-tier duplicate, plus the cache diagnostic.
                self.stats.bump(&[
                    Counter::PtrsRegistered,
                    Counter::DupPtrs,
                    Counter::LogCacheHits,
                ]);
                return;
            }
        }
        // Values pointing into the same 64-byte line of the same
        // object share a slot; see [`LogCacheSlot`] for why the hit
        // test below needs no metapagetable lookup.
        let lidx = ((value >> 6) as usize) & (LOG_CACHE_SLOTS - 1);
        let lslot = caches.log[lidx].get();
        let (log, meta_val, epoch) = if lslot.det_id == self.id && {
            // SAFETY: the det_id compare just passed, so `meta_val`
            // names a record in this detector's live, type-stable
            // pool (see [`LogCacheSlot`] — the order matters).
            let meta = unsafe { ObjectMeta::from_meta_value(lslot.meta_val) };
            meta.in_range(value) && meta.epoch.load(Ordering::Acquire) == lslot.epoch
        } {
            self.stats
                .bump(&[Counter::PtrsRegistered, Counter::LogCacheHits]);
            // SAFETY: the validated slot holds this detector's
            // pool-owned log; see [`LogCacheSlot`].
            (unsafe { &*lslot.log }, lslot.meta_val, lslot.epoch)
        } else {
            let Some(meta) = self.ptr2obj(value) else {
                return;
            };
            // Load the epoch before touching the log: if a free runs
            // concurrently, every slot filled below captures an
            // already retired epoch and can never validate —
            // conservative, never unsafe.
            let epoch = meta.epoch.load(Ordering::Acquire);
            let meta_val = meta.as_meta_value();
            self.stats
                .bump(&[Counter::PtrsRegistered, Counter::LogCacheMisses]);
            let log = self.find_or_create_log(meta);
            caches.log[lidx].set(LogCacheSlot {
                det_id: self.id,
                meta_val,
                epoch,
                log: log as *const ThreadLog,
            });
            (log as &ThreadLog, meta_val, epoch)
        };
        log.append(
            loc,
            &self.cfg,
            &self.stats,
            &self.overflow,
            &self.trace,
            epoch,
        );
        if log.hash_active() {
            // `loc` is now a member of the log's hash set, and members
            // are never removed while the object lives: memoize the
            // pair so identical re-registrations skip the walk until
            // the object dies.
            caches.reg[((loc >> 3) as usize) & (REG_CACHE_SLOTS - 1)].set(RegCacheSlot {
                det_id: self.id,
                meta_val,
                epoch,
                loc,
                value,
            });
            caches.reg_used.set(true);
        }
    }

    /// The deferred `on_free` tail: O(1) bookkeeping, no log walk.
    ///
    /// Enqueues the object's sweep: its already-detached log chain (the
    /// sweep becomes its sole owner) and the range snapshot the
    /// invalidation will check. Even the shadow teardown and the
    /// record's recycling ride along with the job — the retiring sweep
    /// does both just before it requeues the block. The heap has already
    /// quarantined the block, so nothing can allocate inside
    /// `[base, end]` until then — which is what makes both the deferred
    /// teardown and running the range check against a snapshot (instead
    /// of the live record) sound.
    fn defer_free(&self, queue: &SweepQueue, sweep: ObjectSweep) -> InvalidationReport {
        let obj_id = sweep.obj.obj_id;
        // The quarantine charge: the object's checked range is within a
        // byte of its block size, close enough for backpressure.
        let bytes = sweep.obj.end.saturating_sub(sweep.obj.base).max(1);
        let (pending, pending_bytes) = queue.push_object(sweep, bytes);
        self.trace.record(
            TraceLevel::Full,
            EventCode::SweepEnqueue,
            obj_id,
            pending,
            pending_bytes,
        );
        // Backpressure: past either quarantine cap the freeing thread
        // sweeps one batch of `BACKPRESSURE_BATCH` jobs and returns, so
        // one free pays for at most one batch. Each push adds one job
        // and each trip removes up to 32, so a mutator still cannot
        // outrun the sweeps, and a trip stays a batch (amortising the
        // queue round-trips) rather than a one-in-one-out lockstep. The
        // batch comes from the home shard first, so a thread sweeps
        // mostly its own objects, and steals only when that shard is
        // short — without the steal a thread whose backlog lives in
        // another shard would trip `over_cap` on every free while never
        // draining anything.
        if queue.over_cap() {
            let mut batch = Vec::with_capacity(BACKPRESSURE_BATCH);
            let stolen = queue.pop_batch(SweepQueue::home_shard(), BACKPRESSURE_BATCH, &mut batch);
            self.stats.add(&[
                (Counter::SweepsBackpressure, batch.len() as u64),
                (Counter::SweepSteals, stolen),
            ]);
            for job in queue.hold(batch) {
                self.run_object_sweep(job, SWEEP_MODE_BACKPRESSURE);
            }
        }
        // The walk has not run yet: the report is empty by contract, and
        // the outcome lands in the stats when the sweep retires.
        InvalidationReport::default()
    }

    /// The sweep engine — the paper's `invalptrs` — for every free that
    /// has a log chain, inline or queued: drain the detached chain, sort
    /// and dedup it, invalidate page run by page run, and retire the
    /// object. Returns the retired outcome.
    fn run_object_sweep(&self, sweep: ObjectSweep, mode: u64) -> InvalidationReport {
        let ObjectSweep { obj, logs } = sweep;
        // Drain every tier of every thread's log into this thread's
        // scratch buffer (no host allocation in steady state), recycling
        // each drained log on the way...
        let mut locs = SWEEP_SCRATCH.try_with(Cell::take).unwrap_or_default();
        let mut cur = logs.0;
        while !cur.is_null() {
            // SAFETY: the chain was detached from its record with a
            // `swap`, making this sweep its sole owner; logs are
            // pool-owned type-stable memory.
            let log = unsafe { &*cur };
            log.for_each_location(|loc| locs.push(loc));
            let next = log.next.load(Ordering::Acquire);
            log.reset(&self.overflow);
            self.log_pool.recycle(log);
            cur = next;
        }
        let walked = locs.len() as u64;
        // ...then collapse duplicates (cross-thread repeats plus
        // same-thread repeats the lookback window missed) so each
        // location is classified exactly once. Sorting also puts each
        // page's locations in one contiguous run for the walk.
        locs.sort_unstable();
        locs.dedup();
        let (report, pages) = self.walk(&locs, &obj, walked, mode);
        let unique = locs.len() as u64;
        locs.clear();
        let _ = SWEEP_SCRATCH.try_with(|s| s.set(locs));
        let shape = SweepShape {
            walked,
            unique,
            pages,
        };
        self.retire(&obj, shape, &report);
        report
    }

    /// Invalidates a sorted, deduped location slice against `obj`'s
    /// inclusive range, one page run at a time: each run translates its
    /// page once (TLB-accelerated) and its adjacent slots coalesce into
    /// one [`dangsan_vmem::PageRef::invalidate_run`] masked CAS loop.
    /// Each word gets its own CAS, so a pointer the program overwrote
    /// concurrently is never clobbered (§4.4), and only the MSB is set,
    /// so the address stays recoverable and arithmetic on a freed
    /// pointer keeps working. An unmapped page — released memory, the
    /// paper's SIGSEGV skip — is one fault for the whole run, counted
    /// per location. Records the `FreeSweep` span (`walked` and `mode`
    /// ride in its payload) and returns the outcome plus the pages
    /// translated.
    fn walk(
        &self,
        locs: &[Addr],
        obj: &FreedObject,
        walked: u64,
        mode: u64,
    ) -> (InvalidationReport, u64) {
        let span = self.trace.span_start(TraceLevel::Full);
        let mut report = InvalidationReport::default();
        let mut pages = 0u64;
        for run in page_runs(locs) {
            pages += 1;
            match self.mem.with_page(run[0]) {
                Err(fault) => {
                    debug_assert_eq!(fault.kind, FaultKind::Unmapped);
                    report.skipped_unmapped += run.len() as u64;
                }
                Ok(page) => {
                    for slots in run.chunk_by(|a, b| a + 8 == *b) {
                        let (invalidated, stale) = page.invalidate_run(
                            slots[0],
                            slots.len(),
                            obj.base,
                            obj.end,
                            INVALID_BIT,
                        );
                        report.invalidated += invalidated;
                        report.stale += stale;
                    }
                }
            }
        }
        self.trace.span_end(
            span,
            EventCode::FreeSweep,
            obj.obj_id,
            pack_sweep_mode(walked, pages, mode),
        );
        (report, pages)
    }

    /// Retires one freed object — inline or deferred, every free of a
    /// tracked object ends here: bulk-adds the walk's counters, records
    /// the lifecycle event, tears down the shadow mapping and recycles
    /// the metadata record, then runs the quarantine tail
    /// ([`Self::release_quarantined`]). The teardown must precede the
    /// requeue: a reallocation of this range must find cleared shadow
    /// slots, not the dying record.
    fn retire(&self, obj: &FreedObject, shape: SweepShape, report: &InvalidationReport) {
        self.stats.add(&[
            (Counter::PtrsInvalidated, report.invalidated),
            (Counter::StalePtrs, report.stale),
            (Counter::SigsegvSkips, report.skipped_unmapped),
            (Counter::FreeLocsWalked, shape.walked),
            (Counter::FreeDupLocs, shape.walked - shape.unique),
            (Counter::FreePagesTouched, shape.pages),
            (Counter::free_hist_bucket(shape.walked), 1),
        ]);
        self.trace.record(
            TraceLevel::Lifecycles,
            EventCode::ObjectFree,
            obj.base,
            obj.obj_id,
            report.invalidated,
        );
        // SAFETY: records are pool-owned type-stable memory, and from
        // detach to retire this free was the record's sole owner.
        let meta = unsafe { &*obj.meta.0 };
        self.map.clear_object(obj.base, obj.covered);
        self.meta_pool.recycle(meta);
        self.release_quarantined(obj.base);
    }

    /// The quarantine tail of a deferred-mode free: hands the block the
    /// heap quarantined back to it. A queued job's charge drops only
    /// after this, when its sweep returns (`sweep::Held`): once `pending`
    /// hits zero a [`DangSan::drain`] may return, and its contract is
    /// that every quarantined block circulates again.
    ///
    /// A no-op in synchronous mode: there the heap never quarantined the
    /// block — the caller frees it once `on_free` returns — so a requeue
    /// here would put a live block on two free lists.
    fn release_quarantined(&self, base: Addr) {
        if self.sweep.is_none() {
            return;
        }
        let heap = self.heap.lock().expect("not poisoned").upgrade();
        if let Some(heap) = heap {
            heap.requeue_batch(&[base]);
        }
    }

    /// Blocks until every deferred sweep enqueued so far has retired,
    /// sweeping the queued jobs on the calling thread. After this
    /// returns, all counters are exact and every quarantined block is
    /// allocatable again. No-op in synchronous mode.
    pub fn drain(&self) {
        let Some(queue) = &self.sweep else {
            return;
        };
        loop {
            let mut held = queue.hold(queue.pop(SweepQueue::home_shard()));
            if let Some(job) = held.next() {
                self.run_object_sweep(job, SWEEP_MODE_INLINE);
                continue;
            }
            if queue.pending() == 0 {
                break;
            }
            // Another thread's backpressure batch is still in flight:
            // wait for a retire (or for a job to be pushed).
            queue.wait_for_retire_or_work();
        }
    }

    /// The detector's metadata bytes, part by part; their sum is
    /// [`Detector::metadata_bytes`]. Read from counters the allocation
    /// paths already keep.
    pub fn metadata_ledger(&self) -> MetadataLedger {
        MetadataLedger {
            records: self.meta_pool.bytes(),
            logs: self.log_pool.bytes(),
            indirect_blocks: self.overflow.indirect_bytes(),
            hash_tables: self.overflow.table_bytes(),
            shadow: self.map.shadow_bytes(),
        }
    }
}

/// The shape counters of one finished walk (`Counter::Free*` bookkeeping).
struct SweepShape {
    walked: u64,
    unique: u64,
    pages: u64,
}

/// A sorted location buffer's page runs: the maximal slices whose
/// locations share a vmem page, so one translation serves each.
fn page_runs(locs: &[Addr]) -> impl Iterator<Item = &[Addr]> {
    locs.chunk_by(|a, b| a & !(PAGE_SIZE - 1) == b & !(PAGE_SIZE - 1))
}

impl Drop for DangSan {
    fn drop(&mut self) {
        self.drain();
    }
}

impl Detector for DangSan {
    fn name(&self) -> &'static str {
        "dangsan"
    }

    fn on_alloc(&self, alloc: &Allocation) {
        // Ensure the span's shadow pages exist (idempotent), then point
        // the object's shadow slots at a fresh metadata record.
        self.map
            .register_span(alloc.span_start, alloc.span_pages, alloc.shift);
        let meta = self.meta_pool.take();
        meta.init(alloc.base, alloc.requested, alloc.stride);
        self.map
            .set_object(alloc.base, alloc.stride, meta.as_meta_value());
        self.stats.bump(&[Counter::ObjectsAllocated]);
        if self.trace.enabled(TraceLevel::Lifecycles) {
            // The object's id *is* its epoch: globally never reused, so a
            // forensics pass can tell apart lifetimes sharing a base.
            self.trace.record(
                TraceLevel::Lifecycles,
                EventCode::ObjectAlloc,
                alloc.base,
                meta.epoch.load(Ordering::Relaxed),
                pack_size_site(alloc.requested, dangsan_trace::alloc_site()),
            );
        }
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        let Some(meta) = self.ptr2obj_cold(base) else {
            // With deferred sweeping the heap quarantined the block before
            // calling in; an untracked base has no sweep to retire it, so
            // the block must re-enter circulation here or it would leak.
            self.release_quarantined(base);
            return InvalidationReport::default();
        };
        // Retire this object's epoch before any of its logs are detached
        // or recycled: every cache slot keyed on (this record, old epoch)
        // — on any thread, in any layer — stops matching from here on.
        // Slots naming *other* objects are untouched, which is the whole
        // point: a free costs only the object being freed.
        let obj_id = meta.epoch.load(Ordering::Acquire);
        let new_epoch = fresh_epoch();
        meta.epoch.store(new_epoch, Ordering::Release);
        self.trace.record(
            TraceLevel::Full,
            EventCode::EpochRetire,
            obj_id,
            new_epoch,
            0,
        );
        // Detach the log chain up front: the free owns it from here, and
        // a registration racing the detach is dropped — the
        // §4.4-sanctioned race.
        let chain = meta.head.swap(ptr::null_mut(), Ordering::AcqRel);
        let obj = FreedObject {
            base: meta.base.load(Ordering::Acquire),
            end: meta.end.load(Ordering::Acquire),
            obj_id,
            covered: meta.covered.load(Ordering::Acquire),
            meta: MetaRef(meta),
            charge: None,
        };
        debug_assert_eq!(obj.base, base, "frees resolve to the block base");
        let sweep = ObjectSweep {
            obj,
            logs: LogChain(chain),
        };
        match &self.sweep {
            // Deferred mode: O(1) bookkeeping, then hand the walk to the
            // sweep subsystem. The report is all zeros — the outcome
            // lands in the stats once the sweep retires (exact after
            // [`DangSan::drain`]).
            Some(queue) => {
                self.stats
                    .bump(&[Counter::ObjectsFreed, Counter::FreesDeferred]);
                self.defer_free(queue, sweep)
            }
            None => {
                self.stats.bump(&[Counter::ObjectsFreed]);
                self.run_object_sweep(sweep, SWEEP_MODE_INLINE)
            }
        }
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        if let Some(meta) = self.ptr2obj_cold(base) {
            // The mapping (stride) is unchanged; only the valid range
            // grows or shrinks. This is the paper's "createobj again"
            // for in-place growth.
            meta.end.store(base + new_size, Ordering::Release);
        }
    }

    #[inline]
    fn register_ptr(&self, loc: Addr, value: u64) {
        if self.cfg.hot_path_caches {
            return self.register_ptr_cached(loc, value);
        }
        let Some(meta) = self.ptr2obj(value) else {
            return;
        };
        self.stats.bump(&[Counter::PtrsRegistered]);
        let log = self.find_or_create_log(meta);
        let epoch = meta.epoch.load(Ordering::Relaxed);
        log.append(
            loc,
            &self.cfg,
            &self.stats,
            &self.overflow,
            &self.trace,
            epoch,
        );
    }

    fn on_memcpy(&self, dst: Addr, len: u64) {
        if !self.cfg.hook_memcpy {
            return;
        }
        // The §7 extension: "looking up every pointer-sized value in a
        // given chunk to determine whether it points to an object". Words
        // that resolve through the metapagetable are re-registered at
        // their new locations; the free-time value check keeps any
        // integer false positives harmless in the same way it handles
        // stale entries.
        //
        // The scan is page-batched: one translation per page of the
        // destination, not one per word. Word-aligned destinations only —
        // a misaligned word cannot hold an aligned heap pointer the
        // detector would ever track, and the per-word path would fault on
        // every read anyway.
        if !dst.is_multiple_of(8) {
            return;
        }
        let words = len / 8;
        let mut i = 0u64;
        while i < words {
            let loc = dst + i * 8;
            let span = (words - i).min(((loc & !(PAGE_SIZE - 1)) + PAGE_SIZE - loc) / 8);
            match self.mem.with_page(loc) {
                Err(_) => {
                    // Unmapped destination page: the old per-word loop
                    // skipped each of its words individually; skip them
                    // wholesale (pages are mapped and unmapped as units).
                    i += span;
                }
                Ok(page) => {
                    for w in 0..span {
                        let loc = loc + w * 8;
                        let value = page.read_word(loc);
                        self.register_ptr(loc, value);
                    }
                    i += span;
                }
            }
        }
    }

    fn defers_free(&self) -> bool {
        self.cfg.deferred_sweep
    }

    fn drain(&self) {
        DangSan::drain(self);
    }

    fn bind_heap(&self, heap: &Arc<Heap>) {
        *self.heap.lock().expect("not poisoned") = Arc::downgrade(heap);
        let Some(hub) = &self.metrics else {
            return;
        };
        // Register the allocator gauges once; re-binding (or binding a
        // replacement heap) must not duplicate the source. The source
        // reads the shared `heap` slot rather than capturing this
        // heap's Weak, so a later re-bind retargets the gauges to the
        // replacement heap instead of going dark when the original
        // heap drops.
        if self.heap_gauges_bound.swap(true, Ordering::AcqRel) {
            return;
        }
        let slot = Arc::clone(&self.heap);
        hub.register_source(move |c| {
            let heap = slot.lock().expect("not poisoned").upgrade();
            if let Some(heap) = heap {
                c.gauge("heap_resident_bytes", heap.resident_bytes());
                c.gauge("heap_magazine_blocks", heap.magazine_blocks());
                for (i, blocks) in heap.central_shard_blocks().iter().enumerate() {
                    c.gauge(&format!("heap_central_blocks_{i}"), *blocks);
                }
            }
        });
    }

    fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        let tlb = self.mem.tlb_stats();
        snap.tlb_hits = tlb.hits;
        snap.tlb_misses = tlb.misses;
        let p2o = self.map.cache_stats();
        snap.ptr2obj_cache_hits = p2o.hits;
        snap.ptr2obj_cache_misses = p2o.misses;
        if let Some(queue) = self.sweep.as_ref() {
            snap.sweep_shard_peaks = queue.shard_peaks();
        }
        snap
    }

    fn metadata_bytes(&self) -> u64 {
        self.metadata_ledger().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan_heap::Heap;

    fn setup() -> (Arc<AddressSpace>, Arc<dangsan_heap::Heap>, Arc<DangSan>) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSan::new(Arc::clone(&mem), Config::default());
        (mem, heap, det)
    }

    fn alloc(
        heap: &Heap,
        det: &DangSan,
        mem: &AddressSpace,
        size: u64,
    ) -> dangsan_heap::Allocation {
        let a = heap.malloc(size).unwrap();
        det.on_alloc(&a);
        let _ = mem; // objects start zeroed
        a
    }

    #[test]
    fn single_pointer_is_invalidated() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 40);
        let holder = alloc(&heap, &det, &mem, 8);
        mem.write_word(holder.base, obj.base).unwrap();
        det.register_ptr(holder.base, obj.base);
        let r = det.on_free(obj.base);
        assert_eq!(r.invalidated, 1);
        let v = mem.read_word(holder.base).unwrap();
        assert_eq!(v, obj.base | INVALID_BIT);
        // Dereferencing the invalidated pointer now traps.
        assert_eq!(mem.read_word(v).unwrap_err().kind, FaultKind::NonCanonical);
    }

    #[test]
    fn interior_pointers_are_tracked_and_invalidated() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 100);
        let holder = alloc(&heap, &det, &mem, 32);
        let interior = obj.base + 64;
        mem.write_word(holder.base + 8, interior).unwrap();
        det.register_ptr(holder.base + 8, interior);
        let r = det.on_free(obj.base);
        assert_eq!(r.invalidated, 1);
        assert_eq!(
            mem.read_word(holder.base + 8).unwrap(),
            interior | INVALID_BIT
        );
    }

    #[test]
    fn one_past_the_end_pointer_is_invalidated() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 16);
        let holder = alloc(&heap, &det, &mem, 8);
        let past = obj.base + 16; // legal C one-past-the-end pointer
        mem.write_word(holder.base, past).unwrap();
        det.register_ptr(holder.base, past);
        let r = det.on_free(obj.base);
        assert_eq!(r.invalidated, 1, "guard byte keeps past-end in range");
    }

    #[test]
    fn overwritten_pointer_is_stale_not_invalidated() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 40);
        let other = alloc(&heap, &det, &mem, 40);
        let holder = alloc(&heap, &det, &mem, 8);
        mem.write_word(holder.base, obj.base).unwrap();
        det.register_ptr(holder.base, obj.base);
        // The program overwrites the slot with a pointer to another object.
        mem.write_word(holder.base, other.base).unwrap();
        det.register_ptr(holder.base, other.base);
        let r = det.on_free(obj.base);
        assert_eq!(r.invalidated, 0);
        assert_eq!(r.stale, 1);
        // The new pointer is untouched.
        assert_eq!(mem.read_word(holder.base).unwrap(), other.base);
        // Freeing the other object invalidates it.
        let r2 = det.on_free(other.base);
        assert_eq!(r2.invalidated, 1);
    }

    #[test]
    fn pointers_on_unmapped_pages_are_skipped() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 40);
        // Store the pointer on a simulated stack page, then tear it down.
        let stack = dangsan_vmem::STACKS_BASE;
        mem.map(stack, dangsan_vmem::PAGE_SIZE).unwrap();
        mem.write_word(stack + 16, obj.base).unwrap();
        det.register_ptr(stack + 16, obj.base);
        mem.unmap(stack, dangsan_vmem::PAGE_SIZE).unwrap();
        let r = det.on_free(obj.base);
        assert_eq!(r.skipped_unmapped, 1);
        assert_eq!(r.invalidated, 0);
    }

    #[test]
    fn stack_and_global_locations_are_tracked() {
        // DangSan's coverage advantage over DangNULL: locations anywhere.
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 64);
        mem.map(dangsan_vmem::GLOBALS_BASE, dangsan_vmem::PAGE_SIZE)
            .unwrap();
        mem.map(dangsan_vmem::STACKS_BASE, dangsan_vmem::PAGE_SIZE)
            .unwrap();
        let g = dangsan_vmem::GLOBALS_BASE + 8;
        let s = dangsan_vmem::STACKS_BASE + 8;
        for loc in [g, s] {
            mem.write_word(loc, obj.base).unwrap();
            det.register_ptr(loc, obj.base);
        }
        let r = det.on_free(obj.base);
        assert_eq!(r.invalidated, 2);
        assert_eq!(mem.read_word(g).unwrap(), obj.base | INVALID_BIT);
        assert_eq!(mem.read_word(s).unwrap(), obj.base | INVALID_BIT);
    }

    #[test]
    fn non_pointer_values_are_not_registered() {
        let (mem, heap, det) = setup();
        let _obj = alloc(&heap, &det, &mem, 64);
        let holder = alloc(&heap, &det, &mem, 8);
        det.register_ptr(holder.base, 42); // an integer, not a pointer
        det.register_ptr(holder.base, 0);
        assert_eq!(det.stats().ptrs_registered, 0);
    }

    #[test]
    fn meta_and_logs_are_recycled() {
        let (mem, heap, det) = setup();
        for _ in 0..100 {
            let obj = alloc(&heap, &det, &mem, 48);
            let holder = alloc(&heap, &det, &mem, 8);
            mem.write_word(holder.base, obj.base).unwrap();
            det.register_ptr(holder.base, obj.base);
            det.on_free(obj.base);
            det.on_free(holder.base);
            heap.free(obj.base).unwrap();
            heap.free(holder.base).unwrap();
        }
        // Pool recycling keeps allocation counts tiny despite 200 objects.
        assert!(det.meta_pool.allocated() <= 4);
        assert!(det.log_pool.allocated() <= 4);
    }

    #[test]
    fn promotions_reuse_tables_that_other_logs_returned() {
        // A: 64 objects reach the hash tier together, then die. B: 64
        // one-pointer objects take their 64 recycled logs. C: 64 more
        // objects reach the hash tier on fresh logs, and must find A's
        // tables in the pools rather than allocate new ones.
        const OBJS: u64 = 64;
        const LOCS: u64 = 100;
        let (mem, heap, det) = setup();
        // Locations 256 bytes apart never compress, so 100 of them fill
        // the embedded and indirect tiers.
        let holder = alloc(&heap, &det, &mem, LOCS * 256);
        let store = |loc: Addr, obj: Addr| {
            mem.write_word(loc, obj).unwrap();
            det.register_ptr(loc, obj);
        };
        let promote = || -> Vec<Addr> {
            let objs: Vec<Addr> = (0..OBJS)
                .map(|_| alloc(&heap, &det, &mem, 48).base)
                .collect();
            for &obj in &objs {
                for i in 0..LOCS {
                    store(holder.base + i * 256, obj);
                }
            }
            objs
        };
        for obj in promote() {
            det.on_free(obj);
            heap.free(obj).unwrap();
        }
        let small: Vec<Addr> = (0..OBJS)
            .map(|_| alloc(&heap, &det, &mem, 48).base)
            .collect();
        for (i, &obj) in small.iter().enumerate() {
            store(holder.base + i as u64 * 256, obj);
        }
        assert_eq!(det.stats().hashtables, OBJS);
        let table_bytes = det.metadata_ledger().hash_tables;
        promote();
        let after = det.stats();
        assert_eq!(after.hash_promotions, 2 * OBJS);
        assert_eq!(after.hashtables, OBJS, "C allocated tables");
        assert_eq!(det.metadata_ledger().hash_tables, table_bytes);
    }

    #[test]
    fn realloc_in_place_extends_range() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 16);
        let holder = alloc(&heap, &det, &mem, 8);
        // Pointer to a byte beyond the original size but within the grown
        // size.
        let future_interior = obj.base + 20;
        det.on_realloc_in_place(obj.base, obj.usable);
        mem.write_word(holder.base, future_interior).unwrap();
        det.register_ptr(holder.base, future_interior);
        let r = det.on_free(obj.base);
        assert_eq!(r.invalidated, 1);
    }

    #[test]
    fn double_invalidation_free_is_harmless() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 40);
        det.on_free(obj.base);
        // Second on_free finds no mapping: empty report, no panic.
        let r = det.on_free(obj.base);
        assert_eq!(r, InvalidationReport::default());
    }

    #[test]
    fn stats_match_table1_semantics() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 40);
        let holder = alloc(&heap, &det, &mem, 64);
        // 3 registrations of the same location: 2 are duplicates.
        for _ in 0..3 {
            mem.write_word(holder.base, obj.base).unwrap();
            det.register_ptr(holder.base, obj.base);
        }
        // A second distinct location.
        mem.write_word(holder.base + 32, obj.base + 8).unwrap();
        det.register_ptr(holder.base + 32, obj.base + 8);
        det.on_free(obj.base);
        let s = det.stats();
        assert_eq!(s.objects_allocated, 2);
        assert_eq!(s.ptrs_registered, 4);
        assert_eq!(s.dup_ptrs, 2);
        assert_eq!(s.ptrs_invalidated, 2);
        assert_eq!(s.objects_freed, 1);
        assert!(det.metadata_bytes() > 0);
    }

    #[test]
    fn many_threads_store_pointers_to_one_object() {
        let (mem, heap, det) = setup();
        let obj = alloc(&heap, &det, &mem, 128);
        let holders = alloc(&heap, &det, &mem, 8 * 64);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let mem = Arc::clone(&mem);
            let det = Arc::clone(&det);
            let loc_base = holders.base + t * 64;
            let target = obj.base + t * 8;
            handles.push(std::thread::spawn(move || {
                for i in 0..8u64 {
                    let loc = loc_base + i * 8;
                    mem.write_word(loc, target).unwrap();
                    det.register_ptr(loc, target);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = det.on_free(obj.base);
        assert_eq!(r.invalidated, 64);
        assert!(det.stats().logs_created >= 8, "one log per thread");
        for t in 0..8u64 {
            for i in 0..8u64 {
                let v = mem.read_word(holders.base + t * 64 + i * 8).unwrap();
                assert_ne!(v & INVALID_BIT, 0, "loc t={t} i={i} invalidated");
            }
        }
    }

    #[test]
    fn warm_log_cache_does_not_survive_free_and_reuse() {
        let (mem, heap, det) = setup();
        let holder = alloc(&heap, &det, &mem, 8 * 4);
        // Warm the last-object cache with many stores into object A.
        let a = alloc(&heap, &det, &mem, 48);
        for i in 0..16u64 {
            mem.write_word(holder.base + (i % 4) * 8, a.base).unwrap();
            det.register_ptr(holder.base + (i % 4) * 8, a.base);
        }
        assert!(det.stats().log_cache_hits >= 10, "cache warmed");
        det.on_free(a.base);
        heap.free(a.base).unwrap();
        // Object B reuses A's slot (and, via the pool, typically A's very
        // metadata record — the case the generation check exists for).
        let b = alloc(&heap, &det, &mem, 48);
        assert_eq!(b.base, a.base, "allocator reuses the freed slot");
        mem.write_word(holder.base, b.base).unwrap();
        det.register_ptr(holder.base, b.base);
        // The registration above must land in B's (fresh) log: freeing B
        // invalidates it, and the count proves it was not lost in a stale
        // log from A's lifetime.
        let r = det.on_free(b.base);
        assert_eq!(r.invalidated, 1);
        assert_eq!(
            mem.read_word(holder.base).unwrap(),
            b.base | INVALID_BIT,
            "pointer to the reused object is invalidated through the cache"
        );
    }

    #[test]
    fn freeing_one_object_keeps_other_objects_caches_warm() {
        // The point of per-object epochs: freeing A retires only A's
        // epoch, so cached state for B — filled before the free, on any
        // thread — keeps validating. Under the old detector-global stamp
        // the free below flushed everything and the post-free stores all
        // missed.
        let (mem, heap, det) = setup();
        let holder = alloc(&heap, &det, &mem, 8 * 2);
        let a = alloc(&heap, &det, &mem, 48);
        let b = alloc(&heap, &det, &mem, 48);
        // Warm the log cache for both objects.
        for obj in [a.base, b.base] {
            for _ in 0..4 {
                mem.write_word(holder.base, obj).unwrap();
                det.register_ptr(holder.base, obj);
            }
        }
        let warmed = det.stats();
        det.on_free(a.base);
        // Stores into B after A's free must still hit B's cached log.
        for _ in 0..8 {
            mem.write_word(holder.base + 8, b.base).unwrap();
            det.register_ptr(holder.base + 8, b.base);
        }
        let after = det.stats();
        assert_eq!(
            after.log_cache_misses, warmed.log_cache_misses,
            "freeing A must not evict B's log-cache slot"
        );
        assert_eq!(after.log_cache_hits, warmed.log_cache_hits + 8);
        // And B's log really did receive the entries: free proves it
        // (both holder slots point at B by now).
        let r = det.on_free(b.base);
        assert_eq!(
            r.invalidated, 2,
            "post-free registrations landed in B's log"
        );
    }

    #[test]
    fn freeing_one_object_keeps_another_threads_cache_for_b_valid() {
        // Cross-thread variant of the acceptance criterion: thread T warms
        // its per-thread caches for object B, the main thread frees object
        // A, and T's next burst of stores into B still validates against
        // its cached slots (epochs are per object, caches are per thread —
        // neither axis is flushed by an unrelated free).
        let (mem, heap, det) = setup();
        let holder = alloc(&heap, &det, &mem, 8 * 2);
        let a = alloc(&heap, &det, &mem, 48);
        let b = alloc(&heap, &det, &mem, 48);
        let (warm_tx, warm_rx) = std::sync::mpsc::channel();
        let (freed_tx, freed_rx) = std::sync::mpsc::channel();
        let worker = {
            let (mem, det) = (Arc::clone(&mem), Arc::clone(&det));
            let (loc, b_base) = (holder.base, b.base);
            std::thread::spawn(move || {
                for _ in 0..4 {
                    mem.write_word(loc, b_base).unwrap();
                    det.register_ptr(loc, b_base);
                }
                let warmed = det.stats();
                warm_tx.send(()).unwrap();
                freed_rx.recv().unwrap();
                for _ in 0..8 {
                    mem.write_word(loc, b_base).unwrap();
                    det.register_ptr(loc, b_base);
                }
                let after = det.stats();
                (warmed, after)
            })
        };
        warm_rx.recv().unwrap();
        // Main thread registers into A and frees it while T waits.
        mem.write_word(holder.base + 8, a.base).unwrap();
        det.register_ptr(holder.base + 8, a.base);
        let r = det.on_free(a.base);
        assert_eq!(r.invalidated, 1);
        freed_tx.send(()).unwrap();
        let (warmed, after) = worker.join().unwrap();
        // Stats are detector-global, and the main thread's registration
        // into A (a cold cache on its own thread: one miss) happened
        // between the two snapshots — so exactly one miss is expected,
        // and none of it came from T's post-free stores into B.
        assert_eq!(
            after.log_cache_misses,
            warmed.log_cache_misses + 1,
            "only the main thread's A registration may miss"
        );
        assert_eq!(after.log_cache_hits, warmed.log_cache_hits + 8);
        let r = det.on_free(b.base);
        assert_eq!(r.invalidated, 1);
    }

    #[test]
    fn caches_do_not_change_reports_or_table1_counters() {
        // Run the identical sequence with the hot-path caches on and off;
        // every InvalidationReport and every paper-visible counter must
        // match exactly.
        let run = |caches: bool| {
            let mem = Arc::new(AddressSpace::new());
            let heap = Heap::new(Arc::clone(&mem));
            let det = DangSan::new(
                Arc::clone(&mem),
                Config::default().with_hot_path_caches(caches),
            );
            mem.set_tlb_enabled(caches);
            let holder = heap.malloc(8 * 8).unwrap();
            det.on_alloc(&holder);
            let mut reports = Vec::new();
            for round in 0..10u64 {
                let obj = heap.malloc(40 + round * 8).unwrap();
                det.on_alloc(&obj);
                for s in 0..8u64 {
                    let loc = holder.base + s * 8;
                    let val = obj.base + (s % 5) * 8;
                    mem.write_word(loc, val).unwrap();
                    det.register_ptr(loc, val);
                }
                // Overwrite one slot so a stale entry exists too.
                mem.write_word(holder.base, 7).unwrap();
                reports.push(det.on_free(obj.base));
                heap.free(obj.base).unwrap();
            }
            // Only the cache-effectiveness counters themselves may differ.
            (reports, det.stats().behavioural())
        };
        let (rep_on, stats_on) = run(true);
        let (rep_off, stats_off) = run(false);
        assert_eq!(rep_on, rep_off, "invalidation reports diverge");
        assert_eq!(stats_on, stats_off, "Table 1 counters diverge");
    }

    #[test]
    fn memoized_registrations_die_with_the_object() {
        // Drive a log into its hash tier so the registration memo fills,
        // then free the object and let the allocator hand out the same
        // base again. The memoized (loc, value) pairs must not swallow
        // registrations for the new object.
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        // Tiny array tiers: the hash activates after a handful of appends.
        let det = DangSan::new(
            Arc::clone(&mem),
            Config {
                compression: false,
                lookback: 0,
                indirect_capacity: 4,
                ..Config::default()
            },
        );
        let holder = alloc(&heap, &det, &mem, 8 * 32);
        let a = alloc(&heap, &det, &mem, 64);
        for pass in 0..3 {
            for s in 0..32u64 {
                let loc = holder.base + s * 8;
                mem.write_word(loc, a.base).unwrap();
                det.register_ptr(loc, a.base);
                let _ = pass;
            }
        }
        assert_eq!(det.stats().hashtables, 1, "hash tier active");
        let r = det.on_free(a.base);
        assert_eq!(r.invalidated, 32);
        heap.free(a.base).unwrap();
        let b = alloc(&heap, &det, &mem, 64);
        assert_eq!(b.base, a.base, "allocator reuses the freed slot");
        // Identical (loc, value) pairs to the ones memoized for A: they
        // must be appended to B's fresh log, not dropped as duplicates.
        for s in 0..32u64 {
            let loc = holder.base + s * 8;
            mem.write_word(loc, b.base).unwrap();
            det.register_ptr(loc, b.base);
        }
        let r = det.on_free(b.base);
        assert_eq!(r.invalidated, 32, "no registration lost to a stale memo");
    }

    #[test]
    fn caches_equivalent_in_the_hash_tier_regime() {
        // Same as `caches_do_not_change_reports_or_table1_counters`, but
        // with enough distinct locations (> embedded + indirect capacity,
        // compressed) to push logs into the hash tier, the regime where
        // the registration memo short-circuits the whole walk.
        const LOCS: u64 = 300;
        let run = |caches: bool| {
            let mem = Arc::new(AddressSpace::new());
            let heap = Heap::new(Arc::clone(&mem));
            let det = DangSan::new(
                Arc::clone(&mem),
                Config::default().with_hot_path_caches(caches),
            );
            mem.set_tlb_enabled(caches);
            let holder = heap.malloc(LOCS * 8).unwrap();
            det.on_alloc(&holder);
            let mut reports = Vec::new();
            for round in 0..3u64 {
                let obj = heap.malloc(128).unwrap();
                det.on_alloc(&obj);
                for pass in 0..4u64 {
                    for s in 0..LOCS {
                        let loc = holder.base + s * 8;
                        let val = obj.base + (s % 16) * 8;
                        mem.write_word(loc, val).unwrap();
                        det.register_ptr(loc, val);
                        let _ = pass;
                    }
                }
                reports.push((round, det.on_free(obj.base)));
                heap.free(obj.base).unwrap();
            }
            // A small object on the recycled log: its 3 pointers land in
            // the embedded tier, not the table the last lifetime grew, so
            // nothing is memoized and both arms must still agree.
            let obj = heap.malloc(32).unwrap();
            det.on_alloc(&obj);
            for s in 0..3u64 {
                let loc = holder.base + s * 8;
                mem.write_word(loc, obj.base).unwrap();
                det.register_ptr(loc, obj.base);
                det.register_ptr(loc, obj.base);
            }
            reports.push((3, det.on_free(obj.base)));
            heap.free(obj.base).unwrap();
            (reports, det.stats().behavioural())
        };
        let (rep_on, stats_on) = run(true);
        let (rep_off, stats_off) = run(false);
        assert_eq!(rep_on, rep_off, "invalidation reports diverge");
        assert_eq!(stats_on, stats_off, "Table 1 counters diverge");
        assert_eq!(rep_on[3].1.invalidated, 3, "{rep_on:?}");
        // One allocation serves all rounds: reset returns the table to
        // the detector's table pools, and the next promotion takes it.
        assert!(
            stats_on.hashtables >= 1,
            "workload must exercise the hash tier: {stats_on:?}"
        );
    }

    #[test]
    fn a_backpressure_trip_sweeps_one_batch() {
        // Every sweep before `drain` runs on the freeing thread. A free
        // that trips a cap must sweep exactly one batch, and must leave
        // both caps respected when it returns. One arm trips the object
        // cap, the other the byte cap.
        const ROUNDS: usize = 2000;
        for (max_bytes, max_objects, size) in [(u64::MAX, 256, 64), (256 << 10, u64::MAX, 1024)] {
            let arm = format!("caps ({max_bytes}, {max_objects}), malloc({size})");
            let cfg = Config::default()
                .with_deferred_sweep(true)
                .with_quarantine_caps(max_bytes, max_objects);
            let mem = Arc::new(AddressSpace::new());
            let hh = crate::HookedHeap::new(Heap::new(Arc::clone(&mem)), DangSan::new(mem, cfg));
            let queue = hh.detector().sweep.as_ref().expect("deferred mode");
            let holder = hh.malloc(8).unwrap();
            let (mut swept, mut largest, mut trips) = (0, 0, 0);
            for _ in 0..ROUNDS {
                let obj = hh.malloc(size).unwrap();
                hh.store_ptr(holder.base, obj.base).unwrap();
                hh.free(obj.base).unwrap();
                let now = hh.detector().stats().sweeps_backpressure;
                if now > swept {
                    trips += 1;
                    largest = largest.max(now - swept);
                }
                swept = now;
                assert!(queue.pending() <= max_objects, "{arm}: {}", queue.pending());
                assert!(
                    queue.pending_bytes() <= max_bytes,
                    "{arm}: {}",
                    queue.pending_bytes()
                );
            }
            assert_eq!(
                largest, BACKPRESSURE_BATCH as u64,
                "{arm}: largest per-free sweep count over {trips} trips"
            );
        }
    }

    #[test]
    fn a_sweep_that_panics_leaves_drain_able_to_finish() {
        // A panic inside a backpressure sweep must not leak the queue
        // charges of its batch: the job that panicked releases its own,
        // and the jobs it never started go back on the queue. Otherwise
        // `pending` stays above zero and every later `drain` (the one in
        // detector drop too) waits forever. The panic comes from the
        // heap slot, poisoned here, which `release_quarantined` locks
        // inside the sweep.
        const OBJS: usize = 5;
        let cfg = Config::default()
            .with_deferred_sweep(true)
            .with_quarantine_caps(u64::MAX, OBJS as u64 - 1);
        let mem = Arc::new(AddressSpace::new());
        let hh = crate::HookedHeap::new(Heap::new(Arc::clone(&mem)), DangSan::new(mem, cfg));
        let det = Arc::clone(hh.detector());
        // One holder slot per object, so each sweep has its own pointer
        // to mask.
        let holders = hh.malloc(8 * OBJS as u64).unwrap().base;
        let objs: Vec<Addr> = (0..OBJS).map(|_| hh.malloc(48).unwrap().base).collect();
        for (i, obj) in objs.iter().enumerate() {
            hh.store_ptr(holders + i as u64 * 8, *obj).unwrap();
        }
        for obj in &objs[..OBJS - 1] {
            hh.free(*obj).unwrap();
        }
        let slot = Arc::clone(&det.heap);
        let poisoner = std::thread::spawn(move || {
            let _held = slot.lock().unwrap();
            panic!("poisons the heap slot");
        });
        assert!(poisoner.join().is_err());
        // The last free trips the object cap, and the first sweep of its
        // batch panics.
        let last = objs[OBJS - 1];
        let tripped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hh.free(last)));
        assert!(tripped.is_err(), "the sweep did not panic");
        det.heap.clear_poison();
        // Drain on another thread, so a hang fails the test instead of
        // stalling the suite.
        let (done, finished) = std::sync::mpsc::channel();
        let drainer = {
            let det = Arc::clone(&det);
            std::thread::spawn(move || {
                det.drain();
                let _ = done.send(());
            })
        };
        let pending = || det.sweep.as_ref().expect("deferred mode").pending();
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("drain hung with {} jobs pending", pending()));
        drainer.join().unwrap();
        assert_eq!(pending(), 0);
        for i in 0..OBJS as u64 {
            let held = hh.load(holders + i * 8).unwrap();
            assert_ne!(held & INVALID_BIT, 0, "holder {i} not masked: {held:#x}");
        }
    }

    #[test]
    fn concurrent_free_and_register_is_safe() {
        // The paper-admitted race: registrations concurrent with free may
        // be missed, but nothing crashes and other objects are unaffected.
        let (mem, heap, det) = setup();
        let slots = alloc(&heap, &det, &mem, 8 * 128);
        let stop = Arc::new(core::sync::atomic::AtomicBool::new(false));
        let registrar = {
            let (mem, det, stop) = (Arc::clone(&mem), Arc::clone(&det), Arc::clone(&stop));
            let heap = Arc::clone(&heap);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let obj = heap.malloc(16).unwrap();
                    det.on_alloc(&obj);
                    let loc = slots.base + (i % 128) * 8;
                    mem.write_word(loc, obj.base).unwrap();
                    det.register_ptr(loc, obj.base);
                    det.on_free(obj.base);
                    heap.free(obj.base).unwrap();
                    i += 1;
                }
            })
        };
        for _ in 0..2000 {
            let obj = heap.malloc(16).unwrap();
            det.on_alloc(&obj);
            det.on_free(obj.base);
            heap.free(obj.base).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        registrar.join().unwrap();
    }
}
