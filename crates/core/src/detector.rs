//! The DangSan detector: pointer tracker + pointer logger + invalidation.

use core::sync::atomic::Ordering;
use std::cell::Cell;
use std::ptr;
use std::sync::{Arc, OnceLock};

use dangsan_heap::{Allocation, Heap};
use dangsan_shadow::MetaPageTable;
use dangsan_trace::{
    forensics, pack_size_site, pack_sweep_mode, EventCode, Trace, TraceLevel, Tracer,
    SWEEP_MODE_BACKPRESSURE, SWEEP_MODE_INLINE,
};
use dangsan_vmem::{Addr, AddressSpace, FaultKind, INVALID_BIT, PAGE_SIZE};

use crate::api::{bind_once, Detector, InvalidationReport};
use crate::config::Config;
use crate::log::{Overflow, ThreadLog};
use crate::object::ObjectMeta;
use crate::pool::Pool;
use crate::stats::{Counter, MetadataLedger, Stats, StatsSnapshot};
use crate::sweep::{FreedObject, LogChain, MetaRef, ObjectSweep, SweepQueue};
use dangsan_telemetry::{Collector, MetricsHub};

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

thread_local! {
    /// The sweep engine's location buffer, taken and put back by every
    /// [`DangSan::run_object_sweep`] on this thread. It keeps its
    /// capacity, so a steady-state workload reaches its high-water mark
    /// once and the free path never allocates (nor takes a lock) again.
    static SWEEP_SCRATCH: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
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
    /// The detector's flight-recorder attach point. Holds the level and
    /// (once attached) the tracer; with `Config::trace_level` at `Off`
    /// every record site is a relaxed load + untaken branch.
    trace: Trace,
    /// The deferred-sweep quarantine queue; `Some` exactly when
    /// `Config::deferred_sweep` is on.
    sweep: Option<SweepQueue>,
    /// The heap this detector is hooked in front of, set once by
    /// [`Detector::bind_heap`]. A retiring deferred sweep requeues its
    /// quarantined block here, reading the slot without a lock.
    heap: OnceLock<Arc<Heap>>,
    /// The telemetry hub; `Some` exactly when `Config::metrics` is on.
    /// Pull-based: sources registered here read the counters the
    /// detector already keeps, so the malloc/store/free paths carry no
    /// metrics sites at all.
    metrics: Option<Arc<MetricsHub>>,
}

impl DangSan {
    /// Creates a detector for objects in `mem`'s heap segment and applies
    /// `cfg`'s trace level to `mem` and the detector's shadow map: one
    /// tracer shared with both. [`Detector::bind_heap`] applies the rest
    /// to the heap. Starts no thread.
    pub fn new(mem: Arc<AddressSpace>, cfg: Config) -> Arc<DangSan> {
        let map = MetaPageTable::new();
        let trace = Trace::new();
        if cfg.trace_level != TraceLevel::Off {
            // One tracer spans the stack: detector, shadow mapper,
            // address space and (once bound) heap all feed the same
            // per-thread rings, so a forensics pass sees vmem traps next
            // to frees.
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
            trace,
            sweep,
            heap: OnceLock::new(),
            metrics: cfg.metrics.then(MetricsHub::new),
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
        }
        det
    }

    /// The flight recorder created by [`DangSan::new`], when
    /// `Config::trace_level` is not `Off`. The heap's carve events join
    /// its rings once [`Detector::bind_heap`] has run (`HookedHeap::new`
    /// runs it). Hand it to [`dangsan_trace::forensics::uaf_report`].
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
    /// collections; start a JSONL time series with
    /// [`MetricsHub::start_sampler`], or call [`MetricsHub::prometheus`]
    /// for a text exposition dump.
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
    /// metadata, if tracked. A value outside the heap resolves to nothing
    /// in the metapagetable's own walk.
    #[inline]
    fn ptr2obj(&self, value: u64) -> Option<&ObjectMeta> {
        let meta_val = self.map.lookup(value)?;
        // SAFETY: metapagetable values are written exclusively by
        // `on_alloc` from `as_meta_value` on records owned by `meta_pool`,
        // which lives as long as `self`.
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
        let (pending, pending_bytes) = queue.push_object(sweep);
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
        self.recycle_chain(logs, |log| log.for_each_location(|loc| locs.push(loc)));
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

    /// Shows each log of a detached chain to `visit`, then resets it and
    /// returns it to the pool.
    fn recycle_chain(&self, chain: LogChain, mut visit: impl FnMut(&ThreadLog)) {
        let mut cur = chain.0;
        while !cur.is_null() {
            // SAFETY: the chain was detached from its record with a
            // `swap`, making the caller its sole owner; logs are
            // pool-owned type-stable memory.
            let log = unsafe { &*cur };
            visit(log);
            let next = log.next.load(Ordering::Acquire);
            log.reset(&self.overflow);
            self.log_pool.recycle(log);
            cur = next;
        }
    }

    /// Invalidates a sorted, deduped location slice against `obj`'s
    /// inclusive range, one page run at a time: each run translates its
    /// page once and its adjacent slots coalesce into one
    /// [`dangsan_vmem::PageRef::invalidate_run`] masked CAS loop.
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
        // A store of the freed value between the free's detach and the
        // clear above resolved to this record and may have hung a fresh
        // log on it. Its entries are post-free registrations, dropped
        // like any the detach raced (§4.4), but its logs go back to the
        // pool: `init` overwrites `head` at the record's next use.
        if !meta.head.load(Ordering::Acquire).is_null() {
            let late = meta.head.swap(ptr::null_mut(), Ordering::AcqRel);
            self.recycle_chain(LogChain(late), |_| {});
        }
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
        if let Some(heap) = self.heap.get() {
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
            } else if queue.pending() == 0 {
                break;
            } else {
                // Another thread's backpressure batch still holds jobs
                // (or a push has counted its job but not queued it yet):
                // let that thread run, then look again.
                std::thread::yield_now();
            }
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
        let Some(meta) = self.ptr2obj(base) else {
            // With deferred sweeping the heap quarantined the block before
            // calling in; an untracked base has no sweep to retire it, so
            // the block must re-enter circulation here or it would leak.
            self.release_quarantined(base);
            return InvalidationReport::default();
        };
        // Detach the log chain up front: the free owns it from here, and
        // a registration racing the detach is dropped — the
        // §4.4-sanctioned race.
        let chain = meta.head.swap(ptr::null_mut(), Ordering::AcqRel);
        let obj = FreedObject {
            base: meta.base.load(Ordering::Acquire),
            end: meta.end.load(Ordering::Acquire),
            obj_id: meta.epoch.load(Ordering::Acquire),
            covered: meta.covered.load(Ordering::Acquire),
            meta: MetaRef(meta),
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
        if let Some(meta) = self.ptr2obj(base) {
            // The mapping (stride) is unchanged; only the valid range
            // grows or shrinks. This is the paper's "createobj again"
            // for in-place growth.
            meta.end.store(base + new_size, Ordering::Release);
        }
    }

    #[inline]
    fn register_ptr(&self, loc: Addr, value: u64) {
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
        if !bind_once(&self.heap, heap) {
            return;
        }
        heap.set_thread_cached(self.cfg.thread_cached_heap);
        if let Some(tracer) = self.trace.tracer() {
            heap.set_tracer(tracer);
        }
        let Some(hub) = &self.metrics else {
            return;
        };
        // The allocator gauges. The source keeps only a Weak: collection
        // is cold, and a hub that outlives the detector must not keep
        // the heap alive.
        let weak = Arc::downgrade(heap);
        hub.register_source(move |c| {
            if let Some(heap) = weak.upgrade() {
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
    fn registrations_after_free_and_reuse_land_in_the_new_lifetime() {
        let (mem, heap, det) = setup();
        let holder = alloc(&heap, &det, &mem, 8 * 4);
        // Many stores into object A, so A's record carries a log.
        let a = alloc(&heap, &det, &mem, 48);
        for i in 0..16u64 {
            mem.write_word(holder.base + (i % 4) * 8, a.base).unwrap();
            det.register_ptr(holder.base + (i % 4) * 8, a.base);
        }
        det.on_free(a.base);
        heap.free(a.base).unwrap();
        // Object B reuses A's slot and, via the pool, typically A's very
        // metadata record and log.
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
            "pointer to the reused object is invalidated"
        );
    }

    #[test]
    fn hash_tier_registrations_die_with_the_object() {
        // Drive a log into its hash tier, then free the object and let
        // the allocator hand out the same base again. The (loc, value)
        // pairs A's table held must not swallow registrations for the
        // new object.
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
        // Identical (loc, value) pairs to the ones A's table held: they
        // must be appended to B's fresh log, not dropped as duplicates.
        for s in 0..32u64 {
            let loc = holder.base + s * 8;
            mem.write_word(loc, b.base).unwrap();
            det.register_ptr(loc, b.base);
        }
        let r = det.on_free(b.base);
        assert_eq!(r.invalidated, 32, "no registration lost to A's table");
    }

    #[test]
    fn hash_tier_lifetimes_invalidate_every_location() {
        // Enough distinct locations (> embedded + indirect capacity,
        // compressed) to push each lifetime's log into the hash tier,
        // then a small object on the recycled log.
        const LOCS: u64 = 300;
        let (mem, heap, det) = setup();
        let holder = alloc(&heap, &det, &mem, LOCS * 8);
        for round in 0..3u64 {
            let obj = alloc(&heap, &det, &mem, 128);
            for _pass in 0..4u64 {
                for s in 0..LOCS {
                    let loc = holder.base + s * 8;
                    let val = obj.base + (s % 16) * 8;
                    mem.write_word(loc, val).unwrap();
                    det.register_ptr(loc, val);
                }
            }
            let r = det.on_free(obj.base);
            assert_eq!((r.invalidated, r.stale), (LOCS, 0), "round {round}");
            heap.free(obj.base).unwrap();
        }
        // Its 3 pointers land in the embedded tier, not the table the
        // last lifetime grew: every one is found.
        let obj = alloc(&heap, &det, &mem, 32);
        for s in 0..3u64 {
            let loc = holder.base + s * 8;
            mem.write_word(loc, obj.base).unwrap();
            det.register_ptr(loc, obj.base);
            det.register_ptr(loc, obj.base);
        }
        let r = det.on_free(obj.base);
        assert_eq!((r.invalidated, r.stale), (3, 0));
        heap.free(obj.base).unwrap();
        // Each of the three large lifetimes reached the hash tier.
        let s = det.stats();
        assert_eq!(s.hash_promotions, 3, "{s:?}");
    }

    #[test]
    fn post_free_registrations_do_not_strand_logs() {
        // In deferred mode a freed block's shadow slots still name its
        // record until the sweep retires it, so a store of the still-raw
        // value after the free hangs a fresh log on the record. The
        // retire must hand that log back to the pool: the log bytes stay
        // at the arm without late stores, plus at most the late log.
        let log_bytes = |late: bool| {
            let cfg = Config::default().with_deferred_sweep(true);
            let mem = Arc::new(AddressSpace::new());
            let hh = crate::HookedHeap::new(Heap::new(Arc::clone(&mem)), DangSan::new(mem, cfg));
            let holders = hh.malloc(16).unwrap();
            for _ in 0..1000 {
                let obj = hh.malloc(48).unwrap();
                hh.store_ptr(holders.base, obj.base).unwrap();
                hh.free(obj.base).unwrap();
                if late {
                    hh.store_ptr(holders.base + 8, obj.base).unwrap();
                }
                hh.detector().drain();
            }
            hh.detector().metadata_ledger().logs
        };
        let (clean, late) = (log_bytes(false), log_bytes(true));
        assert!(clean > 0);
        assert!(
            late <= 2 * clean,
            "late stores stranded logs: {late} B against {clean} B"
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
        // detector drop too) waits forever. The panic comes from a job
        // queued here whose shadow range was never registered: its
        // retire's `clear_object` finds no span.
        const OBJS: usize = 5;
        let cfg = Config::default()
            .with_deferred_sweep(true)
            .with_quarantine_caps(u64::MAX, OBJS as u64);
        let mem = Arc::new(AddressSpace::new());
        let hh = crate::HookedHeap::new(Heap::new(Arc::clone(&mem)), DangSan::new(mem, cfg));
        let det = Arc::clone(hh.detector());
        let queue = det.sweep.as_ref().expect("deferred mode");
        // One holder slot per object, so each sweep has its own pointer
        // to mask.
        let holders = hh.malloc(8 * OBJS as u64).unwrap().base;
        let objs: Vec<Addr> = (0..OBJS).map(|_| hh.malloc(48).unwrap().base).collect();
        for (i, obj) in objs.iter().enumerate() {
            hh.store_ptr(holders + i as u64 * 8, *obj).unwrap();
        }
        let unmapped = dangsan_vmem::GLOBALS_BASE;
        queue.push_object(ObjectSweep {
            obj: FreedObject {
                base: unmapped,
                end: unmapped + 48,
                obj_id: 0,
                covered: 48,
                meta: MetaRef(det.meta_pool.take()),
            },
            logs: LogChain(ptr::null_mut()),
        });
        for obj in &objs[..OBJS - 1] {
            hh.free(*obj).unwrap();
        }
        // The last free trips the object cap, and the first sweep of its
        // batch, the oldest job, panics.
        let last = objs[OBJS - 1];
        let tripped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hh.free(last)));
        assert!(tripped.is_err(), "the sweep did not panic");
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
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("drain hung with {} jobs pending", queue.pending()));
        drainer.join().unwrap();
        assert_eq!(queue.pending(), 0);
        for i in 0..OBJS as u64 {
            let held = hh.load(holders + i * 8).unwrap();
            assert_ne!(held & INVALID_BIT, 0, "holder {i} not masked: {held:#x}");
        }
    }

    #[test]
    fn drains_racing_backpressure_batches_always_finish() {
        // A drainer calls `drain` in a loop while two mutators free under
        // a 16-object cap, so drains keep finding the queue empty while a
        // mutator's backpressure batch still holds jobs. Each such drain
        // must wait those jobs out and return; none may hang.
        const MUTATORS: u64 = 2;
        const ROUNDS: u64 = 5000;
        let size = |round: u64| 16 + (round % 4) * 16;
        let cfg = Config::default()
            .with_deferred_sweep(true)
            .with_quarantine_caps(u64::MAX, 16);
        let mem = Arc::new(AddressSpace::new());
        let hh = crate::HookedHeap::new(Heap::new(Arc::clone(&mem)), DangSan::new(mem, cfg));
        let det = Arc::clone(hh.detector());
        let queue = det.sweep.as_ref().expect("deferred mode");
        let slots = hh.malloc(8 * MUTATORS).unwrap().base;
        let stop = Arc::new(core::sync::atomic::AtomicBool::new(false));
        let (done, finished) = std::sync::mpsc::channel();
        let drainer = {
            let (det, stop) = (Arc::clone(&det), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut longest = std::time::Duration::ZERO;
                loop {
                    let start = std::time::Instant::now();
                    det.drain();
                    longest = longest.max(start.elapsed());
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                let _ = done.send(longest);
            })
        };
        let mutators: Vec<_> = (0..MUTATORS)
            .map(|t| {
                let hh = hh.clone();
                let slot = slots + t * 8;
                std::thread::spawn(move || {
                    let mut th = hh.thread_handle();
                    let mut last = 0;
                    for round in 0..ROUNDS {
                        let obj = th.malloc(size(round)).unwrap();
                        th.store_ptr(slot, obj.base).unwrap();
                        th.free(obj.base).unwrap();
                        last = obj.base;
                    }
                    last
                })
            })
            .collect();
        let lasts: Vec<Addr> = mutators.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Release);
        let ten_s = std::time::Duration::from_secs(10);
        let longest = finished
            .recv_timeout(ten_s)
            .unwrap_or_else(|_| panic!("a drain hung with {} jobs pending", queue.pending()));
        drainer.join().unwrap();
        assert!(longest < ten_s, "a drain took {longest:?}");
        det.drain();
        assert_eq!(queue.pending(), 0);
        for (t, last) in lasts.iter().enumerate() {
            assert_eq!(
                hh.load(slots + t as u64 * 8).unwrap(),
                last | INVALID_BIT,
                "mutator {t}: last pointer not masked"
            );
        }
        // Every block retired exactly once: twice as many mallocs as
        // frees, of the same sizes, never see a base twice.
        let mut bases = std::collections::HashSet::from([slots]);
        for round in 0..2 * MUTATORS * ROUNDS {
            let base = hh.malloc(size(round)).unwrap().base;
            assert!(bases.insert(base), "block {base:#x} handed out twice");
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
