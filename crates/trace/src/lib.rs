//! Flight recorder: per-thread, lock-free, fixed-capacity event rings.
//!
//! The observability twin of DangSan's per-thread pointer logs. Every
//! layer of the stack (vmem faults, shadow remaps, heap span carving,
//! detector lifecycles) records compact 32-byte binary events into a ring
//! owned by the recording thread, using the same single-writer-slab
//! discipline as the counters in `dangsan::stats`: the owning thread
//! writes with plain load + store (never an RMW, never a lock), and any
//! thread may read the rings through the tracer's registry.
//!
//! Unlike the stats slabs — which *hand over* their counts when a thread
//! retires — rings stay registered for the tracer's whole lifetime: the
//! history a thread recorded must remain readable after the thread is
//! gone, or a use-after-free trap could never be attributed to a free
//! performed by an exited thread. A `thread::scope` worker's events are
//! therefore visible to [`Tracer::snapshot`] immediately after the scope
//! returns, with no dependence on TLS-destructor timing (the same
//! retirement rule `stats.rs` pins for counters). Memory is bounded at
//! one ring per (tracer, thread): a thread re-recording for a tracer it
//! previously recorded for reuses its existing ring.
//!
//! Components embed a [`Trace`] attach point. Until a [`Tracer`] is
//! attached the level is [`TraceLevel::Off`] and every record call is a
//! single relaxed load and a predictable branch — the ≤2% hot-path budget
//! of the `trace_level=Off` ablation.
//!
//! On a use-after-free trap (a non-canonical dereference in vmem, i.e. an
//! address with bit 63 set), [`uaf_report`] walks the rings and attributes
//! the trap: which object, which free, which thread — see [`forensics`].

use core::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod forensics;
pub use forensics::{uaf_report, uaf_report_with, UafReport};

/// Returns this thread's stable small integer id (monotonic from 1).
///
/// One id space serves the whole stack: the detector keys its per-thread
/// pointer logs by this id and the recorder keys its rings by it, so a
/// forensics report's "freeing thread" names the same thread the
/// detector's log list does.
pub fn current_thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    /// The current allocation-site id, recorded in [`EventCode::ObjectAlloc`].
    static ALLOC_SITE: Cell<u64> = const { Cell::new(0) };
}

/// Sets the calling thread's allocation-site id (16 bits are recorded).
///
/// Workloads label their allocation call sites with this the way the
/// paper's LLVM pass would assign static site ids; 0 means "unlabelled".
pub fn set_alloc_site(site: u64) {
    ALLOC_SITE.with(|s| s.set(site));
}

/// The calling thread's current allocation-site id.
pub fn alloc_site() -> u64 {
    ALLOC_SITE.with(|s| s.get())
}

/// How much the recorder captures. Levels are cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum TraceLevel {
    /// Record nothing; every record call is one relaxed load + branch.
    #[default]
    Off = 0,
    /// Object birth/free, epoch retirements and vmem faults — everything
    /// [`uaf_report`] needs to attribute a trap.
    Lifecycles = 1,
    /// Everything: sweep spans, log-tier promotions, shadow remaps,
    /// heap span carving.
    Full = 2,
}

/// Event kinds. The payload meaning of `a`/`b`/`c` is per code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventCode {
    /// Object birth. `a`=base, `b`=object id (its epoch),
    /// `c`=[`pack_size_site`] of (requested size, allocation site).
    ObjectAlloc = 1,
    /// Object free, after its invalidation walk. `a`=base, `b`=object id
    /// (the epoch the object lived under), `c`=locations invalidated.
    ObjectFree = 2,
    /// Span: one free's invalidation sweep. `a`=object id,
    /// `b`=[`pack_sweep`] of (locations walked, pages touched),
    /// `c`=duration in nanoseconds.
    FreeSweep = 3,
    /// A cache-epoch retirement at free start. `a`=retired epoch (the
    /// object id), `b`=replacement epoch.
    EpochRetire = 4,
    /// A per-thread log grew a tier. `a`=object id, `b`=tier
    /// (1=indirect block, 2=hash table, 3=chained indirect block,
    /// 4=hash grow), `c`=new capacity in entries.
    TierPromote = 5,
    /// Span: shadow slots pointed at an object's metadata. `a`=base,
    /// `b`=bytes covered, `c`=duration in nanoseconds.
    ShadowSet = 6,
    /// Span: shadow slots cleared at free. `a`=base, `b`=bytes covered,
    /// `c`=duration in nanoseconds.
    ShadowClear = 7,
    /// Shadow pages materialised for a heap span. `a`=span start,
    /// `b`=span pages, `c`=compression shift.
    SpanRegister = 8,
    /// A memory fault. `a`=faulting address, `b`=kind (0=unmapped,
    /// 1=non-canonical — the UAF trap, 2=unaligned).
    VmemFault = 9,
    /// The heap carved fresh pages into a span. `a`=span start,
    /// `b`=pages.
    HeapCarve = 10,
    /// A free's invalidation sweep was enqueued for deferred execution.
    /// `a`=object id, `b`=jobs pending in the sweep queue after this
    /// enqueue, `c`=bytes quarantined after this enqueue.
    SweepEnqueue = 11,
}

impl EventCode {
    /// Decodes a stored code byte.
    pub fn from_u8(v: u8) -> Option<EventCode> {
        Some(match v {
            1 => EventCode::ObjectAlloc,
            2 => EventCode::ObjectFree,
            3 => EventCode::FreeSweep,
            4 => EventCode::EpochRetire,
            5 => EventCode::TierPromote,
            6 => EventCode::ShadowSet,
            7 => EventCode::ShadowClear,
            8 => EventCode::SpanRegister,
            9 => EventCode::VmemFault,
            10 => EventCode::HeapCarve,
            11 => EventCode::SweepEnqueue,
            _ => return None,
        })
    }

    /// Stable lower-snake name (used by the exporters).
    pub fn name(self) -> &'static str {
        match self {
            EventCode::ObjectAlloc => "object_alloc",
            EventCode::ObjectFree => "object_free",
            EventCode::FreeSweep => "free_sweep",
            EventCode::EpochRetire => "epoch_retire",
            EventCode::TierPromote => "tier_promote",
            EventCode::ShadowSet => "shadow_set",
            EventCode::ShadowClear => "shadow_clear",
            EventCode::SpanRegister => "span_register",
            EventCode::VmemFault => "vmem_fault",
            EventCode::HeapCarve => "heap_carve",
            EventCode::SweepEnqueue => "sweep_enqueue",
        }
    }

    /// Whether the event carries a duration in `c` (a span, rendered as a
    /// Chrome "complete" event; the timestamp marks the span's *end*).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventCode::FreeSweep | EventCode::ShadowSet | EventCode::ShadowClear
        )
    }
}

/// The `c` payload shares its event word with the code byte.
const C_BITS: u32 = 56;

/// Packs an object size and an allocation-site id into one `c` payload
/// (size in the low 40 bits, site in the 16 above).
pub fn pack_size_site(size: u64, site: u64) -> u64 {
    (size & ((1 << 40) - 1)) | ((site & 0xffff) << 40)
}

/// The size half of [`pack_size_site`].
pub fn unpack_size(c: u64) -> u64 {
    c & ((1 << 40) - 1)
}

/// The site half of [`pack_size_site`].
pub fn unpack_site(c: u64) -> u64 {
    (c >> 40) & 0xffff
}

/// How a free's invalidation sweep was executed, recorded in the top
/// bits of the [`EventCode::FreeSweep`] `b` payload (see
/// [`pack_sweep_mode`]).
pub const SWEEP_MODE_INLINE: u64 = 0;
/// The sweep ran on a helper thread, pulled from its home shard.
pub const SWEEP_MODE_DEFERRED: u64 = 1;
/// The sweep ran on a helper thread that stole it from another shard.
pub const SWEEP_MODE_STOLEN: u64 = 2;
/// The sweep ran inline on the freeing thread, in the batch a free that
/// exceeded a quarantine cap sweeps (backpressure).
pub const SWEEP_MODE_BACKPRESSURE: u64 = 3;

/// Packs an invalidation sweep's shape into one `b` payload (pages in the
/// low 24 bits, locations walked in the 30 above, execution mode — one of
/// the `SWEEP_MODE_*` constants — in bits 54–55).
pub fn pack_sweep_mode(walked: u64, pages: u64, mode: u64) -> u64 {
    (pages & ((1 << 24) - 1)) | ((walked & ((1 << 30) - 1)) << 24) | ((mode & 0x3) << 54)
}

/// [`pack_sweep_mode`] with [`SWEEP_MODE_INLINE`].
pub fn pack_sweep(walked: u64, pages: u64) -> u64 {
    pack_sweep_mode(walked, pages, SWEEP_MODE_INLINE)
}

/// The locations-walked half of [`pack_sweep_mode`].
pub fn unpack_walked(b: u64) -> u64 {
    (b >> 24) & ((1 << 30) - 1)
}

/// The pages half of [`pack_sweep_mode`].
pub fn unpack_pages(b: u64) -> u64 {
    b & ((1 << 24) - 1)
}

/// The execution-mode half of [`pack_sweep_mode`].
pub fn unpack_sweep_mode(b: u64) -> u64 {
    (b >> 54) & 0x3
}

/// One decoded event, as returned by [`Tracer::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Recording thread ([`current_thread_id`]).
    pub thread: u64,
    /// Position in the recording thread's ring (0-based, monotonic; the
    /// per-thread event sequence number).
    pub seq: u64,
    /// Nanoseconds since the tracer was created.
    pub ts: u64,
    /// Event kind; raw codes that fail to decode are dropped by readers.
    pub code: EventCode,
    /// First payload word (per-code meaning, see [`EventCode`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Small third payload (56 bits; durations, counts, packed fields).
    pub c: u64,
}

/// Slot layout: timestamp, (c << 8 | code), a, b.
const SLOT_WORDS: usize = 4;

struct Slot {
    w: [AtomicU64; SLOT_WORDS],
}

/// One thread's event ring. Only the owning thread writes (plain load +
/// store, never an RMW); any thread may read through the registry.
///
/// Readers are best-effort the way a hardware flight recorder is: a
/// writer lapping the ring may overwrite the oldest slots mid-read, so a
/// torn oldest event is possible under active wraparound. Events never
/// tear for the quiescent rings forensics walks (the writer has faulted,
/// joined, or is the reader itself).
pub struct Ring {
    /// Owning thread's [`current_thread_id`].
    thread: u64,
    /// Total events ever written; slot index is `head & mask`.
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(thread: u64, capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(16);
        let slots = (0..cap)
            .map(|_| Slot {
                w: [const { AtomicU64::new(0) }; SLOT_WORDS],
            })
            .collect();
        Ring {
            thread,
            head: AtomicU64::new(0),
            mask: cap as u64 - 1,
            slots,
        }
    }

    /// Appends one event. Must only be called by the owning thread: the
    /// head update is load + store, the single-writer discipline that
    /// keeps the hot path free of RMWs.
    fn push(&self, ts: u64, code: EventCode, a: u64, b: u64, c: u64) {
        debug_assert!(c >> C_BITS == 0, "c payload exceeds {C_BITS} bits");
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        slot.w[0].store(ts, Ordering::Relaxed);
        slot.w[1].store((c << 8) | code as u64, Ordering::Relaxed);
        slot.w[2].store(a, Ordering::Relaxed);
        slot.w[3].store(b, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }

    fn snapshot(&self) -> RingSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.mask + 1;
        let start = head.saturating_sub(cap);
        let events = (start..head)
            .filter_map(|seq| {
                let slot = &self.slots[(seq & self.mask) as usize];
                let w1 = slot.w[1].load(Ordering::Relaxed);
                let code = EventCode::from_u8((w1 & 0xff) as u8)?;
                Some(Event {
                    thread: self.thread,
                    seq,
                    ts: slot.w[0].load(Ordering::Relaxed),
                    code,
                    a: slot.w[2].load(Ordering::Relaxed),
                    b: slot.w[3].load(Ordering::Relaxed),
                    c: w1 >> 8,
                })
            })
            .collect();
        RingSnapshot {
            thread: self.thread,
            written: head,
            dropped: start,
            events,
        }
    }
}

/// One ring's readable history at snapshot time.
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// The recording thread.
    pub thread: u64,
    /// Events the thread ever recorded into this ring.
    pub written: u64,
    /// Events lost to wraparound (`written` minus the ring capacity).
    pub dropped: u64,
    /// The readable events, oldest first; `events[i].seq` is its position
    /// in the thread's full history.
    pub events: Vec<Event>,
}

/// Tracer ids are never reused, so a stale thread-local binding can never
/// alias a new tracer's rings (the `stats.rs` id rule).
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

/// Default events per ring; 32 bytes each.
pub const DEFAULT_RING_EVENTS: usize = 4096;

/// The shared recorder: a registry of per-thread rings plus the clock
/// they timestamp against.
///
/// Create one per detector universe with [`Tracer::new`], hand it to each
/// component's [`Trace::attach`], and read it back with
/// [`Tracer::snapshot`] or [`uaf_report`].
pub struct Tracer {
    id: u64,
    level: TraceLevel,
    start: Instant,
    ring_events: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl Tracer {
    /// Creates a recorder capturing at `level`, with the default
    /// per-thread ring capacity.
    pub fn new(level: TraceLevel) -> Arc<Tracer> {
        Tracer::with_capacity(level, DEFAULT_RING_EVENTS)
    }

    /// Creates a recorder whose per-thread rings hold `ring_events`
    /// events (rounded up to a power of two, minimum 16).
    pub fn with_capacity(level: TraceLevel, ring_events: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            level,
            start: Instant::now(),
            ring_events,
            rings: Mutex::new(Vec::new()),
        })
    }

    /// The capture level this tracer was created with.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Nanoseconds since this tracer was created (the event clock).
    pub fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Records one event into the calling thread's ring.
    ///
    /// Level filtering is the caller's job (see [`Trace::record`]); this
    /// always records. The fast path is one TLS round trip plus five
    /// plain stores.
    pub fn record(&self, code: EventCode, a: u64, b: u64, c: u64) {
        let ts = self.now();
        TRACE_BATCH.with(|batch| {
            if batch.id.get() != self.id {
                self.bind_ring(batch);
            }
            // SAFETY: `id == self.id` implies `ring` points into the Arc
            // in `hold` (the three cells are only ever set together in
            // `bind_ring`), which pins the ring for the duration.
            let ring = unsafe { &*batch.ring.get() };
            ring.push(ts, code, a, b, c);
        });
    }

    /// Registers (or re-binds) the calling thread's ring for this tracer.
    /// One ring per (tracer, thread): a thread that recorded for this
    /// tracer before — even through a since-cleared binding — picks its
    /// old ring back up, so registry growth is bounded and per-thread
    /// sequences stay contiguous.
    #[cold]
    fn bind_ring(&self, batch: &TraceBatch) {
        let tid = current_thread_id();
        let ring = {
            let mut rings = self.rings.lock().unwrap();
            match rings.iter().find(|r| r.thread == tid) {
                Some(r) => Arc::clone(r),
                None => {
                    let r = Arc::new(Ring::new(tid, self.ring_events));
                    rings.push(Arc::clone(&r));
                    r
                }
            }
        };
        batch.ring.set(Arc::as_ptr(&ring));
        *batch.hold.borrow_mut() = Some(ring);
        batch.id.set(self.id);
    }

    /// Reads every ring — live threads, exited threads, scoped threads
    /// whose TLS destructors have not run — oldest events first per ring.
    pub fn snapshot(&self) -> Vec<RingSnapshot> {
        let rings: Vec<Arc<Ring>> = self.rings.lock().unwrap().clone();
        let mut snaps: Vec<RingSnapshot> = rings.iter().map(|r| r.snapshot()).collect();
        snaps.sort_by_key(|s| s.thread);
        snaps
    }

    /// All readable events across all rings, in timestamp order.
    pub fn events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.snapshot().into_iter().flat_map(|s| s.events).collect();
        all.sort_by_key(|e| (e.ts, e.thread, e.seq));
        all
    }

    /// Host bytes held by the ring registry.
    pub fn ring_bytes(&self) -> u64 {
        let rings = self.rings.lock().unwrap();
        rings
            .iter()
            .map(|r| (r.mask + 1) * (SLOT_WORDS as u64) * 8)
            .sum()
    }
}

/// The calling thread's current ring binding: which tracer it records
/// for and the ring it records into (the `HotBatch` shape from
/// `stats.rs`, minus the handover — ring history must outlive the
/// thread, so clearing the binding is all thread exit does).
struct TraceBatch {
    /// `Tracer::id` of the bound tracer; 0 = none.
    id: Cell<u64>,
    /// Borrow of the Arc in `hold`; valid while `id` matches.
    ring: Cell<*const Ring>,
    hold: RefCell<Option<Arc<Ring>>>,
}

impl Drop for TraceBatch {
    fn drop(&mut self) {
        // Thread exit: drop our Arc; the tracer's registry keeps the ring
        // (and its events) alive and readable.
        self.id.set(0);
        self.ring.set(core::ptr::null());
        self.hold.borrow_mut().take();
    }
}

thread_local! {
    static TRACE_BATCH: TraceBatch = const {
        TraceBatch {
            id: Cell::new(0),
            ring: Cell::new(core::ptr::null()),
            hold: RefCell::new(None),
        }
    };
}

/// A component's attach point for a [`Tracer`].
///
/// Embedded by the address space, the metapagetable, the heap and the
/// detector. Starts detached at [`TraceLevel::Off`]: every
/// [`Trace::record`] is then a single relaxed load and a branch, the
/// whole cost of the `trace_level=Off` configuration. [`Trace::attach`]
/// is once-only — the first tracer wins, and stays attached for the
/// component's lifetime (so a recording thread can never observe a
/// dangling tracer).
#[derive(Default)]
pub struct Trace {
    /// Cached copy of the attached tracer's level; 0 while detached.
    level: AtomicU8,
    tracer: OnceLock<Arc<Tracer>>,
}

impl Trace {
    /// A detached attach point (level Off).
    pub const fn new() -> Trace {
        Trace {
            level: AtomicU8::new(0),
            tracer: OnceLock::new(),
        }
    }

    /// Attaches `tracer`; returns false (and changes nothing) if a
    /// tracer was already attached.
    pub fn attach(&self, tracer: &Arc<Tracer>) -> bool {
        let level = tracer.level;
        if self.tracer.set(Arc::clone(tracer)).is_err() {
            return false;
        }
        self.level.store(level as u8, Ordering::Release);
        true
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get()
    }

    /// Whether events at `level` are being captured.
    #[inline]
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.level.load(Ordering::Relaxed) >= level as u8
    }

    /// Records one event if `level` is being captured. Detached or
    /// below-level: one relaxed load + branch, nothing else.
    #[inline]
    pub fn record(&self, level: TraceLevel, code: EventCode, a: u64, b: u64, c: u64) {
        if self.level.load(Ordering::Relaxed) >= level as u8 {
            self.record_slow(code, a, b, c);
        }
    }

    #[cold]
    fn record_slow(&self, code: EventCode, a: u64, b: u64, c: u64) {
        if let Some(t) = self.tracer.get() {
            t.record(code, a, b, c);
        }
    }

    /// Starts a span: returns the clock reading to hand to
    /// [`Trace::span_end`], or `None` when `level` is not captured (the
    /// span then costs the one branch).
    #[inline]
    pub fn span_start(&self, level: TraceLevel) -> Option<u64> {
        if self.level.load(Ordering::Relaxed) >= level as u8 {
            self.tracer.get().map(|t| t.now())
        } else {
            None
        }
    }

    /// Ends a span started with [`Trace::span_start`], recording `code`
    /// with the elapsed nanoseconds as its `c` payload.
    pub fn span_end(&self, started: Option<u64>, code: EventCode, a: u64, b: u64) {
        let (Some(t0), Some(t)) = (started, self.tracer.get()) else {
            return;
        };
        let dur = t.now().saturating_sub(t0);
        t.record(code, a, b, dur & ((1 << C_BITS) - 1));
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("level", &self.level.load(Ordering::Relaxed))
            .field("attached", &self.tracer.get().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_trace_records_nothing_and_is_off() {
        let t = Trace::new();
        assert!(!t.enabled(TraceLevel::Lifecycles));
        t.record(TraceLevel::Lifecycles, EventCode::ObjectAlloc, 1, 2, 3);
        assert!(t.tracer().is_none());
    }

    #[test]
    fn level_gates_capture() {
        let tracer = Tracer::new(TraceLevel::Lifecycles);
        let t = Trace::new();
        assert!(t.attach(&tracer));
        t.record(TraceLevel::Lifecycles, EventCode::ObjectAlloc, 1, 0, 0);
        t.record(TraceLevel::Full, EventCode::FreeSweep, 2, 0, 0);
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].code, EventCode::ObjectAlloc);
        assert_eq!(events[0].a, 1);
        assert_eq!(events[0].thread, current_thread_id());
    }

    #[test]
    fn attach_is_once_only() {
        let a = Tracer::new(TraceLevel::Full);
        let b = Tracer::new(TraceLevel::Lifecycles);
        let t = Trace::new();
        assert!(t.attach(&a));
        assert!(!t.attach(&b));
        assert!(Arc::ptr_eq(t.tracer().unwrap(), &a));
        assert!(t.enabled(TraceLevel::Full));
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let tracer = Tracer::with_capacity(TraceLevel::Full, 16);
        for i in 0..40u64 {
            tracer.record(EventCode::ObjectAlloc, i, 0, 0);
        }
        let snaps = tracer.snapshot();
        assert_eq!(snaps.len(), 1);
        let s = &snaps[0];
        assert_eq!(s.written, 40);
        assert_eq!(s.dropped, 24);
        assert_eq!(s.events.len(), 16);
        // Oldest readable first, sequences contiguous to the end.
        assert_eq!(s.events[0].a, 24);
        assert_eq!(s.events[0].seq, 24);
        assert_eq!(s.events[15].a, 39);
    }

    #[test]
    fn payload_packing_round_trips() {
        let c = pack_size_site(123456, 77);
        assert_eq!(unpack_size(c), 123456);
        assert_eq!(unpack_site(c), 77);
        assert!(c >> C_BITS == 0);
        let b = pack_sweep(100_000, 42);
        assert_eq!(unpack_walked(b), 100_000);
        assert_eq!(unpack_pages(b), 42);
        assert_eq!(unpack_sweep_mode(b), SWEEP_MODE_INLINE);
        for mode in [
            SWEEP_MODE_INLINE,
            SWEEP_MODE_DEFERRED,
            SWEEP_MODE_STOLEN,
            SWEEP_MODE_BACKPRESSURE,
        ] {
            let b = pack_sweep_mode(100_000, 42, mode);
            assert_eq!(unpack_walked(b), 100_000);
            assert_eq!(unpack_pages(b), 42);
            assert_eq!(unpack_sweep_mode(b), mode);
            assert!(b >> C_BITS == 0, "mode bits must stay out of the code byte");
        }
    }

    #[test]
    fn rings_from_scoped_threads_survive_scope_exit() {
        // The stats-slab retirement rule, adapted to events: a scoped
        // thread's history must be readable right after `scope` returns,
        // even though the thread's TLS destructors may not have run yet.
        let tracer = Tracer::new(TraceLevel::Lifecycles);
        let mut worker_tid = 0;
        std::thread::scope(|scope| {
            worker_tid = scope
                .spawn(|| {
                    for i in 0..100u64 {
                        tracer.record(EventCode::ObjectAlloc, i, 0, 0);
                    }
                    current_thread_id()
                })
                .join()
                .unwrap();
        });
        let snaps = tracer.snapshot();
        let ring = snaps
            .iter()
            .find(|s| s.thread == worker_tid)
            .expect("exited worker's ring still registered");
        assert_eq!(ring.written, 100);
        assert_eq!(ring.events.len(), 100);
        assert_eq!(ring.events[99].a, 99);
    }

    #[test]
    fn thread_rebinding_reuses_its_ring() {
        // Alternating between two tracers must not grow either registry:
        // one ring per (tracer, thread), sequences contiguous across the
        // switches.
        let a = Tracer::new(TraceLevel::Full);
        let b = Tracer::new(TraceLevel::Full);
        for round in 0..10u64 {
            a.record(EventCode::ObjectAlloc, round, 0, 0);
            b.record(EventCode::ObjectFree, round, 0, 0);
        }
        for t in [&a, &b] {
            let snaps = t.snapshot();
            assert_eq!(snaps.len(), 1, "one ring despite 20 rebinds");
            assert_eq!(snaps[0].written, 10);
            assert_eq!(snaps[0].events.last().unwrap().seq, 9);
        }
    }

    #[test]
    fn concurrent_writers_get_private_rings() {
        let tracer = Tracer::new(TraceLevel::Lifecycles);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let tracer = &tracer;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        tracer.record(EventCode::ObjectAlloc, t * 1000 + i, 0, 0);
                    }
                });
            }
        });
        let snaps = tracer.snapshot();
        assert_eq!(snaps.len(), 4);
        for s in &snaps {
            assert_eq!(s.written, 500);
            // Single-writer rings: each ring's events are exactly its
            // thread's, in order.
            for (i, e) in s.events.iter().enumerate() {
                assert_eq!(e.seq, i as u64);
                assert_eq!(e.thread, s.thread);
            }
        }
    }

    #[test]
    fn span_helper_measures_duration() {
        let tracer = Tracer::new(TraceLevel::Full);
        let t = Trace::new();
        t.attach(&tracer);
        let s = t.span_start(TraceLevel::Full);
        assert!(s.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span_end(s, EventCode::FreeSweep, 7, pack_sweep(3, 1));
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert!(
            events[0].c >= 1_000_000,
            "duration captured: {}",
            events[0].c
        );
        assert_eq!(unpack_walked(events[0].b), 3);
        // Below-level spans cost nothing and record nothing.
        let quiet = Trace::new();
        assert!(quiet.span_start(TraceLevel::Full).is_none());
        quiet.span_end(None, EventCode::FreeSweep, 0, 0);
    }
}
