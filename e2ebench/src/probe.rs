//! Per-layer accounting for the traced pass.
//!
//! Every call into a layer is *counted* on a per-thread single-writer
//! slab (a plain load + store on a thread-private line, never a shared
//! read-modify-write). Whole workload steps are *sampled*: inside a
//! sampled step every call is timed with `Instant` — the hooked
//! `malloc`/`free`/`store_ptr` the benchmark makes, and the detector hook
//! the [`Timed`] wrapper forwards inside it — so a layer's self time is
//! its span minus the child span it encloses. Outside sampled steps
//! nothing is timed, which keeps the traced pass close to untraced speed.
//! The slabs stay in memory and are summed when the pass ends.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dangsan::{Detector, InvalidationReport, StatsSnapshot};
use dangsan_heap::{AllocError, Allocation, Heap};
use dangsan_vmem::Addr;

/// One workload step in this many is timed (chosen by a per-thread
/// xorshift, so the sample cannot alias with a periodic workload).
pub const SAMPLE_EVERY: u64 = 16;

/// The spans the benchmark records. The first four are timed by the
/// benchmark around its own calls; the rest by [`Timed`] inside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One workload step: a request, or a fixed block of stores.
    Step,
    /// Hooked `malloc` as the program sees it: heap, then `on_alloc`.
    Malloc,
    /// Hooked `free`: heap validation and release around `on_free`.
    Free,
    /// Instrumented store: the vmem write, then `register_ptr`.
    Store,
    /// `Detector::on_alloc` (core alloc registration).
    OnAlloc,
    /// `Detector::on_free` (the invalidation sweep, inline or deferred).
    OnFree,
    /// `Detector::register_ptr` (core pointer registration).
    Register,
    /// `Detector::drain` (retiring every deferred sweep).
    Drain,
}

const SPANS: usize = 8;

/// One thread's counts for one probe. Only the owning thread writes.
#[derive(Default)]
struct Slab {
    calls: [AtomicU64; SPANS],
    timed: [AtomicU64; SPANS],
    ns: [AtomicU64; SPANS],
}

/// Single-writer add: the owning thread is the only writer, so a load
/// and a store suffice (Relaxed: the counts publish no other data; the
/// reader is ordered after the writers by a barrier or a join).
fn add(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Summed counts of a probe, or the difference of two such sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    calls: [u64; SPANS],
    timed: [u64; SPANS],
    ns: [u64; SPANS],
}

impl Totals {
    /// Calls made to `span`, timed or not.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Calls to `span` that fell in a sampled step and were timed.
    pub fn timed(&self, span: Span) -> u64 {
        self.timed[span as usize]
    }

    /// Summed raw duration of the timed calls to `span`.
    pub fn ns(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }

    /// The counts accumulated after `earlier` was taken.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let d = |a: &[u64; SPANS], b: &[u64; SPANS]| std::array::from_fn(|i| a[i] - b[i]);
        Totals {
            calls: d(&self.calls, &earlier.calls),
            timed: d(&self.timed, &earlier.timed),
            ns: d(&self.ns, &earlier.ns),
        }
    }
}

/// Never-reused probe identities, so a thread's cached slab can never
/// count for a later probe.
static NEXT_PROBE: AtomicU64 = AtomicU64::new(1);

/// The calling thread's slab and sampling state.
struct Local {
    probe: Cell<u64>,
    slab: RefCell<Option<Arc<Slab>>>,
    sampling: Cell<bool>,
    rng: Cell<u64>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            probe: Cell::new(0),
            slab: RefCell::new(None),
            sampling: Cell::new(false),
            rng: Cell::new(0x9e37_79b9_7f4a_7c15),
        }
    };
}

/// The per-pass recorder: owns every thread's slab.
pub struct Probe {
    id: u64,
    slabs: Mutex<Vec<Arc<Slab>>>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            id: NEXT_PROBE.fetch_add(1, Ordering::Relaxed),
            slabs: Mutex::new(Vec::new()),
        }
    }
}

impl Probe {
    /// Runs one workload step, sampling it one time in [`SAMPLE_EVERY`]:
    /// a sampled step times itself and every call made inside it.
    pub fn step<R>(&self, f: impl FnOnce() -> R) -> R {
        let sampled = LOCAL.with(|l| {
            let mut x = l.rng.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            l.rng.set(x);
            let sampled = x % SAMPLE_EVERY == 0;
            l.sampling.set(sampled);
            sampled
        });
        let r = self.record(Span::Step, sampled, f);
        LOCAL.with(|l| l.sampling.set(false));
        r
    }

    /// Counts a call to `span`, timing it when the enclosing step is
    /// sampled.
    #[inline]
    pub fn call<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        self.record(span, LOCAL.with(|l| l.sampling.get()), f)
    }

    /// Counts and times a call to `span` whether or not a step is
    /// sampled (for rare calls made outside steps).
    pub fn always<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        self.record(span, true, f)
    }

    #[inline]
    fn record<R>(&self, span: Span, timed: bool, f: impl FnOnce() -> R) -> R {
        let start = timed.then(Instant::now);
        let r = f();
        let ns = start.map(|t| t.elapsed().as_nanos() as u64);
        self.with_slab(|s| {
            let i = span as usize;
            add(&s.calls[i], 1);
            if let Some(ns) = ns {
                add(&s.timed[i], 1);
                add(&s.ns[i], ns);
            }
        });
        r
    }

    /// Runs `f` on the calling thread's slab, registering one first if
    /// this thread has not counted for this probe yet.
    #[inline]
    fn with_slab(&self, f: impl FnOnce(&Slab)) {
        LOCAL.with(|l| {
            if l.probe.get() != self.id {
                let slab = Arc::new(Slab::default());
                self.slabs
                    .lock()
                    .expect("no thread panics while registering a slab")
                    .push(Arc::clone(&slab));
                *l.slab.borrow_mut() = Some(slab);
                l.probe.set(self.id);
            }
            f(l.slab.borrow().as_ref().expect("registered above"));
        });
    }

    /// Sums every thread's slab. Exact for any reader ordered after the
    /// counting threads (a barrier or a join).
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for slab in self.slabs.lock().expect("slab registry").iter() {
            for i in 0..SPANS {
                t.calls[i] += slab.calls[i].load(Ordering::Relaxed);
                t.timed[i] += slab.timed[i].load(Ordering::Relaxed);
                t.ns[i] += slab.ns[i].load(Ordering::Relaxed);
            }
        }
        t
    }
}

/// The raw duration an `Instant` pair reads around no work: the cost of
/// one timer read, subtracted from every timed span.
pub fn timer_cost_ns() -> f64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| Instant::now().elapsed().as_nanos() as u64)
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// A transparent timing wrapper: forwards every [`Detector`] method to
/// the real detector, counting and (in sampled steps) timing the hooks
/// that do the detector's work.
pub struct Timed<D: ?Sized> {
    probe: Arc<Probe>,
    inner: Arc<D>,
}

impl<D: ?Sized> Timed<D> {
    /// Wraps `inner`, recording on `probe`.
    pub fn new(inner: Arc<D>, probe: Arc<Probe>) -> Arc<Self> {
        Arc::new(Timed { probe, inner })
    }
}

impl<D: Detector + ?Sized> Detector for Timed<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_alloc(&self, alloc: &Allocation) {
        self.probe
            .call(Span::OnAlloc, || self.inner.on_alloc(alloc))
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        self.probe.call(Span::OnFree, || self.inner.on_free(base))
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        self.inner.on_realloc_in_place(base, new_size)
    }

    #[inline]
    fn register_ptr(&self, loc: Addr, value: u64) {
        self.probe
            .call(Span::Register, || self.inner.register_ptr(loc, value))
    }

    #[inline]
    fn encode_ptr(&self, base: Addr) -> Addr {
        self.inner.encode_ptr(base)
    }

    #[inline]
    fn check_deref(&self, addr: Addr) -> Addr {
        self.inner.check_deref(addr)
    }

    #[inline]
    fn decode_free(&self, addr: Addr) -> Result<Addr, AllocError> {
        self.inner.decode_free(addr)
    }

    fn probe_stale(&self, value: u64) -> bool {
        self.inner.probe_stale(value)
    }

    fn on_memcpy(&self, dst: Addr, len: u64) {
        self.inner.on_memcpy(dst, len)
    }

    fn defers_free(&self) -> bool {
        self.inner.defers_free()
    }

    fn drain(&self) {
        self.probe.always(Span::Drain, || self.inner.drain())
    }

    fn bind_heap(&self, heap: &Arc<Heap>) {
        self.inner.bind_heap(heap)
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes()
    }
}
