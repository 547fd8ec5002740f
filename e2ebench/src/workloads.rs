//! The three benchmark workloads, each run as a *pass* on a fresh
//! environment: set-up (address space, heap, detector, static content,
//! warm-up) → measured phase → peak-memory sample → UAF canaries →
//! teardown → drain → reconciliation of call counts against the
//! detector's counters.
//!
//! The step bodies mirror the library workloads they are named after
//! (`dangsan_workloads::server`, `parsec` with `FewObjectsManyPtrs`, and
//! `spec`), rewritten here so the benchmark can time each step and each
//! hooked call from outside the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dangsan::{Config, DangSan, Detector, HookedHeap, HookedThread, NullDetector, StatsSnapshot};
use dangsan_heap::Heap;
use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::{
    Addr, AddressSpace, BumpSegment, FaultKind, GLOBALS_BASE, INVALID_BIT, STACKS_BASE,
};
use dangsan_workloads::profiles::{ParsecProfile, SpecProfile, PARSEC, SPEC};

use crate::probe::{Probe, Span, Timed, Totals};

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The production request mix, one closed-loop worker.
    Server,
    /// PARSEC `freqmine`: pointer stores into 16 shared objects.
    SharedStores,
    /// SPEC `483.xalancbmk` at scale 200: one thread, inline free walk.
    Churn,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        [Workload::Server, Workload::SharedStores, Workload::Churn]
            .into_iter()
            .find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Server => "server",
            Workload::SharedStores => "shared-stores",
            Workload::Churn => "churn",
        }
    }

    /// What one unit of `throughput` is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Server => "requests",
            Workload::SharedStores | Workload::Churn => "pointer stores",
        }
    }

    /// The detector configuration, built explicitly: no environment
    /// variable can change it.
    pub fn config(self) -> Config {
        match self {
            // The shipping configuration of the server and scaling benches.
            Workload::Server | Workload::SharedStores => Config::default()
                .with_deferred_sweep(true)
                .with_sweep_threads(0)
                .with_quarantine_caps(256 << 10, 256),
            // The paper default: synchronous inline free walk.
            Workload::Churn => Config::paper(),
        }
    }

    /// The contention pass, compared against the single-threaded
    /// measured pass ([`Layout::SINGLE`]), with at most one thread per
    /// core: `shared-stores` runs 2 threads on one detector, `server` and
    /// `churn` 2 concurrent instances with a heap and detector each.
    ///
    /// `server` cannot run two workers on one detector: the detector's
    /// metadata pools (a Treiber stack whose pop has no ABA guard) can
    /// hand one record to two live objects, which on two cores showed up
    /// here as a worker spinning forever and as failed reconciliations.
    /// `shared-stores` is measured on one thread because its 2-thread
    /// figures followed where the host placed the two threads: between
    /// two sets of the same ten runs its throughput moved 26% and its
    /// p99 doubled.
    pub fn contention_layout(self, cores: usize) -> Layout {
        let two = 2.min(cores).max(1);
        match self {
            Workload::SharedStores => Layout::threads(two),
            Workload::Server | Workload::Churn => Layout {
                instances: two,
                threads: 1,
            },
        }
    }
}

/// How a pass spreads its threads over environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Independent environments (address space, heap and detector), each
    /// running its own copy of the workload.
    pub instances: usize,
    /// Threads per environment.
    pub threads: usize,
}

impl Layout {
    /// The measured pass of every workload: one environment, one thread.
    pub const SINGLE: Layout = Layout {
        instances: 1,
        threads: 1,
    };

    /// One environment with `threads` threads.
    pub fn threads(threads: usize) -> Layout {
        Layout {
            instances: 1,
            threads,
        }
    }

    /// Threads over all environments.
    pub fn total(self) -> usize {
        self.instances * self.threads
    }
}

/// A fresh environment: address space, heap, and the DangSan detector
/// for `cfg` as `wrap` presents it to the heap.
fn env<D: Detector + ?Sized>(
    cfg: Config,
    wrap: impl FnOnce(Arc<DangSan>) -> Arc<D>,
) -> HookedHeap<D> {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    heap.set_thread_cached(cfg.thread_cached_heap);
    HookedHeap::new(heap, wrap(DangSan::new(mem, cfg)))
}

/// A fresh DangSan environment for `cfg`.
pub fn dangsan_env(cfg: Config) -> HookedHeap<DangSan> {
    env(cfg, |d| d)
}

/// A fresh DangSan environment whose detector is wrapped in [`Timed`].
pub fn traced_env(cfg: Config, probe: &Arc<Probe>) -> HookedHeap<Timed<DangSan>> {
    env(cfg, |d| Timed::new(d, Arc::clone(probe)))
}

/// A fresh uninstrumented environment (the baseline).
pub fn baseline_env() -> HookedHeap<NullDetector> {
    let mem = Arc::new(AddressSpace::new());
    HookedHeap::new(Heap::new(mem), Arc::new(NullDetector))
}

/// What one pass measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Environment build, static content and warm-up.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub measured_s: f64,
    /// Work units (requests or pointer stores) in the measured phase.
    pub work: u64,
    /// Per-step service times of the measured phase (untraced passes).
    pub lat_ns: Vec<u64>,
    /// Heap resident plus detector metadata at the live peak.
    pub mem_bytes: u64,
    /// Summed per-thread wall time of the measured loops.
    pub worker_ns: u64,
    /// Hooked calls attempted, over the whole pass.
    pub calls: u64,
    /// Hooked calls that returned `Err`.
    pub errors: u64,
    /// UAF canaries planted.
    pub canaries: u64,
    /// Canaries that did not load back invalidated and trap.
    pub canary_misses: u64,
    /// Reconciliation checks that failed, described.
    pub mismatches: Vec<String>,
    /// Detector counters after the final drain, one per instance.
    pub stats: Vec<StatsSnapshot>,
    /// Detector metadata after the final drain, summed over instances.
    pub metadata_bytes: u64,
    /// Probe counts over the measured phase (traced passes).
    pub measured: Option<Totals>,
    /// Probe counts over the whole pass (traced passes).
    pub all: Option<Totals>,
}

impl Pass {
    /// Measured work units per second.
    pub fn throughput(&self) -> f64 {
        self.work as f64 / self.measured_s
    }

    /// Errors, canary misses and failed reconciliations.
    pub fn failures(&self) -> u64 {
        self.errors + self.canary_misses + self.mismatches.len() as u64
    }
}

/// Hooked calls of one worker, all phases.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    mallocs: u64,
    frees: u64,
    stores: u64,
    errors: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.mallocs += o.mallocs;
        self.frees += o.frees;
        self.stores += o.stores;
        self.errors += o.errors;
    }
}

/// A pointer stored into `holder`, whose object was then freed.
#[derive(Debug, Clone, Copy)]
struct Canary {
    holder: Addr,
    value: u64,
}

/// Canaries each thread plants after the measured phase.
const CANARIES: u64 = 16;

/// A thread's view of the hooked heap: counts its calls, tallies errors
/// instead of aborting, and in a traced pass times the calls.
struct Worker<'a, D: Detector + ?Sized> {
    th: HookedThread<D>,
    probe: Option<&'a Probe>,
    tally: Tally,
}

impl<'a, D: Detector + ?Sized> Worker<'a, D> {
    fn new(hh: &HookedHeap<D>, probe: Option<&'a Probe>) -> Self {
        Worker {
            th: hh.thread_handle(),
            probe,
            tally: Tally::default(),
        }
    }

    fn malloc(&mut self, size: u64) -> Option<Addr> {
        let th = &mut self.th;
        let r = match self.probe {
            Some(p) => p.call(Span::Malloc, || th.malloc(size)),
            None => th.malloc(size),
        };
        match r {
            Ok(a) => {
                self.tally.mallocs += 1;
                Some(a.base)
            }
            Err(_) => {
                self.tally.errors += 1;
                None
            }
        }
    }

    fn free(&mut self, base: Addr) {
        let th = &mut self.th;
        let r = match self.probe {
            Some(p) => p.call(Span::Free, || th.free(base)),
            None => th.free(base),
        };
        match r {
            Ok(_) => self.tally.frees += 1,
            Err(_) => self.tally.errors += 1,
        }
    }

    #[inline]
    fn store(&mut self, loc: Addr, value: u64) {
        let th = &self.th;
        let r = match self.probe {
            Some(p) => p.call(Span::Store, || th.store_ptr(loc, value)),
            None => th.store_ptr(loc, value),
        };
        match r {
            Ok(()) => self.tally.stores += 1,
            Err(_) => self.tally.errors += 1,
        }
    }

    /// Runs one measured step: a traced pass samples it on the probe,
    /// an untraced pass records its service time in `lat`.
    #[inline]
    fn step(&mut self, lat: &mut Vec<u64>, f: impl FnOnce(&mut Self)) {
        match self.probe {
            Some(p) => p.step(|| f(self)),
            None => {
                let t = Instant::now();
                f(self);
                lat.push(t.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Plants [`CANARIES`] canaries — each a pointer stored to a fresh
    /// object that is then freed — and waits until every thread has
    /// planted its own, so no thread's teardown overlaps them.
    fn canaries(&mut self, gates: &Gates) -> Vec<Canary> {
        let planted = (0..CANARIES)
            .filter_map(|k| {
                let holder = self.malloc(8)?;
                let obj = self.malloc(64)?;
                let value = obj + (k % 8) * 8;
                self.store(holder, value);
                self.free(obj);
                Some(Canary { holder, value })
            })
            .collect();
        gates.pass();
        planted
    }
}

/// Whether a drained canary loads back invalidated and traps.
fn trapped<D: Detector + ?Sized>(hh: &HookedHeap<D>, c: &Canary) -> bool {
    match hh.load(c.holder) {
        Ok(v) if v == c.value | INVALID_BIT => {
            matches!(hh.load(v), Err(f) if f.kind == FaultKind::NonCanonical)
        }
        _ => false,
    }
}

/// What a thread hands back at the end of a pass.
struct ThreadOut {
    tally: Tally,
    lat: Vec<u64>,
    wall_ns: u64,
    work: u64,
    canaries: Vec<Canary>,
}

/// The rendezvous between the threads of a pass and the main thread,
/// which takes its readings while every thread waits: after warm-up,
/// after the measured phase, and after the canaries.
struct Gates {
    arrive: Barrier,
    leave: Barrier,
}

impl Gates {
    fn new(threads: usize) -> Self {
        Gates {
            arrive: Barrier::new(threads + 1),
            leave: Barrier::new(threads + 1),
        }
    }

    /// A worker's side: wait until the main thread has taken its reading.
    fn pass(&self) {
        self.arrive.wait();
        self.leave.wait();
    }

    /// The main thread's side: take `reading` while the workers wait.
    fn hold<R>(&self, reading: impl FnOnce() -> R) -> R {
        self.arrive.wait();
        let r = reading();
        self.leave.wait();
        r
    }
}

/// Runs one pass of `workload` laid out as `layout`, using fresh
/// environments from `env`; `protected` is false for the baseline,
/// which has no canaries to trap and no counters to reconcile.
pub fn run<D>(
    workload: Workload,
    layout: Layout,
    seed: u64,
    probe: Option<&Probe>,
    protected: bool,
    env: impl Fn() -> HookedHeap<D>,
) -> Pass
where
    D: Detector + Send + Sync + ?Sized,
{
    let start = Instant::now();
    let Layout { instances, threads } = layout;
    let envs: Vec<HookedHeap<D>> = (0..instances).map(|_| env()).collect();
    let mut mains: Vec<Worker<D>> = envs.iter().map(|hh| Worker::new(hh, probe)).collect();
    let shared: Vec<Shared> = mains
        .iter_mut()
        .map(|w| Shared::setup(workload, w))
        .collect();
    let next: Vec<[AtomicU64; 2]> = (0..instances).map(|_| Default::default()).collect();
    let gates = Gates::new(layout.total());
    let mut marks = (0.0, Totals::default());
    let mut measured = (0.0, Totals::default(), 0u64);
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..layout.total())
            .map(|t| {
                let (i, k) = (t / threads, t % threads);
                let (hh, shared, next, gates) = (&envs[i], &shared[i], &next[i], &gates);
                scope.spawn(move || {
                    let w = Worker::new(hh, probe);
                    match workload {
                        Workload::Server => server_thread(w, k, seed, next, gates),
                        Workload::SharedStores => shared_thread(w, k, threads, seed, shared, gates),
                        Workload::Churn => churn_thread(w, seed, gates),
                    }
                })
            })
            .collect();
        marks = gates.hold(|| {
            let totals = probe.map(Probe::totals).unwrap_or_default();
            (start.elapsed().as_secs_f64(), totals)
        });
        let t0 = Instant::now();
        measured = gates.hold(|| {
            let secs = t0.elapsed().as_secs_f64();
            let totals = probe.map(Probe::totals).unwrap_or_default();
            let mem = envs
                .iter()
                .map(|hh| hh.heap().resident_bytes() + hh.detector().metadata_bytes())
                .sum();
            (secs, totals, mem)
        });
        gates.hold(|| ());
        handles
            .into_iter()
            .map(|h| h.join().expect("workload thread panicked"))
            .collect()
    });
    for (s, w) in shared.iter().zip(&mut mains) {
        s.teardown(w);
    }

    // Retire every deferred sweep, then every canary must trap.
    for hh in &envs {
        hh.detector().drain();
    }
    let mut pass = Pass {
        setup_s: marks.0,
        measured_s: measured.0,
        mem_bytes: measured.2,
        measured: probe.map(|_| measured.1.since(&marks.1)),
        ..Pass::default()
    };
    let mut tallies = vec![Tally::default(); instances];
    for (t, out) in outs.into_iter().enumerate() {
        let i = t / threads;
        tallies[i].add(&out.tally);
        pass.lat_ns.extend(out.lat);
        pass.worker_ns += out.wall_ns;
        pass.work += out.work;
        for c in &out.canaries {
            if protected {
                pass.canaries += 1;
                pass.canary_misses += u64::from(!trapped(&envs[i], c));
            }
            mains[i].free(c.holder);
        }
        if protected && out.canaries.len() as u64 != CANARIES {
            pass.mismatches.push(format!(
                "thread {t} planted {} canaries",
                out.canaries.len()
            ));
        }
    }
    for (i, hh) in envs.iter().enumerate() {
        hh.detector().drain();
        tallies[i].add(&mains[i].tally);
        let t = &tallies[i];
        let s = hh.detector().stats();
        pass.calls += t.mallocs + t.frees + t.stores + t.errors;
        pass.errors += t.errors;
        if protected {
            reconcile(
                "workload",
                [t.mallocs, t.frees, t.stores],
                &s,
                &mut pass.mismatches,
            );
        }
        pass.stats.push(s);
        pass.metadata_bytes += hh.detector().metadata_bytes();
    }
    pass.all = probe.map(Probe::totals);
    if let (Some(all), true) = (pass.all, protected) {
        // The wrapper's own counts must agree with the detector's too.
        let sum = pass
            .stats
            .iter()
            .fold(StatsSnapshot::default(), |a, s| StatsSnapshot {
                objects_allocated: a.objects_allocated + s.objects_allocated,
                objects_freed: a.objects_freed + s.objects_freed,
                ptrs_registered: a.ptrs_registered + s.ptrs_registered,
                ..a
            });
        let calls = [Span::OnAlloc, Span::OnFree, Span::Register].map(|s| all.calls(s));
        reconcile("wrapper", calls, &sum, &mut pass.mismatches);
    }
    pass
}

/// Checks `[allocs, frees, registers]` counted outside the detector
/// against its counters: every alloc and free is counted once, and no
/// more pointers resolve than were registered.
fn reconcile(
    who: &str,
    [allocs, frees, registers]: [u64; 3],
    s: &StatsSnapshot,
    out: &mut Vec<String>,
) {
    if allocs != s.objects_allocated {
        out.push(format!(
            "{who}: {allocs} allocs != objects_allocated {}",
            s.objects_allocated
        ));
    }
    if frees != s.objects_freed {
        out.push(format!(
            "{who}: {frees} frees != objects_freed {}",
            s.objects_freed
        ));
    }
    if s.ptrs_registered > registers {
        out.push(format!(
            "{who}: ptrs_registered {} > {registers} registrations",
            s.ptrs_registered
        ));
    }
}

/// Objects the main thread allocates before the workers start and frees
/// after they end.
enum Shared {
    /// The server's static content.
    Static(Vec<Addr>),
    /// The shared objects and the shared slot slab of `freqmine`.
    Objects {
        objs: Vec<Addr>,
        slab: Addr,
    },
    None,
}

impl Shared {
    fn setup<D: Detector + ?Sized>(workload: Workload, w: &mut Worker<D>) -> Shared {
        match workload {
            Workload::Server => Shared::Static(
                (0..STATIC_BYTES >> 20)
                    .filter_map(|_| w.malloc(1 << 20))
                    .collect(),
            ),
            Workload::SharedStores => Shared::Objects {
                objs: (0..SHARED_OBJECTS)
                    .filter_map(|_| w.malloc(SHARED_SIZE))
                    .collect(),
                slab: w.malloc(SLOTS * 8).unwrap_or(0),
            },
            Workload::Churn => Shared::None,
        }
    }

    fn teardown<D: Detector + ?Sized>(&self, w: &mut Worker<D>) {
        match self {
            Shared::Static(blocks) => blocks.iter().for_each(|&b| w.free(b)),
            Shared::Objects { objs, slab } => {
                objs.iter().for_each(|&b| w.free(b));
                w.free(*slab);
            }
            Shared::None => {}
        }
    }
}

// --- server: the production request mix -------------------------------

/// Measured requests per pass: p99 keeps 1000 samples beyond it.
const REQUESTS: u64 = 100_000;
/// Warm-up requests per pass, served before the measured phase.
const WARMUP_REQUESTS: u64 = 5_000;
/// The production profile of the server and scaling benches.
const ALLOCS_PER_REQUEST: u64 = 12;
const STORES_PER_REQUEST: u64 = 64;
const RETAINED_FRAC: f64 = 0.05;
const STATIC_BYTES: u64 = 1 << 20;

const CLASS_STATIC: u64 = 0;
const CLASS_CHURN: u64 = 2;

/// SplitMix64 finalizer: the request-index → class hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Class of request `index`: 60% static, 35% dynamic, 5% churn.
fn class_of(index: u64, seed: u64) -> u64 {
    match mix(index ^ seed.rotate_left(17)) % 100 {
        0..=59 => CLASS_STATIC,
        60..=94 => 1,
        _ => CLASS_CHURN,
    }
}

/// One worker's connection state.
struct Conn {
    rng: SmallRng,
    slab: Addr,
    pool: Vec<Addr>,
    objs: Vec<(Addr, u64)>,
}

fn request<D: Detector + ?Sized>(w: &mut Worker<D>, c: &mut Conn, index: u64, seed: u64) {
    let class = class_of(index, seed);
    if class == CLASS_CHURN && !c.pool.is_empty() {
        // Session teardown: the retained pool is released wholesale.
        for base in std::mem::take(&mut c.pool) {
            w.free(base);
        }
    }
    let (allocs, stores, retain) = if class == CLASS_STATIC {
        (
            (ALLOCS_PER_REQUEST / 3).max(1),
            STORES_PER_REQUEST / 3,
            false,
        )
    } else {
        (ALLOCS_PER_REQUEST, STORES_PER_REQUEST, true)
    };
    for _ in 0..allocs {
        let size = c.rng.gen_range(64..512);
        if let Some(base) = w.malloc(size) {
            c.objs.push((base, size));
        }
    }
    for i in 0..stores {
        if c.objs.is_empty() {
            break;
        }
        let (t, ts) = if !c.pool.is_empty() && c.rng.gen_bool(0.5) {
            (c.pool[c.rng.gen_range(0..c.pool.len())], 64)
        } else {
            c.objs[c.rng.gen_range(0..c.objs.len())]
        };
        let loc = c.slab + ((t / 64 + i % 8) % 512) * 8;
        let value = t + c.rng.gen_range(0..ts);
        w.store(loc, value);
    }
    for (base, size) in c.objs.drain(..) {
        if retain
            && size < 128
            && c.rng.gen_bool((RETAINED_FRAC * 4.0).min(1.0))
            && c.pool.len() < 100_000
        {
            c.pool.push(base);
        } else {
            w.free(base);
        }
    }
}

fn server_thread<D: Detector + ?Sized>(
    mut w: Worker<D>,
    t: usize,
    seed: u64,
    next: &[AtomicU64; 2],
    gates: &Gates,
) -> ThreadOut {
    let mut c = Conn {
        rng: SmallRng::seed_from_u64(seed ^ ((t as u64) << 40)),
        slab: w.malloc(512 * 8).unwrap_or(0),
        pool: Vec::new(),
        objs: Vec::new(),
    };
    // Warm-up draws from its own index range so the measured phase
    // serves exactly REQUESTS requests.
    loop {
        let i = next[0].fetch_add(1, Ordering::Relaxed);
        if i >= WARMUP_REQUESTS {
            break;
        }
        request(&mut w, &mut c, REQUESTS + i, seed);
    }
    gates.pass();
    let mut lat = Vec::with_capacity(REQUESTS as usize);
    let start = Instant::now();
    let mut served = 0u64;
    loop {
        let i = next[1].fetch_add(1, Ordering::Relaxed);
        if i >= REQUESTS {
            break;
        }
        w.step(&mut lat, |w| request(w, &mut c, i, seed));
        served += 1;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    gates.pass();
    let canaries = w.canaries(gates);
    for base in c.pool {
        w.free(base);
    }
    w.free(c.slab);
    ThreadOut {
        tally: w.tally,
        lat,
        wall_ns,
        work: served,
        canaries,
    }
}

// --- shared-stores: PARSEC freqmine (FewObjectsManyPtrs) ---------------

const SHARED_OBJECTS: u64 = 16;
const SHARED_SIZE: u64 = 4096;
const SLOTS: u64 = 1024;
/// Store iterations per measured step. A pass makes ~190k steps and
/// ~490 allocations, so the steps that allocate stay well inside the
/// slowest 1% and p99 is a percentile of plain store steps, not the edge
/// between the two kinds (at 64 iterations they were 1% of steps).
const STORE_BLOCK: u64 = 16;
/// Work units of the strong-scaling split (`parsec::WORK_UNITS`).
const WORK_UNITS: u64 = 8;

fn freqmine() -> &'static ParsecProfile {
    PARSEC
        .iter()
        .find(|p| p.name == "freqmine")
        .expect("freqmine profile")
}

fn shared_thread<D: Detector + ?Sized>(
    mut w: Worker<D>,
    t: usize,
    threads: usize,
    seed: u64,
    shared: &Shared,
    gates: &Gates,
) -> ThreadOut {
    let Shared::Objects { objs, slab } = shared else {
        unreachable!("shared-stores sets up shared objects")
    };
    let p = freqmine();
    // Fixed total work split across threads (strong scaling).
    let per_thread = p.stores_per_thread * WORK_UNITS / threads as u64;
    let objs_per_thread = (p.objs_per_thread * WORK_UNITS / threads as u64).max(4);
    let alloc_every = (per_thread / objs_per_thread).max(1);
    let part = SLOTS / threads as u64;
    let mut rng = SmallRng::seed_from_u64(seed ^ ((t as u64) << 32));
    let mut live: Vec<Addr> = Vec::new();
    let mut allocated = 0u64;
    let mut iteration = |w: &mut Worker<D>, i: u64| {
        if allocated < objs_per_thread && i.is_multiple_of(alloc_every) {
            if live.len() >= 256 {
                let base = live.swap_remove(rng.gen_range(0..live.len()));
                w.free(base);
            }
            let size = rng.gen_range(32..2048);
            if let Some(base) = w.malloc(size) {
                live.push(base);
            }
            allocated += 1;
        }
        // Every store targets a shared object (shared fraction 1.0).
        let tidx = rng.gen_range(0..objs.len());
        let slot = t as u64 * part + (tidx as u64 * 8 + rng.gen_range(0..SLOTS)) % part;
        let value = objs[tidx] + rng.gen_range(0..SHARED_SIZE.min(512));
        w.store(slab + slot * 8, value);
    };
    let warmup = per_thread / 20;
    for i in 0..warmup {
        iteration(&mut w, i);
    }
    gates.pass();
    let mut lat = Vec::with_capacity((per_thread / STORE_BLOCK + 1) as usize);
    let stores_before = w.tally.stores;
    let start = Instant::now();
    let mut i = warmup;
    while i < per_thread {
        let end = (i + STORE_BLOCK).min(per_thread);
        w.step(&mut lat, |w| (i..end).for_each(|k| iteration(w, k)));
        i = end;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let work = w.tally.stores - stores_before;
    gates.pass();
    let canaries = w.canaries(gates);
    for base in live {
        w.free(base);
    }
    ThreadOut {
        tally: w.tally,
        lat,
        wall_ns,
        work,
        canaries,
    }
}

// --- churn: SPEC 483.xalancbmk at scale 200 ----------------------------

/// Divisor of the paper's Table 1 counts.
const CHURN_SCALE: u64 = 200;
const HEAP_SLOTS: u64 = 4096;
const STACK_SLOTS: u64 = 512;
const GLOBAL_SLOTS: u64 = 512;

fn xalancbmk() -> &'static SpecProfile {
    SPEC.iter()
        .find(|p| p.name == "483.xalancbmk")
        .expect("xalancbmk profile")
}

/// The SPEC-shaped program's state (see `dangsan_workloads::spec`).
struct Spec {
    rng: SmallRng,
    live: Vec<(Addr, u64)>,
    live_cap: usize,
    hot_prob: f64,
    hot_set: usize,
    dup_frac: f64,
    nonheap_frac: f64,
    alloc_size: (u64, u64),
    slab: Addr,
    stack: Addr,
    last_loc: Addr,
    last_value: u64,
}

impl Spec {
    /// A non-duplicate store location: stack/global, the next slot over,
    /// or a random heap slot.
    fn pick_loc(&mut self) -> Addr {
        let rng = &mut self.rng;
        if rng.gen_f64() < self.nonheap_frac {
            if rng.gen_bool(0.5) {
                self.stack + rng.gen_range(0..STACK_SLOTS) * 8
            } else {
                GLOBALS_BASE + rng.gen_range(0..GLOBAL_SLOTS) * 8
            }
        } else if rng.gen_bool(0.5) {
            let next = self.last_loc + 8;
            if next >= self.slab && next < self.slab + HEAP_SLOTS * 8 {
                next
            } else {
                self.slab + rng.gen_range(0..HEAP_SLOTS) * 8
            }
        } else {
            self.slab + rng.gen_range(0..HEAP_SLOTS) * 8
        }
    }

    /// One pointer store; `hot` biases non-duplicates to the hot prefix.
    fn store<D: Detector + ?Sized>(&mut self, w: &mut Worker<D>, hot: bool) {
        let (loc, value) = if self.last_value != 0 && self.rng.gen_f64() < self.dup_frac {
            (self.last_loc, self.last_value)
        } else {
            let n = self.live.len();
            let pick = if hot && self.rng.gen_bool(self.hot_prob) {
                n.min(self.hot_set)
            } else {
                n
            };
            let (base, size) = self.live[self.rng.gen_range(0..pick)];
            let value = base + self.rng.gen_range(0..=size.min(256));
            (self.pick_loc(), value)
        };
        w.store(loc, value);
        self.last_loc = loc;
        self.last_value = value;
    }

    /// One allocation step: free a random old object when the ring is
    /// full, allocate a new one, then issue its share of stores.
    fn object<D: Detector + ?Sized>(&mut self, w: &mut Worker<D>, stores: u64) {
        let (lo, hi) = self.alloc_size;
        let size = self.rng.gen_range((lo as f64).ln()..(hi as f64).ln()).exp() as u64;
        if self.live.len() == self.live_cap {
            let (base, _) = self
                .live
                .remove(self.rng.gen_range(0..self.live.len() / 2 + 1));
            w.free(base);
        }
        if let Some(base) = w.malloc(size) {
            self.live.push((base, size));
        }
        for _ in 0..stores {
            self.store(w, true);
        }
    }
}

fn churn_thread<D: Detector + ?Sized>(mut w: Worker<D>, seed: u64, gates: &Gates) -> ThreadOut {
    let p = xalancbmk();
    let s = p.scaled(CHURN_SCALE);
    let mem = Arc::clone(w.th.shared().mem());
    let _globals = BumpSegment::map(Arc::clone(&mem), GLOBALS_BASE, GLOBAL_SLOTS * 8 + 4096)
        .expect("fresh address space");
    let mut stack_seg =
        BumpSegment::map(mem, STACKS_BASE, STACK_SLOTS * 8 + 4096).expect("fresh address space");
    let stack = stack_seg.alloc(STACK_SLOTS * 8).expect("fits");
    let slab = w.malloc(HEAP_SLOTS * 8).unwrap_or(0);
    let live_cap = (s.objs / 4).clamp(8, 4096) as usize;
    let mut spec = Spec {
        rng: SmallRng::seed_from_u64(seed),
        live: Vec::with_capacity(live_cap),
        live_cap,
        hot_prob: if s.hash_frac > 0.001 { 0.85 } else { 0.10 },
        hot_set: ((live_cap as f64 * s.hash_frac).ceil() as usize).clamp(4, 2048),
        dup_frac: s.dup_frac,
        nonheap_frac: p.nonheap_loc_frac,
        alloc_size: p.alloc_size,
        slab,
        stack,
        last_loc: slab,
        last_value: 0,
    };
    let per_obj = s.stores / s.objs.max(1);
    let warmup = s.objs / 20;
    for _ in 0..warmup {
        spec.object(&mut w, per_obj);
    }
    gates.pass();
    let mut lat = Vec::with_capacity((s.objs - warmup) as usize + 1024);
    let stores_before = w.tally.stores;
    let start = Instant::now();
    for _ in warmup..s.objs {
        w.step(&mut lat, |w| spec.object(w, per_obj));
    }
    // Stores beyond the per-object quota, in steps of the same size.
    let mut left = s.stores - per_obj * s.objs;
    while left > 0 {
        let n = left.min(per_obj.max(1));
        w.step(&mut lat, |w| (0..n).for_each(|_| spec.store(w, false)));
        left -= n;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let work = w.tally.stores - stores_before;
    gates.pass();
    let canaries = w.canaries(gates);
    for (base, _) in std::mem::take(&mut spec.live) {
        w.free(base);
    }
    w.free(slab);
    ThreadOut {
        tally: w.tally,
        lat,
        wall_ns,
        work,
        canaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrapper must not change what the detector does: on the
    /// same fixed-seed churn run, the detector's behavioural counters and
    /// its metadata are bit-identical with and without it.
    #[test]
    fn timing_wrapper_is_transparent_on_churn() {
        let cfg = Workload::Churn.config();
        let bare = run(Workload::Churn, Layout::SINGLE, 42, None, true, || {
            dangsan_env(cfg)
        });
        let probe = Arc::new(Probe::default());
        let wrapped = run(
            Workload::Churn,
            Layout::SINGLE,
            42,
            Some(&probe),
            true,
            || traced_env(cfg, &probe),
        );
        assert_eq!(bare.failures(), 0, "{:?}", bare.mismatches);
        assert_eq!(wrapped.failures(), 0, "{:?}", wrapped.mismatches);
        assert_eq!(bare.stats[0].behavioural(), wrapped.stats[0].behavioural());
        assert_eq!(bare.metadata_bytes, wrapped.metadata_bytes);
        assert!(
            probe.totals().timed(Span::Register) > 0,
            "nothing was sampled"
        );
    }
}
