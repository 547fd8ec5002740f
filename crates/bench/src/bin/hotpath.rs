//! Hot-path microbenchmarks: same-run off/on pairs for the free path and
//! the observability planes. Each row runs a baseline arm ("off") and the
//! arm under test ("on") interleaved in one process: the inline free walk
//! against the deferred sweep (`free_many_objs`, `free_while_reg`,
//! `sweep_total`), and tracing or telemetry on against off (`trace_off`,
//! `metrics_off`). The file keeps its schema's names for the two arms,
//! `ops_per_sec_caches_off` and `ops_per_sec_caches_on`.
//!
//! Emits `BENCH_hotpath.json`, with the machine's core count, so
//! subsequent changes have a machine-readable perf trajectory
//! (`bench_gate` gates on it; see `dangsan_bench::gate`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dangsan-bench --bin hotpath [-- --quick] [--out PATH]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dangsan::{Config, DangSan, Detector, TraceLevel};
use dangsan_bench::report::Json;
use dangsan_bench::{cores, Args, HOTPATH_BENCHES, HOTPATH_SCHEMA};
use dangsan_heap::Heap;
use dangsan_vmem::AddressSpace;

/// The `metrics_off` row's sampler cadence.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// One measured configuration of one microbenchmark.
struct Measurement {
    ops_per_sec: f64,
    ops: u64,
}

/// Runs the off/on pair `reps` times, *interleaved*, and keeps each
/// side's best throughput (the standard noise-robust estimator).
///
/// Interleaving matters as much as best-of: running every off rep and
/// then every on rep puts the second side on a systematically different
/// machine whenever load or thermals drift over the run, which showed up
/// as a persistent phantom few-percent regression on benches whose two
/// configurations execute nearly identical code.
fn best_pair(reps: u32, mut bench: impl FnMut(bool) -> Measurement) -> (Measurement, Measurement) {
    let (mut off, mut on) = (bench(false), bench(true));
    for _ in 1..reps {
        let m = bench(false);
        if m.ops_per_sec > off.ops_per_sec {
            off = m;
        }
        let m = bench(true);
        if m.ops_per_sec > on.ops_per_sec {
            on = m;
        }
    }
    (off, on)
}

/// A fresh detector environment with the deferred sweep on the optimised
/// arm: the "on" side of the mutator-visible free benchmarks frees into
/// the quarantine (`Heap::quarantine` + an O(1) `on_free`) and the walks
/// run at the drain, outside the timed region — the throughput a mutator
/// actually observes. The caps are unbounded, so no backpressure batch
/// runs in the timed loop; the drain does every walk the inline arm did,
/// checked by the stats asserts.
fn deferred_env(opt: bool) -> (Arc<AddressSpace>, Arc<Heap>, Arc<DangSan>) {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(
        Arc::clone(&mem),
        Config::default()
            .with_deferred_sweep(opt)
            .with_quarantine_caps(u64::MAX, u64::MAX),
    );
    det.bind_heap(&heap);
    (mem, heap, det)
}

/// Frees `base` the way a hooked heap would for this arm: quarantine +
/// deferred `on_free` when the detector defers, the synchronous
/// invalidate-then-release order otherwise.
fn free_one(heap: &Heap, det: &DangSan, base: u64) {
    if det.config().deferred_sweep {
        heap.quarantine(base).expect("quarantine");
        det.on_free(base);
    } else {
        det.on_free(base);
        heap.free(base).expect("free");
    }
}

/// The malloc/register/free lifecycle loop the two Off-mode rows share:
/// `rounds` lifecycles on a fresh detector built from `cfg`, each one
/// allocating an object, storing a pointer to it into a long-lived
/// holder, and freeing it. With `cfg.metrics` on, a sampler pulls the
/// hub every [`SAMPLE_EVERY`] throughout the loop.
fn lifecycle_loop(rounds: u64, cfg: Config) -> Measurement {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(Arc::clone(&mem), cfg);
    let _sampler = det.metrics().map(|hub| hub.start_sampler(SAMPLE_EVERY));
    let holder = heap.malloc(8).expect("holder");
    det.on_alloc(&holder);
    let start = Instant::now();
    for _ in 0..rounds {
        let obj = heap.malloc(64).expect("obj");
        det.on_alloc(&obj);
        mem.write_word(holder.base, obj.base).expect("store");
        det.register_ptr(holder.base, obj.base);
        det.on_free(obj.base);
        heap.free(obj.base).expect("free");
    }
    let t = start.elapsed().as_secs_f64();
    Measurement {
        ops_per_sec: rounds as f64 / t,
        ops: rounds,
    }
}

/// `trace_off`: the flight recorder's Off-mode overhead, measured as a
/// same-run ratio so the 2%-budget gate survives machine noise that
/// cross-run absolute comparisons do not. The "off" side runs the
/// [`lifecycle_loop`] with `trace_level=Lifecycles` (every lifecycle
/// records its birth and free events into a ring); the "on" side runs
/// it with `trace_level=Off`, where each record site is one relaxed load
/// and an untaken branch. The speedup column is therefore
/// Off-throughput / traced-throughput: below ~1.0 means disabling
/// tracing failed to remove its cost.
fn bench_trace_off(rounds: u64, untraced: bool) -> Measurement {
    let level = if untraced {
        TraceLevel::Off
    } else {
        TraceLevel::Lifecycles
    };
    lifecycle_loop(rounds, Config::default().with_trace_level(level))
}

/// Telemetry ablation twin of [`bench_trace_off`]: the "off" column runs
/// the [`lifecycle_loop`] with the metrics hub live — a 5 ms sampler
/// pulling every detector gauge concurrently — and the "on" column runs
/// it with `metrics=false`, where the detector builds no hub at all.
/// Because the registry is pull-based the hot paths carry no metrics
/// sites, so the speedup column (no-metrics / metrics throughput) should
/// sit at ~1.0; `bench_gate` holds it at 0.98, the same contract the
/// flight recorder's Off mode keeps.
fn bench_metrics_off(rounds: u64, unmetered: bool) -> Measurement {
    let cfg = if unmetered {
        Config::default()
    } else {
        Config::default().with_metrics(true)
    };
    lifecycle_loop(rounds, cfg)
}

/// `free_many_objs`: many objects, one pointer each — the per-free fixed
/// overhead (scratch round-trip, shadow clear, pool recycling) with
/// almost no walk to amortise it. The optimised arm
/// frees into the quarantine and the timer stops before the drain, so
/// the figure is the free latency a mutator observes; the drain then
/// runs every deferred walk and the stats asserts prove nothing was
/// skipped. Pass 0 is an untimed warm-up ending in a drain: the timed
/// pass runs at steady state — block supply and pool records hot, as
/// they are in a long-running mutator whose backpressure batches keep
/// the recycle loop closed. Ops are frees.
fn bench_free_many_objs(rounds: u64, opt: bool) -> Measurement {
    const OBJS: u64 = 8;
    let (mem, heap, det) = deferred_env(opt);
    let holder = heap.malloc(OBJS * 8).expect("holder");
    det.on_alloc(&holder);
    let mut live = Vec::with_capacity(OBJS as usize);
    let mut elapsed = 0.0;
    for _pass in 0..2 {
        let start = Instant::now();
        for _ in 0..rounds {
            for o in 0..OBJS {
                let obj = heap.malloc(64).expect("obj");
                det.on_alloc(&obj);
                let loc = holder.base + o * 8;
                mem.write_word(loc, obj.base).expect("store");
                det.register_ptr(loc, obj.base);
                live.push(obj.base);
            }
            for base in live.drain(..) {
                free_one(&heap, &det, base);
            }
        }
        elapsed = start.elapsed().as_secs_f64();
        det.drain();
    }
    // Exactness survives the deferral: every logged location was walked
    // and classified (invalidated while the pointer still aimed at the
    // object, stale once the slot had been overwritten by a later round).
    let s = det.stats();
    let expected = 2 * rounds * OBJS; // both passes
    assert_eq!(s.free_locs_walked, expected, "every log entry walked");
    assert_eq!(
        s.ptrs_invalidated + s.stale_ptrs,
        expected,
        "every location classified"
    );
    Measurement {
        ops_per_sec: (rounds * OBJS) as f64 / elapsed,
        ops: rounds * OBJS,
    }
}

/// `free_while_reg`: frees racing a registering thread. A background
/// thread keeps storing pointers to its own long-lived object while the
/// timed thread churns malloc/register/free, so the free path shares the
/// detector with a busy registrar. The "on" side frees into the
/// quarantine, as in [`bench_free_many_objs`]. Ops are the timed
/// thread's frees.
fn bench_free_while_registering(rounds: u64, opt: bool) -> Measurement {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (mem, heap, det) = deferred_env(opt);
    let reg_obj = heap.malloc(256).expect("reg_obj");
    det.on_alloc(&reg_obj);
    let reg_slots = heap.malloc(64 * 8).expect("reg_slots");
    det.on_alloc(&reg_slots);
    // Four registered locations per round: a freed object carries a
    // small walk (the paper's workloads average several tracked pointers
    // per object), which is exactly the work the deferred arm moves off
    // the timed thread.
    const SLOTS: u64 = 4;
    let holder = heap.malloc(SLOTS * 8).expect("holder");
    det.on_alloc(&holder);
    let stop = Arc::new(AtomicBool::new(false));
    let registrar = {
        let (mem, det, stop) = (Arc::clone(&mem), Arc::clone(&det), Arc::clone(&stop));
        let (slots, target) = (reg_slots.base, reg_obj.base);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let loc = slots + (i % 64) * 8;
                let val = target + (i % 32) * 8;
                mem.write_word(loc, val).expect("store");
                det.register_ptr(loc, val);
                i += 1;
                // Registrations must race the frees, not starve them: on a
                // single-core runner an unyielding spin loop can hold the
                // CPU for a whole timed rep, collapsing whichever side it
                // lands on by ~3x and flipping the verify gate at random.
                if i.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
        })
    };
    // Pass 0 warms up untimed (ending in a drain), pass 1 is measured —
    // see `bench_free_many_objs` for why.
    let mut elapsed = 0.0;
    for _pass in 0..2 {
        let start = Instant::now();
        for _ in 0..rounds {
            let obj = heap.malloc(96).expect("obj");
            det.on_alloc(&obj);
            for s in 0..SLOTS {
                let loc = holder.base + s * 8;
                mem.write_word(loc, obj.base + s * 8).expect("store");
                det.register_ptr(loc, obj.base + s * 8);
            }
            free_one(&heap, &det, obj.base);
        }
        elapsed = start.elapsed().as_secs_f64();
        det.drain();
    }
    stop.store(true, Ordering::Relaxed);
    registrar.join().expect("registrar");
    // The registrar's target object is never freed, so its stores don't
    // show up here: the timed thread's SLOTS-entry log is walked once
    // per round and each walk classifies its slots (invalidated while
    // they still held that round's object, stale once overwritten).
    let s = det.stats();
    let expected = 2 * rounds * SLOTS; // both passes
    assert_eq!(
        s.free_locs_walked, expected,
        "SLOTS walked locations per round"
    );
    assert_eq!(
        s.ptrs_invalidated + s.stale_ptrs,
        expected,
        "every round's pointer classified"
    );
    Measurement {
        ops_per_sec: rounds as f64 / elapsed,
        ops: rounds,
    }
}

/// `sweep_total`: the deferred machinery with nowhere to hide — the same
/// malloc/register/free churn as `free_many_objs`, but the timer covers
/// the periodic drains too, so the deferred arm pays its queue
/// bookkeeping AND every walk it put off. This keeps the mutator-visible
/// wins honest by publishing the total cost next to them: off sweeps
/// inline at each free, on defers through the quarantine and drains
/// every 64 rounds on the freeing thread. Ops are frees.
fn bench_sweep_total(rounds: u64, deferred: bool) -> Measurement {
    const OBJS: u64 = 8;
    const DRAIN_EVERY: u64 = 64;
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(
        Arc::clone(&mem),
        Config::default().with_deferred_sweep(deferred),
    );
    det.bind_heap(&heap);
    let holder = heap.malloc(OBJS * 8).expect("holder");
    det.on_alloc(&holder);
    let mut live = Vec::with_capacity(OBJS as usize);
    let mut elapsed = 0.0;
    for _pass in 0..2 {
        let start = Instant::now();
        for r in 0..rounds {
            for o in 0..OBJS {
                let obj = heap.malloc(64).expect("obj");
                det.on_alloc(&obj);
                let loc = holder.base + o * 8;
                mem.write_word(loc, obj.base).expect("store");
                det.register_ptr(loc, obj.base);
                live.push(obj.base);
            }
            for base in live.drain(..) {
                free_one(&heap, &det, base);
            }
            if r % DRAIN_EVERY == DRAIN_EVERY - 1 {
                det.drain();
            }
        }
        det.drain();
        elapsed = start.elapsed().as_secs_f64();
    }
    let s = det.stats();
    let expected = 2 * rounds * OBJS; // both passes
    assert_eq!(s.free_locs_walked, expected, "every log entry walked");
    assert_eq!(
        s.ptrs_invalidated + s.stale_ptrs,
        expected,
        "every location classified"
    );
    Measurement {
        ops_per_sec: (rounds * OBJS) as f64 / elapsed,
        ops: rounds * OBJS,
    }
}

fn main() {
    let args = Args::parse("hotpath [--quick] [--out BENCH_hotpath.json]", 0);
    let quick = args.has("--quick");

    let (reps, scale) = if quick { (3, 1u64) } else { (7, 8u64) };
    type Bench = fn(u64, bool) -> Measurement;
    // One row per `HOTPATH_BENCHES` entry, in its order.
    let runs: [(Bench, u64); HOTPATH_BENCHES.len()] = [
        (bench_free_many_objs, 2_000 * scale),
        (bench_free_while_registering, 5_000 * scale),
        (bench_sweep_total, 2_000 * scale),
        (bench_trace_off, 20_000 * scale),
        (bench_metrics_off, 20_000 * scale),
    ];

    let mut doc = Json::obj();
    doc.set("schema", Json::Str(HOTPATH_SCHEMA.into()));
    doc.set("quick", Json::Bool(quick));
    doc.set("cores", Json::Num(cores() as f64));
    let mut section = Json::obj();
    eprintln!(
        "[hotpath] {} mode, {reps} reps/bench",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<15} {:>16} {:>16} {:>8}",
        "bench", "off (ops/s)", "on (ops/s)", "speedup"
    );
    for ((name, _), (f, iters)) in HOTPATH_BENCHES.into_iter().zip(runs) {
        let (off, on) = best_pair(reps, |on| f(iters, on));
        let speedup = on.ops_per_sec / off.ops_per_sec;
        println!(
            "{name:<15} {:>16.0} {:>16.0} {speedup:>7.2}x",
            off.ops_per_sec, on.ops_per_sec
        );
        let mut b = Json::obj();
        b.set("ops", Json::Num(on.ops as f64));
        b.set("ops_per_sec_caches_off", Json::Num(off.ops_per_sec));
        b.set("ops_per_sec_caches_on", Json::Num(on.ops_per_sec));
        b.set("speedup", Json::Num(speedup));
        section.set(name, b);
    }
    doc.set("benches", section);
    args.write("--out", &doc.render_pretty());
}
