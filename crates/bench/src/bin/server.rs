//! Production-server time-series benchmark: the telemetry plane's
//! flagship workload and the `BENCH_server.json` gates.
//!
//! Two phases per arm (baseline allocator vs the shipping DangSan
//! configuration):
//!
//! 1. **Closed-loop capacity probe** — interleaved best-of runs of the
//!    nginx-shaped request mix (60% static / 35% dynamic / 5% session
//!    churn), giving each arm's sustainable requests/second.
//! 2. **Open-loop latency run** — both arms re-run at the *same* offered
//!    load, a fraction of the DangSan arm's measured capacity, with
//!    latency measured from each request's scheduled arrival. That is
//!    what a production dashboard shows: queueing delay is part of the
//!    tail, and p50/p99/p999 come off the lock-free log-bucketed
//!    histograms rather than a per-request `Vec`.
//!
//! Emits `BENCH_server.json` (`schema: dangsan-server-v1`), which the
//! bench gates (`dangsan_bench::gate`) hold to a cores-keyed
//! throughput-ratio floor plus latency presence gates.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dangsan-bench --bin server [-- --quick] [--out PATH]
//! ```

use dangsan_baselines::TagScheme;
use dangsan_bench::report::Json;
use dangsan_bench::{cores, detector_config, production_profile, Args, SERVER_SCHEMA};
use dangsan_workloads::{run_server, run_server_opts, DetectorKind, ServerOptions, ServerResult};

/// Best-of closed-loop capacity for one arm.
fn capacity(kind: DetectorKind, workers: usize, requests: u64, reps: u32) -> f64 {
    let profile = production_profile(workers);
    let mut best = 0f64;
    for rep in 0..reps {
        let hh = dangsan_workloads::shared_env(kind);
        let r = run_server(&profile, requests, 0, &hh, 0xbe2c ^ rep as u64);
        best = best.max(r.rps);
    }
    best
}

/// One open-loop run; keeps the rep with the lowest p99 (the
/// best-conditions estimate, mirroring best-of throughput).
fn open_loop(
    kind: DetectorKind,
    workers: usize,
    requests: u64,
    offered_rps: f64,
    reps: u32,
) -> ServerResult {
    let mut best: Option<ServerResult> = None;
    for rep in 0..reps {
        let hh = dangsan_workloads::shared_env(kind);
        let opts = ServerOptions {
            offered_rps: Some(offered_rps),
            hub: None,
        };
        let r = run_server_opts(
            &production_profile(workers),
            requests,
            0,
            &hh,
            0xd007 ^ rep as u64,
            &opts,
        );
        if best.as_ref().is_none_or(|b| r.p99_ns < b.p99_ns) {
            best = Some(r);
        }
    }
    best.expect("at least one rep")
}

fn result_json(r: &ServerResult) -> Json {
    let mut j = Json::obj();
    j.set("rps", Json::Num(r.rps));
    if let Some(offered) = r.offered_rps {
        j.set("offered_rps", Json::Num(offered));
    }
    j.set("p50_ns", Json::Num(r.p50_ns as f64));
    j.set("p99_ns", Json::Num(r.p99_ns as f64));
    j.set("p999_ns", Json::Num(r.p999_ns as f64));
    j.set("max_ns", Json::Num(r.max_ns as f64));
    j.set("sessions_churned", Json::Num(r.sessions_churned as f64));
    let mut classes = Json::obj();
    for c in &r.classes {
        let mut cj = Json::obj();
        cj.set("count", Json::Num(c.count as f64));
        cj.set("p50_ns", Json::Num(c.p50_ns as f64));
        cj.set("p99_ns", Json::Num(c.p99_ns as f64));
        cj.set("p999_ns", Json::Num(c.p999_ns as f64));
        classes.set(c.class, cj);
    }
    j.set("classes", classes);
    j
}

fn main() {
    let args = Args::parse("server [--quick] [--out BENCH_server.json]", 0);
    let quick = args.has("--quick");

    let (reps, requests) = if quick {
        (3, 20_000u64)
    } else {
        (5, 60_000u64)
    };
    let workers = 4usize.min(cores().max(1));
    let cores = cores();
    eprintln!(
        "[server] {} mode, {reps} reps, {requests} req, {workers} workers, {cores} cores",
        if quick { "quick" } else { "full" }
    );

    let dangsan_kind = DetectorKind::DangSan(detector_config());

    // Phase 1: closed-loop capacity, arms interleaved by rep inside
    // `capacity` being called back to back per arm; the ratio divides
    // numbers taken minutes apart at most.
    let base_cap = capacity(DetectorKind::Baseline, workers, requests, reps);
    let dang_cap = capacity(dangsan_kind, workers, requests, reps);
    println!("capacity     baseline {base_cap:>12.0} req/s");
    println!(
        "capacity     dangsan  {dang_cap:>12.0} req/s  ({:.2}x)",
        dang_cap / base_cap
    );

    // The tagging arms join the capacity probe (same request mix, same
    // worker count) so `BENCH_server.json` carries a per-defense row the
    // cross-defense table and the schema lint can read. Open loop stays
    // a two-arm comparison: the tail study is about the invalidation
    // pipeline, the tagging arms have no deferred machinery to stress.
    let tag_caps = TagScheme::DEFAULTS.map(|scheme| {
        let kind = DetectorKind::Tagging(scheme);
        let name = kind.label();
        let cap = capacity(kind, workers, requests, reps);
        println!(
            "capacity     {name:<12} {cap:>8.0} req/s  ({:.2}x)",
            cap / base_cap
        );
        (name, cap)
    });

    // Phase 2: open loop at 60% of the *instrumented* arm's capacity —
    // below saturation for both arms, so the tail reflects per-request
    // work and scheduling, not an unbounded queue.
    let offered = dang_cap * 0.6;
    let open_reqs = requests / 2;
    let rb = open_loop(DetectorKind::Baseline, workers, open_reqs, offered, reps);
    let rd = open_loop(dangsan_kind, workers, open_reqs, offered, reps);
    for (name, r) in [("baseline", &rb), ("dangsan", &rd)] {
        println!(
            "open-loop    {name:<8} p50 {:>9} ns   p99 {:>9} ns   p999 {:>9} ns",
            r.p50_ns, r.p99_ns, r.p999_ns
        );
        assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns && r.p999_ns <= r.max_ns);
    }

    let mut doc = Json::obj();
    doc.set("schema", Json::Str(SERVER_SCHEMA.into()));
    doc.set("quick", Json::Bool(quick));
    doc.set("cores", Json::Num(cores as f64));
    doc.set("workers", Json::Num(workers as f64));
    let mut arms = Json::obj();
    let mut base_arm = Json::obj();
    base_arm.set("capacity_rps", Json::Num(base_cap));
    base_arm.set("open_loop", result_json(&rb));
    arms.set("baseline", base_arm);
    let mut dang_arm = Json::obj();
    dang_arm.set("capacity_rps", Json::Num(dang_cap));
    dang_arm.set("open_loop", result_json(&rd));
    arms.set("dangsan", dang_arm);
    for (name, cap) in &tag_caps {
        let mut arm = Json::obj();
        arm.set("capacity_rps", Json::Num(*cap));
        arm.set("overhead_vs_baseline", Json::Num(base_cap / cap));
        arms.set(name, arm);
    }
    doc.set("arms", arms);

    // The open-loop dangsan figures the bench gates judge, with the
    // capacity ratio that no single arm's row carries.
    let mut derived = Json::obj();
    derived.set("dangsan_over_baseline_rps", Json::Num(dang_cap / base_cap));
    derived.set("dangsan_p50_ns", Json::Num(rd.p50_ns as f64));
    derived.set("dangsan_p99_ns", Json::Num(rd.p99_ns as f64));
    derived.set("dangsan_p999_ns", Json::Num(rd.p999_ns as f64));
    doc.set("derived", derived);

    args.write("--out", &doc.render_pretty());
}
