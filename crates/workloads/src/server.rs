//! Web-server-shaped workload (§8.2 throughput, §8.3 memory).
//!
//! The paper benchmarks Apache, Nginx and Cherokee with ApacheBench: 128
//! concurrent connections, 100 000 requests, 32 workers, a tiny response
//! so the CPU — and therefore the pointer-tracking instrumentation — is
//! the bottleneck. The simulation runs `workers` threads pulling requests
//! from a shared counter; each request allocates the server's typical
//! object graph, links it up with pointer stores, optionally retains part
//! of it in per-connection pools (Apache's memory behaviour), and frees
//! the rest.
//!
//! Latency is accumulated in lock-free log-bucketed histograms
//! ([`dangsan_telemetry::Histogram`], ≤12.5% relative bucket error)
//! rather than per-request `Vec`s, so memory stays bounded at any
//! request count and the percentile lines extend to p999. Requests are
//! drawn from three classes hashed deterministically from the request
//! index — `static` file serving (a light graph), `dynamic` page builds
//! (the full profile graph) and `churn` session teardowns (the worker's
//! retained pool is freed and rebuilt) — each with its own histogram.
//!
//! Two load modes:
//!
//! * **closed-loop** ([`run_server`]): workers issue the next request as
//!   soon as the previous one finishes; latency is service time. This is
//!   the capacity probe.
//! * **open-loop** ([`ServerOptions::offered_rps`]): request `i` is
//!   *scheduled* at `start + i/rate` regardless of completions, and
//!   latency is measured from that scheduled arrival — so queueing delay
//!   under a fixed offered load shows up in the tail, the way production
//!   dashboards measure it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dangsan::telemetry::{Histogram, MetricsHub};
use dangsan::{Detector, HookedHeap};
use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::Addr;

use crate::cost::spin;
use crate::profiles::ServerProfile;

/// The request mix: name and share (percent) of each class, drawn by a
/// deterministic hash of the request index so every detector arm serves
/// the identical schedule.
const CLASS_STATIC: usize = 0;
const CLASS_DYNAMIC: usize = 1;
const CLASS_CHURN: usize = 2;
const CLASS_NAMES: [&str; 3] = ["static", "dynamic", "churn"];

/// Per-class latency summary, read off that class's histogram.
#[derive(Debug, Clone)]
pub struct ClassLatency {
    /// Class name (`static`, `dynamic` or `churn`).
    pub class: &'static str,
    /// Requests of this class served.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

/// Result of a server benchmark run.
#[derive(Debug, Clone)]
pub struct ServerResult {
    /// Server name.
    pub name: String,
    /// Detector label.
    pub detector: String,
    /// Requests served.
    pub requests: u64,
    /// Requests per second.
    pub rps: f64,
    /// Offered load for an open-loop run; `None` for closed-loop.
    pub offered_rps: Option<f64>,
    /// Median per-request wall time in nanoseconds (ApacheBench's
    /// "50% served within" line).
    pub p50_ns: u64,
    /// 99th-percentile per-request wall time in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, the dashboard tail.
    pub p999_ns: u64,
    /// Exact maximum latency.
    pub max_ns: u64,
    /// Per-request-class latency breakdown.
    pub classes: Vec<ClassLatency>,
    /// Churn requests that tore down (and freed) a worker's session pool.
    pub sessions_churned: u64,
    /// Simulated resident memory (heap) at the end.
    pub heap_resident: u64,
    /// Detector metadata bytes.
    pub metadata_bytes: u64,
    /// The live latency histograms behind the percentile fields, keyed
    /// by registered metric name (overall first, then one per class).
    /// A hub holds only `Weak` references, so keeping these in the
    /// result is what keeps the latency gauges exportable after the
    /// run — drop the result and they leave the export.
    pub latency_hists: Vec<(String, Arc<Histogram>)>,
}

impl ServerResult {
    /// Total memory footprint for the §8.3 comparison.
    pub fn total_memory(&self) -> u64 {
        self.heap_resident + self.metadata_bytes
    }
}

/// Optional knobs for [`run_server_opts`].
#[derive(Default)]
pub struct ServerOptions {
    /// Open-loop offered load in requests/second; `None` runs closed-loop.
    pub offered_rps: Option<f64>,
    /// A telemetry hub to register the live latency histograms on: the
    /// sampler's time series then carries `server_latency_ns_p99` etc.
    /// next to the detector's own gauges.
    pub hub: Option<Arc<MetricsHub>>,
}

/// SplitMix64 finalizer: the deterministic request-index → class hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Class of request `index`: 60% static, 35% dynamic, 5% churn.
fn class_of(index: u64, seed: u64) -> usize {
    match mix(index ^ seed.rotate_left(17)) % 100 {
        0..=59 => CLASS_STATIC,
        60..=94 => CLASS_DYNAMIC,
        _ => CLASS_CHURN,
    }
}

/// Runs `requests` total requests through `profile.workers` workers,
/// closed-loop (each worker issues the next request as soon as the
/// previous completes).
///
/// `compute_per_request` is the calibrated request-processing work
/// (parsing, response formatting, syscall time) that accompanies the
/// allocator/pointer traffic.
pub fn run_server<D>(
    profile: &ServerProfile,
    requests: u64,
    compute_per_request: u32,
    hh: &HookedHeap<D>,
    seed: u64,
) -> ServerResult
where
    D: Detector + Send + Sync + ?Sized,
{
    run_server_opts(
        profile,
        requests,
        compute_per_request,
        hh,
        seed,
        &ServerOptions::default(),
    )
}

/// [`run_server`] with open-loop pacing and telemetry options.
pub fn run_server_opts<D>(
    profile: &ServerProfile,
    requests: u64,
    compute_per_request: u32,
    hh: &HookedHeap<D>,
    seed: u64,
    opts: &ServerOptions,
) -> ServerResult
where
    D: Detector + Send + Sync + ?Sized,
{
    // One histogram per request class plus the overall one; workers on
    // any thread record into per-thread slabs, merged exactly on
    // snapshot (see `dangsan_telemetry::hist`).
    let overall = Arc::new(Histogram::new());
    let class_hists: [Arc<Histogram>; 3] = [
        Arc::new(Histogram::new()),
        Arc::new(Histogram::new()),
        Arc::new(Histogram::new()),
    ];
    if let Some(hub) = &opts.hub {
        hub.register_histogram("server_latency_ns", &overall);
        for (name, h) in CLASS_NAMES.iter().zip(class_hists.iter()) {
            hub.register_histogram(&format!("server_latency_{name}_ns"), h);
        }
    }
    // Static content / caches loaded at startup.
    let mut static_blocks = Vec::new();
    let mut left = profile.static_bytes;
    while left > 0 {
        let chunk = left.min(1 << 20);
        static_blocks.push(hh.malloc(chunk).expect("static content").base);
        left -= chunk;
    }
    let next = AtomicU64::new(0);
    let churned = AtomicU64::new(0);
    let ns_per_req = opts.offered_rps.map(|rps| 1e9 / rps.max(1e-9));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..profile.workers {
            let hh = hh.clone();
            let next = &next;
            let churned = &churned;
            let overall = &overall;
            let class_hists = &class_hists;
            scope.spawn(move || {
                let mut th = hh.thread_handle();
                let mut rng = SmallRng::seed_from_u64(seed ^ ((w as u64) << 40));
                // Per-worker connection pool (retained allocations) and a
                // slab of pointer slots standing in for connection state.
                let slab = th.malloc(512 * 8).expect("worker slab");
                let mut pool: Vec<Addr> = Vec::new();
                let mut spin_acc = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    let class = class_of(i, seed);
                    // Open loop: request `i` arrives at start + i/rate;
                    // wait for it if we are early, and measure from the
                    // scheduled arrival either way so queueing delay is
                    // part of the latency.
                    let sched_ns = ns_per_req.map(|step| (step * i as f64) as u64);
                    if let Some(sched) = sched_ns {
                        loop {
                            let now = start.elapsed().as_nanos() as u64;
                            if now >= sched {
                                break;
                            }
                            let behind = sched - now;
                            if behind > 200_000 {
                                std::thread::sleep(Duration::from_nanos(behind / 2));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                    let req_start = Instant::now();
                    spin_acc ^= spin(compute_per_request, seed ^ w as u64);
                    if class == CLASS_CHURN && !pool.is_empty() {
                        // Session teardown: the connection's retained
                        // state is released wholesale, exercising the
                        // free/invalidate path in bursts.
                        for base in pool.drain(..) {
                            th.free(base).expect("churn free");
                        }
                        churned.fetch_add(1, Ordering::Relaxed);
                    }
                    // Parse + build the request/response object graph;
                    // static serving touches a third of the dynamic
                    // graph and retains nothing.
                    let (allocs, stores, retain) = match class {
                        CLASS_STATIC => (
                            (profile.allocs_per_request / 3).max(1),
                            profile.stores_per_request / 3,
                            false,
                        ),
                        _ => (profile.allocs_per_request, profile.stores_per_request, true),
                    };
                    let mut request_objs: Vec<(Addr, u64)> = Vec::new();
                    for _ in 0..allocs {
                        let size = rng.gen_range(64..512);
                        let a = th.malloc(size).expect("req alloc");
                        request_objs.push((a.base, size));
                    }
                    for i in 0..stores {
                        if request_objs.is_empty() {
                            break;
                        }
                        // Servers with connection pools (Apache) keep
                        // linking pool entries from fresh request state,
                        // so the pooled objects' logs grow for the whole
                        // run — the source of the 4.5x memory in §8.3.
                        let (t, ts) = if !pool.is_empty() && rng.gen_bool(0.5) {
                            (pool[rng.gen_range(0..pool.len())], 64)
                        } else {
                            request_objs[rng.gen_range(0..request_objs.len())]
                        };
                        // Connection state keeps pointers in a handful of
                        // fields per object, not spread over the slab.
                        let loc = slab.base + ((t / 64 + i % 8) % 512) * 8;
                        th.store_ptr(loc, t + rng.gen_range(0..ts)).expect("store");
                    }
                    // Respond, then tear the graph down; a fraction stays
                    // in the connection pool (Apache's behaviour).
                    for (base, size) in request_objs {
                        // Pools retain the small header-like allocations.
                        if retain
                            && size < 128
                            && rng.gen_bool((profile.retained_frac * 4.0).min(1.0))
                            && pool.len() < 100_000
                        {
                            pool.push(base);
                        } else {
                            th.free(base).expect("req free");
                        }
                    }
                    let lat = match sched_ns {
                        // Completion relative to the scheduled arrival.
                        Some(sched) => (start.elapsed().as_nanos() as u64).saturating_sub(sched),
                        None => req_start.elapsed().as_nanos() as u64,
                    };
                    overall.record(lat);
                    class_hists[class].record(lat);
                }
                std::hint::black_box(spin_acc);
                for base in pool {
                    th.free(base).expect("pool free");
                }
            });
        }
    });
    let elapsed = start.elapsed();
    for b in static_blocks {
        hh.free(b).expect("static free");
    }
    let snap = overall.snapshot();
    let classes = CLASS_NAMES
        .iter()
        .zip(class_hists.iter())
        .map(|(name, h)| {
            let s = h.snapshot();
            ClassLatency {
                class: name,
                count: s.count(),
                p50_ns: s.p50(),
                p99_ns: s.p99(),
                p999_ns: s.p999(),
                max_ns: s.max(),
            }
        })
        .collect();
    debug_assert_eq!(
        snap.count(),
        class_hists
            .iter()
            .map(|h| h.snapshot().count())
            .sum::<u64>(),
        "every request lands in exactly one class histogram"
    );
    ServerResult {
        name: profile.name.to_string(),
        detector: hh.detector().name().to_string(),
        requests,
        rps: requests as f64 / elapsed.as_secs_f64(),
        offered_rps: opts.offered_rps,
        p50_ns: snap.p50(),
        p99_ns: snap.p99(),
        p999_ns: snap.p999(),
        max_ns: snap.max(),
        classes,
        sessions_churned: churned.load(Ordering::Relaxed),
        heap_resident: hh.heap().resident_bytes(),
        metadata_bytes: hh.detector().metadata_bytes(),
        latency_hists: std::iter::once(("server_latency_ns".to_string(), overall))
            .chain(
                CLASS_NAMES
                    .iter()
                    .zip(class_hists)
                    .map(|(name, h)| (format!("server_latency_{name}_ns"), h)),
            )
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{shared_env, DetectorKind};
    use crate::profiles::SERVERS;
    use dangsan::Config;

    #[test]
    fn all_three_servers_serve_requests() {
        for p in SERVERS {
            let hh = shared_env(DetectorKind::DangSan(Config::default()));
            let r = run_server(p, 500, 0, &hh, 1);
            assert_eq!(r.requests, 500);
            assert!(r.rps > 0.0);
            assert!(r.p50_ns > 0, "median latency must be measured");
            assert!(r.p99_ns >= r.p50_ns, "percentiles out of order");
            assert!(r.p999_ns >= r.p99_ns, "percentiles out of order");
            assert!(r.max_ns >= r.p999_ns, "max below p999");
            let class_total: u64 = r.classes.iter().map(|c| c.count).sum();
            assert_eq!(class_total, 500, "every request lands in one class");
        }
    }

    #[test]
    fn class_mix_is_deterministic_and_shaped() {
        let counts = |seed| {
            let mut c = [0u64; 3];
            for i in 0..10_000 {
                c[class_of(i, seed)] += 1;
            }
            c
        };
        let a = counts(7);
        assert_eq!(a, counts(7), "same seed, same schedule");
        assert!(a[CLASS_STATIC] > a[CLASS_DYNAMIC], "static dominates");
        assert!(a[CLASS_DYNAMIC] > a[CLASS_CHURN], "churn is rare");
        assert!(a[CLASS_CHURN] > 0, "churn occurs");
        assert_ne!(a, counts(8), "different seed, different schedule");
    }

    #[test]
    fn churn_requests_tear_down_session_pools() {
        // Apache retains aggressively, so across 2000 requests some
        // churn request must find a non-empty pool to tear down.
        let hh = shared_env(DetectorKind::DangSan(Config::default()));
        let r = run_server(&SERVERS[0], 2000, 0, &hh, 5);
        assert!(r.sessions_churned > 0, "no session was ever churned");
    }

    #[test]
    fn open_loop_latency_includes_queueing_delay() {
        // Offered load far beyond capacity: scheduled arrivals run ahead
        // of completions, so scheduled-relative latency must dwarf the
        // closed-loop service time of the same workload.
        let p = &SERVERS[1];
        let hh = shared_env(DetectorKind::DangSan(Config::default()));
        let closed = run_server(p, 400, 0, &hh, 9);
        let hh = shared_env(DetectorKind::DangSan(Config::default()));
        let open = run_server_opts(
            p,
            400,
            0,
            &hh,
            9,
            &ServerOptions {
                offered_rps: Some(1e9),
                hub: None,
            },
        );
        assert_eq!(open.offered_rps, Some(1e9));
        assert!(
            open.p99_ns > closed.p50_ns,
            "saturating open-loop p99 {} must exceed closed-loop p50 {}",
            open.p99_ns,
            closed.p50_ns
        );
    }

    #[test]
    fn open_loop_paces_below_capacity() {
        // 200 requests at 10k rps should take ~20ms of wall time even
        // though the work itself is far cheaper.
        let p = &SERVERS[2];
        let hh = shared_env(DetectorKind::DangSan(Config::default()));
        let start = Instant::now();
        let r = run_server_opts(
            p,
            200,
            0,
            &hh,
            11,
            &ServerOptions {
                offered_rps: Some(10_000.0),
                hub: None,
            },
        );
        assert!(start.elapsed() >= Duration::from_millis(15), "unpaced");
        assert!(r.rps <= 15_000.0, "throughput capped by offered load");
    }

    #[test]
    fn apache_profile_tracks_most_per_request_state() {
        let apache = &SERVERS[0];
        let cherokee = &SERVERS[2];
        let run = |p| {
            let hh = shared_env(DetectorKind::DangSan(Config::default()));
            let r = run_server(p, 400, 0, &hh, 2);
            (r.metadata_bytes, r.heap_resident)
        };
        let (a_meta, a_res) = run(apache);
        let (c_meta, c_res) = run(cherokee);
        // Apache's retained pools + rich graphs mean far more tracked
        // state than Cherokee's near-static serving (4.5x vs 1.1x in §8.3).
        let a_ratio = (a_meta + a_res) as f64 / a_res as f64;
        let c_ratio = (c_meta + c_res) as f64 / c_res as f64;
        assert!(
            a_ratio > c_ratio,
            "apache {a_ratio:.2}x should exceed cherokee {c_ratio:.2}x"
        );
    }

    #[test]
    fn baseline_and_dangsan_serve_same_request_count() {
        let p = &SERVERS[1];
        let hb = shared_env(DetectorKind::Baseline);
        let rb = run_server(p, 300, 0, &hb, 3);
        let hd = shared_env(DetectorKind::DangSan(Config::default()));
        let rd = run_server(p, 300, 0, &hd, 3);
        assert_eq!(rb.requests, rd.requests);
        assert!(rd.metadata_bytes > rb.metadata_bytes);
    }

    #[test]
    fn hub_registration_feeds_the_time_series() {
        // shared_env type-erases the detector, so use a standalone hub;
        // the workload registers its histograms on whatever hub it is
        // handed, detector-attached or not.
        let hh = shared_env(DetectorKind::DangSan(Config::default()));
        let hub = dangsan::telemetry::MetricsHub::new();
        let r = run_server_opts(
            &SERVERS[1],
            300,
            0,
            &hh,
            4,
            &ServerOptions {
                offered_rps: None,
                hub: Some(Arc::clone(&hub)),
            },
        );
        assert_eq!(r.requests, 300);
        let samples = hub.collect();
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(find("server_latency_ns_count"), 300);
        assert_eq!(find("server_latency_ns_p99"), r.p99_ns);
        assert_eq!(find("server_latency_ns_max"), r.max_ns);
        let class_total: u64 = CLASS_NAMES
            .iter()
            .map(|n| find(&format!("server_latency_{n}_ns_count")))
            .sum();
        assert_eq!(class_total, 300);
    }
}
