//! Telemetry reconciliation report: runs the production-server workload
//! on a metrics-enabled detector, dumps the sampler's JSONL time series
//! and a Prometheus-style exposition, and — the actual gate — verifies
//! that every exported counter and gauge reconciles exactly against the
//! detector's own `StatsSnapshot` and direct accessors, and that the
//! exported metadata ledger's parts sum exactly to the exported
//! `metadata_bytes`. The telemetry plane is only worth shipping if a
//! dashboard reading it sees the same numbers the test suite does.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dangsan-bench --bin metrics_report \
//!     [-- --quick] [--jsonl PATH] [--prom PATH]
//! ```
//!
//! Exits non-zero if any exported sample disagrees with its source of
//! truth, or the ledger's parts do not sum to the total.

use std::sync::Arc;

use dangsan::telemetry::{MetricKind, Sample};
use dangsan::{Config, DangSan, Detector, HookedHeap};
use dangsan_bench::report::Table;
use dangsan_heap::Heap;
use dangsan_vmem::AddressSpace;
use dangsan_workloads::{run_server_opts, ServerOptions, ServerProfile};

fn arg_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jsonl_path = arg_value(&args, "--jsonl", "metrics.jsonl");
    let prom_path = arg_value(&args, "--prom", "metrics.prom");
    let requests = if quick { 10_000u64 } else { 40_000u64 };

    // Every subsystem with a gauge switched on: metrics + deferred sweep
    // (quarantine and shard-depth gauges).
    let cfg = Config::default()
        .with_metrics(true)
        .with_metrics_interval_ms(10)
        .with_deferred_sweep(true)
        .with_quarantine_caps(256 << 10, 256);
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    // A *concrete* `HookedHeap<DangSan>`: the hub lives on the detector,
    // and only the concrete type exposes `DangSan::metrics`.
    let det = DangSan::new(Arc::clone(&mem), cfg);
    let hub = Arc::clone(det.metrics().expect("metrics enabled"));
    let hh = HookedHeap::new(Arc::clone(&heap), det);
    let det = Arc::clone(hh.detector());

    let profile = ServerProfile {
        name: "production",
        workers: 4,
        allocs_per_request: 12,
        stores_per_request: 64,
        retained_frac: 0.05,
        static_bytes: 1 << 20,
        paper_slowdown: 1.0,
        paper_mem: 1.0,
    };
    eprintln!("[metrics_report] serving {requests} requests...");
    let opts = ServerOptions {
        offered_rps: None,
        hub: Some(Arc::clone(&hub)),
    };
    let result = run_server_opts(&profile, requests, 0, &hh, 0x7e1e, &opts);
    det.drain();

    // Dump the artifacts first: series so far plus one final exposition.
    let series = hub.series();
    std::fs::write(&jsonl_path, series.join("\n") + "\n").expect("write jsonl");
    std::fs::write(&prom_path, hub.prometheus()).expect("write prom");
    eprintln!(
        "[metrics_report] wrote {jsonl_path} ({} lines) and {prom_path}",
        series.len()
    );

    // Reconcile: the workload is quiescent and drained, so every sample
    // the hub collects must equal the corresponding source of truth.
    let samples = hub.collect();
    let snap = det.stats();
    let shard_blocks = heap.central_shard_blocks();
    let mut expected: Vec<(String, u64)> = vec![
        ("objects_allocated".into(), snap.objects_allocated),
        ("objects_freed".into(), snap.objects_freed),
        ("ptrs_registered".into(), snap.ptrs_registered),
        ("ptrs_invalidated".into(), snap.ptrs_invalidated),
        ("tlb_hits".into(), snap.tlb_hits),
        ("tlb_misses".into(), snap.tlb_misses),
        ("ptr2obj_cache_hits".into(), snap.ptr2obj_cache_hits),
        ("ptr2obj_cache_misses".into(), snap.ptr2obj_cache_misses),
        ("frees_deferred".into(), snap.frees_deferred),
        ("sweeps_backpressure".into(), snap.sweeps_backpressure),
        ("sweep_steals".into(), snap.sweep_steals),
        ("metadata_bytes".into(), det.metadata_bytes()),
        ("quarantine_objects".into(), 0),
        ("quarantine_bytes".into(), 0),
        ("heap_resident_bytes".into(), heap.resident_bytes()),
        ("heap_magazine_blocks".into(), heap.magazine_blocks()),
    ];
    let ledger = det.metadata_ledger();
    for (name, bytes) in ledger.parts() {
        expected.push((name.into(), bytes));
    }
    for (i, peak) in snap.sweep_shard_peaks.iter().enumerate() {
        expected.push((format!("sweep_shard_peak_{i}"), *peak));
    }
    for i in 0..snap.sweep_shard_peaks.len() {
        // Drained queue: every shard's live depth is zero.
        expected.push((format!("sweep_shard_depth_{i}"), 0));
    }
    for (i, blocks) in shard_blocks.iter().enumerate() {
        expected.push((format!("heap_central_blocks_{i}"), *blocks));
    }
    // The workload's latency histograms, kept alive by `result`.
    expected.push(("server_latency_ns_count".into(), requests));
    expected.push(("server_latency_ns_p50".into(), result.p50_ns));
    expected.push(("server_latency_ns_p99".into(), result.p99_ns));
    expected.push(("server_latency_ns_p999".into(), result.p999_ns));
    expected.push(("server_latency_ns_max".into(), result.max_ns));
    for c in &result.classes {
        expected.push((format!("server_latency_{}_ns_count", c.class), c.count));
        expected.push((format!("server_latency_{}_ns_p99", c.class), c.p99_ns));
    }

    let find = |name: &str| -> Option<&Sample> { samples.iter().find(|s| s.name == name) };
    let mut table = Table::new(&["metric", "kind", "exported", "expected", "ok"]);
    let mut failures = 0u32;
    for (name, want) in &expected {
        let (kind, got, ok) = match find(name) {
            Some(s) => {
                let kind = match s.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                };
                (kind, s.value.to_string(), s.value == *want)
            }
            None => ("-", "MISSING".to_string(), false),
        };
        if !ok {
            failures += 1;
        }
        table.row(vec![
            name.clone(),
            kind.to_string(),
            got,
            want.to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());
    // The ledger must account for every metadata byte a dashboard sees.
    let exported = |name: &str| find(name).map_or(0, |s| s.value);
    let parts: u64 = ledger.parts().iter().map(|&(name, _)| exported(name)).sum();
    let total = exported("metadata_bytes");
    let balanced = parts == total;
    if !balanced {
        failures += 1;
    }
    println!(
        "ledger: parts sum to {parts} B, metadata_bytes {total} B ({})",
        if balanced { "balanced" } else { "MISMATCH" }
    );
    println!(
        "reconciled {} metrics, {} mismatches ({} series lines, {:.0} req/s)",
        expected.len(),
        failures,
        series.len(),
        result.rps
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
