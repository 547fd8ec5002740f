//! Telemetry-plane integration tests (DESIGN.md §6).
//!
//! Two contracts:
//!
//! * **Exactness** — the histogram's per-thread slabs and the hub's
//!   pull-based gauges must agree bit-exactly with the detector's own
//!   `StatsSnapshot` counters, across thread exit, scope exit and join.
//! * **Inertness** — turning metrics on must not change detector
//!   behaviour: the same deterministic workload produces bit-identical
//!   behavioural counters with metrics on and off, in both sweep modes.

use std::sync::Arc;
use std::time::Duration;

use dangsan::telemetry::Histogram;
use dangsan::{Config, DangSan, Detector, HookedHeap};
use dangsan_heap::Heap;
use dangsan_vmem::AddressSpace;

/// A concrete metrics-enabled environment (the hub lives on `DangSan`).
fn metered_env(cfg: Config) -> HookedHeap<DangSan> {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(Arc::clone(&mem), cfg);
    HookedHeap::new(heap, det)
}

/// A deterministic single-threaded lifecycle mix: pointer-free objects
/// churned, interleaved with objects that take an inbound pointer before
/// being freed.
fn run_mixed_workload(hh: &HookedHeap<DangSan>) {
    let mut th = hh.thread_handle();
    let holders = th.malloc(8 * 64).expect("holders");
    for round in 0..48u64 {
        for _ in 0..3 {
            let o = th.malloc(24).expect("churn");
            th.free(o.base).expect("churn free");
        }
        let obj = th.malloc(16 + (round % 5) * 16).expect("obj");
        th.store_ptr(holders.base + round * 8, obj.base)
            .expect("store");
        th.free(obj.base).expect("free");
    }
    th.free(holders.base).expect("holders free");
}

#[test]
fn hub_counters_reconcile_with_stats_snapshot_across_threads() {
    let cfg = Config::default()
        .with_metrics(true)
        .with_deferred_sweep(true);
    let hh = metered_env(cfg);
    // Multithreaded traffic: per-thread stat slabs and histogram slabs
    // both retire on thread exit; the scope join orders the reader
    // after every writer, so the pull must be exact.
    let lat = Arc::new(Histogram::new());
    let hub = Arc::clone(hh.detector().metrics().expect("hub"));
    hub.register_histogram("work_ns", &lat);
    let _sampler = hub.start_sampler(Duration::from_millis(5));
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let hh = hh.clone();
            let lat = Arc::clone(&lat);
            s.spawn(move || {
                let mut th = hh.thread_handle();
                for i in 0..200u64 {
                    let o = th.malloc(32 + (i % 7) * 8).expect("alloc");
                    th.free(o.base).expect("free");
                    lat.record(w * 1000 + i);
                }
            });
        }
    });
    hh.detector().drain();
    let samples = hub.collect();
    let snap = hh.detector().stats();
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    assert_eq!(find("objects_allocated"), snap.objects_allocated);
    assert_eq!(find("objects_freed"), snap.objects_freed);
    assert_eq!(find("ptrs_registered"), snap.ptrs_registered);
    assert_eq!(find("ptrs_invalidated"), snap.ptrs_invalidated);
    assert_eq!(find("frees_deferred"), snap.frees_deferred);
    assert_eq!(find("quarantine_objects"), 0, "drained queue");
    assert_eq!(find("quarantine_bytes"), 0, "drained queue");
    // The histogram saw exactly one record per free, from 4 exited
    // threads — the single-writer slabs must merge without loss.
    assert_eq!(find("work_ns_count"), 800);
    assert_eq!(find("work_ns_max"), 3199);
    assert_eq!(lat.snapshot().count(), snap.objects_freed);
}

#[test]
fn histogram_count_matches_objects_freed_exactly() {
    // One record per free, issued on the freeing thread: after join +
    // drain the histogram total and the detector's exact counter must
    // be bit-identical however the threads exited.
    let hh = metered_env(Config::default().with_metrics(true));
    let frees = Arc::new(Histogram::new());
    std::thread::scope(|s| {
        for w in 0..3u64 {
            let hh = hh.clone();
            let frees = Arc::clone(&frees);
            s.spawn(move || {
                let mut th = hh.thread_handle();
                for i in 0..150u64 {
                    let o = th.malloc(24 + (w ^ i) % 64).expect("alloc");
                    th.free(o.base).expect("free");
                    frees.record(i);
                }
            });
        }
    });
    let snap = hh.detector().stats();
    assert_eq!(frees.snapshot().count(), 450);
    assert_eq!(snap.objects_freed, 450);
}

#[test]
fn metrics_on_is_behaviourally_inert_across_the_matrix() {
    // The ablation contract: metrics may observe, never perturb. The
    // same deterministic workload must leave bit-identical behavioural
    // counters with the plane on and off, in both sweep modes.
    for deferred in [false, true] {
        let base = Config::default().with_deferred_sweep(deferred);
        let run = |cfg: Config| {
            let hh = metered_env(cfg);
            let hub = hh.detector().metrics();
            let _sampler = hub.map(|hub| hub.start_sampler(Duration::from_millis(1)));
            run_mixed_workload(&hh);
            hh.detector().drain();
            hh.detector().stats().behavioural()
        };
        let off = run(base);
        let on = run(base.with_metrics(true));
        assert_eq!(off, on, "metrics changed behaviour at deferred={deferred}");
    }
}

#[test]
fn heap_gauges_track_a_rebound_heap() {
    // The heap-gauge source reads the detector's live heap slot: after
    // a re-bind, the gauges must follow the replacement heap (not go
    // dark when the original drops), and the source must not be
    // registered twice.
    let mem = Arc::new(AddressSpace::new());
    let det = DangSan::new(Arc::clone(&mem), Config::default().with_metrics(true));
    let hub = Arc::clone(det.metrics().expect("hub"));
    let resident = |hub: &dangsan::telemetry::MetricsHub| {
        hub.collect()
            .into_iter()
            .filter(|s| s.name == "heap_resident_bytes")
            .map(|s| s.value)
            .collect::<Vec<u64>>()
    };
    let first = Heap::new(Arc::clone(&mem));
    det.bind_heap(&first);
    assert_eq!(resident(&hub).len(), 1);
    let second = Heap::new(Arc::clone(&mem));
    det.bind_heap(&second);
    drop(first);
    let after_rebind = resident(&hub);
    assert_eq!(
        after_rebind.len(),
        1,
        "re-bind duplicated or orphaned the source"
    );
    second.malloc(4096).expect("alloc");
    assert!(
        resident(&hub)[0] > after_rebind[0],
        "gauges must track the rebound heap"
    );
}

#[test]
fn hub_series_stays_empty_until_a_caller_starts_a_sampler() {
    // The detector starts no thread: a metrics-on detector's hub
    // collects on demand, and only a caller's sampler writes a series.
    let hh = metered_env(Config::default().with_metrics(true));
    let hub = Arc::clone(hh.detector().metrics().expect("hub"));
    run_mixed_workload(&hh);
    std::thread::sleep(Duration::from_millis(10));
    drop(hh);
    assert!(hub.series().is_empty(), "{:?}", hub.series());
    hub.start_sampler(Duration::from_millis(1)).stop();
    assert!(!hub.series().is_empty(), "a stopped sampler leaves a line");
}

#[test]
fn sampler_series_accumulates_and_survives_detector_drop() {
    let hh = metered_env(Config::default().with_metrics(true));
    let hub = Arc::clone(hh.detector().metrics().expect("hub"));
    let mut sampler = hub.start_sampler(Duration::from_millis(1));
    run_mixed_workload(&hh);
    std::thread::sleep(Duration::from_millis(10));
    drop(hh);
    // The sampler outlived the detector; stopping it takes a final line,
    // and the series is intact (the hub outlives the detector here).
    sampler.stop();
    let series = hub.series();
    assert!(series.len() >= 2, "expected several samples: {series:?}");
    for line in &series {
        assert!(line.starts_with("{\"ts_ms\":"), "bad line {line}");
        assert!(line.ends_with('}'), "bad line {line}");
    }
    // Post-drop collections still work; the detector source is simply
    // gone (its Weak fails to upgrade).
    let names: Vec<String> = hub.collect().into_iter().map(|s| s.name).collect();
    assert!(!names.contains(&"objects_allocated".to_string()));
}
