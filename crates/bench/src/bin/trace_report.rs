//! Flight-recorder demo + exporter: runs a small multithreaded workload
//! with the recorder at `TraceLevel::Full`, triggers one deliberate
//! use-after-free, and renders what the rings captured three ways:
//!
//! 1. the human-readable UAF forensics report (which object, who freed
//!    it, what the faulting thread was doing),
//! 2. an event/ring summary, reconciled against the detector's
//!    `Counter::FreeHist*` free-histogram counters (the aggregate and
//!    event views must agree),
//! 3. Chrome `trace_event` JSON for chrome://tracing or
//!    <https://ui.perfetto.dev> (load the file directly).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dangsan-bench --bin trace_report [-- --out PATH] [--trail N]
//! ```

use std::sync::Arc;

use dangsan::{forensics, Config, DangSan, Detector, EventCode, TraceLevel, Tracer};
use dangsan_bench::report::{human, Json, Table};
use dangsan_heap::Heap;
use dangsan_trace::{set_alloc_site, unpack_walked, Event};
use dangsan_vmem::{AddressSpace, FaultKind};

/// Worker threads churning lifecycles alongside the faulting thread.
const WORKERS: usize = 3;
/// Objects each worker allocates and frees.
const OBJS_PER_WORKER: u64 = 120;
/// Distinct locations the wide object registers (past the embedded and
/// indirect tiers, so the run records tier promotions).
const WIDE_LOCS: u64 = 300;

/// The shared workload: every worker churns small objects with a few
/// registered pointers each, and one "wide" object per worker crosses
/// the log tiers. Returns the dangling (invalidated) pointer value the
/// main thread is left holding.
fn run_workload(mem: &Arc<AddressSpace>, heap: &Arc<Heap>, det: &Arc<DangSan>) -> u64 {
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (mem, heap, det) = (Arc::clone(mem), Arc::clone(heap), Arc::clone(det));
            s.spawn(move || {
                // Distinct per-worker site ids make the births tellable
                // apart in the exported trace.
                set_alloc_site(100 + w as u64);
                let holder = heap.malloc(8 * 8).expect("holder");
                det.on_alloc(&holder);
                for i in 0..OBJS_PER_WORKER {
                    let obj = heap.malloc(64 + (i % 4) * 16).expect("obj");
                    det.on_alloc(&obj);
                    for slot in 0..4 {
                        let loc = holder.base + slot * 8;
                        let val = obj.base + slot * 8;
                        mem.write_word(loc, val).expect("store");
                        det.register_ptr(loc, val);
                    }
                    det.on_free(obj.base);
                    heap.free(obj.base).expect("free");
                }
                // One wide object: enough distinct locations to promote
                // its log through indirect into the hash tier.
                let wide_holder = heap.malloc(WIDE_LOCS * 8).expect("wide holder");
                det.on_alloc(&wide_holder);
                let wide = heap.malloc(256).expect("wide");
                det.on_alloc(&wide);
                for i in 0..WIDE_LOCS {
                    let loc = wide_holder.base + i * 8;
                    let val = wide.base + (i % 32) * 8;
                    mem.write_word(loc, val).expect("store");
                    det.register_ptr(loc, val);
                }
                det.on_free(wide.base);
                heap.free(wide.base).expect("free");
            });
        }
    });

    // The bug, on the main thread: keep a registered pointer to the
    // victim, free the victim, then follow the (now invalidated)
    // pointer. The dereference traps non-canonical in vmem — the trap
    // event anchors the forensics pass.
    set_alloc_site(7);
    let list_node = heap.malloc(16).expect("list node");
    det.on_alloc(&list_node);
    let victim = heap.malloc(48).expect("victim");
    det.on_alloc(&victim);
    mem.write_word(list_node.base, victim.base + 8)
        .expect("store");
    det.register_ptr(list_node.base, victim.base + 8);
    det.on_free(victim.base);
    heap.free(victim.base).expect("free");

    let dangling = mem.read_word(list_node.base).expect("load");
    let fault = mem
        .read_word(dangling)
        .expect_err("dangling deref must trap");
    assert_eq!(fault.kind, FaultKind::NonCanonical, "the UAF trap");
    dangling
}

/// The `free_locs_hist` bucket a `FreeSweep` event's walked count lands
/// in (mirrors `Counter::free_hist_bucket`).
fn hist_bucket(walked: u64) -> usize {
    match walked {
        0 => 0,
        1..=8 => 1,
        9..=64 => 2,
        65..=512 => 3,
        _ => 4,
    }
}

/// Renders all rings as Chrome `trace_event` JSON. Span events (the
/// recorder timestamps a span at its *end*, duration in `c`) become
/// complete ("X") events; everything else becomes a thread-scoped
/// instant ("i"). Timestamps are microseconds, as the format requires.
fn chrome_trace(tracer: &Tracer) -> Json {
    let mut events = Vec::new();
    for snap in tracer.snapshot() {
        for e in &snap.events {
            events.push(chrome_event(e));
        }
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", Json::Str("ns".into()));
    doc
}

fn chrome_event(e: &Event) -> Json {
    let mut ev = Json::obj();
    ev.set("name", Json::Str(e.code.name().into()));
    ev.set("cat", Json::Str("dangsan".into()));
    ev.set("pid", Json::Num(1.0));
    ev.set("tid", Json::Num(e.thread as f64));
    if e.code.is_span() {
        ev.set("ph", Json::Str("X".into()));
        ev.set("ts", Json::Num((e.ts - e.c) as f64 / 1000.0));
        ev.set("dur", Json::Num(e.c as f64 / 1000.0));
    } else {
        ev.set("ph", Json::Str("i".into()));
        ev.set("ts", Json::Num(e.ts as f64 / 1000.0));
        ev.set("s", Json::Str("t".into()));
    }
    let mut args = Json::obj();
    args.set("a", Json::Str(format!("{:#x}", e.a)));
    args.set("b", Json::Str(format!("{:#x}", e.b)));
    args.set("c", Json::Num(e.c as f64));
    args.set("seq", Json::Num(e.seq as f64));
    ev.set("args", args);
    ev
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "trace_report.json".to_string());
    let trail = args
        .iter()
        .position(|a| a == "--trail")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(forensics::DEFAULT_TRAIL);

    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(
        Arc::clone(&mem),
        Config::default().with_trace_level(TraceLevel::Full),
    );
    let tracer = Arc::clone(det.tracer().expect("tracing enabled"));
    heap.set_tracer(&tracer);

    let dangling = run_workload(&mem, &heap, &det);

    // 1. The forensics report.
    let report =
        forensics::uaf_report_with(&tracer, dangling, trail).expect("trap must be attributable");
    println!("{report}");

    // 2. Ring + event summary.
    let snaps = tracer.snapshot();
    let mut rings = Table::new(&["thread", "recorded", "readable", "dropped"]);
    let mut per_code: Vec<(EventCode, u64)> = Vec::new();
    let mut event_hist = [0u64; 5];
    for snap in &snaps {
        rings.row(vec![
            snap.thread.to_string(),
            human(snap.written),
            human(snap.events.len() as u64),
            human(snap.dropped),
        ]);
        for e in &snap.events {
            match per_code.iter_mut().find(|(c, _)| *c == e.code) {
                Some((_, n)) => *n += 1,
                None => per_code.push((e.code, 1)),
            }
            if e.code == EventCode::FreeSweep {
                event_hist[hist_bucket(unpack_walked(e.b))] += 1;
            }
        }
    }
    println!("rings:\n{}", rings.render());
    per_code.sort_by_key(|(c, _)| *c as u8);
    let mut codes = Table::new(&["event", "count"]);
    for (code, n) in &per_code {
        codes.row(vec![code.name().to_string(), human(*n)]);
    }
    println!("events:\n{}", codes.render());

    // 3. Counter/event reconciliation: the detector's free histogram
    // (aggregate `Counter::FreeHist*` counts) against the same histogram rebuilt
    // from FreeSweep events. With every thread joined and rings big
    // enough to hold the run, the two views must agree bucket for
    // bucket — a mismatch means dropped events (see the rings table)
    // or a counter bug.
    let stats = det.stats();
    let mut hist = Table::new(&["locs/free", "stats counters", "FreeSweep events", "match"]);
    let labels = ["0", "1-8", "9-64", "65-512", ">512"];
    let mut reconciled = true;
    for (i, label) in labels.iter().enumerate() {
        let ok = stats.free_locs_hist[i] == event_hist[i];
        reconciled &= ok;
        hist.row(vec![
            label.to_string(),
            stats.free_locs_hist[i].to_string(),
            event_hist[i].to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("free histogram (counters vs events):\n{}", hist.render());
    println!(
        "counters report {} frees, rings hold {} ring bytes",
        human(stats.objects_freed),
        human(tracer.ring_bytes()),
    );
    if !reconciled {
        eprintln!("[trace_report] WARNING: counter and event histograms disagree");
    }

    // 4. Chrome trace export.
    std::fs::write(&out_path, chrome_trace(&tracer).render_pretty()).expect("write trace json");
    println!("wrote {out_path} (load in chrome://tracing or ui.perfetto.dev)");
    if !reconciled {
        std::process::exit(1);
    }
}
