//! End-to-end flight-recorder tests: the recorder rides along a real
//! detector stack (vmem + heap + shadow + core), a deliberate
//! use-after-free traps, and the forensics pass must attribute the trap
//! to the right object, freeing thread and invalidation count.

use std::cell::RefCell;
use std::sync::Arc;

use dangsan_suite::dangsan::{
    current_thread_id, forensics, set_alloc_site, Config, Counter, DangSan, Detector, EventCode,
    HookedHeap, TraceLevel,
};
use dangsan_suite::heap::Heap;
use dangsan_suite::trace::{unpack_pages, unpack_walked};
use dangsan_suite::vmem::{AddressSpace, FaultKind, INVALID_BIT, PAGE_SIZE};

fn traced_env(level: TraceLevel) -> (Arc<AddressSpace>, Arc<Heap>, Arc<DangSan>) {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(Arc::clone(&mem), Config::default().with_trace_level(level));
    det.bind_heap(&heap);
    (mem, heap, det)
}

/// The headline scenario: free an object while a logged location still
/// points into it, dereference the invalidated pointer, and ask the
/// recorder who is to blame. The report must name the freed object's id,
/// the freeing thread and how many locations its free rewrote.
#[test]
fn uaf_trap_is_attributed_to_the_right_free() {
    let (mem, heap, det) = traced_env(TraceLevel::Full);
    set_alloc_site(42);

    // Noise: other lifetimes before and after the victim, so attribution
    // has to discriminate, not just pick the only free in the rings.
    let holder = heap.malloc(4 * 8).expect("holder");
    det.on_alloc(&holder);
    for _ in 0..10 {
        let other = heap.malloc(64).expect("other");
        det.on_alloc(&other);
        mem.write_word(holder.base + 8, other.base).expect("store");
        det.register_ptr(holder.base + 8, other.base);
        det.on_free(other.base);
        heap.free(other.base).expect("free");
    }

    // The victim: three registered locations, all still pointing into it
    // at free time.
    let victim = heap.malloc(80).expect("victim");
    det.on_alloc(&victim);
    for slot in 0..3u64 {
        let loc = holder.base + slot * 8;
        let val = victim.base + slot * 16;
        mem.write_word(loc, val).expect("store");
        det.register_ptr(loc, val);
    }
    let report = det.on_free(victim.base);
    heap.free(victim.base).expect("free");
    assert_eq!(report.invalidated, 3);

    // More noise after the free.
    let late = heap.malloc(32).expect("late");
    det.on_alloc(&late);
    det.on_free(late.base);
    heap.free(late.base).expect("free");

    // The trap: following any of the invalidated pointers faults.
    let dangling = mem.read_word(holder.base + 16).expect("load");
    assert_eq!(
        dangling & INVALID_BIT,
        INVALID_BIT,
        "pointer was invalidated"
    );
    let fault = mem.read_word(dangling).expect_err("deref must trap");
    assert_eq!(fault.kind, FaultKind::NonCanonical);

    let uaf = det.uaf_report(dangling).expect("trap attributed");
    assert_eq!(uaf.base, victim.base, "right object");
    assert_eq!(uaf.original_addr, victim.base + 32);
    assert_eq!(uaf.size, Some(80));
    assert_eq!(uaf.alloc_site, Some(42));
    assert_eq!(uaf.free_thread, current_thread_id(), "right freeing thread");
    assert_eq!(uaf.invalidated, 3, "right invalidation count");
    assert_eq!(uaf.fault_thread, Some(current_thread_id()));
    assert!(uaf.sweep.is_some(), "Full level captures the sweep span");
    assert_eq!(
        uaf.trail.last().expect("trail ends at the trap").code,
        EventCode::VmemFault
    );

    // The object id is the victim's epoch — never reused, so it cannot
    // collide with any of the noise lifetimes.
    let ids: Vec<u64> = det
        .tracer()
        .expect("tracer")
        .events()
        .iter()
        .filter(|e| e.code == EventCode::ObjectAlloc)
        .map(|e| e.b)
        .collect();
    assert_eq!(
        ids.iter().filter(|&&id| id == uaf.object_id).count(),
        1,
        "object ids are unique across lifetimes"
    );

    // The human rendering carries the same attribution.
    let text = uaf.to_string();
    assert!(text.contains(&format!("id {}", uaf.object_id)), "{text}");
    assert!(text.contains("3 location(s)"), "{text}");
}

/// The heap shares the detector's tracer with no call by hand: hooking a
/// `Full`-level detector in front of a heap folds its span carves into
/// the same rings.
#[test]
fn a_hooked_heap_records_its_carves_in_the_detector_rings() {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let cfg = Config::default().with_trace_level(TraceLevel::Full);
    let hh = HookedHeap::new(heap, DangSan::new(mem, cfg));
    let obj = hh.malloc(64).expect("obj");
    hh.free(obj.base).expect("free");
    let tracer = hh.detector().tracer().expect("tracer");
    let carves = tracer
        .events()
        .iter()
        .filter(|e| e.code == EventCode::HeapCarve)
        .count();
    assert!(carves > 0, "the first malloc carves a span");
}

/// One free, one sweep: a deferred free of an object logged from 20
/// holder pages records a single `FreeSweep` span covering the whole
/// walk, so the free-size histogram, the span and a trap's report all
/// describe the same sweep.
#[test]
fn deferred_free_of_a_wide_object_records_one_sweep_span() {
    const PAGES: u64 = 20;
    const PER_PAGE: u64 = 3;
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(
        Arc::clone(&mem),
        Config::default()
            .with_trace_level(TraceLevel::Full)
            .with_deferred_sweep(true),
    );
    let tracer = Arc::clone(det.tracer().expect("tracer"));
    let hh = HookedHeap::new(heap, Arc::clone(&det));
    let holders = hh.malloc(PAGES * PAGE_SIZE).expect("holders");
    let obj = hh.malloc(128).expect("obj");
    for p in 0..PAGES {
        for s in 0..PER_PAGE {
            let loc = holders.base + p * PAGE_SIZE + s * 8;
            hh.store_ptr(loc, obj.base + s * 8).expect("store");
        }
    }
    hh.free(obj.base).expect("free");
    det.drain();

    let events = tracer.events();
    let obj_id = events
        .iter()
        .find(|e| e.code == EventCode::ObjectFree && e.a == obj.base)
        .expect("free recorded")
        .b;
    let sweeps: Vec<_> = events
        .iter()
        .filter(|e| e.code == EventCode::FreeSweep)
        .collect();
    assert_eq!(sweeps.len(), 1, "one span for the one free: {sweeps:?}");
    let sweep = sweeps[0];
    assert_eq!(sweep.a, obj_id);
    assert_eq!(unpack_walked(sweep.b), PAGES * PER_PAGE);
    assert_eq!(unpack_pages(sweep.b), PAGES);

    // The counters saw the same single free: 60 locations land in the
    // 9-64 bucket, as trace_report's histogram check rebuilds it.
    let stats = det.stats();
    assert_eq!(stats.free_locs_hist, [0, 0, 1, 0, 0]);
    assert_eq!(stats.free_locs_walked, unpack_walked(sweep.b));
    assert_eq!(stats.free_pages_touched, unpack_pages(sweep.b));

    // A trap through any masked holder reports the whole sweep.
    let dangling = hh.load(holders.base + 7 * PAGE_SIZE + 8).expect("load");
    assert_eq!(dangling, (obj.base + 8) | INVALID_BIT);
    hh.load(dangling).expect_err("deref must trap");
    let uaf = forensics::uaf_report(&tracer, dangling).expect("trap attributed");
    assert_eq!(uaf.object_id, obj_id);
    assert_eq!(uaf.invalidated, PAGES * PER_PAGE);
    let (walked, pages, _) = uaf.sweep.expect("Full level captures the sweep span");
    assert_eq!((walked, pages), (PAGES * PER_PAGE, PAGES));
}

/// One free, one sweep, in both sweep modes: pointer-free churn plus
/// frees of objects holding 1 to 118 registered locations record exactly
/// one `FreeSweep` span per freed object, and the free-size histogram
/// rebuilt from the spans' walked counts equals the counters', bucket by
/// bucket — the reconciliation `trace_report` runs.
#[test]
fn each_freed_object_records_one_sweep_span_in_both_sweep_modes() {
    for deferred in [false, true] {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSan::new(
            Arc::clone(&mem),
            Config::default()
                .with_trace_level(TraceLevel::Full)
                .with_deferred_sweep(deferred),
        );
        let tracer = Arc::clone(det.tracer().expect("tracer"));
        let hh = HookedHeap::new(heap, Arc::clone(&det));
        let holders = hh.malloc(8 * 128).expect("holders");
        for round in 0..40u64 {
            for _ in 0..3 {
                let churn = hh.malloc(24).expect("churn");
                hh.free(churn.base).expect("churn free");
            }
            let obj = hh.malloc(16 + (round % 5) * 16).expect("obj");
            for s in 0..1 + round * 3 {
                hh.store_ptr(holders.base + s * 8, obj.base).expect("store");
            }
            hh.free(obj.base).expect("free");
        }
        hh.free(holders.base).expect("holders free");
        det.drain();

        assert!(
            tracer.snapshot().iter().all(|r| r.dropped == 0),
            "deferred={deferred}: rings must hold the whole run"
        );
        let mut event_hist = [0u64; 5];
        let mut sweeps = 0u64;
        for e in tracer.events() {
            if e.code == EventCode::FreeSweep {
                sweeps += 1;
                let bucket = Counter::free_hist_bucket(unpack_walked(e.b));
                event_hist[bucket as usize - Counter::FreeHistEmpty as usize] += 1;
            }
        }
        let stats = det.stats();
        assert_eq!(stats.objects_freed, 40 * 4 + 1, "deferred={deferred}");
        assert_eq!(sweeps, stats.objects_freed, "deferred={deferred}");
        assert_eq!(event_hist, stats.free_locs_hist, "deferred={deferred}");
        assert!(
            stats.free_locs_hist[..4].iter().all(|&n| n > 0),
            "deferred={deferred}: walks span four buckets: {:?}",
            stats.free_locs_hist
        );
    }
}

/// Cross-thread attribution: the free happens on a worker thread, the
/// dereference on the main thread; the report must keep them apart.
#[test]
fn frees_on_another_thread_are_attributed_to_it() {
    let (mem, heap, det) = traced_env(TraceLevel::Lifecycles);
    let holder = heap.malloc(8).expect("holder");
    det.on_alloc(&holder);
    let victim = heap.malloc(64).expect("victim");
    det.on_alloc(&victim);
    mem.write_word(holder.base, victim.base).expect("store");
    det.register_ptr(holder.base, victim.base);

    let freeing_thread = std::thread::scope(|s| {
        let det = Arc::clone(&det);
        let base = victim.base;
        s.spawn(move || {
            let r = det.on_free(base);
            assert_eq!(r.invalidated, 1);
            current_thread_id()
        })
        .join()
        .expect("worker")
    });
    heap.free(victim.base).expect("free");
    assert_ne!(freeing_thread, current_thread_id());

    let dangling = mem.read_word(holder.base).expect("load");
    mem.read_word(dangling).expect_err("deref must trap");

    let uaf = det.uaf_report(dangling).expect("attributed");
    assert_eq!(uaf.base, victim.base);
    assert_eq!(uaf.free_thread, freeing_thread, "freed on the worker");
    assert_eq!(uaf.fault_thread, Some(current_thread_id()), "trapped here");
    assert_eq!(uaf.invalidated, 1);
}

/// A free made from a TLS destructor that runs after the thread's
/// bindings (counter slab, ring, magazines) were torn down is still a
/// whole free: it masks the holder, and its `ObjectFree` event lands in
/// the freeing thread's ring.
#[test]
fn frees_from_thread_exit_destructors_are_recorded() {
    struct FreeOnExit(HookedHeap<DangSan>, u64);
    impl Drop for FreeOnExit {
        fn drop(&mut self) {
            let _ = self.0.free(self.1);
        }
    }
    thread_local! {
        static ON_EXIT: RefCell<Option<FreeOnExit>> = const { RefCell::new(None) };
    }
    let (mem, heap, det) = traced_env(TraceLevel::Lifecycles);
    let hooked = HookedHeap::new(heap, Arc::clone(&det));
    let holder = hooked.malloc(8).expect("holder");
    let victim = hooked.malloc(64).expect("victim");
    hooked.store_ptr(holder.base, victim.base).expect("store");
    let freeing_thread = {
        let hooked = hooked.clone();
        std::thread::spawn(move || {
            // Registered before the bindings below, so on platforms that
            // run TLS destructors in reverse order it runs after them.
            ON_EXIT.with(|e| *e.borrow_mut() = Some(FreeOnExit(hooked.clone(), victim.base)));
            let warm = hooked.malloc(32).expect("warm");
            hooked.free(warm.base).expect("free");
            current_thread_id()
        })
        .join()
        .expect("worker")
    };
    // `join` waits for the thread's TLS destructors.
    let dangling = mem.read_word(holder.base).expect("load");
    assert_eq!(dangling & INVALID_BIT, INVALID_BIT, "late free masked it");
    let tracer = det.tracer().expect("tracer");
    assert!(
        tracer
            .events()
            .iter()
            .any(|e| e.code == EventCode::ObjectFree
                && e.a == victim.base
                && e.thread == freeing_thread),
        "the late free's event is in the freeing thread's ring"
    );
    assert_eq!(det.stats().objects_freed, 2);
}

/// With tracing off there is no tracer, no rings, and no report — and
/// the detector still catches the UAF the normal way.
#[test]
fn trace_off_has_no_tracer_but_still_traps() {
    let (mem, heap, det) = traced_env(TraceLevel::Off);
    assert!(det.tracer().is_none());
    let holder = heap.malloc(8).expect("holder");
    det.on_alloc(&holder);
    let victim = heap.malloc(32).expect("victim");
    det.on_alloc(&victim);
    mem.write_word(holder.base, victim.base).expect("store");
    det.register_ptr(holder.base, victim.base);
    det.on_free(victim.base);
    heap.free(victim.base).expect("free");
    let dangling = mem.read_word(holder.base).expect("load");
    let fault = mem.read_word(dangling).expect_err("deref must trap");
    assert_eq!(fault.kind, FaultKind::NonCanonical);
    assert!(det.uaf_report(dangling).is_none(), "no rings to consult");
}

/// Rings written by scoped worker threads stay readable after the scope
/// ends (thread exit clears the TLS binding, never the registry), so a
/// forensics pass after `join` still sees every worker's history.
#[test]
fn worker_histories_survive_scope_exit() {
    let (mem, heap, det) = traced_env(TraceLevel::Lifecycles);
    let workers = 4;
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (mem, heap, det) = (Arc::clone(&mem), Arc::clone(&heap), Arc::clone(&det));
            s.spawn(move || {
                let holder = heap.malloc(8).expect("holder");
                det.on_alloc(&holder);
                for _ in 0..5 {
                    let obj = heap.malloc(48).expect("obj");
                    det.on_alloc(&obj);
                    mem.write_word(holder.base, obj.base).expect("store");
                    det.register_ptr(holder.base, obj.base);
                    det.on_free(obj.base);
                    heap.free(obj.base).expect("free");
                }
            });
        }
    });
    let tracer = det.tracer().expect("tracer");
    let snaps = tracer.snapshot();
    assert_eq!(snaps.len(), workers, "one ring per worker, all readable");
    for snap in &snaps {
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.code == EventCode::ObjectFree)
                .count(),
            5,
            "thread {} history intact",
            snap.thread
        );
        assert_eq!(snap.dropped, 0);
    }
    let _ = forensics::uaf_report(tracer, 0); // walking dead rings is safe
}
