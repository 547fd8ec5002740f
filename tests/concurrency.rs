//! Concurrency stress tests: the lock-free logging design under real
//! thread contention, including the paper's §7 race windows — which may
//! cost detection coverage but must never cost memory safety or corrupt
//! unrelated objects.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dangsan_suite::dangsan::{Config, DangSan, Detector, HookedHeap};
use dangsan_suite::heap::Heap;
use dangsan_suite::vmem::{AddressSpace, INVALID_BIT};

fn setup() -> (Arc<AddressSpace>, HookedHeap<DangSan>) {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(Arc::clone(&mem), Config::default());
    (mem, HookedHeap::new(heap, det))
}

/// Many threads hammer the same shared object with pointer stores while
/// the main thread frees and reallocates it; afterwards every slot must
/// hold either an invalidated pointer or a pointer to a *live* object.
#[test]
fn shared_object_free_storm_is_safe() {
    let (_, hh) = setup();
    let slots = hh.malloc(8 * 256).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let freed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Writers keep storing pointers to whatever object is current.
        let current = Arc::new(AtomicU64::new(0));
        {
            let obj = hh.malloc(128).unwrap();
            current.store(obj.base, Ordering::Release);
        }
        let progress = Arc::new(AtomicU64::new(0));
        for t in 0..4u64 {
            let hh = hh.clone();
            let stop = Arc::clone(&stop);
            let current = Arc::clone(&current);
            let progress = Arc::clone(&progress);
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let target = current.load(Ordering::Acquire);
                    let loc = slots.base + ((t * 64 + i % 64) * 8);
                    // The target may be freed under us: only store values
                    // that are at least shaped like our object pointers.
                    hh.store_ptr(loc, target + (i % 16) * 8).unwrap();
                    progress.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // The freeer cycles the shared object, yielding so the writers
        // make progress even on a single-core machine.
        for round in 0..2_000 {
            let next = hh.malloc(128).unwrap();
            let old = current.swap(next.base, Ordering::AcqRel);
            hh.free(old).unwrap();
            freed.fetch_add(1, Ordering::Relaxed);
            if round % 64 == 0 {
                while progress.load(Ordering::Relaxed) < round as u64 {
                    std::thread::yield_now();
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Memory safety held (no panic/UB); check slot invariants.
    let det = hh.detector();
    let s = det.stats();
    assert!(s.ptrs_registered > 0);
    assert_eq!(freed.load(Ordering::Relaxed), 2_000);
    // Every slot should hold 0, an invalidated pointer, or a pointer into
    // a live object. The §7 race (a store concurrent with the free's log
    // walk) can leave a dangling-but-uninvalidated pointer — the paper
    // accepts this false negative — but the window is narrow, so such
    // slots must be a small minority.
    let mut missed = 0;
    for i in 0..256u64 {
        let v = hh.load(slots.base + i * 8).unwrap();
        if v == 0 || v & INVALID_BIT != 0 {
            continue;
        }
        if hh.heap().object_of(v).is_none() {
            missed += 1;
        }
    }
    assert!(
        missed <= 64,
        "§7 race misses must be rare: {missed}/256 slots dangling"
    );
    // And the vast majority of frees did invalidate something.
    assert!(s.ptrs_invalidated > 0);
}

/// Threads allocating, linking and freeing disjoint object graphs never
/// interfere: each thread's invalidation counts are exact.
#[test]
fn disjoint_graphs_have_exact_counts() {
    let (_, hh) = setup();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let hh = hh.clone();
        handles.push(std::thread::spawn(move || {
            let mut th = hh.thread_handle();
            let mut exact = 0u64;
            for round in 0..200u64 {
                let n = 1 + (round % 7);
                let obj = th.malloc(64).unwrap();
                let holders = th.malloc(8 * n).unwrap();
                for i in 0..n {
                    th.store_ptr(holders.base + i * 8, obj.base + i).unwrap();
                }
                let r = th.free(obj.base).unwrap();
                assert_eq!(r.invalidated, n, "round {round}");
                exact += n;
                th.free(holders.base).unwrap();
            }
            exact
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(hh.detector().stats().ptrs_invalidated, total);
}

/// The metadata pools (records, logs and the logs' hash tables) recycle
/// under contention without ever handing the same record to two owners
/// (validated indirectly: counts stay exact and nothing corrupts).
#[test]
fn pool_recycling_under_contention() {
    // Every 15th round also drives an object into the hash tier: 256
    // bytes apart its 100 locations never compress, so they fill the
    // embedded and indirect tiers, and its table comes from the pools
    // the other threads return theirs to.
    const LOCS: u64 = 100;
    const HASH_ROUNDS: u64 = 3_000 / 15;
    let (_, hh) = setup();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let hh = hh.clone();
            scope.spawn(move || {
                let mut th = hh.thread_handle();
                let holders = th.malloc(LOCS * 256).unwrap();
                for i in 0..3_000u64 {
                    let obj = th.malloc(16 + i % 64).unwrap();
                    let holder = th.malloc(8).unwrap();
                    th.store_ptr(holder.base, obj.base).unwrap();
                    assert_eq!(th.free(obj.base).unwrap().invalidated, 1);
                    th.free(holder.base).unwrap();
                    if i % 15 == 0 {
                        let obj = th.malloc(16 + i % 64).unwrap();
                        for l in 0..LOCS {
                            th.store_ptr(holders.base + l * 256, obj.base).unwrap();
                        }
                        assert_eq!(th.free(obj.base).unwrap().invalidated, LOCS);
                    }
                }
                th.free(holders.base).unwrap();
            });
        }
    });
    let s = hh.detector().stats();
    assert_eq!(s.ptrs_invalidated, 8 * (3_000 + HASH_ROUNDS * LOCS));
    assert_eq!(s.objects_freed, 8 * (2 * 3_000 + HASH_ROUNDS + 1));
    assert_eq!(s.hash_promotions, 8 * HASH_ROUNDS);
}

/// DangNULL's global lock also survives the storm (correctness parity),
/// it is just slower — scalability is measured in the benches.
#[test]
fn dangnull_concurrent_correctness() {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = dangsan_suite::baselines::DangNull::new(Arc::clone(&mem));
    let hh: HookedHeap<dangsan_suite::baselines::DangNull> = HookedHeap::new(heap, det);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let hh = hh.clone();
            scope.spawn(move || {
                for _ in 0..500 {
                    let obj = hh.malloc(64).unwrap();
                    let holder = hh.malloc(8).unwrap();
                    hh.store_ptr(holder.base, obj.base).unwrap();
                    assert_eq!(hh.free(obj.base).unwrap().invalidated, 1);
                    hh.free(holder.base).unwrap();
                }
            });
        }
    });
    assert_eq!(hh.detector().stats().ptrs_invalidated, 4 * 500);
}
