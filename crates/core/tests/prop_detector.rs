//! Randomized tests for the DangSan detector's central soundness claims,
//! driven by the in-repo seeded [`SmallRng`] (formerly proptest).

use std::collections::HashMap;
use std::sync::Arc;

use dangsan::{Config, DangSan, Detector, HookedHeap};
use dangsan_heap::Heap;
use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::{AddressSpace, INVALID_BIT};

#[cfg(not(feature = "heavy-tests"))]
const CASES: u64 = 96;
#[cfg(feature = "heavy-tests")]
const CASES: u64 = 768;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object.
    Alloc(u64),
    /// Store a pointer to (object n, interior offset) into slot s.
    StorePtr { obj: usize, off: u64, slot: usize },
    /// Overwrite slot s with a non-pointer value.
    StoreInt { slot: usize, val: u64 },
    /// Free object n.
    Free(usize),
}

fn random_op(rng: &mut SmallRng) -> Op {
    // Weights match the original strategy: 2 alloc, 4 store-ptr,
    // 1 store-int, 2 free.
    match rng.gen_range(0u64..9) {
        0 | 1 => Op::Alloc(rng.gen_range(8u64..512)),
        2..=5 => Op::StorePtr {
            obj: rng.next_u64() as usize,
            off: rng.gen_range(0u64..64),
            slot: rng.next_u64() as usize,
        },
        6 => Op::StoreInt {
            slot: rng.next_u64() as usize,
            val: rng.next_u64(),
        },
        _ => Op::Free(rng.next_u64() as usize),
    }
}

fn random_config(rng: &mut SmallRng) -> Config {
    Config {
        lookback: rng.gen_range(0usize..6),
        compression: rng.gen_bool(0.5),
        hash_fallback: rng.gen_bool(0.5),
        indirect_capacity: rng.gen_range(4usize..64),
        ..Config::default()
    }
}

/// Soundness: after any operation sequence, for every freed object, every
/// slot that still held an in-range pointer to it at free time is
/// invalidated, and no slot holding a pointer to a *different live* object
/// is ever corrupted — under every detector configuration.
#[test]
fn invalidation_is_sound_and_precise() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDE7EC7 + case);
        let cfg = random_config(&mut rng);
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSan::new(Arc::clone(&mem), cfg);
        let hh = HookedHeap::new(heap, det);

        // A slab of 64 pointer slots.
        let slab = hh.malloc(64 * 8).unwrap();
        let slot_addr = |i: usize| slab.base + (i % 64) as u64 * 8;

        let mut objects: Vec<(u64, u64, bool)> = Vec::new(); // (base, size, live)
                                                             // Model: slot index -> value the program last stored.
        let mut slots: HashMap<usize, u64> = HashMap::new();

        let ops = rng.gen_range(1usize..200);
        for _ in 0..ops {
            match random_op(&mut rng) {
                Op::Alloc(size) => {
                    let a = hh.malloc(size).unwrap();
                    objects.push((a.base, size, true));
                }
                Op::StorePtr { obj, off, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let (base, size, live) = objects[obj % objects.len()];
                    if !live {
                        continue;
                    }
                    let ptr = base + off.min(size);
                    let s = slot % 64;
                    hh.store_ptr(slot_addr(s), ptr).unwrap();
                    slots.insert(s, ptr);
                }
                Op::StoreInt { slot, val } => {
                    let s = slot % 64;
                    // Plain data store, not instrumented (non-pointer
                    // type). Keep the value below the heap base so the
                    // model need not reason about integers that happen to
                    // alias object ranges (paper §4.4 discusses why such
                    // aliases are vanishingly rare on 64-bit).
                    let val = val % dangsan_vmem::HEAP_BASE;
                    hh.store_untracked(slot_addr(s), val).unwrap();
                    slots.insert(s, val);
                }
                Op::Free(n) => {
                    if objects.is_empty() {
                        continue;
                    }
                    let idx = n % objects.len();
                    let (base, size, live) = objects[idx];
                    if !live {
                        continue;
                    }
                    hh.free(base).unwrap();
                    objects[idx].2 = false;
                    // Model expectation: every slot whose current value
                    // points into [base, base+size] becomes invalidated.
                    for (_, v) in slots.iter_mut() {
                        if *v >= base && *v <= base + size {
                            *v |= INVALID_BIT;
                        }
                    }
                    // Check all slots against the model.
                    for (s, v) in slots.iter() {
                        let actual = hh.load(slot_addr(*s)).unwrap();
                        assert_eq!(actual, *v, "slot {s} after free of {base:#x}");
                    }
                }
            }
        }
        // Every dangling slot traps; every live pointer dereferences fine.
        for (_, v) in slots {
            if v & INVALID_BIT != 0 {
                assert!(hh.load(v & !7).is_err());
            }
        }
        let s = hh.detector().stats();
        assert!(s.ptrs_registered >= s.dup_ptrs);
    }
}

/// Concurrency: a registration belongs to the object lifetime it was made
/// in. Worker threads register pointers while the main thread frees and
/// reallocates the *same* heap slot over and over — recycling the same
/// metadata record, logs and hash tables through the pools, and
/// re-creating the exact (location, value) pairs the previous lifetime's
/// logs held. A registration swallowed as a duplicate of the previous
/// lifetime's, or appended into a recycled log, makes the next free's
/// invalidation count come up short, which is what this test pins.
#[test]
fn concurrent_free_recycle_never_loses_a_registration() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    const WORKERS: usize = 4;
    /// Distinct pointer slots per worker.
    const PER: usize = 16;
    /// Identical re-registrations, so they reach the hash tier's
    /// duplicate check once a log is promoted.
    const PASSES: usize = 3;
    #[cfg(not(feature = "heavy-tests"))]
    const ROUNDS: usize = 40;
    #[cfg(feature = "heavy-tests")]
    const ROUNDS: usize = 400;

    for case in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED + case);
        let cfg = Config {
            lookback: rng.gen_range(0usize..3),
            compression: rng.gen_bool(0.5),
            // Tiny array tiers: logs reach the hash tier within one round.
            indirect_capacity: 4,
            ..Config::default()
        };
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSan::new(Arc::clone(&mem), cfg);

        let slab = heap.malloc((WORKERS * PER) as u64 * 8).unwrap();
        det.on_alloc(&slab);
        let published = Arc::new(AtomicU64::new(0));
        let start = Arc::new(Barrier::new(WORKERS + 1));
        let done = Arc::new(Barrier::new(WORKERS + 1));

        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (mem, det) = (Arc::clone(&mem), Arc::clone(&det));
                let published = Arc::clone(&published);
                let (start, done) = (Arc::clone(&start), Arc::clone(&done));
                let slot0 = slab.base + (w * PER) as u64 * 8;
                std::thread::spawn(move || loop {
                    start.wait();
                    let base = published.load(Ordering::Acquire);
                    if base == 0 {
                        return;
                    }
                    for _pass in 0..PASSES {
                        for k in 0..PER as u64 {
                            let loc = slot0 + k * 8;
                            let val = base + (k % 8) * 8;
                            mem.write_word(loc, val).unwrap();
                            det.register_ptr(loc, val);
                        }
                    }
                    done.wait();
                })
            })
            .collect();

        let mut prev_base = None;
        for round in 0..ROUNDS {
            let obj = heap.malloc(64).unwrap();
            if let Some(prev) = prev_base {
                // The allocator hands the same slot back, so the round
                // really does re-create the previous lifetime's pairs.
                assert_eq!(obj.base, prev, "heap stopped recycling the slot");
            }
            prev_base = Some(obj.base);
            det.on_alloc(&obj);
            published.store(obj.base, Ordering::Release);
            start.wait();
            done.wait();
            // All registrations happened before the barrier, so the free
            // must find — and invalidate — every single slot.
            let r = det.on_free(obj.base);
            assert_eq!(
                r.invalidated as usize,
                WORKERS * PER,
                "round {round}: a registration was lost"
            );
            heap.free(obj.base).unwrap();
        }
        published.store(0, Ordering::Release);
        start.wait();
        for w in workers {
            w.join().unwrap();
        }
    }
}
