//! Cross-thread behaviour of the TLS-magazine allocator: blocks freed on
//! a foreign thread land on the right class list, thread exit drains
//! every magazine, and the cached and locked paths obey identical
//! liveness invariants under ABA-style recycling stress.
//!
//! Threads are created with `spawn` + `join` throughout: joining a thread
//! orders its TLS destructors (which drain the magazines) before the
//! join returns, which scoped threads do not guarantee.

use std::collections::BTreeSet;
use std::sync::Arc;

use dangsan_heap::{AllocError, Heap};
use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::AddressSpace;

#[cfg(not(feature = "heavy-tests"))]
const CASES: u64 = 16;
#[cfg(feature = "heavy-tests")]
const CASES: u64 = 128;

fn setup() -> (Arc<AddressSpace>, Arc<Heap>) {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    (mem, heap)
}

/// Alloc on T1, free on T2: the blocks must come back through T2's
/// magazine (and its exit drain) to the central lists of the *same* size
/// class, where a third party can allocate every one of them again.
#[test]
fn cross_thread_free_returns_blocks_to_class_list() {
    let (_, heap) = setup();
    // One full span's worth of one class, so reallocation below can
    // account for every block.
    let bases: Vec<u64> = (0..128).map(|_| heap.malloc(40).unwrap().base).collect();
    let stride = heap.object_of(bases[0]).unwrap().1 + 1;
    let freed: BTreeSet<u64> = bases.iter().copied().collect();
    let t2 = {
        let heap = Arc::clone(&heap);
        let bases = bases.clone();
        std::thread::spawn(move || {
            for b in bases {
                heap.free(b).unwrap();
            }
        })
    };
    t2.join().unwrap();
    // The main thread's own magazine still holds refill leftovers from
    // the alloc loop; flush it so the count isolates T2's exit drain.
    heap.flush_thread_cache();
    assert_eq!(heap.magazine_blocks(), 0, "T2's exit drained its magazines");
    // Every freed block is allocatable again, in the same class (same
    // stride), from any thread. Disable the magazine so the search below
    // pops the central lists directly.
    heap.set_thread_cached(false);
    let mut recovered = BTreeSet::new();
    for _ in 0..4 * freed.len() {
        let a = heap.malloc(40).unwrap();
        assert_eq!(a.stride, stride, "same size class");
        if freed.contains(&a.base) {
            recovered.insert(a.base);
        }
        if recovered.len() == freed.len() {
            break;
        }
    }
    assert_eq!(recovered, freed, "all cross-thread-freed blocks reachable");
}

/// Double frees are detected even when the two frees race on different
/// threads than the allocation, and the loser's error names the address.
#[test]
fn cross_thread_double_free_detected() {
    let (_, heap) = setup();
    let a = heap.malloc(64).unwrap();
    let t2 = {
        let heap = Arc::clone(&heap);
        std::thread::spawn(move || heap.free(a.base))
    };
    t2.join().unwrap().unwrap();
    assert_eq!(heap.free(a.base), Err(AllocError::DoubleFree(a.base)));
}

/// Thread exit leaves zero cached blocks.
#[test]
fn thread_exit_drains_every_magazine() {
    let (_, heap) = setup();
    const THREADS: u64 = 4;
    const OPS: u64 = 3000;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let heap = Arc::clone(&heap);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xD12A1 + t);
            let mut live = Vec::new();
            for _ in 0..OPS {
                live.push(heap.malloc(rng.gen_range(8u64..2000)).unwrap().base);
                if live.len() > 48 {
                    let i = rng.next_u64() as usize % live.len();
                    heap.free(live.swap_remove(i)).unwrap();
                }
            }
            for b in live {
                heap.free(b).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(heap.magazine_blocks(), 0, "all magazines drained on exit");
}

/// ABA-style recycling stress, cached and locked paths alike: threads
/// hammer one size class so the same blocks recycle constantly across
/// magazines and central shards. A block handed to two owners at once
/// would corrupt the other owner's tag; a lost block — one that no free
/// list holds after every thread has freed it and exited — would never
/// be handed out again by the central-path search after the join.
#[test]
fn recycling_stress_cached_and_locked() {
    for cached in [true, false] {
        for case in 0..CASES.min(8) {
            let (mem, heap) = setup();
            heap.set_thread_cached(cached);
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let heap = Arc::clone(&heap);
                let mem = Arc::clone(&mem);
                handles.push(std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xABA0 + 31 * case + t);
                    let tag_base = (t + 1) << 56;
                    let mut live: Vec<(u64, u64)> = Vec::new();
                    let mut handed = BTreeSet::new();
                    for i in 0..2000u64 {
                        // One class (size 64) so every thread fights over
                        // the same blocks.
                        let a = heap.malloc(48).unwrap();
                        handed.insert(a.base);
                        let tag = tag_base | i;
                        mem.write_word(a.base, tag).unwrap();
                        live.push((a.base, tag));
                        if live.len() > 24 {
                            let j = rng.next_u64() as usize % live.len();
                            let (b, tag) = live.swap_remove(j);
                            // Exclusive ownership: our tag is still there.
                            assert_eq!(mem.read_word(b).unwrap(), tag);
                            heap.free(b).unwrap();
                        }
                    }
                    for (b, tag) in live {
                        assert_eq!(mem.read_word(b).unwrap(), tag);
                        heap.free(b).unwrap();
                    }
                    handed
                }));
            }
            let mut handed = BTreeSet::new();
            for h in handles {
                handed.append(&mut h.join().unwrap());
            }
            assert_eq!(heap.magazine_blocks(), 0);
            // Every base the stress handed out is allocatable again: with
            // caching off, malloc pops the central lists (every shard)
            // before it carves a fresh span.
            heap.set_thread_cached(false);
            let mut recovered = BTreeSet::new();
            for _ in 0..4 * handed.len() {
                let a = heap.malloc(48).unwrap();
                if handed.contains(&a.base) {
                    recovered.insert(a.base);
                }
                if recovered.len() == handed.len() {
                    break;
                }
            }
            let lost: Vec<_> = handed.difference(&recovered).collect();
            assert!(
                lost.is_empty(),
                "cached={cached} case={case}: lost {lost:#x?}"
            );
        }
    }
}

/// Magazines follow the thread, not the heap: a thread that touches two
/// heaps drains its binding for the first before caching for the second,
/// so blocks never leak across heaps.
#[test]
fn rebinding_to_a_second_heap_drains_the_first() {
    let (_, heap_a) = setup();
    let (_, heap_b) = setup();
    let t = {
        let (heap_a, heap_b) = (Arc::clone(&heap_a), Arc::clone(&heap_b));
        std::thread::spawn(move || {
            let a = heap_a.malloc(64).unwrap();
            heap_a.free(a.base).unwrap();
            assert!(heap_a.magazine_blocks() > 0, "parked in this magazine");
            // First touch of heap_b rebinds, draining the heap_a binding.
            let b = heap_b.malloc(64).unwrap();
            assert_eq!(heap_a.magazine_blocks(), 0, "drained on rebind");
            heap_b.free(b.base).unwrap();
        })
    };
    t.join().unwrap();
    assert_eq!(heap_a.magazine_blocks(), 0);
    assert_eq!(heap_b.magazine_blocks(), 0, "drained on thread exit");
}
