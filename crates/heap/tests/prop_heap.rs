//! Randomized tests for the tcmalloc-style allocator, driven by the
//! in-repo seeded [`SmallRng`] (formerly proptest).

use std::collections::BTreeMap;
use std::sync::Arc;

use dangsan_heap::{AllocError, Heap};
use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::AddressSpace;

#[cfg(not(feature = "heavy-tests"))]
const CASES: u64 = 64;
#[cfg(feature = "heavy-tests")]
const CASES: u64 = 512;

#[derive(Debug, Clone)]
enum Op {
    Malloc(u64),
    FreeNth(usize),
    Realloc(usize, u64),
}

fn random_op(rng: &mut SmallRng) -> Op {
    // Weights match the original strategy: 3 malloc, 2 free, 1 realloc.
    match rng.gen_range(0u64..6) {
        0..=2 => Op::Malloc(rng.gen_range(1u64..20_000)),
        3 | 4 => Op::FreeNth(rng.next_u64() as usize),
        _ => Op::Realloc(rng.next_u64() as usize, rng.gen_range(1u64..20_000)),
    }
}

/// Under arbitrary malloc/free/realloc sequences, live objects never
/// overlap, `object_of` resolves every interior pointer to the right
/// base, and data survives reallocation.
#[test]
fn allocator_invariants() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA110C + case);
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        // live: base -> (requested, tag written at base)
        let mut live: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut tag = 1u64;
        let ops = rng.gen_range(1usize..150);
        for _ in 0..ops {
            match random_op(&mut rng) {
                Op::Malloc(size) => {
                    let a = heap.malloc(size).unwrap();
                    assert!(a.usable >= size);
                    if size >= 8 {
                        mem.write_word(a.base, tag).unwrap();
                        live.insert(a.base, (size, tag));
                    } else {
                        live.insert(a.base, (size, 0));
                    }
                    tag += 1;
                }
                Op::FreeNth(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let key = *live.keys().nth(i % live.len()).unwrap();
                    live.remove(&key);
                    heap.free(key).unwrap();
                }
                Op::Realloc(i, new_size) => {
                    if live.is_empty() {
                        continue;
                    }
                    let key = *live.keys().nth(i % live.len()).unwrap();
                    let (old_size, old_tag) = live.remove(&key).unwrap();
                    match heap.realloc(key, new_size).unwrap() {
                        dangsan_heap::ReallocOutcome::InPlace(a) => {
                            assert_eq!(a.base, key);
                            live.insert(key, (new_size.max(old_size), old_tag));
                        }
                        dangsan_heap::ReallocOutcome::Moved { old, new } => {
                            assert_eq!(old.base, key);
                            if old_tag != 0 && new_size >= 8 {
                                assert_eq!(mem.read_word(new.base).unwrap(), old_tag);
                            }
                            live.insert(new.base, (new_size, old_tag));
                        }
                    }
                }
            }
            // Invariant: tags intact => no overlap corrupted anything.
            for (&base, &(_, t)) in &live {
                if t != 0 {
                    assert_eq!(mem.read_word(base).unwrap(), t);
                }
            }
        }
        // Interior-pointer resolution for all live objects.
        for (&base, &(size, _)) in &live {
            let probe = base + size.saturating_sub(1).min(size);
            let (b, usable) = heap.object_of(probe).unwrap();
            assert_eq!(b, base);
            assert!(usable >= size);
        }
        // Freed objects never resolve.
        let bases: Vec<u64> = live.keys().copied().collect();
        for base in bases {
            heap.free(base).unwrap();
            assert!(heap.object_of(base).is_none());
            assert_eq!(heap.free(base), Err(AllocError::DoubleFree(base)));
        }
    }
}

/// The thread-cache path and the central path hand out the same
/// non-overlapping objects: mallocs alternate between the TLS magazines
/// and the locked central lists (turning caching off flushes this
/// thread's magazines back to them).
#[test]
fn cache_path_equivalence() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xCAC4E + case);
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let count = rng.gen_range(1usize..100);
        for i in 0..count {
            let s = rng.gen_range(1u64..9000);
            heap.set_thread_cached(i % 2 == 0);
            let a = heap.malloc(s).unwrap();
            ranges.push((a.base, a.base + a.stride));
        }
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap {w:?}");
        }
    }
}
