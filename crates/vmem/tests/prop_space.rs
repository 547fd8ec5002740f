//! Randomized reference-model tests for the simulated address space.
//!
//! Formerly written with `proptest`; now driven by the in-repo seeded
//! [`SmallRng`] so the suite builds offline. Each test runs a fixed number
//! of deterministic random cases (more with `--features heavy-tests`).

use std::collections::HashMap;
use std::sync::Arc;

use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::{AddressSpace, FaultKind, HEAP_BASE, PAGE_SIZE};

#[cfg(not(feature = "heavy-tests"))]
const CASES: u64 = 48;
#[cfg(feature = "heavy-tests")]
const CASES: u64 = 512;

/// Arbitrary interleavings of word writes over a mapped window read back
/// exactly what a reference HashMap model says they should.
#[test]
fn writes_match_reference_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5ACE + case);
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, 4 * PAGE_SIZE).unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let ops = rng.gen_range(1usize..200);
        for _ in 0..ops {
            let slot = rng.gen_range(0u64..2048);
            let val = rng.next_u64();
            let addr = HEAP_BASE + slot * 8;
            mem.write_word(addr, val).unwrap();
            model.insert(addr, val);
        }
        for (addr, val) in model {
            assert_eq!(mem.read_word(addr).unwrap(), val);
        }
    }
}

/// Any access outside mapped pages faults as Unmapped; any bit-63 address
/// faults as NonCanonical regardless of mapping.
#[test]
fn fault_kinds() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xFA17 + case);
        let offset_pages = rng.gen_range(2u64..1000);
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, 2 * PAGE_SIZE).unwrap();
        let outside = HEAP_BASE + offset_pages * PAGE_SIZE;
        assert_eq!(
            mem.read_word(outside).unwrap_err().kind,
            FaultKind::Unmapped
        );
        let poisoned = HEAP_BASE | (1 << 63);
        assert_eq!(
            mem.read_word(poisoned).unwrap_err().kind,
            FaultKind::NonCanonical
        );
    }
}

/// copy() moves arbitrary word blocks faithfully.
#[test]
fn copy_faithful() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC0B7 + case);
        let words: Vec<u64> = (0..rng.gen_range(1usize..256))
            .map(|_| rng.next_u64())
            .collect();
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, 8 * PAGE_SIZE).unwrap();
        for (i, w) in words.iter().enumerate() {
            mem.write_word(HEAP_BASE + i as u64 * 8, *w).unwrap();
        }
        let dst = HEAP_BASE + 4 * PAGE_SIZE;
        mem.copy(HEAP_BASE, dst, words.len() as u64 * 8).unwrap();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(mem.read_word(dst + i as u64 * 8).unwrap(), *w);
        }
    }
}

/// Concurrent per-thread disjoint writes are all visible afterwards; this is
/// a smoke test that the radix tree installation path is race-free.
#[test]
fn concurrent_first_touch_population() {
    let mem = Arc::new(AddressSpace::new());
    // All threads map disjoint page ranges concurrently, forcing racy
    // interior-node installation.
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let mem = Arc::clone(&mem);
        handles.push(std::thread::spawn(move || {
            let base = HEAP_BASE + t * 64 * PAGE_SIZE;
            mem.map(base, 64 * PAGE_SIZE).unwrap();
            for p in 0..64u64 {
                mem.write_word(base + p * PAGE_SIZE, t * 1000 + p).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..8u64 {
        let base = HEAP_BASE + t * 64 * PAGE_SIZE;
        for p in 0..64u64 {
            assert_eq!(mem.read_word(base + p * PAGE_SIZE).unwrap(), t * 1000 + p);
        }
    }
    assert_eq!(mem.mapped_pages(), 8 * 64);
}
