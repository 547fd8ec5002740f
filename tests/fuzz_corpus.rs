//! Tier-1 replay of the committed differential-fuzzing corpus.
//!
//! Every `.dsir` under `tests/corpus/` is a minimized reproducer for a
//! bug the fuzzer (or a satellite fix) surfaced, written by
//! `fuzz_diff --write-corpus` or hand-reduced to the same grammar. Each
//! replays through the full arm matrix (`dangsan_instr::fuzz::check_program`)
//! and must produce zero divergences forever; per-file assertions below
//! additionally pin the specific behavior the reproducer exists for, so
//! a regression fails loudly even if it regresses all arms in unison.

use std::sync::Arc;

use dangsan::{Config, DangSan, HookedHeap};
use dangsan_heap::Heap;
use dangsan_instr::fuzz::{check_program, oracle_verdicts, SLOTS};
use dangsan_instr::ir::{FuncId, Program};
use dangsan_instr::{instrument, parse_program, Machine, PassOptions, Trap};
use dangsan_vmem::{AddressSpace, FaultKind, INVALID_BIT};

const CORPUS: [(&str, &str); 4] = [
    (
        "fuzz_seed56450_deferred.dsir",
        include_str!("corpus/fuzz_seed56450_deferred.dsir"),
    ),
    (
        "wild_gep_fault.dsir",
        include_str!("corpus/wild_gep_fault.dsir"),
    ),
    (
        "quarantine_refree.dsir",
        include_str!("corpus/quarantine_refree.dsir"),
    ),
    (
        "quarantine_drain_retire.dsir",
        include_str!("corpus/quarantine_drain_retire.dsir"),
    ),
];

fn parse(name: &str, text: &str) -> Program {
    let prog = parse_program(text).unwrap_or_else(|e| panic!("{name}: parse error: {e:?}"));
    prog.validate()
        .unwrap_or_else(|e| panic!("{name}: invalid: {e}"));
    prog
}

/// Runs a one-function corpus program under a deferred DangSan, drains,
/// and returns the final slab words.
fn run_deferred(prog: &Program) -> Vec<u64> {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(
        Arc::clone(&mem),
        Config::default().with_deferred_sweep(true),
    );
    let hh = HookedHeap::new(heap, Arc::clone(&det));
    let slab = hh.malloc((SLOTS * 8) as u64).unwrap().base;
    let (instrumented, _) = instrument(prog, PassOptions::optimized());
    let mut m = Machine::new(hh.clone(), 0);
    m.run(&instrumented, FuncId(0), &[slab]).unwrap();
    det.drain();
    (0..SLOTS)
        .map(|i| mem.read_word(slab + (i * 8) as u64).unwrap())
        .collect()
}

#[test]
fn corpus_replays_with_zero_divergences() {
    for (name, text) in CORPUS {
        let prog = parse(name, text);
        let divs = check_program(&prog);
        assert!(divs.is_empty(), "{name}: {divs:#?}");
    }
}

#[test]
fn seed56450_sweep_masks_the_redstored_dangling_base() {
    // The signature of the original divergence: the deferred sweep must
    // mask slab[0] (the dangling base re-stored after the free) AND
    // slab[5] (the original registration), because the log is
    // append-only and the sweep re-reads current values.
    let prog = parse(CORPUS[0].0, CORPUS[0].1);
    let slab = run_deferred(&prog);
    assert_ne!(
        slab[0] & INVALID_BIT,
        0,
        "re-stored dangling base: {slab:x?}"
    );
    assert_ne!(slab[5] & INVALID_BIT, 0, "original registration: {slab:x?}");
    assert_eq!(
        slab[0] & !INVALID_BIT,
        slab[5] & !INVALID_BIT,
        "both name the freed object's base"
    );
}

#[test]
fn wild_gep_is_a_fault_not_a_detection() {
    let prog = parse(CORPUS[1].0, CORPUS[1].1);
    let verdicts = oracle_verdicts(&prog);
    match &verdicts[0] {
        Err(Trap::Fault(f)) => assert_eq!(f.kind, FaultKind::NonCanonical),
        other => panic!("wild gep must fault, not {other:?} (never UseAfterFree)"),
    }
}

#[test]
fn quarantine_refree_is_rejected_everywhere() {
    // Under sync semantics the second free sees a masked pointer and the
    // allocator rejects it; the arm matrix (run by
    // corpus_replays_with_zero_divergences) checks the quarantine arms
    // report their own rejection in lockstep with the lazy oracle.
    let prog = parse(CORPUS[2].0, CORPUS[2].1);
    let verdicts = oracle_verdicts(&prog);
    assert!(
        matches!(verdicts[0], Err(Trap::Alloc(_))),
        "refree must be rejected: {verdicts:?}"
    );
}

#[test]
fn drain_retires_every_parked_block() {
    // All three frees park; the drain must sweep them all: slab[0] ends
    // masked and every block re-enters circulation (a fresh run of
    // same-size mallocs reuses the addresses).
    let prog = parse(CORPUS[3].0, CORPUS[3].1);
    let slab = run_deferred(&prog);
    assert_ne!(
        slab[0] & INVALID_BIT,
        0,
        "drain must mask slab[0]: {slab:x?}"
    );
}
