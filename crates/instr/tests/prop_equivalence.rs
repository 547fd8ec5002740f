//! Randomized test: the §6 optimizations never change what is detected.
//!
//! Random programs are generated from a small statement language and run
//! twice — once with naive instrumentation (a `registerptr` after every
//! pointer store) and once with the optimized pass (hoisting + elision).
//! Both runs must produce the same outcome (same trap or same return) and
//! invalidate exactly the same number of pointers. Cases come from the
//! in-repo seeded [`SmallRng`] (formerly proptest), plus the hand-written
//! seeds in `corpus/`, which must trap under both passes.

use std::sync::Arc;

use dangsan::{Config, DangSan, Detector, HookedHeap, StatsSnapshot};
use dangsan_heap::Heap;
use dangsan_instr::builder::FunctionBuilder;
use dangsan_instr::interp::Trap;
use dangsan_instr::ir::{BinOp, Operand, Program, Reg};
use dangsan_instr::{instrument, parse_program, Machine, PassOptions};
use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::AddressSpace;

#[cfg(not(feature = "heavy-tests"))]
const CASES: u64 = 128;
#[cfg(feature = "heavy-tests")]
const CASES: u64 = 1024;

const SLOTS: i64 = 8;
const OBJS: usize = 6;

#[derive(Debug, Clone)]
enum Stmt {
    /// Store a pointer to object `obj` into slot `slot`.
    Store { obj: usize, slot: i64 },
    /// A counted loop storing a pointer into a slot every iteration.
    LoopStore { obj: usize, slot: i64, iters: i64 },
    /// p = load slot; p += 8; store slot, p (the elision pattern).
    Increment { slot: i64 },
    /// Free object `obj` (ignored if already freed).
    Free { obj: usize },
    /// Dereference whatever pointer slot `slot` holds.
    Deref { slot: i64 },
}

fn random_stmt(rng: &mut SmallRng) -> Stmt {
    // Weights match the original strategy: 4 store, 2 each for the rest.
    match rng.gen_range(0u64..12) {
        0..=3 => Stmt::Store {
            obj: rng.gen_range(0usize..OBJS),
            slot: rng.gen_range(0i64..SLOTS),
        },
        4 | 5 => Stmt::LoopStore {
            obj: rng.gen_range(0usize..OBJS),
            slot: rng.gen_range(0i64..SLOTS),
            iters: rng.gen_range(1i64..6),
        },
        6 | 7 => Stmt::Increment {
            slot: rng.gen_range(0i64..SLOTS),
        },
        8 | 9 => Stmt::Free {
            obj: rng.gen_range(0usize..OBJS),
        },
        _ => Stmt::Deref {
            slot: rng.gen_range(0i64..SLOTS),
        },
    }
}

/// Compiles a statement list into a one-function program.
fn compile(stmts: &[Stmt]) -> Program {
    let mut fb = FunctionBuilder::new("main", 0);
    // One slab of pointer slots plus OBJS heap objects.
    let slab = fb.malloc(Operand::Imm(SLOTS * 8));
    let objs: Vec<Reg> = (0..OBJS).map(|_| fb.malloc(Operand::Imm(64))).collect();
    let mut freed = [false; OBJS];
    for s in stmts {
        match s {
            Stmt::Store { obj, slot } => {
                fb.store_ptr(slab, slot * 8, objs[*obj]);
            }
            Stmt::LoopStore { obj, slot, iters } => {
                let i = fb.iconst(0);
                let header = fb.new_block();
                let body = fb.new_block();
                let exit = fb.new_block();
                fb.jump(header);
                fb.switch_to(header);
                let c = fb.bin(BinOp::Lt, Operand::Reg(i), Operand::Imm(*iters));
                fb.branch(Operand::Reg(c), body, exit);
                fb.switch_to(body);
                fb.store_ptr(slab, slot * 8, objs[*obj]);
                fb.bin_into(i, BinOp::Add, Operand::Reg(i), Operand::Imm(1));
                fb.jump(header);
                fb.switch_to(exit);
            }
            Stmt::Increment { slot } => {
                let p = fb.load_ptr(slab, slot * 8);
                let p2 = fb.gep(p, Operand::Imm(8));
                fb.store_ptr(slab, slot * 8, p2);
            }
            Stmt::Free { obj } => {
                if !freed[*obj] {
                    fb.free(objs[*obj]);
                    freed[*obj] = true;
                }
            }
            Stmt::Deref { slot } => {
                let p = fb.load_ptr(slab, slot * 8);
                // Guard: only dereference plausible pointers (non-zero).
                let is_ptr = fb.bin(BinOp::Ne, Operand::Reg(p), Operand::Imm(0));
                let doit = fb.new_block();
                let skip = fb.new_block();
                fb.branch(Operand::Reg(is_ptr), doit, skip);
                fb.switch_to(doit);
                let _v = fb.load_i64(p, 0);
                fb.jump(skip);
                fb.switch_to(skip);
            }
        }
    }
    fb.ret(Some(Operand::Imm(0)));
    Program {
        funcs: vec![fb.finish()],
    }
}

fn run(prog: &Program, opts: PassOptions) -> (Result<Option<u64>, Trap>, StatsSnapshot) {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det = DangSan::new(Arc::clone(&mem), Config::default());
    let hh = HookedHeap::new(heap, Arc::clone(&det));
    let (instrumented, _) = instrument(prog, opts);
    instrumented
        .validate()
        .expect("valid after instrumentation");
    let mut m = Machine::new(hh, 0);
    let main = instrumented.func_by_name("main").unwrap();
    let r = m.run(&instrumented, main, &[]);
    (r, det.stats())
}

#[test]
fn optimized_pass_detects_exactly_what_naive_does() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xEC41 + case);
        let stmts: Vec<Stmt> = (0..rng.gen_range(1usize..40))
            .map(|_| random_stmt(&mut rng))
            .collect();
        let prog = compile(&stmts);
        prog.validate().expect("generated program valid");
        let (r_naive, s_naive) = run(&prog, PassOptions::naive());
        let (r_opt, s_opt) = run(&prog, PassOptions::optimized());
        assert_eq!(&r_naive, &r_opt, "outcomes diverge");
        assert_eq!(
            s_naive.ptrs_invalidated, s_opt.ptrs_invalidated,
            "invalidation sets diverge: naive={s_naive:?} opt={s_opt:?}"
        );
        // The optimizations only ever remove registrations.
        assert!(
            s_opt.ptrs_registered + s_opt.dup_ptrs <= s_naive.ptrs_registered + s_naive.dup_ptrs
        );
    }
}

#[test]
fn corpus_seeds_trap_under_both_passes() {
    let seeds = [
        (
            "churn_escape_uaf.ir",
            include_str!("corpus/churn_escape_uaf.ir"),
        ),
        (
            "realloc_move_uaf.ir",
            include_str!("corpus/realloc_move_uaf.ir"),
        ),
    ];
    for (name, src) in seeds {
        let prog = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        prog.validate().expect("corpus program valid");
        let (r_naive, s_naive) = run(&prog, PassOptions::naive());
        let (r_opt, s_opt) = run(&prog, PassOptions::optimized());
        for r in [&r_naive, &r_opt] {
            assert!(
                matches!(r, Err(Trap::UseAfterFree(_))),
                "{name}: expected a UAF trap, got {r:?}"
            );
        }
        assert_eq!(
            s_naive.ptrs_invalidated, s_opt.ptrs_invalidated,
            "{name}: invalidation sets diverge"
        );
    }
}
