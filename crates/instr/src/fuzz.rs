//! Differential fuzzing across every detector arm.
//!
//! A seeded generator produces small IR programs over a fixed slot slab:
//! aliased pointer stores (with interior `gep` offsets), slot-to-slot
//! pointer copies, realloc chains that grow in place / move / shrink to
//! zero, double-free and use-after-realloc attempts through slots,
//! malloc/free churn loops (some whose last allocation escapes into a
//! slot), wild pointers fabricated by `gep` arithmetic, and (for a
//! quarter of seeds) a two-phase cross-thread handoff where a writer
//! thread populates the slots and the main thread consumes them.
//!
//! Every program runs through every arm ([`ARM_NAMES`], twelve in
//! all): three DangSan configurations (inline, inline+metrics, deferred
//! sweeps drained at the end), the locked ablation, DangNULL,
//! FreeSentry, the quarantine defence, the three dereference-time
//! tagging arms (xTag, implicit-ID, pa-mac), and the
//! [`dangsan_baselines::ShadowOracle`] ground truth in both of its
//! modes. The checker then diffs verdicts and final slab memory under
//! the per-arm relation each arm's semantics justify (DESIGN.md
//! "Differential fuzzing"):
//!
//! * **Strict** — bit-identical verdicts *and* slab words. Sound for arms
//!   sharing the oracle's allocation placement and invalidation timing:
//!   the sync arms against the eager oracle, the deferred arm and the
//!   quarantine arm against the lazy oracle (incl. post-drain state for
//!   the deferred arm).
//! * **Classes** — verdict classes (`Ok` payloads exact; traps compared
//!   by kind), the slab's dead-bit pattern and exact live slab words.
//!   For DangNULL, whose fixed poison loses the original bits of the
//!   words it invalidates.
//! * **Tagged** — the three tagging arms detect at *dereference* instead
//!   of free, so their relation (see `compare_tagged`) forgives
//!   exactly the disagreements the tag encoding causes — and turns a
//!   truncated-tag **miss** into a classified [`ExpectedMiss`] (xTag
//!   generation wrap, keyed-arm collision proven by a re-keyed rerun)
//!   rather than either a divergence or a silent pass. The reverse gap
//!   is classified too: a stale value that escaped invalidation (shrink
//!   orphan, or a copy made after the free) still traps a tag check —
//!   an [`ExtraDetection`], forgiven only when the oracle certifies the
//!   fingered address was once inside a freed object.
//!
//! Divergences are delta-debugged back to a minimal statement list
//! ([`minimize`]) and written to `tests/corpus/` as `.dsir` text, which
//! tier-1 replays forever (`tests/fuzz_corpus.rs`).

use std::sync::Arc;
use std::time::Duration;

use dangsan::{Config, DangSan, Detector, HookedHeap};
use dangsan_baselines::{
    DangNull, DangSanLocked, FreeSentry, OracleMode, QuarantineDetector, ShadowOracle, TagDetector,
    TagScheme,
};
use dangsan_heap::{AllocError, Heap};
use dangsan_vmem::rng::SmallRng;
use dangsan_vmem::{untag, Addr, AddressSpace, FaultKind, INVALID_BIT};

use crate::instrument::{instrument, PassOptions};
use crate::interp::{Machine, Trap};
use crate::ir::{BinOp, FuncId, Operand, Program, Reg, Ty};
use crate::{builder::FunctionBuilder, print_program};

/// Pointer slots in the shared slab every phase receives as its argument.
pub const SLOTS: i64 = 12;

/// Object sizes the generator draws from (all word-multiples so interior
/// offsets stay aligned).
const SIZES: [u64; 6] = [16, 24, 32, 48, 64, 96];

/// The `dangsan-metrics` arm's sampler cadence: a sampler pulling the hub
/// while the program runs is what the arm's strict relation holds inert.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// One generated statement. Object indices refer to the phase's prelude
/// allocations; slots to the shared slab. The compiler is total over any
/// statement list (minimization may produce combinations the generator
/// would not), while the *generator* keeps handle liveness so frees and
/// reallocs of dead registers — whose raw addresses no sweep can mask —
/// are never emitted; double frees flow through slots, where every arm
/// sees the invalidation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `slab[slot] = &objs[obj] + off` (interior pointer when `off > 0`).
    Store { obj: usize, slot: i64, off: i64 },
    /// `slab[slot] = val` via an untracked integer store.
    StoreInt { slot: i64, val: i64 },
    /// `slab[to] = slab[from]` as a pointer-typed (registered) copy.
    PtrCopy { from: i64, to: i64 },
    /// `free(objs[obj])`.
    FreeObj { obj: usize },
    /// `p = slab[slot]; if p != 0 { free(p) }` — the double-free /
    /// free-through-dangling attempt.
    FreeSlot { slot: i64 },
    /// `p = slab[slot]; if p != 0 { *p }` — the use-after-free attempt.
    DerefSlot { slot: i64 },
    /// `objs[obj] = realloc(objs[obj], size)`; may grow in place, move,
    /// or shrink (including to zero).
    ReallocObj { obj: usize, size: u64 },
    /// Pointer-free malloc/free churn at one site.
    ChurnLoop { iters: i64 },
    /// A churn loop whose *last* allocation escapes into `slab[slot]`
    /// instead of being freed: one pointer-taking object at the same
    /// malloc site as the pointer-free ones freed before it.
    ChurnEscape { iters: i64, slot: i64 },
    /// `gep` far past the canonical line and dereference: a wild pointer
    /// that must fault identically everywhere (and never count as a
    /// detection).
    WildDeref { obj: usize },
}

/// One phase: its prelude allocation sizes and statement list. Phases run
/// in order; in a threaded scenario phase 0 runs on a spawned thread and
/// the last phase on the calling thread, with a join between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub obj_sizes: Vec<u64>,
    pub stmts: Vec<Stmt>,
}

/// A generated program in statement form (what the minimizer edits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    pub threaded: bool,
    pub phases: Vec<Phase>,
}

fn random_stmt(rng: &mut SmallRng, live: &mut [bool], sizes: &mut [u64], slot_only: bool) -> Stmt {
    let slot = |rng: &mut SmallRng| rng.gen_range(0i64..SLOTS);
    let live_obj = |rng: &mut SmallRng, live: &[bool]| {
        let alive: Vec<usize> = (0..live.len()).filter(|i| live[*i]).collect();
        if alive.is_empty() {
            None
        } else {
            Some(alive[rng.gen_range(0u64..alive.len() as u64) as usize])
        }
    };
    for _ in 0..8 {
        let roll = rng.gen_range(0u64..100);
        let choice = match roll {
            0..=24 => {
                let Some(obj) = live_obj(rng, live) else {
                    continue;
                };
                let words = (sizes[obj] / 8).max(1);
                let off = 8 * rng.gen_range(0u64..words) as i64;
                Some(Stmt::Store {
                    obj,
                    slot: slot(rng),
                    off,
                })
            }
            25..=44 => Some(Stmt::DerefSlot { slot: slot(rng) }),
            45..=54 => Some(Stmt::FreeSlot { slot: slot(rng) }),
            55..=66 => {
                let Some(obj) = live_obj(rng, live) else {
                    continue;
                };
                live[obj] = false;
                Some(Stmt::FreeObj { obj })
            }
            67..=74 => Some(Stmt::PtrCopy {
                from: slot(rng),
                to: slot(rng),
            }),
            75..=82 => {
                let Some(obj) = live_obj(rng, live) else {
                    continue;
                };
                // Shrink-to-zero, in-place wiggle or a growth that forces
                // a move, in roughly equal measure.
                let size = match rng.gen_range(0u64..4) {
                    0 => 0,
                    1 => SIZES[rng.gen_range(0u64..SIZES.len() as u64) as usize],
                    _ => sizes[obj] * 2 + 64,
                };
                sizes[obj] = size;
                Some(Stmt::ReallocObj { obj, size })
            }
            83..=87 => Some(Stmt::StoreInt {
                slot: slot(rng),
                val: [0, 0, 0x1234, 0x51AB][rng.gen_range(0u64..4) as usize],
            }),
            88..=93 => Some(Stmt::ChurnLoop {
                iters: rng.gen_range(1i64..6),
            }),
            94..=97 => Some(Stmt::ChurnEscape {
                iters: rng.gen_range(2i64..6),
                slot: slot(rng),
            }),
            _ => {
                let Some(obj) = live_obj(rng, live) else {
                    continue;
                };
                Some(Stmt::WildDeref { obj })
            }
        };
        if let Some(stmt) = choice {
            if slot_only && matches!(stmt, Stmt::WildDeref { .. }) {
                continue;
            }
            return stmt;
        }
    }
    Stmt::DerefSlot { slot: slot(rng) }
}

impl Scenario {
    /// Generates the scenario for one fuzz seed.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF_F022);
        let threaded = rng.gen_range(0u64..4) == 0;
        let nphases = if threaded { 2 } else { 1 };
        let mut phases = Vec::new();
        for _ in 0..nphases {
            let nobjs = rng.gen_range(3u64..7) as usize;
            let obj_sizes: Vec<u64> = (0..nobjs)
                .map(|_| SIZES[rng.gen_range(0u64..SIZES.len() as u64) as usize])
                .collect();
            let mut live = vec![true; nobjs];
            let mut sizes = obj_sizes.clone();
            let nstmts = rng.gen_range(4u64..20) as usize;
            let stmts = (0..nstmts)
                .map(|_| random_stmt(&mut rng, &mut live, &mut sizes, false))
                .collect();
            phases.push(Phase { obj_sizes, stmts });
        }
        Scenario { threaded, phases }
    }

    /// Total statements across phases (minimization progress metric).
    pub fn stmt_count(&self) -> usize {
        self.phases.iter().map(|p| p.stmts.len()).sum()
    }

    /// Compiles to an uninstrumented program: one function per phase,
    /// named `p0`, `p1`, …, each taking the slab pointer as its only
    /// parameter and returning 0.
    pub fn compile(&self) -> Program {
        let funcs = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, phase)| {
                let mut fb = FunctionBuilder::new(&format!("p{i}"), 1);
                let slab = fb.param_ty(0, Ty::Ptr);
                let mut objs: Vec<Reg> = phase
                    .obj_sizes
                    .iter()
                    .map(|s| fb.malloc(Operand::Imm(*s as i64)))
                    .collect();
                for s in &phase.stmts {
                    compile_stmt(&mut fb, slab, &mut objs, s);
                }
                fb.ret(Some(Operand::Imm(0)));
                fb.finish()
            })
            .collect();
        Program { funcs }
    }
}

fn compile_stmt(fb: &mut FunctionBuilder, slab: Reg, objs: &mut [Reg], s: &Stmt) {
    match *s {
        Stmt::Store { obj, slot, off } => {
            let p = if off == 0 {
                objs[obj]
            } else {
                fb.gep(objs[obj], Operand::Imm(off))
            };
            fb.store_ptr(slab, slot * 8, p);
        }
        Stmt::StoreInt { slot, val } => {
            fb.store_i64(slab, slot * 8, Operand::Imm(val));
        }
        Stmt::PtrCopy { from, to } => {
            let v = fb.load_ptr(slab, from * 8);
            fb.store_ptr(slab, to * 8, v);
        }
        Stmt::FreeObj { obj } => {
            fb.free(objs[obj]);
        }
        Stmt::FreeSlot { slot } => {
            let p = fb.load_ptr(slab, slot * 8);
            let c = fb.bin(BinOp::Ne, Operand::Reg(p), Operand::Imm(0));
            let doit = fb.new_block();
            let skip = fb.new_block();
            fb.branch(Operand::Reg(c), doit, skip);
            fb.switch_to(doit);
            fb.free(p);
            fb.jump(skip);
            fb.switch_to(skip);
        }
        Stmt::DerefSlot { slot } => {
            let p = fb.load_ptr(slab, slot * 8);
            let c = fb.bin(BinOp::Ne, Operand::Reg(p), Operand::Imm(0));
            let doit = fb.new_block();
            let skip = fb.new_block();
            fb.branch(Operand::Reg(c), doit, skip);
            fb.switch_to(doit);
            let _v = fb.load_i64(p, 0);
            fb.jump(skip);
            fb.switch_to(skip);
        }
        Stmt::ReallocObj { obj, size } => {
            objs[obj] = fb.realloc(objs[obj], Operand::Imm(size as i64));
        }
        Stmt::ChurnLoop { iters } => {
            let i = fb.iconst(0);
            let header = fb.new_block();
            let body = fb.new_block();
            let exit = fb.new_block();
            fb.jump(header);
            fb.switch_to(header);
            let c = fb.bin(BinOp::Lt, Operand::Reg(i), Operand::Imm(iters));
            fb.branch(Operand::Reg(c), body, exit);
            fb.switch_to(body);
            let t = fb.malloc(Operand::Imm(48));
            fb.free(t);
            fb.bin_into(i, BinOp::Add, Operand::Reg(i), Operand::Imm(1));
            fb.jump(header);
            fb.switch_to(exit);
        }
        Stmt::ChurnEscape { iters, slot } => {
            // One malloc in the loop body: `iters - 1` allocations are
            // freed at once, then the last escapes into the slab — the
            // first registered pointer to an object of this churn.
            let i = fb.iconst(0);
            let header = fb.new_block();
            let body = fb.new_block();
            let keep = fb.new_block();
            let drop_ = fb.new_block();
            let cont = fb.new_block();
            let exit = fb.new_block();
            fb.jump(header);
            fb.switch_to(header);
            let c = fb.bin(BinOp::Lt, Operand::Reg(i), Operand::Imm(iters));
            fb.branch(Operand::Reg(c), body, exit);
            fb.switch_to(body);
            let t = fb.malloc(Operand::Imm(40));
            let last = fb.bin(BinOp::Eq, Operand::Reg(i), Operand::Imm(iters - 1));
            fb.branch(Operand::Reg(last), keep, drop_);
            fb.switch_to(keep);
            fb.store_ptr(slab, slot * 8, t);
            fb.jump(cont);
            fb.switch_to(drop_);
            fb.free(t);
            fb.jump(cont);
            fb.switch_to(cont);
            fb.bin_into(i, BinOp::Add, Operand::Reg(i), Operand::Imm(1));
            fb.jump(header);
            fb.switch_to(exit);
        }
        Stmt::WildDeref { obj } => {
            let w = fb.gep(objs[obj], Operand::Imm(0x7000_0000_0000_0000));
            let _v = fb.load_i64(w, 0);
        }
    }
}

/// What one phase run produced.
pub type Verdict = Result<Option<u64>, Trap>;

/// One arm's full observation: per-phase verdicts, the slab immediately
/// after the run, and (when the arm was drained) the slab after
/// `Detector::drain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmRun {
    pub verdicts: Vec<Verdict>,
    pub pre: Vec<u64>,
    pub post: Option<Vec<u64>>,
}

/// One detected disagreement between an arm and its reference relation.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The arm that disagreed (see [`check_program`] for the names).
    pub arm: &'static str,
    /// Human-readable description of the disagreement.
    pub what: String,
}

fn read_slab(mem: &AddressSpace, slab: Addr) -> Vec<u64> {
    (0..SLOTS)
        .map(|i| mem.read_word(slab + (i * 8) as u64).expect("slab mapped"))
        .collect()
}

fn exec_phases<D: Detector + ?Sized>(
    prog: &Program,
    hh: &HookedHeap<D>,
    slab: Addr,
) -> Vec<Verdict> {
    (0..prog.funcs.len())
        .map(|f| {
            let mut m = Machine::new(hh.clone(), f as u64);
            m.run(prog, FuncId(f as u32), &[slab])
        })
        .collect()
}

fn exec_phases_threaded<D>(prog: &Program, hh: &HookedHeap<D>, slab: Addr) -> Vec<Verdict>
where
    D: Detector + ?Sized + Send + Sync + 'static,
{
    // Phase 0 runs to completion on a spawned thread (its own TLS heap
    // magazines, detector caches and thread id), then the remaining
    // phases run on the calling thread: a sequential cross-thread
    // handoff, deterministic by construction.
    let mut verdicts = Vec::new();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let mut m = Machine::new(hh.clone(), 1);
            m.run(prog, FuncId(0), &[slab])
        });
        verdicts.push(handle.join().expect("phase thread panicked"));
    });
    for f in 1..prog.funcs.len() {
        let mut m = Machine::new(hh.clone(), (f + 1) as u64);
        verdicts.push(m.run(prog, FuncId(f as u32), &[slab]));
    }
    verdicts
}

fn finish_arm<D: Detector + ?Sized>(
    hh: &HookedHeap<D>,
    slab: Addr,
    verdicts: Vec<Verdict>,
    drain: bool,
) -> ArmRun {
    // The slab pointer carries a spare-bit tag under the tagging arms
    // (identity elsewhere); the raw read targets the canonical address.
    let mem = hh.mem();
    let pre = read_slab(mem, untag(slab));
    let post = drain.then(|| {
        hh.detector().drain();
        read_slab(mem, untag(slab))
    });
    ArmRun {
        verdicts,
        pre,
        post,
    }
}

fn run_arm<D>(prog: &Program, threaded: bool, hh: HookedHeap<D>, drain: bool) -> ArmRun
where
    D: Detector + ?Sized + Send + Sync + 'static,
{
    let slab = hh.malloc((SLOTS * 8) as u64).expect("slab").base;
    let verdicts = if threaded && prog.funcs.len() > 1 {
        exec_phases_threaded(prog, &hh, slab)
    } else {
        exec_phases(prog, &hh, slab)
    };
    finish_arm(&hh, slab, verdicts, drain)
}

/// Single-thread-only variant for detectors that are not `Sync`
/// (FreeSentry); callers must not pass threaded programs.
fn run_arm_local<D: Detector + ?Sized>(prog: &Program, hh: HookedHeap<D>, drain: bool) -> ArmRun {
    let slab = hh.malloc((SLOTS * 8) as u64).expect("slab").base;
    let verdicts = exec_phases(prog, &hh, slab);
    finish_arm(&hh, slab, verdicts, drain)
}

fn env() -> (Arc<AddressSpace>, Arc<Heap>) {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    (mem, heap)
}

/// Runs a DangSan arm; a metrics-on `cfg` runs with a live sampler.
fn run_dangsan(prog: &Program, threaded: bool, cfg: Config, drain: bool) -> ArmRun {
    let (mem, heap) = env();
    let det = DangSan::new(mem, cfg);
    let _sampler = det.metrics().map(|hub| hub.start_sampler(SAMPLE_EVERY));
    run_arm(prog, threaded, HookedHeap::new(heap, det), drain)
}

fn run_oracle(prog: &Program, threaded: bool, mode: OracleMode) -> (ArmRun, Arc<ShadowOracle>) {
    let (mem, heap) = env();
    let det = ShadowOracle::new(mem, mode);
    let hh = HookedHeap::new(heap, Arc::clone(&det));
    let drain = mode == OracleMode::Lazy;
    (run_arm(prog, threaded, hh, drain), det)
}

/// Verdict classes for the lenient relations.
#[derive(Debug, Clone, PartialEq, Eq)]
enum VerdictClass {
    Ok(Option<u64>),
    Uaf,
    Alloc(std::mem::Discriminant<AllocError>),
    Fault(FaultKind),
    Fuel,
    Bad,
}

fn class_of(v: &Verdict) -> VerdictClass {
    match v {
        Ok(x) => VerdictClass::Ok(*x),
        Err(Trap::UseAfterFree(_)) => VerdictClass::Uaf,
        Err(Trap::Alloc(e)) => VerdictClass::Alloc(std::mem::discriminant(e)),
        Err(Trap::Fault(f)) => VerdictClass::Fault(f.kind),
        Err(Trap::OutOfFuel) => VerdictClass::Fuel,
        Err(Trap::BadProgram(_)) => VerdictClass::Bad,
    }
}

fn dead_bits(slab: &[u64]) -> Vec<bool> {
    slab.iter().map(|w| w & INVALID_BIT != 0).collect()
}

fn push(divs: &mut Vec<Divergence>, arm: &'static str, what: String) {
    divs.push(Divergence { arm, what });
}

fn compare_strict(
    divs: &mut Vec<Divergence>,
    arm: &'static str,
    run: &ArmRun,
    reference: &ArmRun,
    compare_post: bool,
) {
    if run.verdicts != reference.verdicts {
        push(
            divs,
            arm,
            format!(
                "verdicts {:?} != reference {:?}",
                run.verdicts, reference.verdicts
            ),
        );
    }
    if run.pre != reference.pre {
        push(
            divs,
            arm,
            format!("slab {:x?} != reference {:x?}", run.pre, reference.pre),
        );
    }
    if compare_post && run.post != reference.post {
        push(
            divs,
            arm,
            format!(
                "post-drain slab {:x?} != reference {:x?}",
                run.post, reference.post
            ),
        );
    }
}

fn compare_classes(
    divs: &mut Vec<Divergence>,
    arm: &'static str,
    run: &ArmRun,
    reference: &ArmRun,
) {
    let classes: Vec<VerdictClass> = run.verdicts.iter().map(class_of).collect();
    let ref_classes: Vec<VerdictClass> = reference.verdicts.iter().map(class_of).collect();
    if classes != ref_classes {
        push(
            divs,
            arm,
            format!("verdict classes {classes:?} != reference {ref_classes:?}"),
        );
    }
    if dead_bits(&run.pre) != dead_bits(&reference.pre) {
        push(
            divs,
            arm,
            format!(
                "dead-bit pattern {:x?} != reference {:x?}",
                run.pre, reference.pre
            ),
        );
    }
    let live_mismatch = run
        .pre
        .iter()
        .zip(reference.pre.iter())
        .any(|(a, b)| a & INVALID_BIT == 0 && b & INVALID_BIT == 0 && a != b);
    if live_mismatch {
        push(
            divs,
            arm,
            format!(
                "live slots {:x?} != reference {:x?}",
                run.pre, reference.pre
            ),
        );
    }
}

/// A disagreement a tagging arm's *analytic guarantee* forgives: the
/// truncated tag width made the arm run clean where the oracle trapped.
/// Classified and counted, never silently accepted — an unclassifiable
/// miss is a [`Divergence`].
#[derive(Debug, Clone)]
pub struct ExpectedMiss {
    /// The tagging arm that missed.
    pub arm: &'static str,
    /// `"tag-wrap"` (xTag generation-space exhaustion, proven by the
    /// arm's wrap counter) or `"key-collision"` (truncated hash/MAC
    /// collision, proven by a re-keyed rerun that does trap).
    pub kind: &'static str,
    /// Human-readable description of the forgiven miss.
    pub what: String,
}

/// The mirror image of an [`ExpectedMiss`]: the tagging arm *detected*
/// something DangSan semantics structurally cannot. Invalidation can
/// only rewrite copies that exist — and still point into the object —
/// at free time: a value orphaned by a shrinking realloc (the paper's
/// `# stale` column) or copied out of a stale register *after* the free
/// stays raw forever, while a tag check judges the value itself and
/// still traps it. Forgiven only when the oracle certifies the exact
/// address the arm fingered was once inside a freed object
/// ([`ShadowOracle::ever_dangling`]); an arm-side trap on an address
/// with no such history is a divergence, never triaged away.
#[derive(Debug, Clone)]
pub struct ExtraDetection {
    /// The tagging arm that detected more than the oracle.
    pub arm: &'static str,
    /// Human-readable description of the extra detection.
    pub what: String,
}

/// Everything one program's cross-arm comparison produced.
#[derive(Debug, Clone, Default)]
pub struct FullReport {
    /// Real disagreements (empty = the program is agreed on).
    pub divergences: Vec<Divergence>,
    /// Guarantee-forgiven tagging-arm misses (see [`ExpectedMiss`]).
    pub expected_misses: Vec<ExpectedMiss>,
    /// Guarantee-forgiven tagging-arm extra detections (see
    /// [`ExtraDetection`]).
    pub extra_detections: Vec<ExtraDetection>,
}

/// Every arm [`check_program`] runs, in checker order. CI and the
/// `fuzz_diff` summary print this list so a failure names the matrix.
pub const ARM_NAMES: [&str; 12] = [
    "oracle-eager",
    "oracle-lazy",
    "dangsan-inline",
    "dangsan-metrics",
    "dangsan-locked",
    "freesentry",
    "dangnull",
    "dangsan-deferred",
    "quarantine",
    "xtag",
    "implicit-id",
    "pa-mac",
];

fn run_tag_arm(prog: &Program, threaded: bool, scheme: TagScheme) -> (ArmRun, Arc<TagDetector>) {
    let (_, heap) = env();
    let det = TagDetector::new(scheme);
    let hh = HookedHeap::new(heap, Arc::clone(&det));
    (run_arm(prog, threaded, hh, false), det)
}

/// The same scheme under a different key (width unchanged). A miss that
/// was a truncated-tag *collision* is key-dependent: the re-keyed run
/// traps where the original ran clean, which is how the checker proves a
/// keyed arm's miss is the modeled `2^-k` event and not a tracking bug.
/// xTag is keyless — its misses are proven by the wrap counter instead.
fn rekey(scheme: TagScheme) -> TagScheme {
    const REKEY_XOR: u64 = 0x0517_EC0D_E0DD_BA11;
    match scheme {
        TagScheme::XTag { bits } => TagScheme::XTag { bits },
        TagScheme::ImplicitId { bits, key } => TagScheme::ImplicitId {
            bits,
            key: key ^ REKEY_XOR,
        },
        TagScheme::PaMac { bits, key } => TagScheme::PaMac {
            bits,
            key: key ^ REKEY_XOR,
        },
    }
}

/// The tagging-arm relation, against the eager oracle (the arms free
/// synchronously, so allocation placement matches; only the *detection
/// mechanism* differs). Per phase, in order:
///
/// * Bit-identical verdicts compare on (the common case: a stale-tag
///   dereference traps with the very `canonical | INVALID_BIT` payload
///   the invalidation sweep produces).
/// * Abort-vs-abort taxonomy shifts the tag encoding legitimately causes
///   are forgiven, and end the comparison (the aborts may sit at
///   different statements, leaving heap and slab incomparable):
///   stale-tag UAF where the oracle's wild dereference faults raw (a
///   `gep` past the canonical line lands *in the tag field*, so the arm
///   sees a mismatched tag on a resolvable block); any allocator
///   rejection pair (`DoubleFree` through a masked slot vs
///   `InvalidPointer` through a stale tag).
/// * An arm-side clean run where the oracle trapped is a **miss**:
///   expected — classified, counted — iff the arm's guarantee forgives
///   it (xTag wrapped its generation space; a re-keyed rerun of a keyed
///   arm traps at the same phase).
/// * An arm-side abort (stale-tag UAF or invalid-pointer rejection)
///   where the oracle ran clean is an **extra detection**: the value
///   escaped invalidation — a shrink orphaned it out of the logical
///   extent before the free, or it was copied from a stale register
///   *after* the free, when there was nothing left to rewrite — while
///   the tag check judges the value itself. Forgiven iff the oracle
///   certifies the trapped address was once inside a freed object
///   ([`ShadowOracle::ever_dangling`], measured by largest lifetime
///   extent); a trap on an address with no such history is a
///   divergence, never triaged away.
///
/// Anything else is a divergence. When every verdict matched
/// bit-for-bit, the slab is compared slot by slot: canonical bits
/// exact, and the arm's stale-probe must equal the oracle's dead bit
/// (modulo the same classified misses and extra detections).
fn compare_tagged(
    report: &mut FullReport,
    arm: &'static str,
    run: &ArmRun,
    eager: &ArmRun,
    det: &TagDetector,
    oracle: &ShadowOracle,
    rerun: impl Fn() -> (ArmRun, Arc<TagDetector>),
) {
    let mut rekeyed: Option<(ArmRun, Arc<TagDetector>)> = None;
    for (i, (got, want)) in run.verdicts.iter().zip(eager.verdicts.iter()).enumerate() {
        if got == want {
            continue;
        }
        let accepted = match (class_of(got), class_of(want)) {
            (VerdictClass::Uaf, VerdictClass::Uaf) => true,
            (VerdictClass::Uaf, VerdictClass::Fault(FaultKind::NonCanonical)) => true,
            (VerdictClass::Fault(a), VerdictClass::Fault(b)) => a == b,
            (VerdictClass::Alloc(_), VerdictClass::Alloc(_)) => true,
            _ => false,
        };
        if accepted {
            return; // both aborted phase i; later state is incomparable
        }
        if got.is_ok() && want.is_err() {
            let kind = match det.scheme() {
                TagScheme::XTag { .. } => (det.tag_wraps() > 0).then_some("tag-wrap"),
                _ => {
                    let (rrun, _) = rekeyed.get_or_insert_with(&rerun);
                    rrun.verdicts
                        .get(i)
                        .is_some_and(|v| v.is_err())
                        .then_some("key-collision")
                }
            };
            if let Some(kind) = kind {
                report.expected_misses.push(ExpectedMiss {
                    arm,
                    kind,
                    what: format!("phase {i}: ran clean where the oracle trapped {want:?}"),
                });
                return; // the arm ran past the abort; state is incomparable
            }
        }
        // The canonical address a tag-mismatch abort fingered, if any:
        // the arm says "this value is stale" — the oracle can certify
        // whether that address was ever part of a freed object.
        let fingered = match got {
            Err(Trap::UseAfterFree(a)) => Some(untag(*a) & !INVALID_BIT),
            Err(Trap::Alloc(AllocError::InvalidPointer(p))) => Some(untag(*p) & !INVALID_BIT),
            _ => None,
        };
        if let Some(addr) = fingered {
            if want.is_ok() && oracle.ever_dangling(addr) {
                report.extra_detections.push(ExtraDetection {
                    arm,
                    what: format!("phase {i}: trapped {got:?} where the oracle ran clean"),
                });
                return; // the oracle ran past the abort; state is incomparable
            }
        }
        push(
            &mut report.divergences,
            arm,
            format!("phase {i}: verdict {got:?} vs eager oracle {want:?}"),
        );
        return;
    }
    for (s, (a, o)) in run.pre.iter().zip(eager.pre.iter()).enumerate() {
        let (a_can, o_can) = (untag(*a) & !INVALID_BIT, o & !INVALID_BIT);
        if a_can != o_can {
            push(
                &mut report.divergences,
                arm,
                format!("slot {s}: canonical bits {a:#x} vs oracle {o:#x}"),
            );
            return;
        }
        let oracle_dead = o & INVALID_BIT != 0;
        let arm_stale = det.probe(*a);
        if oracle_dead && !arm_stale {
            let kind = match det.scheme() {
                TagScheme::XTag { .. } => (det.tag_wraps() > 0).then_some("tag-wrap"),
                _ => {
                    let (rrun, rdet) = rekeyed.get_or_insert_with(&rerun);
                    rrun.pre
                        .get(s)
                        .is_some_and(|w| rdet.probe(*w))
                        .then_some("key-collision")
                }
            };
            match kind {
                Some(kind) => report.expected_misses.push(ExpectedMiss {
                    arm,
                    kind,
                    what: format!("slot {s}: probes live where the oracle masked it"),
                }),
                None => push(
                    &mut report.divergences,
                    arm,
                    format!("slot {s}: {a:#x} probes live where the oracle masked {o:#x}"),
                ),
            }
        } else if !oracle_dead && arm_stale {
            if oracle.ever_dangling(a_can) {
                report.extra_detections.push(ExtraDetection {
                    arm,
                    what: format!("slot {s}: stale-tag probe on a value invalidation missed"),
                });
            } else {
                push(
                    &mut report.divergences,
                    arm,
                    format!("slot {s}: stale-tag probe on {a:#x}, which the oracle left live"),
                );
            }
        }
    }
}

/// Runs `prog` through every arm and returns all divergences (empty =
/// the program is agreed on). Threadedness is structural: programs with
/// more than one function run their first phase on a spawned thread.
pub fn check_program(prog: &Program) -> Vec<Divergence> {
    check_program_full(prog).divergences
}

/// [`check_program`] plus the tagging arms' classified expected misses.
pub fn check_program_full(prog: &Program) -> FullReport {
    let threaded = prog.funcs.len() > 1;
    let (instrumented, _) = instrument(prog, PassOptions::optimized());
    instrumented.validate().expect("instrumented program valid");
    let prog = &instrumented;

    let (eager, eager_det) = run_oracle(prog, threaded, OracleMode::Eager);
    let (lazy, _) = run_oracle(prog, threaded, OracleMode::Lazy);

    let mut divs = Vec::new();

    // --- sync-placement arms vs the eager oracle -----------------------
    let sync_arms: [(&'static str, Config); 2] = [
        ("dangsan-inline", Config::default()),
        ("dangsan-metrics", Config::default().with_metrics(true)),
    ];
    for (name, cfg) in sync_arms {
        let run = run_dangsan(prog, threaded, cfg, false);
        compare_strict(&mut divs, name, &run, &eager, false);
    }
    {
        let (mem, heap) = env();
        let det = DangSanLocked::new(mem, Config::default());
        let run = run_arm(prog, threaded, HookedHeap::new(heap, det), false);
        compare_strict(&mut divs, "dangsan-locked", &run, &eager, false);
    }
    if !threaded {
        let (mem, heap) = env();
        let det = FreeSentry::new(mem, Arc::clone(&heap));
        let run = run_arm_local(prog, HookedHeap::new(heap, det), false);
        compare_strict(&mut divs, "freesentry", &run, &eager, false);
    }
    {
        let (mem, heap) = env();
        let det = DangNull::new(mem);
        let run = run_arm(prog, threaded, HookedHeap::new(heap, det), false);
        // DangNULL's poison loses the original bits: classes + dead-bit
        // pattern, with live slab words still exact.
        compare_classes(&mut divs, "dangnull", &run, &eager);
    }

    // --- quarantine-placement arms vs the lazy oracle ------------------
    {
        let run = run_dangsan(
            prog,
            threaded,
            Config::default().with_deferred_sweep(true),
            true,
        );
        compare_strict(&mut divs, "dangsan-deferred", &run, &lazy, true);
    }
    {
        let (_, heap) = env();
        // A capacity no program reaches: nothing ages out mid-run.
        let det = QuarantineDetector::new(usize::MAX);
        let run = run_arm(prog, threaded, HookedHeap::new(heap, det), false);
        compare_strict(&mut divs, "quarantine", &run, &lazy, false);
    }

    // --- dereference-time tagging arms vs the eager oracle -------------
    let mut report = FullReport {
        divergences: divs,
        expected_misses: Vec::new(),
        extra_detections: Vec::new(),
    };
    for scheme in TagScheme::DEFAULTS {
        let (run, det) = run_tag_arm(prog, threaded, scheme);
        let rekeyed = rekey(scheme);
        compare_tagged(
            &mut report,
            scheme.name(),
            &run,
            &eager,
            &det,
            &eager_det,
            || run_tag_arm(prog, threaded, rekeyed),
        );
    }

    report
}

/// Runs just the eager oracle over an (uninstrumented) program —
/// campaign tallies of how many generated programs actually contain a
/// trapping access under sync semantics.
pub fn oracle_verdicts(prog: &Program) -> Vec<Verdict> {
    let (instrumented, _) = instrument(prog, PassOptions::optimized());
    let threaded = instrumented.funcs.len() > 1;
    let (run, _) = run_oracle(&instrumented, threaded, OracleMode::Eager);
    run.verdicts
}

/// Generates, compiles and checks one seed; returns the scenario and any
/// divergences.
pub fn check_seed(seed: u64) -> (Scenario, Vec<Divergence>) {
    let (scn, report) = check_seed_full(seed);
    (scn, report.divergences)
}

/// [`check_seed`] with the full report, classified tagging-arm misses
/// included (the `fuzz_diff` campaign tallies these).
pub fn check_seed_full(seed: u64) -> (Scenario, FullReport) {
    let scn = Scenario::generate(seed);
    let prog = scn.compile();
    prog.validate().expect("generated program valid");
    let report = check_program_full(&prog);
    (scn, report)
}

fn still_fails(scn: &Scenario, arm: &str) -> bool {
    if scn.phases.iter().all(|p| p.stmts.is_empty()) {
        return false;
    }
    let prog = scn.compile();
    if prog.validate().is_err() {
        return false;
    }
    check_program(&prog).iter().any(|d| d.arm == arm)
}

/// Delta-debugs a diverging scenario down to a (locally) minimal one
/// that still diverges on `arm`: whole-phase removal, then ddmin-style
/// chunked statement removal per phase, then loop-iteration shrinking.
pub fn minimize(scn: &Scenario, arm: &str) -> Scenario {
    let mut best = scn.clone();
    // Drop whole phases (a threaded repro that fails single-threaded is
    // a better repro).
    loop {
        let mut shrunk = false;
        if best.phases.len() > 1 {
            for i in 0..best.phases.len() {
                let mut cand = best.clone();
                cand.phases.remove(i);
                cand.threaded = cand.phases.len() > 1 && cand.threaded;
                if still_fails(&cand, arm) {
                    best = cand;
                    shrunk = true;
                    break;
                }
            }
        }
        if !shrunk {
            break;
        }
    }
    // Chunked statement removal, halving chunk sizes.
    for p in 0..best.phases.len() {
        let mut chunk = best.phases[p].stmts.len().max(1);
        while chunk >= 1 {
            let mut i = 0;
            while i < best.phases[p].stmts.len() {
                let mut cand = best.clone();
                let hi = (i + chunk).min(cand.phases[p].stmts.len());
                cand.phases[p].stmts.drain(i..hi);
                if still_fails(&cand, arm) {
                    best = cand;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    // Shrink loop iteration counts to the smallest that still fails.
    for p in 0..best.phases.len() {
        for s in 0..best.phases[p].stmts.len() {
            loop {
                let mut cand = best.clone();
                let shrunk = match &mut cand.phases[p].stmts[s] {
                    Stmt::ChurnLoop { iters } if *iters > 1 => {
                        *iters -= 1;
                        true
                    }
                    Stmt::ChurnEscape { iters, .. } if *iters > 2 => {
                        *iters -= 1;
                        true
                    }
                    _ => false,
                };
                if shrunk && still_fails(&cand, arm) {
                    best = cand;
                } else {
                    break;
                }
            }
        }
    }
    best
}

/// Renders a scenario as committed-corpus `.dsir` text: a comment header
/// with provenance, then the uninstrumented program.
pub fn corpus_text(scn: &Scenario, header: &[String]) -> String {
    let mut out = String::new();
    for line in header {
        out.push_str("// ");
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&print_program(&scn.compile()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_compile_and_validate() {
        for seed in 0..40 {
            let scn = Scenario::generate(seed);
            let prog = scn.compile();
            prog.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e} ({scn:?})"));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(Scenario::generate(7), Scenario::generate(7));
        assert_eq!(
            Scenario::generate(7).compile().funcs.len(),
            Scenario::generate(7).compile().funcs.len()
        );
    }

    #[test]
    fn oracle_agrees_with_itself() {
        // The strict relation must at minimum accept the oracle against
        // the oracle: a sanity check that the harness reads stable state.
        let scn = Scenario::generate(3);
        let prog = scn.compile();
        let (instrumented, _) = instrument(&prog, PassOptions::optimized());
        let threaded = instrumented.funcs.len() > 1;
        let (a, _) = run_oracle(&instrumented, threaded, OracleMode::Eager);
        let (b, _) = run_oracle(&instrumented, threaded, OracleMode::Eager);
        assert_eq!(a, b);
    }

    #[test]
    fn known_uaf_scenario_diverges_nowhere_and_traps() {
        // store; free; deref — the canonical UAF. All arms must agree,
        // and the sync arms must trap.
        let scn = Scenario {
            threaded: false,
            phases: vec![Phase {
                obj_sizes: vec![48],
                stmts: vec![
                    Stmt::Store {
                        obj: 0,
                        slot: 0,
                        off: 8,
                    },
                    Stmt::FreeObj { obj: 0 },
                    Stmt::DerefSlot { slot: 0 },
                ],
            }],
        };
        let prog = scn.compile();
        let divs = check_program(&prog);
        assert!(divs.is_empty(), "{divs:?}");
        let (instrumented, _) = instrument(&prog, PassOptions::optimized());
        let (eager, _) = run_oracle(&instrumented, false, OracleMode::Eager);
        assert!(
            matches!(eager.verdicts[0], Err(Trap::UseAfterFree(_))),
            "{:?}",
            eager.verdicts
        );
        let (lazy, _) = run_oracle(&instrumented, false, OracleMode::Lazy);
        assert_eq!(lazy.verdicts[0], Ok(Some(0)), "deferred timing: no trap");
    }

    /// store; free; deref — the canonical UAF, as an instrumented
    /// program plus its eager-oracle run (the tagging-relation tests
    /// replay tiny-width arms against it).
    fn uaf_prog_and_oracle() -> (Program, ArmRun, Arc<ShadowOracle>) {
        let scn = Scenario {
            threaded: false,
            phases: vec![Phase {
                obj_sizes: vec![48],
                stmts: vec![
                    Stmt::Store {
                        obj: 0,
                        slot: 0,
                        off: 0,
                    },
                    Stmt::FreeObj { obj: 0 },
                    Stmt::DerefSlot { slot: 0 },
                ],
            }],
        };
        let (instrumented, _) = instrument(&scn.compile(), PassOptions::optimized());
        let (eager, eager_det) = run_oracle(&instrumented, false, OracleMode::Eager);
        (instrumented, eager, eager_det)
    }

    #[test]
    fn full_width_tagging_arms_trap_the_canonical_uaf() {
        let (prog, eager, oracle) = uaf_prog_and_oracle();
        assert!(matches!(eager.verdicts[0], Err(Trap::UseAfterFree(_))));
        for scheme in TagScheme::DEFAULTS {
            let (run, det) = run_tag_arm(&prog, false, scheme);
            // Bit-identical trap: same phase, same UAF payload as the
            // invalidation sweep produces.
            assert_eq!(run.verdicts, eager.verdicts, "{scheme:?}");
            let mut report = FullReport::default();
            compare_tagged(&mut report, "tag", &run, &eager, &det, &oracle, || {
                run_tag_arm(&prog, false, rekey(scheme))
            });
            assert!(report.divergences.is_empty(), "{:?}", report.divergences);
            assert!(report.expected_misses.is_empty());
        }
    }

    #[test]
    fn xtag_wrap_miss_is_classified_not_divergent() {
        // A 1-bit generation tag has a single nonzero value: the very
        // first free exhausts the space, so the stale pointer
        // revalidates and the arm runs clean where the oracle traps.
        // The relation must file that under expected_misses["tag-wrap"],
        // not as a divergence.
        let (prog, eager, oracle) = uaf_prog_and_oracle();
        let scheme = TagScheme::XTag { bits: 1 };
        let (run, det) = run_tag_arm(&prog, false, scheme);
        assert!(run.verdicts[0].is_ok(), "the miss itself");
        assert!(det.tag_wraps() > 0, "exhaustion recorded");
        let mut report = FullReport::default();
        compare_tagged(&mut report, "xtag", &run, &eager, &det, &oracle, || {
            run_tag_arm(&prog, false, scheme)
        });
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.expected_misses.len(), 1);
        assert_eq!(report.expected_misses[0].kind, "tag-wrap");
    }

    #[test]
    fn keyed_collision_miss_is_classified_by_the_rekeyed_rerun() {
        // At 1 bit the implicit-ID hash collides for half of all keys.
        // Find a key that collides (the arm misses) while its re-keyed
        // counterpart does not (the rerun traps): the relation must
        // prove the miss key-dependent and classify it.
        let (prog, eager, oracle) = uaf_prog_and_oracle();
        let key = (0u64..200)
            .find(|&k| {
                let scheme = TagScheme::ImplicitId { bits: 1, key: k };
                let (run, _) = run_tag_arm(&prog, false, scheme);
                let (rerun, _) = run_tag_arm(&prog, false, rekey(scheme));
                run.verdicts[0].is_ok() && rerun.verdicts[0].is_err()
            })
            .expect("a colliding key exists among 200 candidates");
        let scheme = TagScheme::ImplicitId { bits: 1, key };
        let (run, det) = run_tag_arm(&prog, false, scheme);
        let mut report = FullReport::default();
        compare_tagged(
            &mut report,
            "implicit-id",
            &run,
            &eager,
            &det,
            &oracle,
            || run_tag_arm(&prog, false, rekey(scheme)),
        );
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.expected_misses.len(), 1);
        assert_eq!(report.expected_misses[0].kind, "key-collision");
    }

    #[test]
    fn shrink_orphan_is_an_extra_detection_not_a_divergence() {
        // Minimized from fuzz seed 1592652438: an interior pointer is
        // stored, then the object shrinks to zero via realloc, then is
        // freed. The sweep skips the slot as a stale log entry (the
        // value no longer points into the logical object), leaving it
        // live; the tag arms judge the value itself and probe it stale.
        // That is the tagging family's *extra* detection — classified,
        // counted, and not a divergence.
        let scn = Scenario {
            threaded: false,
            phases: vec![Phase {
                obj_sizes: vec![96],
                stmts: vec![
                    Stmt::Store {
                        obj: 0,
                        slot: 6,
                        off: 64,
                    },
                    Stmt::ReallocObj { obj: 0, size: 0 },
                    Stmt::FreeObj { obj: 0 },
                ],
            }],
        };
        let report = check_program_full(&scn.compile());
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert!(report.expected_misses.is_empty());
        assert_eq!(
            report.extra_detections.len(),
            3,
            "each tagging arm files one: {:?}",
            report.extra_detections
        );
    }

    #[test]
    fn post_free_copy_is_an_extra_detection_not_a_divergence() {
        // Minimized from fuzz seeds 424263/424474/424546: the object is
        // freed through a slot-loaded copy, then a pointer derived from
        // the stale handle register is stored into another slot. The
        // copy is made *after* the free — there was nothing at that
        // location for the invalidation walk to rewrite, and the
        // oracle drops post-free registrations (DangSan's detached-chain
        // rule) — so the value stays raw forever under invalidation
        // semantics. The tag arms judge the value itself, probe it
        // stale, and the oracle's ever-dangling certificate files that
        // as an extra detection, not a divergence.
        let scn = Scenario {
            threaded: false,
            phases: vec![Phase {
                obj_sizes: vec![32],
                stmts: vec![
                    Stmt::Store {
                        obj: 0,
                        slot: 1,
                        off: 0,
                    },
                    Stmt::FreeSlot { slot: 1 },
                    Stmt::Store {
                        obj: 0,
                        slot: 2,
                        off: 8,
                    },
                ],
            }],
        };
        let report = check_program_full(&scn.compile());
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert!(report.expected_misses.is_empty());
        assert_eq!(
            report.extra_detections.len(),
            3,
            "each tagging arm files one: {:?}",
            report.extra_detections
        );
    }

    #[test]
    fn arm_names_match_what_the_checker_runs() {
        assert_eq!(ARM_NAMES.len(), 12);
        for pair in ARM_NAMES.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        // Names used by the tagging section exist in the list.
        for name in ["xtag", "implicit-id", "pa-mac"] {
            assert!(ARM_NAMES.contains(&name));
        }
    }

    #[test]
    fn minimizer_never_overshrinks() {
        // Against an arm that never diverges, every candidate "passes",
        // so ddmin must keep the scenario bit-identical: it only removes
        // statements while the failure is preserved.
        let scn = Scenario::generate(11);
        let min = minimize(&scn, "no-such-arm");
        assert_eq!(min, scn);
    }
}
