//! Runs the bench gates (`dangsan_bench::gate` lists and documents them).
//!
//! With no operands it lints the committed `BENCH_*.json` in the current
//! directory. Given the `--quick` outputs of a current `hotpath`,
//! `scaling` and `server` run, it also gates them against those
//! baselines, with the compare-mode floors scaled by `VERIFY_BENCH_TOL`
//! (percent, default 20; raise it on noisy shared runners, e.g. 35).
//! Prints one line per gate and exits 1 if any fails.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dangsan-bench --bin bench_gate [-- HOTPATH SCALING SERVER]
//! ```

use dangsan_bench::gate::{check_all, Bench};
use dangsan_bench::report::Json;
use dangsan_bench::Args;

fn main() {
    let args = Args::parse("bench_gate [HOTPATH SCALING SERVER]", 3);
    if !matches!(args.operands.len(), 0 | 3) {
        args.usage_error();
    }
    let tol = std::env::var("VERIFY_BENCH_TOL").unwrap_or_default();
    let tol = if tol.is_empty() { "20" } else { &tol };
    let tol: f64 = tol
        .parse()
        .unwrap_or_else(|_| args.fail("bad VERIFY_BENCH_TOL"));
    let base = Bench::ALL.map(|b| {
        let hint = |e| format!("{e}; regenerate it with the `{}` bin", b.bin());
        Json::load(&b.file()).unwrap_or_else(|e| args.fail(&hint(e)))
    });
    let load = |path: &String| Json::load(path).unwrap_or_else(|e| args.fail(&e));
    let now = (args.operands.len() == 3).then(|| [0, 1, 2].map(|i| load(&args.operands[i])));
    if now.is_some() {
        println!("bench_gate: compare mode, VERIFY_BENCH_TOL {tol}%");
    }
    let outcomes = check_all(&base, now.as_ref(), tol);
    for o in &outcomes {
        println!("bench_gate: {}", o.line);
    }
    let (failed, total) = (outcomes.iter().filter(|o| !o.ok).count(), outcomes.len());
    if failed > 0 {
        args.fail(&format!("FAIL — {failed} of {total} gates failed"));
    }
    println!("bench_gate: all {total} gates OK");
}
