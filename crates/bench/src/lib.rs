//! Reproduction harness for every table and figure in the paper's
//! evaluation (§8), plus design ablations.
//!
//! One binary per artifact (`cargo run -p dangsan-bench --release --bin <x>`):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig9` | Figure 9 — SPEC CPU2006 runtime overhead |
//! | `fig10` | Figure 10 — PARSEC/SPLASH-2X scalability |
//! | `fig11` | Figure 11 — SPEC CPU2006 memory overhead |
//! | `fig12` | Figure 12 — PARSEC/SPLASH-2X memory usage |
//! | `table1` | Table 1 — tracking statistics |
//! | `servers` | §8.2/§8.3 — web-server throughput and memory |
//! | `effectiveness` | §8.1 — exploit scenarios |
//! | `ablations` | §4.4/§6 design-choice sweeps |
//! | `cache_rates` | hot-path cache hit rates across the SPEC profiles |
//! | `reproduce_all` | everything above, in order |
//!
//! Hot-path microbenchmarks live in the `hotpath` binary, which writes
//! the machine-readable `BENCH_hotpath.json` baseline that
//! `scripts/verify.sh` gates on (`--quick` for a fast sanity pass).

pub mod experiments;
pub mod ir_suite;
pub mod report;

/// The core count the OS grants this process, recorded in every
/// `BENCH_*.json` so the gates can key their floors on the machine.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
