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
//! | `free_shape` | free-path shape (locations, pages, duplicates per free) across the SPEC profiles |
//! | `reproduce_all` | everything above, in order |
//! | `bench_gate` | the bench gates ([`gate`]) on the committed `BENCH_*.json` and a current run |
//!
//! Hot-path microbenchmarks live in the `hotpath` binary, which writes
//! the machine-readable `BENCH_hotpath.json` baseline (`--quick` for a
//! fast sanity pass); `scaling` and `server` write `BENCH_scaling.json`
//! and `BENCH_server.json`. `bench_gate` checks all three, and
//! `scripts/verify.sh` runs it.

use dangsan::Config;
use dangsan_baselines::TagScheme;
use dangsan_workloads::{DetectorKind, ServerProfile};

pub mod experiments;
pub mod gate;
pub mod ir_suite;
pub mod report;

/// The `schema` string `hotpath` writes into `BENCH_hotpath.json`.
pub const HOTPATH_SCHEMA: &str = "dangsan-hotpath-v2";
/// The `schema` string `scaling` writes into `BENCH_scaling.json`.
pub const SCALING_SCHEMA: &str = "dangsan-scaling-v1";
/// The `schema` string `server` writes into `BENCH_server.json`.
pub const SERVER_SCHEMA: &str = "dangsan-server-v1";

/// The hotpath benches, in the order `hotpath` runs and writes them, each
/// with whether its off/on pair exists to win (the gates hold those
/// speedups to ≥ 1.0): the deferred-free benches (`free_many_objs`,
/// `free_while_reg`).
#[rustfmt::skip]
pub const HOTPATH_BENCHES: [(&str, bool); 5] = [
    ("free_many_objs", true), ("free_while_reg", true), ("sweep_total", false),
    ("trace_off", false), ("metrics_off", false),
];

/// The DangSan configuration the `scaling` and `server` harnesses
/// measure: the deferred sweep, with caps tight enough that backpressure
/// batches run inside the measured region and keep the block-recycling
/// loop closed. Frees stay O(1) until a cap trips, and the tripping free
/// then sweeps one bounded batch on the freeing thread. The caps are
/// fixed, not scaled by worker count: measured head-to-head, a small
/// fixed quarantine beats a per-thread budget at every thread count,
/// because sweeping soon after the free walks log chains and shadow
/// lines while they are still cache-hot — freshness is worth more than
/// rarer backpressure trips. The config is returned exactly as written
/// here: to measure the synchronous sweep, edit this function.
pub fn detector_config() -> Config {
    Config::default()
        .with_deferred_sweep(true)
        .with_quarantine_caps(256 << 10, 256)
}

/// The nginx-shaped production request mix the `scaling`, `server` and
/// `metrics_report` harnesses serve, with `workers` worker threads.
pub fn production_profile(workers: usize) -> ServerProfile {
    ServerProfile {
        name: "production",
        workers,
        allocs_per_request: 12,
        stores_per_request: 64,
        retained_frac: 0.05,
        static_bytes: 1 << 20,
        paper_slowdown: 1.0,
        paper_mem: 1.0,
    }
}

/// The cross-defense comparison's arms, in the order `scaling` writes
/// its `defenses` rows (keyed by [`DetectorKind::label`]): one
/// representative per defense class, DangSan configured as `dangsan`,
/// then [`TagScheme::DEFAULTS`]. Each comes with its detection guarantee,
/// the contract the fuzz relation enforces analytically.
/// `scaling` runs them single-threaded, so the numbers isolate
/// per-operation cost, not scalability (its thread sweep covers that).
#[rustfmt::skip]
pub fn defense_arms(dangsan: Config) -> [(DetectorKind, &'static str); 6] {
    let [xtag, implicit_id, pa_mac] = TagScheme::DEFAULTS.map(DetectorKind::Tagging);
    [
        (DetectorKind::Baseline, "none (uninstrumented)"),
        (DetectorKind::DangSan(dangsan),
            "masks tracked copies at free; copies made after free escape"),
        (DetectorKind::DangNull, "nulls heap-stored copies at free; stack/global copies escape"),
        (xtag, "deref-time generation check; misses after 2^bits block reuses"),
        (implicit_id, "deref-time identifier check; 2^-bits collision odds per stale access"),
        (pa_mac, "deref-time truncated MAC; 2^-bits forgery/collision odds"),
    ]
}

/// The core count the OS grants this process, recorded in every
/// `BENCH_*.json` so the gates can key their floors on the machine.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A bench bin's command line, parsed against the bin's usage line.
#[derive(Default)]
pub struct Args {
    usage: &'static str,
    /// The bin's name, the usage line's first word.
    bin: &'static str,
    switches: Vec<String>,
    /// Each valued flag with its value: the default the usage line
    /// names, or the command line's.
    values: Vec<(&'static str, String)>,
    /// The arguments that are not flags, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// Parses this process's arguments against `usage`, the bin's usage
    /// line (`metrics_report [--quick] [--jsonl metrics.jsonl]`): a
    /// `--flag` followed by a word in the same brackets takes a value,
    /// and that word is its default; any other `--flag` is a switch. Any
    /// other flag, a valued flag without a value, or more than `max`
    /// operands prints the usage on stderr and exits 2.
    pub fn parse(usage: &'static str, max: usize) -> Args {
        let words: Vec<&'static str> = usage.split([' ', '[', ']']).collect();
        let mut args = Args {
            usage,
            bin: words[0],
            ..Args::default()
        };
        args.values = words
            .windows(2)
            .filter(|w| w[0].starts_with("--") && !w[1].is_empty())
            .map(|w| (w[0], w[1].to_string()))
            .collect();
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            if let Some(i) = args.values.iter().position(|(flag, _)| *flag == arg) {
                match argv.next() {
                    Some(value) if !value.starts_with('-') => args.values[i].1 = value,
                    _ => args.usage_error(),
                }
            } else if arg.starts_with("--") && words.contains(&arg.as_str()) {
                args.switches.push(arg);
            } else if arg.starts_with('-') || args.operands.len() == max {
                args.usage_error();
            } else {
                args.operands.push(arg);
            }
        }
        args
    }

    /// A valued flag's value: the command line's, or the usage line's
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if the usage line names no valued flag `flag`.
    pub fn value(&self, flag: &str) -> &str {
        match self.values.iter().find(|(f, _)| *f == flag) {
            Some((_, value)) => value,
            None => panic!("`{}` has no valued flag {flag}", self.usage),
        }
    }

    /// Whether the switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Prints the usage on stderr and exits 2.
    pub fn usage_error(&self) -> ! {
        eprintln!("usage: {}", self.usage);
        std::process::exit(2)
    }

    /// Prints `msg` on stderr after the bin's name and exits 1.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        std::process::exit(1)
    }

    /// Writes `text` to the path a valued flag names (`--out` for the
    /// bench baselines) and says so on stderr, or fails naming the path
    /// and the OS error.
    pub fn write(&self, flag: &str, text: &str) {
        let path = self.value(flag);
        if let Err(e) = std::fs::write(path, text) {
            self.fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("[{}] wrote {path}", self.bin);
    }
}
