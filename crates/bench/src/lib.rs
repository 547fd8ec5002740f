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
//! | `bench_gate` | the bench gates ([`gate`]) on the committed `BENCH_*.json` and a current run |
//!
//! Hot-path microbenchmarks live in the `hotpath` binary, which writes
//! the machine-readable `BENCH_hotpath.json` baseline (`--quick` for a
//! fast sanity pass); `scaling` and `server` write `BENCH_scaling.json`
//! and `BENCH_server.json`. `bench_gate` checks all three, and
//! `scripts/verify.sh` runs it.

use dangsan::Config;
use dangsan_baselines::{TagScheme, DEFAULT_TAG_BITS, DEFAULT_TAG_KEY};
use dangsan_workloads::DetectorKind;

pub mod experiments;
pub mod gate;
pub mod ir_suite;
pub mod report;

/// The `schema` string `hotpath` writes into `BENCH_hotpath.json`.
pub const HOTPATH_SCHEMA: &str = "dangsan-hotpath-v1";
/// The `schema` string `scaling` writes into `BENCH_scaling.json`.
pub const SCALING_SCHEMA: &str = "dangsan-scaling-v1";
/// The `schema` string `server` writes into `BENCH_server.json`.
pub const SERVER_SCHEMA: &str = "dangsan-server-v1";

/// The hotpath benches, in the order `hotpath` runs and writes them, each
/// with whether its on/off pair exists to win (the gates hold those
/// speedups to ≥ 1.0): the core benches and the deferred-free benches
/// (`free_many_objs`, `free_while_reg`).
#[rustfmt::skip]
pub const HOTPATH_BENCHES: [(&str, bool); 10] = [
    ("registerptr", true), ("ptr2obj", true), ("malloc_free", true), ("invalidate", true),
    ("free_many_ptrs", false), ("free_many_objs", true), ("free_while_reg", true),
    ("sweep_total", false), ("trace_off", false), ("metrics_off", false),
];

/// The pointer-tagging arms at their default widths and keys, in the
/// order `server` writes their capacity rows (keyed by
/// [`DetectorKind::label`]).
#[rustfmt::skip]
pub const TAGGING_SCHEMES: [TagScheme; 3] = [
    TagScheme::XTag { bits: DEFAULT_TAG_BITS },
    TagScheme::ImplicitId { bits: DEFAULT_TAG_BITS, key: DEFAULT_TAG_KEY },
    TagScheme::PaMac { bits: DEFAULT_TAG_BITS, key: DEFAULT_TAG_KEY },
];

/// The cross-defense comparison's arms, in the order `scaling` writes
/// its `defenses` rows (keyed by [`DetectorKind::label`]): one
/// representative per defense class, DangSan configured as `dangsan`,
/// then [`TAGGING_SCHEMES`]. Each comes with its detection guarantee,
/// the contract the fuzz relation enforces analytically.
/// `scaling` runs them single-threaded, so the numbers isolate
/// per-operation cost, not scalability (its thread sweep covers that).
#[rustfmt::skip]
pub fn defense_arms(dangsan: Config) -> [(DetectorKind, &'static str); 6] {
    let [xtag, implicit_id, pa_mac] = TAGGING_SCHEMES.map(DetectorKind::Tagging);
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
    /// `--out PATH`, or the default the usage line names.
    pub out: String,
    /// The arguments that are not flags, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// Parses this process's arguments against `usage`, the bin's usage
    /// line (`hotpath [--quick] [--out BENCH_hotpath.json]`): each
    /// `--flag` in it is a switch, except `--out DEFAULT`, which takes a
    /// path. Any other flag, or more than `max` operands, prints the usage
    /// on stderr and exits 2.
    pub fn parse(usage: &'static str, max: usize) -> Args {
        let words: Vec<&str> = usage.split([' ', '[', ']']).collect();
        let out = words.windows(2).find(|w| w[0] == "--out").map(|w| w[1]);
        let mut args = Args::default();
        (args.usage, args.bin, args.out) = (usage, words[0], out.unwrap_or_default().into());
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            if arg == "--out" && out.is_some() {
                args.out = argv.next().unwrap_or_else(|| args.usage_error());
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

    /// Writes `text` to the `--out` path and says so on stderr, or fails
    /// naming the path and the OS error.
    pub fn write_out(&self, text: &str) {
        if let Err(e) = std::fs::write(&self.out, text) {
            self.fail(&format!("cannot write {}: {e}", self.out));
        }
        eprintln!("[{}] wrote {}", self.bin, self.out);
    }
}
