//! Multicore scaling benchmark: the paper's Figure 9/10 *shape*.
//!
//! Drives the mixed malloc/registerptr/free server workload
//! (`dangsan_workloads::run_server`, nginx-like profile) across 1/2/4/N
//! worker threads, *fixed total work per cell* (strong scaling, the
//! paper's SPEC-style methodology): every thread count serves the same
//! number of requests, so `speedup_vs_1t` is a textbook speedup. Scaling
//! requests with the worker count instead (weak scaling) quadruples the
//! retained connection-pool live set at 4 threads and the "speedup"
//! mostly measures the bigger working set, not the detector. Three arms:
//!
//! * `baseline` — detector off (NullDetector), allocator thread-cached;
//! * `dangsan` — detector on, allocator thread-cached (the shipping
//!   configuration);
//! * `locked` — detector on, `Config::thread_cached_heap = false`: every
//!   malloc/free takes a central-list lock, the allocator this repo had
//!   before the TLS magazines and the ablation the tentpole is measured
//!   against.
//!
//! Emits `BENCH_scaling.json` with per-thread-count throughput, parallel
//! efficiency, and the recorded core count — the bench gates
//! (`dangsan_bench::gate`) key their floors on `cores`, because a 1-core
//! container cannot show a real 4-thread speedup no matter how scalable
//! the allocator is. (A time-sliced ratio slightly above 1.0 is possible
//! even so: with the work split four ways, each worker touches a quarter
//! of the connection pool, so each scheduler slice runs against a
//! smaller working set.)
//!
//! A second section, `defenses`, is the cross-defense comparison the
//! tagging arms join (EXPERIMENTS.md "Cross-defense comparison"):
//! single-threaded smoke cells for every defense class — invalidation
//! (dangsan), nulling (dangnull), and the three dereference-time
//! tagging arms — each recording throughput, overhead vs the
//! uninstrumented baseline, metadata bytes, and the arm's detection
//! guarantee. `--defenses-only` skips the thread sweep and emits just
//! this section (the CI arm-comparison step). `--table [FILE]` runs
//! nothing: it renders FILE's section (default `BENCH_scaling.json`) as
//! the markdown table in EXPERIMENTS.md, the raw JSON text of each
//! guarantee string in the last column.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dangsan-bench --bin scaling [-- --quick] [--out PATH]
//!     [--defenses-only]
//! cargo run --release -p dangsan-bench --bin scaling -- --table [FILE]
//! ```

use dangsan_bench::report::Json;
use dangsan_bench::{
    cores, defense_arms, detector_config, production_profile, Args, SCALING_SCHEMA,
};
use dangsan_workloads::{run_server, DetectorKind};

/// Worker-count sweep: the paper's 1/2/4 plus the machine's full core
/// count when it is larger.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    let cores = cores();
    if cores > 4 {
        counts.push(cores);
    }
    counts
}

/// The three measured arms. The detector arms differ ONLY in the
/// allocator (`thread_cached_heap`), so `cached_over_locked_1t` isolates
/// the TLS magazines; the sweep knobs come from [`detector_config`] for
/// both.
type Arm = fn() -> DetectorKind;
const ARMS: &[(&str, Arm)] = &[
    ("baseline", || DetectorKind::Baseline),
    ("dangsan", || DetectorKind::DangSan(detector_config())),
    ("locked", || {
        DetectorKind::DangSan(detector_config().with_thread_cached_heap(false))
    }),
];

/// One cell's measured figures: throughput, the request-latency tail, and
/// the sweep-queue placement counters (how often an idle shard stole work
/// and how deep each shard's backlog peaked).
#[derive(Clone, Copy, Default)]
struct Cell {
    rps: f64,
    p50_ns: u64,
    p99_ns: u64,
    meta_bytes: u64,
    sweep_steals: u64,
    sweep_shard_peaks: [u64; 4],
}

/// One run: a fresh environment, `workers` threads, `requests` total
/// requests of nginx-shaped traffic.
fn run_once(kind: DetectorKind, workers: usize, requests: u64, seed: u64) -> Cell {
    let hh = dangsan_workloads::shared_env(kind);
    let r = run_server(&production_profile(workers), requests, 0, &hh, seed);
    hh.detector().drain();
    let s = hh.detector().stats();
    Cell {
        rps: r.rps,
        p50_ns: r.p50_ns,
        p99_ns: r.p99_ns,
        meta_bytes: hh.detector().metadata_bytes(),
        sweep_steals: s.sweep_steals,
        sweep_shard_peaks: s.sweep_shard_peaks,
    }
}

/// Renders a scaling JSON's `defenses` section as the markdown table in
/// EXPERIMENTS.md.
fn defense_table(doc: &Json) -> Result<String, String> {
    let mut table = String::from(
        "| defense | req/s | overhead | metadata bytes | tag bits | detection guarantee |\n\
         | --- | ---: | ---: | ---: | ---: | --- |\n",
    );
    let Json::Obj(rows) = doc.at("defenses")? else {
        return Err("defenses is not an object".into());
    };
    for (name, row) in rows {
        table += &format!(
            "| {name} | {:.0} | {:.2}x | {:.0} | {} | {} |\n",
            row.num("ops_per_sec")?,
            row.num("overhead_vs_baseline")?,
            row.num("metadata_bytes")?,
            row.get("tag_bits").map_or("—".into(), Json::render),
            row.at("guarantee")?.render().trim_matches('"'),
        );
    }
    Ok(table)
}

fn main() {
    let args = Args::parse(
        "scaling [--quick] [--defenses-only] [--out BENCH_scaling.json] | scaling --table [FILE]",
        1,
    );
    if args.has("--table") {
        let file = args.operands.first().map_or("BENCH_scaling.json", |f| f);
        let table = Json::load(file).and_then(|doc| defense_table(&doc));
        print!("{}", table.unwrap_or_else(|e| args.fail(&e)));
        return;
    }
    if !args.operands.is_empty() {
        args.usage_error();
    }
    let quick = args.has("--quick");
    let defenses_only = args.has("--defenses-only");

    // Full mode takes 7 interleaved passes: the per-cell figure is a
    // best-of, and on a shared box the max of a noisy sample needs more
    // draws to sit near the distribution's right edge than a mean would.
    // `req_total` is the fixed per-cell work (see the module docs).
    let (reps, req_total) = if quick {
        (3, 24_000u64)
    } else {
        (7, 80_000u64)
    };
    let counts = thread_counts();
    let cores = cores();
    eprintln!(
        "[scaling] {} mode, {reps} reps, {} cores, threads {:?}",
        if quick { "quick" } else { "full" },
        cores,
        counts
    );
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(SCALING_SCHEMA.into()));
    doc.set("quick", Json::Bool(quick));
    doc.set("cores", Json::Num(cores as f64));

    if !defenses_only {
        println!(
            "{:<10} {:>4} {:>14} {:>9} {:>11}",
            "arm", "thr", "req/s", "speedup", "efficiency"
        );
        let mut arms_json = Json::obj();
        // rps[arm][thread-count], best of `reps` interleaved passes. Arms
        // alternate per cell (rep -> count -> arm, the hotpath pairing): the
        // arms a ratio divides run back to back under the same load, so a
        // drifting box skews a cell's absolute numbers but barely its ratios.
        let mut best = vec![vec![Cell::default(); counts.len()]; ARMS.len()];
        for rep in 0..reps {
            for (c, &workers) in counts.iter().enumerate() {
                for (a, (_, kind)) in ARMS.iter().enumerate() {
                    let r = run_once(kind(), workers, req_total, 0x5ca1e ^ rep as u64);
                    if r.rps > best[a][c].rps {
                        best[a][c] = r;
                    }
                }
            }
        }
        for (a, (name, _)) in ARMS.iter().enumerate() {
            let one = best[a][0].rps;
            let mut arm_json = Json::obj();
            for (c, &workers) in counts.iter().enumerate() {
                let cell_data = best[a][c];
                let speedup = cell_data.rps / one;
                let efficiency = speedup / workers as f64;
                println!(
                    "{name:<10} {workers:>4} {:>14.0} {speedup:>8.2}x {efficiency:>11.2}",
                    cell_data.rps
                );
                let mut cell = Json::obj();
                cell.set("threads", Json::Num(workers as f64));
                cell.set("ops_per_sec", Json::Num(cell_data.rps));
                cell.set("speedup_vs_1t", Json::Num(speedup));
                cell.set("parallel_efficiency", Json::Num(efficiency));
                cell.set("p50_ns", Json::Num(cell_data.p50_ns as f64));
                cell.set("p99_ns", Json::Num(cell_data.p99_ns as f64));
                cell.set("sweep_steals", Json::Num(cell_data.sweep_steals as f64));
                for (i, &peak) in cell_data.sweep_shard_peaks.iter().enumerate() {
                    cell.set(&format!("sweep_shard_peak_{i}"), Json::Num(peak as f64));
                }
                arm_json.set(&format!("t{workers}"), cell);
            }
            arms_json.set(name, arm_json);
        }
        doc.set("arms", arms_json);

        // The ratios the bench gates judge, which no single cell carries.
        let idx4 = counts.iter().position(|&c| c == 4).expect("4 is swept");
        let dangsan = ARMS.iter().position(|(n, _)| *n == "dangsan").expect("arm");
        let locked = ARMS.iter().position(|(n, _)| *n == "locked").expect("arm");
        let mut derived = Json::obj();
        derived.set(
            "dangsan_speedup_4t_over_1t",
            Json::Num(best[dangsan][idx4].rps / best[dangsan][0].rps),
        );
        derived.set(
            "dangsan_parallel_efficiency_4t",
            Json::Num(best[dangsan][idx4].rps / best[dangsan][0].rps / 4.0),
        );
        derived.set(
            "cached_over_locked_1t",
            Json::Num(best[dangsan][0].rps / best[locked][0].rps),
        );
        doc.set("derived", derived);
    }

    // --- cross-defense comparison (single-threaded smoke cells) --------
    let darms = defense_arms(detector_config());
    println!(
        "{:<12} {:>14} {:>9} {:>12}",
        "defense", "req/s", "overhead", "meta bytes"
    );
    // Same best-of-reps discipline; every defense runs under the same
    // interleaved load as the baseline its overhead divides by.
    let mut dbest = vec![Cell::default(); darms.len()];
    for rep in 0..reps {
        for (i, (kind, _)) in darms.iter().enumerate() {
            let r = run_once(*kind, 1, req_total, 0xdefe ^ rep as u64);
            if r.rps > dbest[i].rps {
                dbest[i] = r;
            }
        }
    }
    let base_rps = dbest[0].rps;
    let mut defenses_json = Json::obj();
    for (i, (kind, guarantee)) in darms.iter().enumerate() {
        let name = kind.label();
        let cell_data = dbest[i];
        let overhead = base_rps / cell_data.rps;
        println!(
            "{name:<12} {:>14.0} {overhead:>8.2}x {:>12}",
            cell_data.rps, cell_data.meta_bytes
        );
        let mut cell = Json::obj();
        cell.set("ops_per_sec", Json::Num(cell_data.rps));
        cell.set("overhead_vs_baseline", Json::Num(overhead));
        cell.set("metadata_bytes", Json::Num(cell_data.meta_bytes as f64));
        cell.set("p99_ns", Json::Num(cell_data.p99_ns as f64));
        cell.set("guarantee", Json::Str((*guarantee).into()));
        if let DetectorKind::Tagging(scheme) = kind {
            cell.set("tag_bits", Json::Num(scheme.bits() as f64));
        }
        defenses_json.set(name, cell);
    }
    doc.set("defenses", defenses_json);

    args.write("--out", &doc.render_pretty());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_table_is_the_one_in_experiments_md() {
        let doc = Json::parse(include_str!("../../../../BENCH_scaling.json")).expect("parses");
        let table = defense_table(&doc).expect("the defenses section renders");
        assert!(include_str!("../../../../EXPERIMENTS.md").contains(&table));
    }
}
