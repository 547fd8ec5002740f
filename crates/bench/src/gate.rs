//! The bench gates: one table of every check on the committed
//! `BENCH_*.json` baselines and on a current run of the bins that write
//! them. Files are read with [`Json::parse`] and figures looked up by key
//! path with [`Json::num`], so a missing or non-numeric key fails its
//! gate instead of reading a neighbouring field, and key order does not
//! matter. The `bench_gate` bin runs the table; `scripts/verify.sh` runs
//! the bin.
//!
//! **Lint gates** (always; also a unit test, so `cargo test` rejects a
//! bad baseline) hold the committed files to:
//!
//! - each file's `schema` string being its writer's, and a recorded
//!   `cores` ≥ 1;
//! - hotpath: every bench's same-run `speedup` present, and ≥ 1.0 for
//!   the benches whose off/on pair exists to win — the deferred-free
//!   benches (free_many_objs, free_while_reg: the deferred sweep must
//!   keep mutator-visible free cheaper than the inline walk);
//! - scaling: the 4t/1t speedup at least the floor keyed on the file's
//!   own `cores`, because a 1-core machine cannot honestly show a
//!   4-thread speedup — 1.8 with 4+ cores (the paper-shape claim), 0.9
//!   with 2–3 (must not collapse under threads), 0.7 with 1
//!   (oversubscription must stay cheap) — and the 4t parallel efficiency
//!   at least that floor / 4; the thread-cached allocator ≥ 0.95× the
//!   locked path at one thread; the dangsan arm's 1-thread cell carrying
//!   its sweep-queue and latency keys; every cross-defense arm
//!   ([`defense_arms`]) carrying `ops_per_sec` and `overhead_vs_baseline`;
//! - server: the dangsan/baseline capacity ratio at least its cores-keyed
//!   floor (0.12 / 0.10 / 0.08 — instrumentation costs throughput, but
//!   only so much); the open-loop p50/p99/p999 measured (≥ 1) and the
//!   dangsan arm's `offered_rps` and `sessions_churned` present; every
//!   tagging arm ([`TagScheme::DEFAULTS`]) carrying `capacity_rps` and
//!   `overhead_vs_baseline`.
//!
//! Presence gates use floor 0: those magnitudes are machine- or
//! load-shaped, so only the compare gates hold a line on them.
//!
//! **Compare gates** (given a current run's three `--quick` outputs)
//! hold the current run to floors scaled by the tolerance
//! `t = 1 − VERIFY_BENCH_TOL/100` (default 20%, t = 0.8):
//!
//! - every hotpath bench's speedup now/base ≥ t (same-run off/on ratios,
//!   so machine noise largely cancels);
//! - `trace_off` and `metrics_off` ≥ 0.98, unscaled: the flight
//!   recorder's and the telemetry plane's Off modes must stay free;
//! - scaling 4t/1t ≥ the cores-keyed floor × t, keyed on the current
//!   run's `cores`, and cached/locked ≥ 0.95 × t;
//! - the server capacity ratio now/base ≥ t, and the open-loop p50
//!   base/now ≥ t² (absolute latencies are noisier than throughput
//!   ratios, so the budget is the tolerance applied twice);
//! - the p99/p999 base/now ratios printed as INFO and gated for presence
//!   only: the tail is queueing-dominated (the offered load derives from
//!   each run's own capacity estimate) and spreads ~35× run to run.
//!
//! Every gate prints one line: verdict, mode, file, key path, the judged
//! figure and its floor. Compare lines add the now and base figures and
//! both files' `cores`, so a baseline recorded on another core count
//! shows in the output.

use dangsan::Config;
use dangsan_baselines::TagScheme;
use dangsan_workloads::DetectorKind;

use crate::report::Json;
use crate::{defense_arms, HOTPATH_BENCHES, HOTPATH_SCHEMA, SCALING_SCHEMA, SERVER_SCHEMA};

/// A committed baseline, named after the bin that writes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// `BENCH_hotpath.json`.
    Hotpath,
    /// `BENCH_scaling.json`.
    Scaling,
    /// `BENCH_server.json`.
    Server,
}

impl Bench {
    /// The three baselines, in the order the gates check them.
    pub const ALL: [Bench; 3] = [Bench::Hotpath, Bench::Scaling, Bench::Server];

    /// The bin that writes this baseline.
    pub fn bin(self) -> &'static str {
        ["hotpath", "scaling", "server"][self as usize]
    }

    /// The committed baseline's file name.
    pub fn file(self) -> String {
        format!("BENCH_{}.json", self.bin())
    }
}

/// Which file a gate judges, and whether the tolerance scales its floor.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// The committed baseline.
    Lint,
    /// The current run.
    Now,
    /// The current run, with the floor scaled by the tolerance.
    Scaled,
}

/// How a gate judges the figure at its key path.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// The string is the bench's schema.
    Schema,
    /// The figure is at least this floor.
    Floor(f64),
    /// The figure is at least the floor for the file's `cores` (4 or
    /// more, 2–3, 1), divided by the second field.
    CoresFloor([f64; 3], f64),
    /// The current run's figure over the baseline's is at least 1.
    Ratio,
    /// The baseline's figure over the current run's is at least 1 (lower
    /// is better); a scaled floor takes the tolerance twice.
    Latency,
    /// The baseline's figure over the current run's is printed; only the
    /// two figures' presence is gated.
    Info,
}

/// One gate: a figure in one bench's file, and how it is judged.
struct Gate {
    bench: Bench,
    mode: Mode,
    kind: Kind,
    /// The figure's dotted key path.
    path: String,
}

/// The scaling 4t/1t floors with 4+, 2–3 and 1 cores.
const SCALING_4T: [f64; 3] = [1.8, 0.9, 0.7];
/// The server dangsan/baseline capacity-ratio floors, keyed likewise.
const SERVER_RPS: [f64; 3] = [0.12, 0.10, 0.08];

/// The gate table: 44 lint gates, then 13 compare gates.
#[rustfmt::skip]
fn gates() -> Vec<Gate> {
    use {Bench::*, Kind::*, Mode::*};
    let mut g = Vec::new();
    let mut add = |bench, mode, kind, path: String| g.push(Gate { bench, mode, kind, path });
    let speedup = |bench: &str| format!("benches.{bench}.speedup");
    let derived = |key: &str| format!("derived.{key}");
    for b in Bench::ALL {
        add(b, Lint, Schema, "schema".into());
        add(b, Lint, Floor(1.0), "cores".into());
    }
    for (b, _) in HOTPATH_BENCHES { add(Hotpath, Lint, Floor(0.0), speedup(b)); }
    for (b, win) in HOTPATH_BENCHES { if win { add(Hotpath, Lint, Floor(1.0), speedup(b)); } }
    add(Scaling, Lint, CoresFloor(SCALING_4T, 1.0), derived("dangsan_speedup_4t_over_1t"));
    add(Scaling, Lint, Floor(0.95), derived("cached_over_locked_1t"));
    add(Scaling, Lint, CoresFloor(SCALING_4T, 4.0), derived("dangsan_parallel_efficiency_4t"));
    for key in ["sweep_steals", "sweep_shard_peak_0", "p50_ns", "p99_ns"] {
        add(Scaling, Lint, Floor(0.0), format!("arms.dangsan.t1.{key}"));
    }
    for (arm, _) in defense_arms(Config::default()) {
        let arm = arm.label();
        add(Scaling, Lint, Floor(0.0), format!("defenses.{arm}.ops_per_sec"));
        add(Scaling, Lint, Floor(0.0), format!("defenses.{arm}.overhead_vs_baseline"));
    }
    add(Server, Lint, CoresFloor(SERVER_RPS, 1.0), derived("dangsan_over_baseline_rps"));
    add(Server, Lint, Floor(1.0), derived("dangsan_p50_ns"));
    add(Server, Lint, Floor(1.0), derived("dangsan_p99_ns"));
    add(Server, Lint, Floor(1.0), derived("dangsan_p999_ns"));
    add(Server, Lint, Floor(0.0), "arms.dangsan.open_loop.offered_rps".into());
    add(Server, Lint, Floor(0.0), "arms.dangsan.open_loop.sessions_churned".into());
    for scheme in TagScheme::DEFAULTS {
        let arm = DetectorKind::Tagging(scheme).label();
        add(Server, Lint, Floor(0.0), format!("arms.{arm}.capacity_rps"));
        add(Server, Lint, Floor(0.0), format!("arms.{arm}.overhead_vs_baseline"));
    }
    for (b, _) in HOTPATH_BENCHES { add(Hotpath, Scaled, Ratio, speedup(b)); }
    add(Hotpath, Now, Floor(0.98), speedup("trace_off"));
    add(Hotpath, Now, Floor(0.98), speedup("metrics_off"));
    add(Scaling, Scaled, CoresFloor(SCALING_4T, 1.0), derived("dangsan_speedup_4t_over_1t"));
    add(Scaling, Scaled, Floor(0.95), derived("cached_over_locked_1t"));
    add(Server, Scaled, Ratio, derived("dangsan_over_baseline_rps"));
    add(Server, Scaled, Latency, derived("dangsan_p50_ns"));
    add(Server, Now, Info, derived("dangsan_p99_ns"));
    add(Server, Now, Info, derived("dangsan_p999_ns"));
    g
}

/// One checked gate: whether it held, and its printed line.
pub struct Outcome {
    /// The gate held (INFO gates hold when both figures are present).
    pub ok: bool,
    /// Verdict, mode, file, key path, figure and floor (and, in compare
    /// mode, the now and base figures and both files' cores).
    pub line: String,
}

/// Checks every gate that applies: the lint gates on `base`, the
/// committed baselines in [`Bench::ALL`] order, and, given `now`, a
/// current run's files in the same order, the compare gates too. `tol` is
/// `VERIFY_BENCH_TOL`, in percent.
pub fn check_all(base: &[Json; 3], now: Option<&[Json; 3]>, tol: f64) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for gate in gates() {
        let i = gate.bench as usize;
        if gate.mode == Mode::Lint || now.is_some() {
            outcomes.push(check(&gate, &base[i], now.map(|n| &n[i]), tol));
        }
    }
    outcomes
}

fn check(gate: &Gate, base: &Json, now: Option<&Json>, tol: f64) -> Outcome {
    let mode = ["lint", "now ", "now "][gate.mode as usize];
    let head = format!("{mode} {:<18} {:<41}", gate.bench.file(), gate.path);
    let (verdict, detail) = judge(gate, base, now, tol).unwrap_or_else(|e| ("FAIL", e));
    let (ok, line) = (verdict != "FAIL", format!("{verdict:<4} {head} {detail}"));
    Outcome { ok, line }
}

/// A verdict (`OK`, `FAIL` or `INFO`) and the figures behind it.
type Verdict = (&'static str, String);

/// Judges one gate, or says why its figures cannot be read.
fn judge(gate: &Gate, base: &Json, now: Option<&Json>, tol: f64) -> Result<Verdict, String> {
    let path = gate.path.as_str();
    let doc = now.filter(|_| gate.mode != Mode::Lint).unwrap_or(base);
    let (label, figure, floor) = match gate.kind {
        Kind::Schema => {
            let want = [HOTPATH_SCHEMA, SCALING_SCHEMA, SERVER_SCHEMA][gate.bench as usize];
            let (got, want) = (doc.at(path)?.render(), Json::Str(want.into()).render());
            let verdict = if got == want { "OK" } else { "FAIL" };
            return Ok((verdict, format!("{got} (expected {want})")));
        }
        Kind::Floor(floor) => ("", doc.num(path)?, Some(floor)),
        Kind::CoresFloor(floors, div) => {
            let cores = doc.num("cores")?;
            let i = usize::from(cores < 4.0) + usize::from(cores < 2.0); // 4+, 2–3, 1
            ("", doc.num(path)?, Some(floors[i] / div))
        }
        Kind::Ratio => ("now/base ", doc.num(path)? / base.num(path)?, Some(1.0)),
        Kind::Latency => ("base/now ", base.num(path)? / doc.num(path)?, Some(1.0)),
        Kind::Info => ("base/now ", base.num(path)? / doc.num(path)?, None),
    };
    // t and t² are rounded to 3 decimals (0.65² = 0.4225 gives 0.423);
    // the floors they scale are not.
    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    let t = round3(1.0 - tol / 100.0);
    let scale = match (gate.mode, gate.kind) {
        (Mode::Scaled, Kind::Latency) => round3(t * t),
        (Mode::Scaled, _) => t,
        _ => 1.0,
    };
    let (verdict, mut detail) = match floor.map(|f| f * scale) {
        _ if !figure.is_finite() => return Err(format!("{label}{figure} is not a finite figure")),
        Some(f) if figure >= f => ("OK", format!("{label}{figure:.3} >= {f:.3}")),
        Some(f) => ("FAIL", format!("{label}{figure:.3} < {f:.3}")),
        None => ("INFO", format!("{label}{figure:.3}, not floored")),
    };
    let show = |d: &Json, p, prec| d.num(p).map_or("?".into(), |x| format!("{x:.prec$}"));
    if gate.mode != Mode::Lint {
        let (n, b) = (show(doc, path, 3), show(base, path, 3));
        let cores = (show(doc, "cores", 0), show(base, "cores", 0));
        detail += &format!(" (now {n}, base {b}, cores {}/{})", cores.0, cores.1);
    }
    Ok((verdict, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baselines, in [`Bench::ALL`] order.
    const COMMITTED: [&str; 3] = [
        include_str!("../../../BENCH_hotpath.json"),
        include_str!("../../../BENCH_scaling.json"),
        include_str!("../../../BENCH_server.json"),
    ];

    fn committed() -> [Json; 3] {
        COMMITTED.map(|text| Json::parse(text).expect("committed baseline parses"))
    }

    fn lines(base: &[Json; 3]) -> Vec<String> {
        check_all(base, None, 20.0)
            .into_iter()
            .map(|o| o.line)
            .collect()
    }

    fn failures(base: &[Json; 3]) -> Vec<String> {
        let failed = check_all(base, None, 20.0).into_iter().filter(|o| !o.ok);
        failed.map(|o| o.line).collect()
    }

    /// The fields of the object at `path` (the whole document if empty).
    fn fields<'a>(doc: &'a mut Json, path: &str) -> &'a mut Vec<(String, Json)> {
        let mut v = doc;
        for key in path.split('.').filter(|k| !k.is_empty()) {
            let Json::Obj(fields) = v else {
                panic!("{key} in a non-object")
            };
            v = &mut fields.iter_mut().find(|(k, _)| k == key).expect("key").1;
        }
        let Json::Obj(fields) = v else {
            panic!("{path} is not an object")
        };
        fields
    }

    #[test]
    fn committed_baselines_pass_lint_and_compare_against_themselves() {
        let base = committed();
        let lint: Vec<_> = gates()
            .into_iter()
            .filter(|g| g.mode == Mode::Lint)
            .collect();
        let per_bench = Bench::ALL.map(|b| lint.iter().filter(|g| g.bench == b).count());
        assert_eq!(per_bench, [9, 21, 14]);
        let outcomes = check_all(&base, Some(&base), 20.0);
        assert_eq!(outcomes.len(), 44 + 13);
        for o in &outcomes {
            assert!(o.ok, "{}", o.line);
        }
    }

    #[test]
    fn dropped_fields_fail_naming_their_key_path() {
        // The line-scanning lint read a neighbouring bench's speedup and
        // implicit-id's overhead in place of these and passed.
        for (bench, path) in [
            (Bench::Hotpath, "benches.free_many_objs.speedup"),
            (Bench::Server, "arms.xtag.overhead_vs_baseline"),
        ] {
            let mut base = committed();
            let (parent, key) = path.rsplit_once('.').expect("nested path");
            fields(&mut base[bench as usize], parent).retain(|(k, _)| k != key);
            let failed = failures(&base);
            assert!(!failed.is_empty(), "{path}: dropping it must fail");
            for line in failed {
                assert!(
                    line.contains(path) && line.contains("missing key"),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn reordered_scaling_file_reads_each_arms_own_figures() {
        // `defenses` written before `arms`, same content: the line-scanning
        // lint read the baseline arm's p50 and sweep_steals as dangsan's.
        let mut reordered = committed();
        let top = fields(&mut reordered[1], "");
        let defenses = top
            .iter()
            .position(|(k, _)| k == "defenses")
            .expect("defenses");
        let section = top.remove(defenses);
        let arms = top.iter().position(|(k, _)| k == "arms").expect("arms");
        top.insert(arms, section);
        let text = reordered[1].render_pretty();
        assert!(text.find("\"defenses\"") < text.find("\"arms\""));
        reordered[1] = Json::parse(&text).expect("reordered file parses");

        assert_eq!(lines(&reordered), lines(&committed()));
        assert!(failures(&reordered).is_empty());
        for key in ["p50_ns", "sweep_steals"] {
            let path = format!("arms.dangsan.t1.{key}");
            let own = format!("{:.3}", committed()[1].num(&path).expect("dangsan figure"));
            let line = lines(&reordered).into_iter().find(|l| l.contains(&path));
            assert!(
                line.expect("gated").contains(&own),
                "{path} must read {own}"
            );
        }
    }

    #[test]
    fn null_is_a_parse_error_not_a_zero() {
        let text = COMMITTED[0].replacen("\"speedup\": ", "\"speedup\": null, \"was\": ", 1);
        assert!(Json::parse(&text).is_err());
        assert!(Json::parse(&text.replacen("null", "1", 1)).is_ok());
        assert!(Json::parse(r#"{"speedup": null}"#).is_err());
    }

    /// A file holding one figure, `x`, and its `cores`.
    fn file(cores: f64, x: f64) -> Json {
        let text = format!(r#"{{"schema": "{HOTPATH_SCHEMA}", "cores": {cores}, "x": {x}}}"#);
        Json::parse(&text).expect("test file parses")
    }

    /// Checks a gate on `x` against the committed `base` and current `now`.
    fn check_x(mode: Mode, kind: Kind, base: &Json, now: &Json, tol: f64) -> Outcome {
        let gate = Gate {
            bench: Bench::Hotpath,
            mode,
            kind,
            path: "x".into(),
        };
        check(&gate, base, Some(now), tol)
    }

    fn holds(mode: Mode, kind: Kind, base: &Json, now: &Json, tol: f64) -> bool {
        check_x(mode, kind, base, now, tol).ok
    }

    #[test]
    fn schema_gate_wants_the_writers_string() {
        let mut doc = file(1.0, 1.0);
        let gate = |bench| Gate {
            bench,
            mode: Mode::Lint,
            kind: Kind::Schema,
            path: "schema".into(),
        };
        assert!(check(&gate(Bench::Hotpath), &doc, None, 20.0).ok);
        assert!(!check(&gate(Bench::Scaling), &doc, None, 20.0).ok);
        fields(&mut doc, "").retain(|(k, _)| k != "schema");
        assert!(!check(&gate(Bench::Hotpath), &doc, None, 20.0).ok);
    }

    #[test]
    fn floor_gate_holds_at_its_floor_and_fails_below_or_without_a_figure() {
        let (lint, floor, any) = (Mode::Lint, Kind::Floor(1.0), file(1.0, 0.0));
        assert!(holds(lint, floor, &file(1.0, 1.0), &any, 20.0));
        assert!(!holds(lint, floor, &file(1.0, 0.999), &any, 20.0));
        let mut missing = file(1.0, 5.0);
        fields(&mut missing, "").retain(|(k, _)| k != "x");
        let out = check_x(lint, Kind::Floor(0.0), &missing, &any, 20.0);
        assert!(
            !out.ok && out.line.contains("missing key \"x\""),
            "{}",
            out.line
        );
    }

    #[test]
    fn cores_floors_key_on_the_judged_files_cores() {
        for (cores, scaling, server) in [(1.0, 0.7, 0.08), (2.0, 0.9, 0.10), (4.0, 1.8, 0.12)] {
            for (floors, div, floor) in [
                (SCALING_4T, 1.0, scaling),
                (SCALING_4T, 4.0, scaling / 4.0),
                (SERVER_RPS, 1.0, server),
            ] {
                let kind = Kind::CoresFloor(floors, div);
                let other = file(8.0 - cores, 0.0);
                let lint = |x| holds(Mode::Lint, kind, &file(cores, x), &other, 20.0);
                assert!(lint(floor) && !lint(floor - 0.001), "cores {cores}");
                // Compare mode keys on the current run, scaled by 0.8.
                let now = |x| holds(Mode::Scaled, kind, &other, &file(cores, x), 20.0);
                assert!(
                    now(floor * 0.8) && !now(floor * 0.8 - 0.001),
                    "cores {cores}"
                );
            }
        }
    }

    #[test]
    fn ratio_gate_holds_now_over_base() {
        let now = |base, x| {
            holds(
                Mode::Scaled,
                Kind::Ratio,
                &file(2.0, base),
                &file(2.0, x),
                20.0,
            )
        };
        assert!(now(2.0, 1.6) && !now(2.0, 1.598));
        assert!(!now(0.0, 1.0), "a zero base is no ratio");
    }

    #[test]
    fn latency_gate_holds_base_over_now_at_the_tolerance_squared() {
        let now = |x| {
            holds(
                Mode::Scaled,
                Kind::Latency,
                &file(2.0, 640.0),
                &file(2.0, x),
                20.0,
            )
        };
        assert!(now(1000.0) && !now(1001.0));
    }

    #[test]
    fn info_gate_prints_the_ratio_and_gates_presence_only() {
        let (base, mut slow) = (file(1.0, 100.0), file(2.0, 3500.0));
        let out = check_x(Mode::Now, Kind::Info, &base, &slow, 20.0);
        assert!(out.ok && out.line.starts_with("INFO"), "{}", out.line);
        assert!(
            out.line.contains("0.029") && out.line.contains("cores 2/1"),
            "{}",
            out.line
        );
        fields(&mut slow, "").retain(|(k, _)| k != "x");
        assert!(!holds(Mode::Now, Kind::Info, &base, &slow, 20.0));
    }

    #[test]
    fn tolerance_scales_only_the_scaled_floors() {
        let one = file(1.0, 1.0);
        for (tol, t, t2) in [(20.0, 0.8, 0.64), (35.0, 0.65, 0.423)] {
            let now = |mode, kind, x| holds(mode, kind, &one, &file(1.0, x), tol);
            assert!(
                now(Mode::Scaled, Kind::Ratio, t) && !now(Mode::Scaled, Kind::Ratio, t - 0.001)
            );
            let floor = Kind::Floor(1.0);
            assert!(now(Mode::Scaled, floor, t) && !now(Mode::Scaled, floor, t - 0.001));
            let latency = |x| holds(Mode::Scaled, Kind::Latency, &file(1.0, x), &one, tol);
            assert!(latency(t2) && !latency(t2 - 0.001));
            // Unscaled floors (trace_off, metrics_off) ignore the tolerance.
            let off = Kind::Floor(0.98);
            assert!(now(Mode::Now, off, 0.98) && !now(Mode::Now, off, 0.979));
        }
    }
}
