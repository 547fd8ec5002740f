//! Machine-independent compute calibration.
//!
//! Figure 9's per-benchmark overhead is determined by each benchmark's
//! ratio of pointer-tracking work to ordinary compute. The absolute cost
//! of the simulated substrate differs from real hardware and from machine
//! to machine, so the harness measures three constants once — the cost of
//! a spin unit, of a baseline instrumented store, and of DangSan's extra
//! per-store work — and then chooses each benchmark's compute-per-store so
//! that the *DangSan* run lands on the paper's Figure 9 anchor. The other
//! detectors (FreeSentry, DangNULL, locked DangSan) run the identical
//! workload, so their relative positions are *emergent* from their
//! implementations, not calibrated.

use std::hint::black_box;
use std::time::Instant;

use crate::env::{local_env, DetectorKind};
use dangsan::Config;

/// Calibrated per-operation costs (nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// One spin unit (see [`spin`]).
    pub spin_ns: f64,
    /// One instrumented pointer store on the baseline (no detector).
    pub baseline_store_ns: f64,
    /// DangSan's additional cost per pointer store.
    pub dangsan_extra_ns: f64,
}

/// Busy-work: `units` rounds of xorshift, kept opaque to the optimizer.
#[inline]
pub fn spin(units: u32, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..units {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn measure_store_ns(kind: DetectorKind, iters: u64) -> f64 {
    let hh = local_env(kind);
    let obj = hh.malloc(256).unwrap();
    let slab = hh.malloc(64 * 8).unwrap();
    let start = Instant::now();
    for i in 0..iters {
        let loc = slab.base + (i % 64) * 8;
        hh.store_ptr(loc, obj.base + (i % 32) * 8).unwrap();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Measures the cost model. Takes a few tens of milliseconds.
pub fn calibrate() -> CostModel {
    // Warm up the CPU and code paths.
    let _ = measure_store_ns(DetectorKind::Baseline, 50_000);
    let spins = 2_000_000u64;
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..spins / 64 {
        acc ^= spin(64, i);
    }
    black_box(acc);
    let spin_ns = start.elapsed().as_nanos() as f64 / spins as f64;

    let baseline = measure_store_ns(DetectorKind::Baseline, 400_000);
    let dangsan = measure_store_ns(DetectorKind::DangSan(Config::default()), 400_000);
    CostModel {
        spin_ns: spin_ns.max(0.05),
        baseline_store_ns: baseline.max(1.0),
        dangsan_extra_ns: (dangsan - baseline).max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_depends_on_units_and_terminates() {
        let a = spin(10, 42);
        let b = spin(10, 42);
        assert_eq!(a, b, "deterministic");
        assert_ne!(spin(11, 42), a);
    }

    #[test]
    fn calibration_produces_positive_costs() {
        let cm = calibrate();
        assert!(cm.spin_ns > 0.0);
        assert!(cm.baseline_store_ns > 0.0);
        assert!(cm.dangsan_extra_ns > 0.0);
    }
}
