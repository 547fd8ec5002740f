//! Experiment environments: fresh (memory, heap, detector) triples.

use std::sync::Arc;

use dangsan::{Config, DangSan, Detector, HookedHeap, NullDetector};
use dangsan_baselines::{DangNull, DangSanLocked, FreeSentry, TagDetector, TagScheme};
use dangsan_heap::Heap;
use dangsan_vmem::AddressSpace;

/// Which detector a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// Uninstrumented baseline.
    Baseline,
    /// DangSan with the given configuration.
    DangSan(Config),
    /// DangSan behind a global lock (ablation).
    DangSanLocked(Config),
    /// The DangNULL-style comparator.
    DangNull,
    /// The FreeSentry-style comparator (single-threaded only).
    FreeSentry,
    /// A dereference-time tagging arm (xTag / implicit-ID / PA-MAC).
    Tagging(TagScheme),
}

impl DetectorKind {
    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            DetectorKind::Baseline => "baseline",
            DetectorKind::DangSan(_) => "dangsan",
            DetectorKind::DangSanLocked(_) => "dangsan-locked",
            DetectorKind::DangNull => "dangnull",
            DetectorKind::FreeSentry => "freesentry",
            DetectorKind::Tagging(scheme) => scheme.name(),
        }
    }
}

/// A fresh single-threaded environment (any detector kind).
pub fn local_env(kind: DetectorKind) -> HookedHeap<dyn Detector> {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det: Arc<dyn Detector> = match kind {
        DetectorKind::Baseline => Arc::new(NullDetector),
        DetectorKind::DangSan(cfg) => DangSan::new(Arc::clone(&mem), cfg),
        DetectorKind::DangSanLocked(cfg) => DangSanLocked::new(Arc::clone(&mem), cfg),
        DetectorKind::DangNull => DangNull::new(Arc::clone(&mem)),
        DetectorKind::FreeSentry => FreeSentry::new(Arc::clone(&mem), Arc::clone(&heap)),
        DetectorKind::Tagging(scheme) => TagDetector::new(scheme),
    };
    HookedHeap::new(heap, det)
}

/// A fresh thread-safe environment.
///
/// # Panics
///
/// Panics for [`DetectorKind::FreeSentry`]: by construction it cannot
/// satisfy `Send + Sync` (the paper's "cannot support multithreaded
/// programs" encoded in the type system), so asking for a shared
/// environment with it is a harness bug.
pub fn shared_env(kind: DetectorKind) -> HookedHeap<dyn Detector + Send + Sync> {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    let det: Arc<dyn Detector + Send + Sync> = match kind {
        DetectorKind::Baseline => Arc::new(NullDetector),
        DetectorKind::DangSan(cfg) => DangSan::new(Arc::clone(&mem), cfg),
        DetectorKind::DangSanLocked(cfg) => DangSanLocked::new(Arc::clone(&mem), cfg),
        DetectorKind::DangNull => DangNull::new(Arc::clone(&mem)),
        DetectorKind::FreeSentry => {
            panic!("FreeSentry does not support multithreaded programs")
        }
        DetectorKind::Tagging(scheme) => TagDetector::new(scheme),
    };
    HookedHeap::new(heap, det)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagging_kinds() -> [DetectorKind; 3] {
        TagScheme::DEFAULTS.map(DetectorKind::Tagging)
    }

    #[test]
    fn every_kind_builds_a_local_env() {
        let [xtag, implicit, pamac] = tagging_kinds();
        for kind in [
            DetectorKind::Baseline,
            DetectorKind::DangSan(Config::default()),
            DetectorKind::DangSanLocked(Config::default()),
            DetectorKind::DangNull,
            DetectorKind::FreeSentry,
            xtag,
            implicit,
            pamac,
        ] {
            let hh = local_env(kind);
            let a = hh.malloc(32).unwrap();
            hh.free(a.base).unwrap();
        }
    }

    #[test]
    fn tagging_labels_name_the_scheme() {
        let [xtag, implicit, pamac] = tagging_kinds();
        assert_eq!(xtag.label(), "xtag");
        assert_eq!(implicit.label(), "implicit-id");
        assert_eq!(pamac.label(), "pa-mac");
    }

    #[test]
    fn shared_env_works_for_thread_safe_kinds() {
        let [xtag, implicit, pamac] = tagging_kinds();
        for kind in [
            DetectorKind::Baseline,
            DetectorKind::DangSan(Config::default()),
            DetectorKind::DangSanLocked(Config::default()),
            DetectorKind::DangNull,
            xtag,
            implicit,
            pamac,
        ] {
            let hh = shared_env(kind);
            let a = hh.malloc(32).unwrap();
            hh.free(a.base).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "multithreaded")]
    fn shared_env_rejects_freesentry() {
        let _ = shared_env(DetectorKind::FreeSentry);
    }

    #[test]
    fn thread_cached_heap_flag_reaches_the_heap() {
        let on = shared_env(DetectorKind::DangSan(Config::default()));
        assert!(on.heap().thread_cached());
        let off = shared_env(DetectorKind::DangSan(
            Config::default().with_thread_cached_heap(false),
        ));
        assert!(!off.heap().thread_cached());
        let locked = local_env(DetectorKind::DangSanLocked(
            Config::default().with_thread_cached_heap(false),
        ));
        assert!(!locked.heap().thread_cached());
    }
}
