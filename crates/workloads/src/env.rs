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
            DetectorKind::Tagging(TagScheme::XTag { .. }) => "xtag",
            DetectorKind::Tagging(TagScheme::ImplicitId { .. }) => "implicit-id",
            DetectorKind::Tagging(TagScheme::PaMac { .. }) => "pa-mac",
        }
    }

    /// The detector `Config` this kind carries, if any. Kinds without one
    /// (baseline, comparators) run on the default allocator settings.
    fn config(&self) -> Option<&Config> {
        match self {
            DetectorKind::DangSan(cfg) | DetectorKind::DangSanLocked(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// Applies this kind's allocator-side settings to a fresh heap.
    fn configure_heap(&self, heap: &Heap) {
        if let Some(cfg) = self.config() {
            heap.set_thread_cached(cfg.thread_cached_heap);
        }
    }
}

/// Environment-variable override for the sweep axis: `SWEEP_THREADS=0`
/// forces the synchronous free path, and `SWEEP_THREADS=N` (N > 0) turns
/// the deferred sweep on with N helper threads. An unset or unparsable
/// variable leaves `cfg` untouched, so local runs and committed
/// baselines see exactly the config the caller built.
///
/// Perf harnesses (the scaling and server benches) opt in by calling
/// this on the configs they build; [`local_env`]/[`shared_env`]
/// deliberately do NOT apply it, because deferred sweeping changes
/// observable timing (a load in the quarantine window reads the raw
/// pointer until the sweep runs) and the detection tests rely on
/// synchronous trap semantics.
pub fn matrix_env_overrides(mut cfg: Config) -> Config {
    if let Ok(v) = std::env::var("SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            cfg = cfg.with_sweep_threads(n).with_deferred_sweep(n > 0);
        }
    }
    cfg
}

/// A fresh single-threaded environment (any detector kind).
pub fn local_env(kind: DetectorKind) -> HookedHeap<dyn Detector> {
    let mem = Arc::new(AddressSpace::new());
    let heap = Heap::new(Arc::clone(&mem));
    kind.configure_heap(&heap);
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
    kind.configure_heap(&heap);
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

    use dangsan_baselines::{DEFAULT_TAG_BITS, DEFAULT_TAG_KEY};

    fn tagging_kinds() -> [DetectorKind; 3] {
        [
            DetectorKind::Tagging(TagScheme::XTag {
                bits: DEFAULT_TAG_BITS,
            }),
            DetectorKind::Tagging(TagScheme::ImplicitId {
                bits: DEFAULT_TAG_BITS,
                key: DEFAULT_TAG_KEY,
            }),
            DetectorKind::Tagging(TagScheme::PaMac {
                bits: DEFAULT_TAG_BITS,
                key: DEFAULT_TAG_KEY,
            }),
        ]
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
    fn matrix_env_overrides_follow_the_matrix_variables() {
        // Single test covering all cases so the env-var mutation never
        // races another assertion in this binary. The caller's value is
        // restored at the end.
        let saved = std::env::var_os("SWEEP_THREADS");
        std::env::remove_var("SWEEP_THREADS");
        let base = Config::default();
        let cfg = matrix_env_overrides(base);
        assert_eq!(cfg.deferred_sweep, base.deferred_sweep);
        assert_eq!(cfg.sweep_threads, base.sweep_threads);

        std::env::set_var("SWEEP_THREADS", "2");
        let cfg = matrix_env_overrides(Config::default());
        assert!(cfg.deferred_sweep);
        assert_eq!(cfg.sweep_threads, 2);

        std::env::set_var("SWEEP_THREADS", "0");
        let cfg = matrix_env_overrides(Config::default());
        assert!(!cfg.deferred_sweep);
        assert_eq!(cfg.sweep_threads, 0);

        std::env::set_var("SWEEP_THREADS", "banana");
        let cfg = matrix_env_overrides(base);
        assert_eq!(cfg, base, "unparsable values leave cfg untouched");

        std::env::remove_var("SWEEP_THREADS");
        if let Some(value) = saved {
            std::env::set_var("SWEEP_THREADS", value);
        }
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
