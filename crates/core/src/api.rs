//! The detector interface shared by DangSan, the baselines, and the
//! workload runners.
//!
//! In the paper these hooks are calls the LLVM pass and the tcmalloc
//! extension insert into the program: `registerptr` after every
//! pointer-typed store, and allocator interpositions around
//! malloc/free/realloc. Here they form a trait so the same workloads can
//! drive DangSan, DangNULL-style and FreeSentry-style detectors, or no
//! detector at all (the baseline run).
//!
//! The trait deliberately has **no `Send + Sync` supertrait**: FreeSentry
//! famously cannot support multithreaded programs, and we encode that in
//! the type system — multithreaded runners require `D: Detector + Send +
//! Sync`, which a `RefCell`-based detector does not satisfy.

use dangsan_heap::{AllocError, Allocation};
use dangsan_vmem::Addr;

use crate::stats::StatsSnapshot;

/// What happened during one `invalptrs` run (a `free`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationReport {
    /// Locations rewritten to a non-canonical address.
    pub invalidated: u64,
    /// Logged locations whose value no longer pointed into the object.
    pub stale: u64,
    /// Logged locations whose memory was unmapped (SIGSEGV-skip path).
    pub skipped_unmapped: u64,
}

/// A use-after-free detector driven by allocator hooks and instrumented
/// pointer stores.
pub trait Detector {
    /// Short human-readable name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Called after the allocator creates an object (`createobj`).
    fn on_alloc(&self, alloc: &Allocation);

    /// Called when `base` is about to be freed, *before* the allocator
    /// reclaims the memory: invalidates all tracked pointers into the
    /// object (`invalptrs`).
    fn on_free(&self, base: Addr) -> InvalidationReport;

    /// Called when `realloc` resized an object in place.
    fn on_realloc_in_place(&self, base: Addr, new_size: u64);

    /// Called after a pointer-typed store of `value` to `loc`
    /// (`registerptr`). `value` may be anything — non-pointers are cheap
    /// to filter via the pointer-to-object mapper.
    fn register_ptr(&self, loc: Addr, value: u64);

    /// Rewrites a freshly allocated pointer before the program sees it.
    ///
    /// The pointer-tagging arms (xTag / implicit-ID / PA-MAC) fold their
    /// tag into the spare high bits (`dangsan_vmem::TAG_MASK`) here;
    /// every invalidation-based detector returns the address unchanged.
    /// Called by the hooked heap after `on_alloc`, with the raw base.
    #[inline]
    fn encode_ptr(&self, base: Addr) -> Addr {
        base
    }

    /// Validates a pointer at dereference time and returns the address
    /// the access should actually use.
    ///
    /// Tagging arms strip their spare-bit tag and check it against the
    /// per-block shadow state: a valid tag yields the canonical address,
    /// a *stale* tag yields the canonical address with bit 63 set — the
    /// exact shape the invalidation sweep writes — so the subsequent
    /// memory access faults precisely like an invalidated pointer. An
    /// address the arm has no shadow state for (stack, globals, integers
    /// fabricated by arithmetic) passes through unchanged and faults, or
    /// not, with its natural class. Default: identity (free for the
    /// invalidation-based arms, whose detection happens at `free`).
    #[inline]
    fn check_deref(&self, addr: Addr) -> Addr {
        addr
    }

    /// Validates and strips a pointer handed to `free`/`realloc`.
    ///
    /// Tagging arms reject a stale tag as `AllocError::InvalidPointer`
    /// (the allocator-abort shape a masked pointer produces) and hand
    /// the canonical address to the allocator otherwise. Default:
    /// passthrough.
    #[inline]
    fn decode_free(&self, addr: Addr) -> Result<Addr, AllocError> {
        Ok(addr)
    }

    /// Reserved for tagging arms: whether a stored word would trap if
    /// dereferenced now (used by the differential fuzzer to compare a
    /// tagged slab against the oracle's dead-bit pattern). Non-tagging
    /// detectors answer `false`; their staleness lives in the pointer
    /// bits themselves.
    fn probe_stale(&self, value: u64) -> bool {
        let _ = value;
        false
    }

    /// Called after a `memcpy`-style move of `len` bytes to `dst`.
    ///
    /// Default: no-op — the paper's behaviour (§7: pointers copied in a
    /// type-unsafe way are lost). Detectors may scan the destination and
    /// re-register pointer-looking words (the extension the paper
    /// sketches but chose not to implement).
    fn on_memcpy(&self, dst: Addr, len: u64) {
        let _ = (dst, len);
    }

    /// Whether `on_free` defers its invalidation sweep (quarantining the
    /// block) instead of completing it before returning. A hooked heap
    /// must keep deferred-freed blocks out of circulation until
    /// [`Detector::drain`] — it does so by quarantining them in the
    /// allocator and letting the detector's sweep retire them. Default:
    /// `false` (the synchronous paper behaviour).
    fn defers_free(&self) -> bool {
        false
    }

    /// Blocks until every deferred sweep enqueued so far has retired
    /// (quarantined blocks requeued, all counters exact). No-op for
    /// synchronous detectors.
    fn drain(&self) {}

    /// Hands the detector the heap it is hooked in front of, so a
    /// deferred sweep can requeue quarantined blocks when it retires.
    /// This is also where a detector applies its configuration to the
    /// heap: `DangSan` sets `Config::thread_cached_heap` and attaches its
    /// tracer here, and wrappers forward the call. Called once by
    /// `HookedHeap::new`; default: ignore it.
    fn bind_heap(&self, heap: &std::sync::Arc<dangsan_heap::Heap>) {
        let _ = heap;
    }

    /// Current statistics (Table 1 counters).
    fn stats(&self) -> StatsSnapshot;

    /// Host bytes of detector metadata (logs, tables, shadow memory) for
    /// the Figure 11/12 memory-overhead accounting.
    fn metadata_bytes(&self) -> u64;
}

/// The no-op detector: the uninstrumented baseline configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullDetector;

impl Detector for NullDetector {
    fn name(&self) -> &'static str {
        "baseline"
    }

    #[inline]
    fn on_alloc(&self, _alloc: &Allocation) {}

    #[inline]
    fn on_free(&self, _base: Addr) -> InvalidationReport {
        InvalidationReport::default()
    }

    #[inline]
    fn on_realloc_in_place(&self, _base: Addr, _new_size: u64) {}

    #[inline]
    fn register_ptr(&self, _loc: Addr, _value: u64) {}

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    fn metadata_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_detector_is_inert() {
        let d = NullDetector;
        d.register_ptr(0x1000, 0x2000);
        assert_eq!(d.on_free(0x1000), InvalidationReport::default());
        assert_eq!(d.stats(), StatsSnapshot::default());
        assert_eq!(d.metadata_bytes(), 0);
    }
}
