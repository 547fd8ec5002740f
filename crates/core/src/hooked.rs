//! The heap tracker (paper §4.2): allocator interposition.
//!
//! [`HookedHeap`] pairs the tcmalloc-style heap with a [`Detector`] and
//! implements the hook ordering the paper requires:
//!
//! * `malloc` → allocate, then `createobj`;
//! * `free`   → validate, **invalidate pointers while the object is still
//!   live**, then release the memory;
//! * `realloc`→ the three cases of §4.2 (unchanged / grown in place /
//!   moved), with invalidation only in the moved case.
//!
//! It also provides `store_ptr`, the "instrumented pointer store": the
//! memory write followed by the `registerptr` call that the LLVM pass
//! would have inserted.

use std::sync::Arc;

use dangsan_heap::{AllocError, Allocation, FreeInfo, Heap, ReallocOutcome, ThreadCache};
use dangsan_vmem::{Addr, AddressSpace, MemFault};

use crate::api::{Detector, InvalidationReport};

/// A heap whose allocator operations drive a detector.
///
/// Generic over the (possibly unsized) detector type so multithreaded
/// callers can demand `HookedHeap<dyn Detector + Send + Sync>` while
/// single-threaded callers (running e.g. a FreeSentry-style detector) use
/// `HookedHeap<dyn Detector>`.
pub struct HookedHeap<D: Detector + ?Sized> {
    heap: Arc<Heap>,
    detector: Arc<D>,
}

impl<D: Detector + ?Sized> Clone for HookedHeap<D> {
    fn clone(&self) -> Self {
        HookedHeap {
            heap: Arc::clone(&self.heap),
            detector: Arc::clone(&self.detector),
        }
    }
}

impl<D: Detector + ?Sized> HookedHeap<D> {
    /// Pairs `heap` with `detector`.
    pub fn new(heap: Arc<Heap>, detector: Arc<D>) -> Self {
        // A deferring detector requeues quarantined blocks itself when
        // their sweeps retire; hand it the heap to requeue into.
        detector.bind_heap(&heap);
        HookedHeap { heap, detector }
    }

    /// The underlying allocator.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// The attached detector.
    pub fn detector(&self) -> &Arc<D> {
        &self.detector
    }

    /// The simulated memory.
    pub fn mem(&self) -> &Arc<AddressSpace> {
        self.heap.mem()
    }

    /// Hooked `malloc`. The returned `base` is what the *program* gets:
    /// tagging arms fold their spare-bit tag in via
    /// [`Detector::encode_ptr`]; for every other arm it is the raw base.
    pub fn malloc(&self, size: u64) -> Result<Allocation, AllocError> {
        let mut a = self.heap.malloc(size)?;
        self.detector.on_alloc(&a);
        a.base = self.detector.encode_ptr(a.base);
        Ok(a)
    }

    /// Hooked `calloc`.
    pub fn calloc(&self, count: u64, size: u64) -> Result<Allocation, AllocError> {
        let mut a = self.heap.calloc(count, size)?;
        self.detector.on_alloc(&a);
        a.base = self.detector.encode_ptr(a.base);
        Ok(a)
    }

    /// Hooked `free`: validate → invalidate → release.
    ///
    /// With a deferring detector the release step changes shape: the
    /// block goes into the heap's quarantine (validated and counted, on
    /// no free list) *before* `on_free`, and the detector's sweep
    /// requeues it when the invalidation walk retires. Ordering matters:
    /// quarantining first guarantees no allocation can land inside the
    /// object's range during the sweep window.
    /// A tagging arm validates and strips the pointer's tag first
    /// ([`Detector::decode_free`]); a stale tag aborts as an invalid
    /// pointer before the allocator is consulted, just as a masked
    /// pointer would.
    pub fn free(&self, addr: Addr) -> Result<InvalidationReport, AllocError> {
        let addr = self.detector.decode_free(addr)?;
        self.free_decoded(addr)
    }

    /// The release half of [`HookedHeap::free`], after tag decoding.
    fn free_decoded(&self, addr: Addr) -> Result<InvalidationReport, AllocError> {
        if self.detector.defers_free() {
            self.heap.quarantine(addr)?;
            return Ok(self.detector.on_free(addr));
        }
        self.heap.resolve_free(addr)?;
        let report = self.detector.on_free(addr);
        self.heap.free(addr)?;
        Ok(report)
    }

    /// Hooked `realloc` (§4.2's three cases).
    pub fn realloc(
        &self,
        addr: Addr,
        new_size: u64,
    ) -> Result<(Allocation, InvalidationReport), AllocError> {
        // Tagging arms validate + strip the tag up front; a stale tag is
        // an invalid-pointer abort exactly like freeing through one.
        let addr = self.detector.decode_free(addr)?;
        // Invalidation must precede the allocator's move+free, so probe
        // the outcome first: ask the allocator only after handling hooks.
        // The allocator decides in-place vs. move internally; we mirror
        // its decision by checking the current object's stride.
        let (base, usable) = self
            .heap
            .object_of(addr)
            .ok_or(AllocError::NotAnObject(addr))?;
        if base != addr {
            return Err(AllocError::NotAnObject(addr));
        }
        if new_size <= usable {
            // Cases 1–2: unchanged or grown in place. The object's
            // identity is unchanged, so re-encoding yields the same tag
            // and the program's existing pointers stay valid.
            match self.heap.realloc(addr, new_size)? {
                ReallocOutcome::InPlace(mut a) => {
                    self.detector.on_realloc_in_place(addr, new_size);
                    a.base = self.detector.encode_ptr(a.base);
                    Ok((a, InvalidationReport::default()))
                }
                ReallocOutcome::Moved { .. } => {
                    unreachable!("allocator moved although the size fits")
                }
            }
        } else {
            // Case 3: moved. malloc+memcpy+free with hooks in order.
            // `new.base` may carry a tag; the raw copy targets the
            // canonical destination.
            let new = self.malloc(new_size)?;
            let new_raw = dangsan_vmem::untag(new.base);
            let copied = usable.min(new_size);
            self.heap
                .mem()
                .copy(addr, new_raw, copied)
                .expect("both objects mapped");
            // No-op unless the detector implements the §7 memcpy hook.
            self.detector.on_memcpy(new_raw, copied);
            let report = self.free_decoded(addr)?;
            Ok((new, report))
        }
    }

    /// The instrumented pointer store: write `value` to `loc` and register
    /// the location with the detector. The dereference of `loc` first
    /// passes the detector's [`Detector::check_deref`] — tagging arms
    /// strip and validate the tag here (identity for every other arm).
    #[inline]
    pub fn store_ptr(&self, loc: Addr, value: u64) -> Result<(), MemFault> {
        let loc = self.detector.check_deref(loc);
        self.mem().write_word(loc, value)?;
        self.detector.register_ptr(loc, value);
        Ok(())
    }

    /// An uninstrumented store (a non-pointer-typed store in the paper's
    /// terms — the pass does not hook it). Still a dereference, so the
    /// tag check applies.
    #[inline]
    pub fn store_untracked(&self, loc: Addr, value: u64) -> Result<(), MemFault> {
        self.mem().write_word(self.detector.check_deref(loc), value)
    }

    /// A hooked `memcpy`: copies the bytes and lets the detector rescan
    /// the destination (a no-op for the paper-default configuration).
    pub fn memcpy(&self, src: Addr, dst: Addr, len: u64) -> Result<(), MemFault> {
        let src = self.detector.check_deref(src);
        let dst = self.detector.check_deref(dst);
        self.mem().copy(src, dst, len)?;
        self.detector.on_memcpy(dst, len);
        Ok(())
    }

    /// Loads a word, trapping on invalidated pointers like real hardware
    /// (and on stale-tagged pointers for the tagging arms, whose check
    /// rewrites them into the same trapping shape).
    #[inline]
    pub fn load(&self, loc: Addr) -> Result<u64, MemFault> {
        self.mem().read_word(self.detector.check_deref(loc))
    }

    /// Creates a per-thread handle with a private allocator cache.
    pub fn thread_handle(&self) -> HookedThread<D> {
        HookedThread {
            hooked: self.clone(),
            cache: ThreadCache::new(Arc::clone(&self.heap)),
        }
    }
}

/// Per-thread view of a [`HookedHeap`]: same hooks, cached allocator fast
/// path. Not `Sync`; create one per worker.
pub struct HookedThread<D: Detector + ?Sized> {
    hooked: HookedHeap<D>,
    cache: ThreadCache,
}

impl<D: Detector + ?Sized> HookedThread<D> {
    /// The shared hooked heap.
    pub fn shared(&self) -> &HookedHeap<D> {
        &self.hooked
    }

    /// Hooked `malloc` via the thread cache.
    pub fn malloc(&mut self, size: u64) -> Result<Allocation, AllocError> {
        let mut a = self.cache.malloc(size)?;
        self.hooked.detector.on_alloc(&a);
        a.base = self.hooked.detector.encode_ptr(a.base);
        Ok(a)
    }

    /// Hooked `free` via the thread cache (validate → invalidate →
    /// release). A deferring detector bypasses the cache: the block must
    /// sit in quarantine — not in this thread's magazine — until its
    /// sweep retires (see [`HookedHeap::free`]).
    pub fn free(&mut self, addr: Addr) -> Result<InvalidationReport, AllocError> {
        let addr = self.hooked.detector.decode_free(addr)?;
        if self.hooked.detector.defers_free() {
            return self.hooked.free_decoded(addr);
        }
        self.hooked.heap.resolve_free(addr)?;
        let report = self.hooked.detector.on_free(addr);
        self.cache.free(addr)?;
        Ok(report)
    }

    /// See [`HookedHeap::store_ptr`].
    #[inline]
    pub fn store_ptr(&self, loc: Addr, value: u64) -> Result<(), MemFault> {
        self.hooked.store_ptr(loc, value)
    }

    /// See [`HookedHeap::store_untracked`].
    #[inline]
    pub fn store_untracked(&self, loc: Addr, value: u64) -> Result<(), MemFault> {
        self.hooked.store_untracked(loc, value)
    }

    /// See [`HookedHeap::load`].
    #[inline]
    pub fn load(&self, loc: Addr) -> Result<u64, MemFault> {
        self.hooked.load(loc)
    }

    /// Grants access to the free info of a pending free without freeing —
    /// used by tests.
    pub fn resolve_free(&self, addr: Addr) -> Result<FreeInfo, AllocError> {
        self.hooked.heap.resolve_free(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NullDetector;
    use crate::config::Config;
    use crate::detector::DangSan;
    use dangsan_vmem::{FaultKind, INVALID_BIT};

    fn setup_dangsan() -> (Arc<AddressSpace>, HookedHeap<DangSan>) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSan::new(Arc::clone(&mem), Config::default());
        (mem.clone(), HookedHeap::new(heap, det))
    }

    #[test]
    fn end_to_end_use_after_free_detection() {
        let (_, hh) = setup_dangsan();
        let obj = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        let report = hh.free(obj.base).unwrap();
        assert_eq!(report.invalidated, 1);
        // The program loads the dangling pointer and dereferences it.
        let dangling = hh.load(holder.base).unwrap();
        assert_eq!(dangling, obj.base | INVALID_BIT);
        let fault = hh.load(dangling).unwrap_err();
        assert_eq!(fault.kind, FaultKind::NonCanonical);
        assert_eq!(fault.original_addr(), obj.base);
    }

    #[test]
    fn free_of_dangling_pointer_reports_invalid() {
        let (_, hh) = setup_dangsan();
        let obj = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        hh.free(obj.base).unwrap();
        // Double free through the (invalidated) dangling pointer: the
        // allocator aborts, as tcmalloc does in the paper's OpenSSL demo.
        let dangling = hh.load(holder.base).unwrap();
        assert_eq!(hh.free(dangling), Err(AllocError::InvalidPointer(dangling)));
    }

    #[test]
    fn realloc_in_place_keeps_pointers_valid() {
        let (_, hh) = setup_dangsan();
        let obj = hh.malloc(16).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        let (new, report) = hh.realloc(obj.base, obj.usable).unwrap();
        assert_eq!(new.base, obj.base);
        assert_eq!(report, InvalidationReport::default());
        assert_eq!(hh.load(holder.base).unwrap(), obj.base, "still valid");
        hh.free(obj.base).unwrap();
    }

    #[test]
    fn realloc_move_invalidates_old_pointers() {
        let (_, hh) = setup_dangsan();
        let obj = hh.malloc(16).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        hh.store_untracked(obj.base, 0xFEED).unwrap();
        let (new, report) = hh.realloc(obj.base, 5000).unwrap();
        assert_ne!(new.base, obj.base);
        assert_eq!(report.invalidated, 1);
        assert_eq!(hh.load(new.base).unwrap(), 0xFEED, "contents copied");
        assert_eq!(
            hh.load(holder.base).unwrap(),
            obj.base | INVALID_BIT,
            "old pointer neutralised"
        );
        hh.free(new.base).unwrap();
    }

    #[test]
    fn realloc_to_zero_shrinks_in_place_and_free_still_invalidates() {
        // realloc(p, 0) stays in place (0 <= usable always); the object
        // survives with an inclusive end of `base + 0`, so a registered
        // base pointer is still invalidated by the eventual free while a
        // registered interior pointer is now out of range and resolves
        // as stale — the documented shrink semantics every arm shares.
        let (_, hh) = setup_dangsan();
        let obj = hh.malloc(32).unwrap();
        let at_base = hh.malloc(8).unwrap();
        let interior = hh.malloc(8).unwrap();
        hh.store_ptr(at_base.base, obj.base).unwrap();
        hh.store_ptr(interior.base, obj.base + 8).unwrap();
        let (new, report) = hh.realloc(obj.base, 0).unwrap();
        assert_eq!(new.base, obj.base, "size-0 realloc must not move");
        assert_eq!(report, InvalidationReport::default());
        assert_eq!(hh.load(at_base.base).unwrap(), obj.base, "still raw");
        let report = hh.free(obj.base).unwrap();
        assert_eq!((report.invalidated, report.stale), (1, 1));
        assert_eq!(hh.load(at_base.base).unwrap(), obj.base | INVALID_BIT);
        assert_eq!(
            hh.load(interior.base).unwrap(),
            obj.base + 8,
            "interior pointer beyond the shrunk end is stale, not masked"
        );
    }

    #[test]
    fn realloc_of_a_thin_routed_object_keeps_detection_exact() {
        // A Thin-routed object that takes a registered pointer promotes
        // on the spot; a subsequent realloc that moves the block must
        // still invalidate the old pointer through the move's free.
        let hh = setup_with(
            Config::default()
                .with_site_policy(true)
                .with_thin_min_frees(1),
        );
        dangsan_trace::set_alloc_site(0x77);
        let warm = hh.malloc(24).unwrap();
        hh.free(warm.base).unwrap(); // clean free: the site earns Thin
        let obj = hh.malloc(24).unwrap();
        assert!(
            hh.detector().stats().routed_thin >= 1,
            "warm clean site never routed Thin"
        );
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        let (new, report) = hh.realloc(obj.base, 5000).unwrap();
        assert_ne!(new.base, obj.base, "5000 bytes cannot grow in place");
        assert_eq!(report.invalidated, 1, "promotion lost the dangling ptr");
        assert_eq!(hh.load(holder.base).unwrap(), obj.base | INVALID_BIT);
        assert!(hh.detector().stats().thin_promotions >= 1);
        hh.free(new.base).unwrap();
        dangsan_trace::set_alloc_site(0);
    }

    #[test]
    fn grown_in_place_realloc_keeps_warm_caches_coherent() {
        // malloc(40) carves from the 48-byte class, so growing to
        // `usable` (47) stays in place and widens the object's inclusive
        // end. The first store warms the per-thread epoch caches for
        // this object; the post-realloc store into the *grown tail* (a
        // value in range only after the realloc) rides those warm caches
        // and must still land in the log — the free masks both.
        let (_, hh) = setup_dangsan();
        let obj = hh.malloc(40).unwrap();
        assert!(obj.usable > 40, "class stride leaves room to grow");
        let h1 = hh.malloc(8).unwrap();
        let h2 = hh.malloc(8).unwrap();
        hh.store_ptr(h1.base, obj.base).unwrap();
        let (new, _) = hh.realloc(obj.base, obj.usable).unwrap();
        assert_eq!(new.base, obj.base, "grows within the stride");
        let tail = obj.base + obj.usable; // in range only post-realloc
        hh.store_ptr(h2.base, tail).unwrap();
        let report = hh.free(obj.base).unwrap();
        assert_eq!(report.invalidated, 2, "grown-tail pointer was dropped");
        assert_eq!(hh.load(h1.base).unwrap(), obj.base | INVALID_BIT);
        assert_eq!(hh.load(h2.base).unwrap(), tail | INVALID_BIT);
    }

    #[test]
    fn thread_handles_work_end_to_end() {
        let (_, hh) = setup_dangsan();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let hh = hh.clone();
            handles.push(std::thread::spawn(move || {
                let mut th = hh.thread_handle();
                for _ in 0..500 {
                    let obj = th.malloc(32).unwrap();
                    let holder = th.malloc(8).unwrap();
                    th.store_ptr(holder.base, obj.base).unwrap();
                    let r = th.free(obj.base).unwrap();
                    assert_eq!(r.invalidated, 1);
                    th.free(holder.base).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = hh.detector().stats();
        assert_eq!(s.ptrs_invalidated, 4 * 500);
    }

    #[test]
    fn hot_counters_exact_across_thread_cached_heap() {
        // The detector's per-op counters must be exact after a join no
        // matter which allocator path served the traffic: stats are
        // bumped per operation, never per magazine batch.
        for cached in [true, false] {
            let (_, hh) = setup_dangsan();
            hh.heap().set_thread_cached(cached);
            const THREADS: u64 = 4;
            const ROUNDS: u64 = 400;
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                let hh = hh.clone();
                handles.push(std::thread::spawn(move || {
                    let mut th = hh.thread_handle();
                    for _ in 0..ROUNDS {
                        let obj = th.malloc(32).unwrap();
                        let holder = th.malloc(8).unwrap();
                        th.store_ptr(holder.base, obj.base).unwrap();
                        th.free(obj.base).unwrap();
                        th.free(holder.base).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let s = hh.detector().stats();
            assert_eq!(s.objects_allocated, THREADS * ROUNDS * 2, "cached={cached}");
            assert_eq!(s.objects_freed, THREADS * ROUNDS * 2, "cached={cached}");
            assert_eq!(s.ptrs_registered, THREADS * ROUNDS, "cached={cached}");
            assert_eq!(s.ptrs_invalidated, THREADS * ROUNDS, "cached={cached}");
            let heap = hh.heap();
            assert_eq!(
                heap.stats
                    .mallocs
                    .load(core::sync::atomic::Ordering::Relaxed),
                THREADS * ROUNDS * 2
            );
            assert_eq!(heap.magazine_blocks(), 0, "joined threads drained");
        }
    }

    /// Helper-thread count for the deferred arms of the sweep tests. The
    /// CI matrix exports `SWEEP_THREADS` (0 and 2) so both drain-driven
    /// and helper-driven sweeping get exercised; locally the default
    /// matches the committed configuration.
    fn matrix_sweep_threads() -> usize {
        std::env::var("SWEEP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(2)
    }

    /// Site-policy arm for the counter-equivalence tests. The CI matrix
    /// exports `SITE_POLICY` (0 and 1) so the bit-exactness claims get
    /// checked with adaptive routing both off and on; locally the default
    /// matches the committed (off) configuration.
    fn matrix_site_policy(cfg: Config) -> Config {
        match std::env::var("SITE_POLICY").ok().as_deref().map(str::trim) {
            Some("1") | Some("on") => cfg.with_site_policy(true).with_thin_min_frees(4),
            _ => cfg,
        }
    }

    fn setup_with(cfg: Config) -> HookedHeap<DangSan> {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSan::new(Arc::clone(&mem), cfg);
        HookedHeap::new(heap, det)
    }

    /// A scripted malloc/store/free mix with size variety; returns the
    /// drained behavioural counters so the deferred modes can be checked
    /// for bit-exactness against the inline walk.
    fn run_sequence(cfg: Config) -> crate::stats::StatsSnapshot {
        let hh = setup_with(cfg);
        // Every round logs *fresh* slots: classification then depends
        // only on the location set, not on when the walk runs, which is
        // what makes the three modes comparable bit for bit. (A slot
        // overwritten mid-quarantine legitimately flips invalidated →
        // stale depending on sweep timing; that nondeterminism is the
        // documented deferred-mode semantics, not a counter bug.)
        let holders = hh.malloc(8 * 256).unwrap();
        let mut slot = 0u64;
        for round in 0..50u64 {
            let obj = hh.malloc(16 + (round % 7) * 24).unwrap();
            for s in 0..(1 + round % 5) {
                let loc = holders.base + slot * 8;
                slot += 1;
                hh.store_ptr(loc, obj.base + (s % 2) * 8).unwrap();
            }
            hh.free(obj.base).unwrap();
        }
        hh.detector().drain();
        hh.detector().stats().behavioural()
    }

    #[test]
    fn deferred_sweep_counters_are_bit_exact_after_drain() {
        // The same program must produce identical Table 1 counters
        // whether the free walk runs inline, deferred on the freeing
        // thread (zero helpers), or on helper threads — the sweep moves
        // work in time and across threads, never changes it.
        let inline = run_sequence(matrix_site_policy(Config::default()));
        let helped = run_sequence(matrix_site_policy(
            Config::default()
                .with_deferred_sweep(true)
                .with_sweep_threads(matrix_sweep_threads()),
        ));
        let solo = run_sequence(matrix_site_policy(
            Config::default()
                .with_deferred_sweep(true)
                .with_sweep_threads(0),
        ));
        assert_eq!(inline, helped, "helper-thread sweep diverged");
        assert_eq!(inline, solo, "drain-driven sweep diverged");
    }

    #[test]
    fn quarantined_block_is_not_recarved_before_its_sweep_runs() {
        // The ABA guarantee: with zero helpers nothing sweeps until the
        // drain, so a freed block's address must not come back from
        // malloc while its sweep is pending — and must come back after.
        let hh = setup_with(
            Config::default()
                .with_deferred_sweep(true)
                .with_sweep_threads(0),
        );
        hh.heap().set_thread_cached(false);
        let holder = hh.malloc(8).unwrap();
        let obj = hh.malloc(48).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        assert_eq!(hh.free(obj.base).unwrap(), InvalidationReport::default());
        // The stale pointer still reads back un-invalidated: the sweep
        // has not run. The block being quarantined is what keeps that
        // window sound.
        assert_eq!(hh.load(holder.base).unwrap(), obj.base);
        let mut recarved = Vec::new();
        for _ in 0..64 {
            let a = hh.malloc(48).unwrap();
            assert_ne!(a.base, obj.base, "quarantined block recarved");
            recarved.push(a.base);
        }
        for a in recarved {
            hh.free(a).unwrap();
        }
        hh.detector().drain();
        // Drained: the pointer is now masked and the block circulates.
        assert_eq!(hh.load(holder.base).unwrap(), obj.base | INVALID_BIT);
        let reused = (0..10_000).any(|_| hh.malloc(48).unwrap().base == obj.base);
        assert!(reused, "block never came back after its sweep retired");
    }

    #[test]
    fn no_stale_pointer_escapes_the_quarantine_window() {
        // Cross-thread stress: threads churn malloc/store/free with the
        // sweep racing them on helpers, under caps small enough to trip
        // backpressure. At every point after a free the slot may hold
        // the raw or the masked pointer but never anything else (a sweep
        // of one object must not clobber another's pointers), and after
        // the final drain every last-stored pointer is masked.
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 300;
        let hh = setup_with(
            Config::default()
                .with_deferred_sweep(true)
                .with_sweep_threads(matrix_sweep_threads())
                .with_quarantine_caps(4 << 10, 16),
        );
        let slots = hh.malloc(8 * THREADS).unwrap();
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let hh = hh.clone();
            let slot = slots.base + t * 8;
            handles.push(std::thread::spawn(move || {
                let mut th = hh.thread_handle();
                let mut last = 0u64;
                for round in 0..ROUNDS {
                    let obj = th.malloc(16 + (round % 4) * 16).unwrap();
                    th.store_ptr(slot, obj.base).unwrap();
                    th.free(obj.base).unwrap();
                    let seen = hh.mem().read_word(slot).unwrap();
                    assert_eq!(
                        seen & !INVALID_BIT,
                        obj.base,
                        "slot holds neither the raw nor the masked pointer"
                    );
                    last = obj.base;
                }
                last
            }));
        }
        let lasts: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        hh.detector().drain();
        for (t, last) in lasts.iter().enumerate() {
            assert_eq!(
                hh.mem().read_word(slots.base + t as u64 * 8).unwrap(),
                last | INVALID_BIT,
                "thread {t}: final pointer escaped invalidation"
            );
        }
        let s = hh.detector().stats();
        assert_eq!(s.frees_deferred, THREADS * ROUNDS);
        assert!(
            s.sweeps_backpressure > 0,
            "16-object cap never tripped over {} frees",
            THREADS * ROUNDS
        );
    }

    #[test]
    fn giant_sweeps_split_page_wise_and_stay_exact() {
        // Locations spread across more than SPLIT_PAGES vmem pages force
        // the object's sweep to split into parts; the accumulated
        // outcome must equal the inline walk's.
        const PAGES: u64 = 20;
        let run = |deferred: bool| {
            let cfg = if deferred {
                Config::default()
                    .with_deferred_sweep(true)
                    .with_sweep_threads(0)
            } else {
                Config::default()
            };
            let hh = setup_with(cfg);
            let holders = hh.malloc(PAGES * 4096).unwrap();
            let obj = hh.malloc(128).unwrap();
            for p in 0..PAGES {
                for s in 0..3u64 {
                    hh.store_ptr(holders.base + p * 4096 + s * 8, obj.base + s * 8)
                        .unwrap();
                }
            }
            hh.free(obj.base).unwrap();
            hh.detector().drain();
            for p in 0..PAGES {
                for s in 0..3u64 {
                    assert_eq!(
                        hh.load(holders.base + p * 4096 + s * 8).unwrap(),
                        (obj.base + s * 8) | INVALID_BIT,
                        "deferred={deferred} p={p} s={s}"
                    );
                }
            }
            hh.detector().stats()
        };
        let inline = run(false);
        let deferred = run(true);
        assert_eq!(inline.behavioural(), deferred.behavioural());
        assert_eq!(inline.sweep_splits, 0);
        assert!(
            deferred.sweep_splits >= 1,
            "a {PAGES}-page walk must split: {deferred:?}"
        );
        assert!(
            deferred.free_pages_touched >= PAGES,
            "one page run per holder page: {deferred:?}"
        );
    }

    /// A two-site mix for the routing tests: site `0xA1` churns
    /// pointer-free allocations (eligible for Thin once warm) while site
    /// `0xB2` allocates objects that always take an inbound pointer (and
    /// so must stay fully tracked).
    ///
    /// Afterwards it mallocs twice as many blocks as it freed and checks
    /// every base is distinct: a free whose retire requeued a block the
    /// heap never quarantined (synchronous mode, where the heap frees
    /// the block itself after `on_free`) would put it on two free lists.
    fn run_routed_sequence(cfg: Config) -> crate::stats::StatsSnapshot {
        let hh = setup_with(cfg);
        dangsan_trace::set_alloc_site(0);
        let holders = hh.malloc(8 * 64).unwrap();
        for round in 0..40u64 {
            dangsan_trace::set_alloc_site(0xA1);
            for _ in 0..3 {
                let o = hh.malloc(24).unwrap();
                hh.free(o.base).unwrap();
            }
            dangsan_trace::set_alloc_site(0xB2);
            let obj = hh.malloc(16 + (round % 5) * 16).unwrap();
            let loc = holders.base + round * 8;
            hh.store_ptr(loc, obj.base).unwrap();
            hh.free(obj.base).unwrap();
        }
        dangsan_trace::set_alloc_site(0);
        hh.detector().drain();
        let stats = hh.detector().stats().behavioural();
        let mut bases = std::collections::HashSet::from([holders.base]);
        for round in 0..80u64 {
            for size in [24, 24, 24, 16 + (round % 5) * 16] {
                let base = hh.malloc(size).unwrap().base;
                assert!(bases.insert(base), "block {base:#x} handed out twice");
            }
        }
        stats
    }

    #[test]
    fn adaptive_routing_keeps_behavioural_counters_bit_exact() {
        // Routing may only move work, never change what the program
        // observes: the same two-site mix must produce identical Table 1
        // counters with the policy off and with it on (thin_min_frees=1
        // so the clean site actually goes Thin), inline and deferred.
        for deferred in [false, true] {
            let base = if deferred {
                Config::default()
                    .with_deferred_sweep(true)
                    .with_sweep_threads(0)
            } else {
                Config::default()
            };
            let off = run_routed_sequence(base);
            let on = run_routed_sequence(base.with_site_policy(true).with_thin_min_frees(1));
            assert_eq!(
                off, on,
                "deferred={deferred}: routing changed observable counters"
            );
        }
    }

    #[test]
    fn clean_site_earns_thin_and_contradiction_promotes() {
        let hh = setup_with(
            Config::default()
                .with_site_policy(true)
                .with_thin_min_frees(2),
        );
        dangsan_trace::set_alloc_site(0x51);
        for _ in 0..4 {
            let o = hh.malloc(32).unwrap();
            hh.free(o.base).unwrap();
        }
        let s = hh.detector().stats();
        assert!(s.routed_thin >= 1, "warm clean site never routed Thin");
        assert!(s.frees_thin >= 1, "Thin object took the full free path");
        // Contradiction: a pointer is registered against a Thin-routed
        // object. The registration must promote the object on the spot —
        // the free still invalidates the dangling pointer.
        let holder = hh.malloc(8).unwrap();
        let obj = hh.malloc(32).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        let report = hh.free(obj.base).unwrap();
        assert_eq!(report.invalidated, 1, "promotion lost the dangling ptr");
        let s = hh.detector().stats();
        assert!(s.thin_promotions >= 1, "no promotion recorded");
        assert!(s.site_demotions >= 1, "no site demotion recorded");
        // The demotion is permanent: the site routes Standard from now on.
        use crate::policy::Tier;
        let policy = hh.detector().site_policy().unwrap();
        assert_eq!(policy.route(0x51), Tier::Standard);
        dangsan_trace::set_alloc_site(0);
    }

    #[test]
    fn hardened_site_pins_swept_blocks_and_drain_flushes_them() {
        let hh = setup_with(
            Config::default()
                .with_site_policy(true)
                .with_deferred_sweep(true)
                .with_sweep_threads(0)
                .with_hardened_pins(8),
        );
        hh.heap().set_thread_cached(false);
        dangsan_trace::set_alloc_site(0x91);
        // Forensics hands prior UAF evidence to the profile table; every
        // later allocation at the site routes Hardened.
        hh.detector().site_policy().unwrap().note_uaf(0x91);
        let obj = hh.malloc(48).unwrap();
        hh.free(obj.base).unwrap();
        hh.detector().drain();
        let s = hh.detector().stats();
        assert!(s.routed_hardened >= 1, "UAF history did not harden site");
        assert!(s.hardened_pins >= 1, "swept block was never pinned");
        // The drain flushed the pin FIFO: the block circulates again.
        let reused = (0..10_000).any(|_| hh.malloc(48).unwrap().base == obj.base);
        assert!(reused, "pinned block never returned after drain");
        dangsan_trace::set_alloc_site(0);
    }

    #[test]
    fn null_detector_heap_has_no_protection() {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let hh = HookedHeap::new(heap, Arc::new(NullDetector));
        let obj = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        hh.free(obj.base).unwrap();
        // The dangling pointer silently dereferences: this is the
        // unprotected baseline (and the vulnerability).
        let dangling = hh.load(holder.base).unwrap();
        assert_eq!(dangling, obj.base);
        assert!(hh.load(dangling).is_ok());
    }
}
