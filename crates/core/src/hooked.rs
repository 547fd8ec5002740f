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

use std::marker::PhantomData;
use std::sync::Arc;

use dangsan_heap::{AllocError, Allocation, Heap, ReallocOutcome};
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

    /// Creates a per-thread handle for a worker thread.
    pub fn thread_handle(&self) -> HookedThread<D> {
        HookedThread {
            hooked: self.clone(),
            _not_send: PhantomData,
        }
    }
}

/// Per-thread view of a [`HookedHeap`]: the same hooks on the same heap,
/// whose malloc/free already serve the calling thread from its TLS
/// magazines. Dropping the handle flushes this thread's magazines back
/// to the central lists. Neither `Send` nor `Sync`: create one per
/// worker, on that worker.
pub struct HookedThread<D: Detector + ?Sized> {
    hooked: HookedHeap<D>,
    // The magazines the drop flushes belong to the creating thread.
    _not_send: PhantomData<*const ()>,
}

impl<D: Detector + ?Sized> HookedThread<D> {
    /// The shared hooked heap.
    pub fn shared(&self) -> &HookedHeap<D> {
        &self.hooked
    }

    /// See [`HookedHeap::malloc`].
    pub fn malloc(&mut self, size: u64) -> Result<Allocation, AllocError> {
        self.hooked.malloc(size)
    }

    /// See [`HookedHeap::free`].
    pub fn free(&mut self, addr: Addr) -> Result<InvalidationReport, AllocError> {
        self.hooked.free(addr)
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
}

impl<D: Detector + ?Sized> Drop for HookedThread<D> {
    fn drop(&mut self) {
        self.hooked.heap.flush_thread_cache();
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
        // matter which allocator path served the traffic or where the
        // sweeps ran: stats are counted per operation, never per magazine
        // batch, on per-thread slabs a reader ordered after the join sees
        // in full.
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 400;
        // No helpers, and caps small enough that the mutators run
        // backpressure drains.
        let deferred = Config::default()
            .with_deferred_sweep(true)
            .with_sweep_threads(0)
            .with_quarantine_caps(4 << 10, 16);
        for (cfg, cached) in [
            (Config::default(), true),
            (Config::default(), false),
            (deferred, true),
        ] {
            let arm = format!("cached={cached} deferred={}", cfg.deferred_sweep);
            let hh = setup_with(cfg);
            hh.heap().set_thread_cached(cached);
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
            hh.detector().drain();
            let s = hh.detector().stats();
            assert_eq!(s.objects_allocated, THREADS * ROUNDS * 2, "{arm}");
            assert_eq!(s.objects_freed, THREADS * ROUNDS * 2, "{arm}");
            assert_eq!(s.ptrs_registered, THREADS * ROUNDS, "{arm}");
            // One registration per object, into a fresh lifetime: each
            // object gets exactly one log.
            assert_eq!(s.logs_created, THREADS * ROUNDS, "{arm}");
            if cfg.deferred_sweep {
                assert_eq!(s.frees_deferred, THREADS * ROUNDS * 2, "{arm}");
                assert!(s.sweeps_backpressure > 0, "{arm}: {s:?}");
                // A holder recycled before its object's sweep ran can
                // turn the hit stale (the documented deferred timing).
                assert_eq!(s.ptrs_invalidated + s.stale_ptrs, THREADS * ROUNDS, "{arm}");
            } else {
                assert_eq!(s.ptrs_invalidated, THREADS * ROUNDS, "{arm}");
                // The drain above requeues into the main thread's
                // magazine, so only the inline arms end with none cached.
                assert_eq!(hh.heap().magazine_blocks(), 0, "joined threads drained");
            }
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
        let inline = run_sequence(Config::default());
        for helpers in [0, 2] {
            let deferred = run_sequence(
                Config::default()
                    .with_deferred_sweep(true)
                    .with_sweep_threads(helpers),
            );
            assert_eq!(
                inline, deferred,
                "deferred sweep diverged: {helpers} helpers"
            );
        }
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
        for helpers in [0, 2] {
            let hh = setup_with(
                Config::default()
                    .with_deferred_sweep(true)
                    .with_sweep_threads(helpers)
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
                    "thread {t}, {helpers} helpers: final pointer escaped invalidation"
                );
            }
            let s = hh.detector().stats();
            assert_eq!(s.frees_deferred, THREADS * ROUNDS, "{helpers} helpers");
            assert!(
                s.sweeps_backpressure > 0,
                "16-object cap never tripped over {} frees with {helpers} helpers",
                THREADS * ROUNDS
            );
        }
    }

    #[test]
    fn giant_deferred_sweeps_stay_exact() {
        // One object with locations on 20 vmem pages: its deferred sweep,
        // run by the draining thread or by a helper, must equal the
        // inline walk.
        const PAGES: u64 = 20;
        let run = |cfg: Config| {
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
                        "{cfg:?} p={p} s={s}"
                    );
                }
            }
            hh.detector().stats()
        };
        let inline = run(Config::default());
        for helpers in [0, 2] {
            let deferred = run(Config::default()
                .with_deferred_sweep(true)
                .with_sweep_threads(helpers));
            assert_eq!(
                inline.behavioural(),
                deferred.behavioural(),
                "{helpers} helpers"
            );
            assert!(
                deferred.free_pages_touched >= PAGES,
                "one page run per holder page: {deferred:?}"
            );
        }
    }

    /// A churn mix: pointer-free allocations freed at once, interleaved
    /// with objects that always take an inbound pointer before their free.
    ///
    /// Afterwards it mallocs twice as many blocks as it freed and checks
    /// every base is distinct: a free whose retire requeued a block the
    /// heap never quarantined (synchronous mode, where the heap frees
    /// the block itself after `on_free`) would put it on two free lists.
    fn run_churn_sequence(cfg: Config) -> crate::stats::StatsSnapshot {
        let hh = setup_with(cfg);
        let holders = hh.malloc(8 * 64).unwrap();
        for round in 0..40u64 {
            for _ in 0..3 {
                let o = hh.malloc(24).unwrap();
                hh.free(o.base).unwrap();
            }
            let obj = hh.malloc(16 + (round % 5) * 16).unwrap();
            let loc = holders.base + round * 8;
            hh.store_ptr(loc, obj.base).unwrap();
            hh.free(obj.base).unwrap();
        }
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
    fn no_block_is_handed_out_twice_after_inline_or_deferred_frees() {
        // The same churn mix must leave every block circulating exactly
        // once and produce identical Table 1 counters whether its frees
        // sweep inline or deferred (zero helpers, then a drain).
        let inline = run_churn_sequence(Config::default());
        let deferred = run_churn_sequence(
            Config::default()
                .with_deferred_sweep(true)
                .with_sweep_threads(0),
        );
        assert_eq!(
            inline, deferred,
            "deferred frees changed observable counters"
        );
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
