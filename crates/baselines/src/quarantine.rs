//! A secure-allocator-style defence (§9 related work: DieHard, DieHarder,
//! Cling, AddressSanitizer) and the paper's argument for why that class is
//! insufficient against deliberate attacks.
//!
//! Secure allocators do not track pointers at all; they make
//! use-after-free *unexploitable by accident* by delaying or randomising
//! the reuse of freed memory. The paper (§9, citing Lee et al.) notes the
//! flaw: a bounded quarantine can be drained by an attacker who controls
//! allocation ("heap spraying or massaging"), after which the freed slot
//! is reused and the dangling pointer aliases attacker-chosen data.
//!
//! [`QuarantineHeap`] wraps the tcmalloc-style heap with a FIFO quarantine
//! of configurable capacity. Tests in this module demonstrate both sides:
//! accidental reuse is prevented, deliberate massaging defeats it.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Weak};

use dangsan::{Counter, Detector, InvalidationReport, Stats, StatsSnapshot};
use dangsan_heap::{AllocError, Allocation, FreeInfo, Heap};
use dangsan_vmem::Addr;
use std::sync::Mutex;

/// The quarantine's FIFO plus an O(1) membership index. The two are kept
/// in lockstep under one mutex: every push, age-out pop and drain updates
/// both. The set exists because `free` must reject a double free of a
/// *parked* object, and a `VecDeque::contains` walk of the whole
/// quarantine on every free dominates at realistic capacities.
#[derive(Default)]
struct Parked {
    fifo: VecDeque<Addr>,
    members: HashSet<Addr>,
}

impl Parked {
    fn push(&mut self, addr: Addr) {
        self.fifo.push_back(addr);
        self.members.insert(addr);
    }

    fn pop_oldest(&mut self) -> Option<Addr> {
        let a = self.fifo.pop_front()?;
        self.members.remove(&a);
        Some(a)
    }
}

/// A heap whose `free` parks objects in a quarantine instead of releasing
/// them, releasing the oldest entry once the quarantine is full.
pub struct QuarantineHeap {
    heap: Arc<Heap>,
    quarantine: Mutex<Parked>,
    capacity: usize,
}

impl QuarantineHeap {
    /// Wraps `heap` with a quarantine holding up to `capacity` objects.
    pub fn new(heap: Arc<Heap>, capacity: usize) -> QuarantineHeap {
        QuarantineHeap {
            heap,
            quarantine: Mutex::new(Parked::default()),
            capacity,
        }
    }

    /// The wrapped allocator.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Allocates (no change from the plain heap).
    pub fn malloc(&self, size: u64) -> Result<Allocation, AllocError> {
        self.heap.malloc(size)
    }

    /// Quarantined free: the object is validated immediately (so double
    /// frees of quarantined objects are still caught by the caller seeing
    /// stale data rather than corruption), but its memory is only returned
    /// to the allocator when it ages out of the quarantine.
    pub fn free(&self, addr: Addr) -> Result<FreeInfo, AllocError> {
        // Validate that this is a live object without releasing it.
        let info = self.heap.resolve_free(addr)?;
        let mut q = self.quarantine.lock().expect("not poisoned");
        if q.members.contains(&addr) {
            return Err(AllocError::DoubleFree(addr));
        }
        q.push(addr);
        if q.fifo.len() > self.capacity {
            let oldest = q.pop_oldest().expect("non-empty");
            drop(q);
            self.heap.free(oldest)?;
        }
        Ok(info)
    }

    /// Number of objects currently parked.
    pub fn quarantined(&self) -> usize {
        self.quarantine.lock().expect("not poisoned").fifo.len()
    }

    /// Releases everything (process teardown).
    ///
    /// Every parked address is offered to the allocator even when one of
    /// them fails: a failing entry is re-parked (it stays owned by the
    /// quarantine rather than silently leaking), the rest keep draining,
    /// and the first error is reported after the sweep completes.
    pub fn drain(&self) -> Result<(), AllocError> {
        let drained: Vec<Addr> = {
            let mut q = self.quarantine.lock().expect("not poisoned");
            let addrs: Vec<Addr> = q.fifo.drain(..).collect();
            q.members.clear();
            addrs
        };
        let mut first_err = None;
        for a in drained {
            if let Err(e) = self.heap.free(a) {
                self.quarantine.lock().expect("not poisoned").push(a);
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The quarantine defence as a [`Detector`] arm, so the differential
/// fuzzer can run it through the same hooked heap as every tracker.
///
/// Semantics: no pointer tracking and no invalidation at all —
/// `defers_free` makes the hooked heap quarantine each freed block (second
/// frees are caught by the allocator's liveness bit), and [`Detector::drain`]
/// hands every parked block back to the allocator. With a capacity large
/// enough that nothing ages out mid-run, a program under this arm behaves
/// exactly like the "delay reuse, detect nothing" class the paper's §9
/// argues against.
pub struct QuarantineDetector {
    heap: Mutex<Weak<Heap>>,
    parked: Mutex<Parked>,
    stats: Stats,
}

impl QuarantineDetector {
    /// Creates the detector; the heap arrives via [`Detector::bind_heap`].
    pub fn new() -> Arc<QuarantineDetector> {
        Arc::new(QuarantineDetector {
            heap: Mutex::new(Weak::new()),
            parked: Mutex::new(Parked::default()),
            stats: Stats::default(),
        })
    }
}

impl Detector for QuarantineDetector {
    fn name(&self) -> &'static str {
        "quarantine"
    }

    fn on_alloc(&self, _alloc: &Allocation) {
        self.stats.bump(&[Counter::ObjectsAllocated]);
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        // The hooked heap already quarantined the block; remember it so
        // drain can retire it.
        self.parked.lock().expect("not poisoned").push(base);
        self.stats.bump(&[Counter::ObjectsFreed]);
        InvalidationReport::default()
    }

    fn on_realloc_in_place(&self, _base: Addr, _new_size: u64) {}

    fn register_ptr(&self, _loc: Addr, _value: u64) {}

    fn defers_free(&self) -> bool {
        true
    }

    fn drain(&self) {
        let addrs: Vec<Addr> = {
            let mut p = self.parked.lock().expect("not poisoned");
            let addrs: Vec<Addr> = p.fifo.drain(..).collect();
            p.members.clear();
            addrs
        };
        if addrs.is_empty() {
            return;
        }
        if let Some(heap) = self.heap.lock().expect("not poisoned").upgrade() {
            heap.requeue_batch(&addrs);
        }
    }

    fn bind_heap(&self, heap: &Arc<Heap>) {
        *self.heap.lock().expect("not poisoned") = Arc::downgrade(heap);
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn metadata_bytes(&self) -> u64 {
        let p = self.parked.lock().expect("not poisoned");
        (p.fifo.len() * 8 + p.members.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan_vmem::AddressSpace;

    fn setup(capacity: usize) -> (Arc<AddressSpace>, QuarantineHeap) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        (mem, QuarantineHeap::new(heap, capacity))
    }

    #[test]
    fn accidental_reuse_is_prevented() {
        let (mem, qh) = setup(64);
        let a = qh.malloc(48).unwrap();
        mem.write_word(a.base, 0x5EC2E7).unwrap();
        qh.free(a.base).unwrap();
        // An innocent allocation of the same size does NOT reuse the slot.
        let b = qh.malloc(48).unwrap();
        assert_ne!(b.base, a.base, "quarantine blocks immediate reuse");
        // The dangling pointer still reads the stale (not attacker) data —
        // a silent bug, but not an exploitable aliasing.
        assert_eq!(mem.read_word(a.base).unwrap(), 0x5EC2E7);
    }

    #[test]
    fn double_free_of_quarantined_object_detected() {
        let (_, qh) = setup(64);
        let a = qh.malloc(48).unwrap();
        qh.free(a.base).unwrap();
        assert_eq!(qh.free(a.base), Err(AllocError::DoubleFree(a.base)));
    }

    #[test]
    fn heap_massaging_defeats_the_quarantine() {
        // The paper's §9 argument, demonstrated: the attacker frees the
        // victim, then drains the (bounded) quarantine with allocate/free
        // churn until the victim's slot is recycled into an
        // attacker-controlled object.
        let capacity = 16;
        let (mem, qh) = setup(capacity);
        let victim = qh.malloc(48).unwrap();
        mem.write_word(victim.base, 0x5EC2E7).unwrap(); // "secret"
        qh.free(victim.base).unwrap();

        // Massage: push `capacity` more frees through so the victim ages
        // out, then spray same-sized allocations.
        let mut churn = Vec::new();
        for _ in 0..capacity + 1 {
            churn.push(qh.malloc(48).unwrap().base);
        }
        for c in churn {
            qh.free(c).unwrap();
        }
        let mut sprayed = Vec::new();
        let mut aliased = None;
        for _ in 0..capacity + 8 {
            let s = qh.malloc(48).unwrap();
            mem.write_word(s.base, 0x41414141).unwrap();
            if s.base == victim.base {
                aliased = Some(s.base);
                break;
            }
            sprayed.push(s.base);
        }
        let aliased = aliased.expect("massaging recycled the victim slot");
        // The dangling pointer now reads attacker-controlled data: the
        // exploit the quarantine was supposed to prevent.
        assert_eq!(mem.read_word(aliased).unwrap(), 0x41414141);
        assert_eq!(mem.read_word(victim.base).unwrap(), 0x41414141);
    }

    #[test]
    fn drain_keeps_sweeping_past_a_failing_entry() {
        // Regression: drain used to stop at the first `heap.free` error,
        // silently dropping (never freeing, never re-parking) every entry
        // after it. Sabotage the middle entry by releasing it behind the
        // quarantine's back, then check the later entries still drain.
        let (_, qh) = setup(8);
        let a = qh.malloc(32).unwrap().base;
        let b = qh.malloc(32).unwrap().base;
        let c = qh.malloc(32).unwrap().base;
        for o in [a, b, c] {
            qh.free(o).unwrap();
        }
        qh.heap().free(b).unwrap(); // now the parked `b` is stale
        let err = qh.drain().expect_err("the stale entry must surface");
        assert!(
            matches!(err, AllocError::DoubleFree(x) if x == b),
            "{err:?}"
        );
        // `a` and `c` really drained (refreeing them errors)...
        assert!(qh.heap().free(a).is_err());
        assert!(qh.heap().free(c).is_err());
        // ...and the failing entry was re-parked, not leaked.
        assert_eq!(qh.quarantined(), 1);
    }

    #[test]
    fn membership_index_stays_in_lockstep_with_the_fifo() {
        // Age an object out, then free it again: the membership set must
        // have forgotten it (so the *allocator* sees the second free, not
        // a stale DoubleFree from the quarantine index).
        let capacity = 2;
        let (_, qh) = setup(capacity);
        let a = qh.malloc(32).unwrap().base;
        qh.free(a).unwrap();
        let mut reparked = false;
        for _ in 0..capacity + 8 {
            let x = qh.malloc(32).unwrap().base;
            // Once `a` ages out of the FIFO, the heap recycles its slot;
            // freeing the recycled block must succeed — a set that
            // forgot to evict `a` alongside the FIFO would reject it as
            // a phantom DoubleFree.
            qh.free(x)
                .unwrap_or_else(|e| panic!("index out of lockstep: {e:?}"));
            if x == a {
                reparked = true;
                break;
            }
        }
        assert!(reparked, "aged-out slot was never recycled");
        // And the re-parked incarnation is guarded again.
        assert_eq!(qh.free(a), Err(AllocError::DoubleFree(a)));
    }

    #[test]
    fn detector_arm_parks_and_drains_through_the_hooked_heap() {
        use dangsan::HookedHeap;
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = QuarantineDetector::new();
        let hh = HookedHeap::new(heap, det);
        let a = hh.malloc(48).unwrap();
        mem.write_word(a.base, 0xBEEF).unwrap();
        hh.free(a.base).unwrap();
        // Parked: not reusable, second free detected, stale data readable.
        let b = hh.malloc(48).unwrap();
        assert_ne!(b.base, a.base);
        assert_eq!(hh.free(a.base), Err(AllocError::DoubleFree(a.base)));
        assert_eq!(mem.read_word(a.base).unwrap(), 0xBEEF);
        // Drain retires the block: it can circulate again.
        hh.detector().drain();
        let mut reused = false;
        for _ in 0..64 {
            let c = hh.malloc(48).unwrap();
            if c.base == a.base {
                reused = true;
                break;
            }
        }
        assert!(reused, "drained block never re-entered circulation");
    }

    #[test]
    fn drain_releases_everything() {
        let (_, qh) = setup(8);
        let mut objs = Vec::new();
        for _ in 0..5 {
            objs.push(qh.malloc(32).unwrap().base);
        }
        for o in &objs {
            qh.free(*o).unwrap();
        }
        assert_eq!(qh.quarantined(), 5);
        qh.drain().unwrap();
        assert_eq!(qh.quarantined(), 0);
        // All objects are genuinely free now (refreeing errors).
        for o in &objs {
            assert!(qh.heap().free(*o).is_err());
        }
    }
}
