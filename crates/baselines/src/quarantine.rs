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
//! [`QuarantineDetector`] is that defence as a detector arm: a FIFO
//! quarantine of configurable capacity in front of the tcmalloc-style
//! heap. Tests in this module demonstrate both sides: accidental reuse is
//! prevented, deliberate massaging defeats it.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use dangsan::{bind_once, Counter, Detector, InvalidationReport, Stats, StatsSnapshot};
use dangsan_heap::{Allocation, Heap};
use dangsan_vmem::Addr;

/// The quarantine defence as a [`Detector`] arm, so the differential
/// fuzzer can run it through the same hooked heap as every tracker.
///
/// Semantics: no pointer tracking and no invalidation at all —
/// `defers_free` makes the hooked heap quarantine each freed block (second
/// frees are caught by the allocator's liveness bit), the detector parks
/// it in a FIFO, and once more than `capacity` blocks are parked the
/// oldest goes back to the allocator. [`Detector::drain`] hands every
/// parked block back. With a capacity no run reaches, a program under
/// this arm behaves exactly like the "delay reuse, detect nothing" class
/// the paper's §9 argues against.
pub struct QuarantineDetector {
    heap: OnceLock<Arc<Heap>>,
    parked: Mutex<VecDeque<Addr>>,
    capacity: usize,
    stats: Stats,
}

impl QuarantineDetector {
    /// Creates the detector with a quarantine of up to `capacity` blocks;
    /// the heap arrives via [`Detector::bind_heap`].
    pub fn new(capacity: usize) -> Arc<QuarantineDetector> {
        Arc::new(QuarantineDetector {
            heap: OnceLock::new(),
            parked: Mutex::new(VecDeque::new()),
            capacity,
            stats: Stats::default(),
        })
    }

    /// Returns `addrs`, blocks the hooked heap quarantined, to the
    /// allocator.
    fn release(&self, addrs: &[Addr]) {
        if addrs.is_empty() {
            return;
        }
        if let Some(heap) = self.heap.get() {
            heap.requeue_batch(addrs);
        }
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
        // The hooked heap already quarantined the block; park it, and age
        // the oldest out once the quarantine is over capacity.
        let aged_out = {
            let mut parked = self.parked.lock().expect("not poisoned");
            parked.push_back(base);
            if parked.len() > self.capacity {
                parked.pop_front()
            } else {
                None
            }
        };
        self.release(aged_out.as_slice());
        self.stats.bump(&[Counter::ObjectsFreed]);
        InvalidationReport::default()
    }

    fn on_realloc_in_place(&self, _base: Addr, _new_size: u64) {}

    fn register_ptr(&self, _loc: Addr, _value: u64) {}

    fn defers_free(&self) -> bool {
        true
    }

    fn drain(&self) {
        let addrs: Vec<Addr> = self
            .parked
            .lock()
            .expect("not poisoned")
            .drain(..)
            .collect();
        self.release(&addrs);
    }

    fn bind_heap(&self, heap: &Arc<Heap>) {
        bind_once(&self.heap, heap);
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn metadata_bytes(&self) -> u64 {
        (self.parked.lock().expect("not poisoned").len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan::HookedHeap;
    use dangsan_heap::AllocError;
    use dangsan_vmem::AddressSpace;

    fn setup(capacity: usize) -> (Arc<AddressSpace>, HookedHeap<QuarantineDetector>) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        (
            mem,
            HookedHeap::new(heap, QuarantineDetector::new(capacity)),
        )
    }

    /// Blocks parked in `hh`'s quarantine (8 metadata bytes each).
    fn parked(hh: &HookedHeap<QuarantineDetector>) -> u64 {
        hh.detector().metadata_bytes() / 8
    }

    /// Mallocs `size`-byte blocks until every block of `want` has come
    /// back, within a bound; `true` if all did.
    fn all_reused(hh: &HookedHeap<QuarantineDetector>, size: u64, want: &[Addr]) -> bool {
        let mut left: Vec<Addr> = want.to_vec();
        for _ in 0..4096 {
            let b = hh.malloc(size).unwrap().base;
            left.retain(|&a| a != b);
            if left.is_empty() {
                return true;
            }
        }
        false
    }

    #[test]
    fn accidental_reuse_is_prevented() {
        let (mem, hh) = setup(64);
        let a = hh.malloc(48).unwrap();
        mem.write_word(a.base, 0x5EC2E7).unwrap();
        hh.free(a.base).unwrap();
        // An innocent allocation of the same size does NOT reuse the slot.
        let b = hh.malloc(48).unwrap();
        assert_ne!(b.base, a.base, "quarantine blocks immediate reuse");
        // The dangling pointer still reads the stale (not attacker) data —
        // a silent bug, but not an exploitable aliasing.
        assert_eq!(mem.read_word(a.base).unwrap(), 0x5EC2E7);
    }

    #[test]
    fn double_free_of_quarantined_object_detected() {
        let (_, hh) = setup(64);
        let a = hh.malloc(48).unwrap();
        hh.free(a.base).unwrap();
        assert_eq!(hh.free(a.base), Err(AllocError::DoubleFree(a.base)));
        assert_eq!(parked(&hh), 1, "the rejected free parks nothing");
    }

    #[test]
    fn heap_massaging_defeats_the_quarantine() {
        // The paper's §9 argument, demonstrated: the attacker frees the
        // victim, then drains the (bounded) quarantine with allocate/free
        // churn until the victim's slot is recycled into an
        // attacker-controlled object.
        let capacity = 16;
        let (mem, hh) = setup(capacity);
        let victim = hh.malloc(48).unwrap();
        mem.write_word(victim.base, 0x5EC2E7).unwrap(); // "secret"
        hh.free(victim.base).unwrap();

        // Massage: push `capacity` more frees through so the victim ages
        // out, then spray same-sized allocations.
        let mut churn = Vec::new();
        for _ in 0..capacity + 1 {
            churn.push(hh.malloc(48).unwrap().base);
        }
        for c in churn {
            hh.free(c).unwrap();
        }
        let mut aliased = None;
        for _ in 0..capacity + 8 {
            let s = hh.malloc(48).unwrap();
            mem.write_word(s.base, 0x41414141).unwrap();
            if s.base == victim.base {
                aliased = Some(s.base);
                break;
            }
        }
        let aliased = aliased.expect("massaging recycled the victim slot");
        // The dangling pointer now reads attacker-controlled data: the
        // exploit the quarantine was supposed to prevent.
        assert_eq!(mem.read_word(aliased).unwrap(), 0x41414141);
        assert_eq!(mem.read_word(victim.base).unwrap(), 0x41414141);
    }

    #[test]
    fn aged_out_block_is_recycled_and_guarded_again() {
        // Once `a` ages out of the FIFO, the heap recycles its slot;
        // freeing the recycled block must succeed (the quarantine holds
        // no stale claim on it), and the re-parked incarnation is guarded
        // again.
        let capacity = 2;
        let (_, hh) = setup(capacity);
        let a = hh.malloc(32).unwrap().base;
        hh.free(a).unwrap();
        let mut reparked = false;
        for _ in 0..capacity + 8 {
            let x = hh.malloc(32).unwrap().base;
            hh.free(x)
                .unwrap_or_else(|e| panic!("recycled block refused: {e:?}"));
            if x == a {
                reparked = true;
                break;
            }
        }
        assert!(reparked, "aged-out slot was never recycled");
        assert_eq!(hh.free(a), Err(AllocError::DoubleFree(a)));
        assert_eq!(parked(&hh), capacity as u64);
    }

    #[test]
    fn drain_releases_everything() {
        let (mem, hh) = setup(8);
        let objs: Vec<Addr> = (0..5).map(|_| hh.malloc(32).unwrap().base).collect();
        for &o in &objs {
            mem.write_word(o, 0xBEEF).unwrap();
            hh.free(o).unwrap();
        }
        assert_eq!(parked(&hh), 5);
        // Parked: not reusable, second free detected, stale data readable.
        assert!(!objs.contains(&hh.malloc(32).unwrap().base));
        assert_eq!(hh.free(objs[0]), Err(AllocError::DoubleFree(objs[0])));
        assert_eq!(mem.read_word(objs[0]).unwrap(), 0xBEEF);
        hh.detector().drain();
        assert_eq!(parked(&hh), 0);
        // Every drained block re-enters circulation.
        assert!(
            all_reused(&hh, 32, &objs),
            "a drained block never came back"
        );
    }
}
