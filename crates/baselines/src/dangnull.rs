//! A DangNULL-style detector (Lee et al., "Preventing Use-after-free with
//! Dangling Pointers Nullification", NDSS 2015), reimplemented for
//! comparison.
//!
//! Faithful cost/coverage properties:
//!
//! * **Global lock on every tracked pointer store.** DangNULL keeps its
//!   shadow object tree and per-object pointer sets consistent with
//!   locking, which is the scalability bottleneck DangSan removes.
//! * **Tree-based object lookup.** Objects are found by range query in an
//!   ordered map (red-black tree in the original); lookup cost grows with
//!   the number of live objects, unlike DangSan's O(1) metapagetable.
//! * **Heap-only tracking.** Only stores whose *location* lies inside a
//!   live heap object are recorded; pointers kept on the stack or in
//!   globals are invisible (the paper's explanation for DangNULL's orders-
//!   of-magnitude smaller `# inval` in Table 1).
//! * **Nullification.** Invalidation writes a fixed invalid address
//!   instead of setting a bit, losing the original pointer bits (worse
//!   debuggability and breaks pointer rebasing, §4.4/§7).
//! * **Unregistration on overwrite.** DangNULL tracks the pointer *graph*:
//!   re-storing over a tracked location replaces its edge, so it pays for
//!   deletes on the hot path too.

use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dangsan::{Counter, Detector, InvalidationReport, Stats, StatsSnapshot};
use dangsan_heap::Allocation;
use dangsan_vmem::{Addr, AddressSpace, INVALID_BIT};
// The original locks with pthread mutexes; `std::sync::Mutex` (a futex/
// pthread wrapper) reproduces that cost, where `parking_lot` would be an
// optimization DangNULL did not have.
use std::sync::Mutex;

/// The fixed invalid value DangNULL writes over dangling pointers. Bit 63
/// makes it trap in the simulated address space like a kernel address
/// would on Linux.
pub const DANGNULL_POISON: u64 = INVALID_BIT;

struct ObjRec {
    size: u64,
    /// Locations currently believed to hold pointers into this object,
    /// kept in an ordered set — the original uses red-black trees for all
    /// of its shadow structures, which is part of its per-store cost.
    incoming: BTreeSet<Addr>,
}

#[derive(Default)]
struct State {
    /// Live objects keyed by base address (the shadow object tree).
    objects: BTreeMap<Addr, ObjRec>,
    /// Reverse edge: tracked location -> object base it points into
    /// (an rb-tree in the original).
    loc_to_obj: BTreeMap<Addr, Addr>,
}

impl State {
    /// Range query: the object containing `addr`, if any.
    fn object_containing(&self, addr: Addr) -> Option<(Addr, &ObjRec)> {
        let (base, rec) = self.objects.range(..=addr).next_back()?;
        // +1 guard semantics mirrored for a fair comparison.
        (addr <= *base + rec.size).then_some((*base, rec))
    }

    /// Removes the location's current edge; returns whether one existed.
    fn unlink(&mut self, loc: Addr) -> bool {
        if let Some(old) = self.loc_to_obj.remove(&loc) {
            if let Some(rec) = self.objects.get_mut(&old) {
                return rec.incoming.remove(&loc);
            }
        }
        false
    }
}

/// The DangNULL-style detector. Thread-safe via one global mutex, exactly
/// the property that limits its scalability.
pub struct DangNull {
    mem: Arc<AddressSpace>,
    state: Mutex<State>,
    stats: Stats,
    meta_bytes: AtomicU64,
}

impl DangNull {
    /// Creates a detector over `mem`.
    pub fn new(mem: Arc<AddressSpace>) -> Arc<DangNull> {
        Arc::new(DangNull {
            mem,
            state: Mutex::new(State::default()),
            stats: Stats::default(),
            meta_bytes: AtomicU64::new(0),
        })
    }

    fn account(&self, delta: i64) {
        if delta >= 0 {
            self.meta_bytes.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.meta_bytes
                .fetch_sub((-delta) as u64, Ordering::Relaxed);
        }
    }
}

/// Rough per-entry host costs for the memory-overhead comparison.
/// DangNULL pairs every allocation with a shadow object plus tree nodes;
/// its reported memory overhead (geomean 2.3x, with extreme outliers) is
/// dominated by this per-allocation shadow state, which we model as a
/// fixed record plus a size-proportional component.
const OBJ_COST: i64 = 128; // tree nodes + shadow record
const EDGE_COST: i64 = 64; // per-pointer shadow entries

fn obj_cost(requested: u64) -> i64 {
    OBJ_COST + (requested / 2) as i64
}

impl Detector for DangNull {
    fn name(&self) -> &'static str {
        "dangnull"
    }

    fn on_alloc(&self, alloc: &Allocation) {
        let mut st = self.state.lock().expect("not poisoned");
        st.objects.insert(
            alloc.base,
            ObjRec {
                size: alloc.requested,
                incoming: BTreeSet::new(),
            },
        );
        self.stats.bump(&[Counter::ObjectsAllocated]);
        self.account(obj_cost(alloc.requested));
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        let mut report = InvalidationReport::default();
        let mut st = self.state.lock().expect("not poisoned");
        let Some(rec) = st.objects.remove(&base) else {
            return report;
        };
        let end = base + rec.size;
        for loc in rec.incoming.iter() {
            st.loc_to_obj.remove(loc);
            match self.mem.read_word(*loc) {
                Err(_) => report.skipped_unmapped += 1,
                Ok(value) if value >= base && value <= end => {
                    // Nullify with the fixed poison value (loses bits).
                    if self.mem.write_word(*loc, DANGNULL_POISON).is_ok() {
                        report.invalidated += 1;
                    }
                }
                Ok(_) => report.stale += 1,
            }
        }
        self.account(-(obj_cost(rec.size) + rec.incoming.len() as i64 * EDGE_COST));
        self.stats.add(&[
            (Counter::ObjectsFreed, 1),
            (Counter::PtrsInvalidated, report.invalidated),
            (Counter::StalePtrs, report.stale),
            (Counter::SigsegvSkips, report.skipped_unmapped),
        ]);
        report
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        let mut st = self.state.lock().expect("not poisoned");
        if let Some(rec) = st.objects.get_mut(&base) {
            rec.size = new_size;
        }
    }

    fn register_ptr(&self, loc: Addr, value: u64) {
        // DangNULL interposes on *every* pointer store: under the global
        // lock it resolves both the stored value and the storing location
        // through its shadow object tree before deciding whether a
        // (heap, heap) edge exists. Both queries happen unconditionally —
        // this per-store floor cost is why its overhead stays high even on
        // benchmarks where it ends up tracking almost nothing (Table 1).
        let mut st = self.state.lock().expect("not poisoned");
        let target = st.object_containing(value).map(|(b, _)| b);
        let src_obj = st.object_containing(loc).map(|(b, _)| b);
        // Re-storing over a tracked location replaces its edge; the
        // reverse-edge tree is consulted on every store.
        if st.unlink(loc) {
            self.account(-EDGE_COST);
        }
        if src_obj.is_none() {
            // Location is not inside a live heap object: invisible.
            return;
        }
        let Some(target_base) = target else {
            return;
        };
        st.loc_to_obj.insert(loc, target_base);
        let fresh = st
            .objects
            .get_mut(&target_base)
            .expect("object just found")
            .incoming
            .insert(loc);
        self.stats.bump(&[Counter::PtrsRegistered]);
        if fresh {
            self.account(EDGE_COST);
        }
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn metadata_bytes(&self) -> u64 {
        self.meta_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan::HookedHeap;
    use dangsan_heap::Heap;
    use dangsan_vmem::{FaultKind, GLOBALS_BASE, PAGE_SIZE};

    fn setup() -> (Arc<AddressSpace>, HookedHeap<DangNull>) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangNull::new(Arc::clone(&mem));
        (Arc::clone(&mem), HookedHeap::new(heap, det))
    }

    #[test]
    fn heap_stored_pointer_is_nullified() {
        let (_, hh) = setup();
        let obj = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 1);
        let v = hh.load(holder.base).unwrap();
        assert_eq!(v, DANGNULL_POISON, "fixed poison, original bits lost");
        assert_eq!(hh.load(v | 8).unwrap_err().kind, FaultKind::NonCanonical);
    }

    #[test]
    fn stack_and_global_pointers_are_missed() {
        // The coverage gap vs DangSan (Table 1's tiny # inval column).
        let (mem, hh) = setup();
        mem.map(GLOBALS_BASE, PAGE_SIZE).unwrap();
        let obj = hh.malloc(48).unwrap();
        hh.store_ptr(GLOBALS_BASE, obj.base).unwrap();
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 0);
        // The dangling pointer survives intact: a false negative.
        assert_eq!(mem.read_word(GLOBALS_BASE).unwrap(), obj.base);
    }

    #[test]
    fn overwrite_unlinks_previous_edge() {
        let (_, hh) = setup();
        let a = hh.malloc(48).unwrap();
        let b = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, a.base).unwrap();
        hh.store_ptr(holder.base, b.base).unwrap();
        // Freeing `a` finds no edge at all (unlinked), not even a stale one.
        let r = hh.free(a.base).unwrap();
        assert_eq!(r.invalidated + r.stale, 0);
        let r = hh.free(b.base).unwrap();
        assert_eq!(r.invalidated, 1);
    }

    #[test]
    fn interior_pointers_resolve_through_the_tree() {
        let (_, hh) = setup();
        let obj = hh.malloc(100).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base + 60).unwrap();
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 1);
    }

    #[test]
    fn works_from_multiple_threads() {
        let (_, hh) = setup();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let hh = hh.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..300 {
                    let obj = hh.malloc(32).unwrap();
                    let holder = hh.malloc(8).unwrap();
                    hh.store_ptr(holder.base, obj.base).unwrap();
                    let r = hh.free(obj.base).unwrap();
                    assert_eq!(r.invalidated, 1);
                    hh.free(holder.base).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hh.detector().stats().ptrs_invalidated, 4 * 300);
    }

    #[test]
    fn metadata_accounting_shrinks_on_free() {
        let (_, hh) = setup();
        let obj = hh.malloc(32).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        let before = hh.detector().metadata_bytes();
        hh.free(obj.base).unwrap();
        assert!(hh.detector().metadata_bytes() < before);
    }
}
