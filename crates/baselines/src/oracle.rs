//! The differential fuzzer's ground truth: an exact, deliberately naive
//! pointer tracker.
//!
//! Where DangSan buys speed with per-thread logs, caches, tiers and
//! deferred sweeps, the oracle has one mutex and one map. It records
//! *every* pointer-typed store (heap, stack or global location alike),
//! and on invalidation re-reads each registered location and rewrites
//! in-range values with the same bit-63 mask DangSan uses — so a correct
//! DangSan run and an oracle run of the same program produce
//! bit-identical memory and identical traps. Any divergence is a bug in
//! one of them, and the oracle is small enough to be obviously right.
//!
//! Registration is **append-only**, mirroring DangSan's logs: an
//! overwritten location keeps its old registrations, and the walk's
//! value re-check skips it as stale if the value has moved on. The first
//! fuzz campaign proved this is observable, not stylistic: an earlier
//! oracle revision unlinked on overwrite, and `fuzz_diff` seed 56450
//! found the case where they differ — a location registered while the
//! object lives, overwritten, then re-stored with the dangling base
//! *after* the free but before the deferred sweep runs. DangSan's sweep
//! re-reads the location, finds an in-range value and masks it (a true
//! dangling pointer); the unlinking oracle had dropped the edge
//! (`tests/corpus/fuzz_seed56450_deferred.dsir`).
//!
//! Two modes mirror the two placement/timing regimes under test:
//!
//! * [`OracleMode::Eager`] — invalidate during `on_free`, before the
//!   allocator reclaims the block: the synchronous-sweep semantics.
//!   Compare against every sync arm (inline DangSan, locked, FreeSentry,
//!   DangNULL).
//! * [`OracleMode::Lazy`] — `defers_free` is true, so the hooked heap
//!   quarantines each freed block (identical allocation placement to the
//!   deferred-sweep arms); invalidation happens only at
//!   [`dangsan::Detector::drain`], which then requeues the blocks.
//!   Compare pre-drain state against the quarantine arm and the
//!   deferred arm, post-drain state against its drained state.
//!
//! Registration against an already-freed (pending) object is dropped in
//! both modes, matching DangSan: the inline path has already cleared the
//! metapagetable, and the deferred path walks the log chain *detached at
//! free time*, so a later append lands on an orphan chain no sweep visits.

use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, Weak};

use dangsan::{Counter, Detector, InvalidationReport, Stats, StatsSnapshot};
use dangsan_heap::{Allocation, Heap};
use dangsan_vmem::{Addr, AddressSpace, INVALID_BIT};

/// When the oracle runs its invalidation walk relative to `free`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Invalidate during `on_free` (synchronous-sweep semantics).
    Eager,
    /// Quarantine at `on_free`, invalidate at `drain` (deferred-sweep
    /// placement and timing).
    Lazy,
}

/// One tracked object: its inclusive end (`base + requested`, the +1
/// guard-byte rule every arm shares) and every location that ever held a
/// pointer into it while it lived (append-only; see the module docs).
struct ObjRec {
    end: Addr,
    /// Largest `end` the object ever had (a shrinking realloc lowers
    /// `end` but not this) — the extent [`ShadowOracle::ever_dangling`]
    /// answers against.
    max_end: Addr,
    incoming: BTreeSet<Addr>,
}

#[derive(Default)]
struct State {
    /// Live objects by base address.
    objects: BTreeMap<Addr, ObjRec>,
    /// Lazy mode: freed objects whose invalidation walk is still owed,
    /// in free order.
    pending: Vec<(Addr, ObjRec)>,
    /// Every `(base, max_end)` ever freed, for the tagging arms'
    /// extra-detection relation ([`ShadowOracle::ever_dangling`]).
    dead: Vec<(Addr, Addr)>,
}

/// The exact-tracking oracle detector. See the module docs.
pub struct ShadowOracle {
    mem: Arc<AddressSpace>,
    mode: OracleMode,
    heap: Mutex<Weak<Heap>>,
    state: Mutex<State>,
    stats: Stats,
    meta_bytes: AtomicU64,
}

impl ShadowOracle {
    /// Creates an oracle over `mem` in the given mode.
    pub fn new(mem: Arc<AddressSpace>, mode: OracleMode) -> Arc<ShadowOracle> {
        Arc::new(ShadowOracle {
            mem,
            mode,
            heap: Mutex::new(Weak::new()),
            state: Mutex::new(State::default()),
            stats: Stats::default(),
            meta_bytes: AtomicU64::new(0),
        })
    }

    /// Whether `addr` was ever inside an object that has since been
    /// freed, measured by the object's *largest lifetime extent*
    /// (inclusive, same +1 guard-byte rule as the invalidation walk).
    ///
    /// This is the ground-truth fact the tagging arms' comparison
    /// relation needs: invalidation can only rewrite copies that exist —
    /// and still point into the object — at free time, so a value
    /// orphaned by a shrinking realloc, or copied from a stale register
    /// *after* the free, stays raw forever under oracle semantics while
    /// a dereference-time tag check still traps it. Such a trap is the
    /// tag family's legitimate extra detection exactly when the address
    /// it fingers really was part of a freed object; this predicate
    /// certifies that, address by address.
    pub fn ever_dangling(&self, addr: Addr) -> bool {
        let st = self.state.lock().expect("not poisoned");
        st.dead.iter().any(|&(b, m)| addr >= b && addr <= m)
    }

    /// The invalidation walk for one freed object: re-read every
    /// registered location and mask the ones whose *current* value still
    /// points into the object; anything else is stale, exactly like
    /// DangSan's range check at sweep time.
    fn invalidate(&self, base: Addr, rec: &ObjRec) -> InvalidationReport {
        let mut report = InvalidationReport::default();
        for loc in rec.incoming.iter() {
            match self.mem.read_word(*loc) {
                Err(_) => report.skipped_unmapped += 1,
                Ok(value) if value >= base && value <= rec.end => {
                    if self.mem.write_word(*loc, value | INVALID_BIT).is_ok() {
                        report.invalidated += 1;
                    }
                }
                Ok(_) => report.stale += 1,
            }
        }
        self.stats.add(&[
            (Counter::PtrsInvalidated, report.invalidated),
            (Counter::StalePtrs, report.stale),
            (Counter::SigsegvSkips, report.skipped_unmapped),
        ]);
        report
    }
}

impl Detector for ShadowOracle {
    fn name(&self) -> &'static str {
        match self.mode {
            OracleMode::Eager => "oracle-eager",
            OracleMode::Lazy => "oracle-lazy",
        }
    }

    fn on_alloc(&self, alloc: &Allocation) {
        let mut st = self.state.lock().expect("not poisoned");
        st.objects.insert(
            alloc.base,
            ObjRec {
                end: alloc.base + alloc.requested,
                max_end: alloc.base + alloc.requested,
                incoming: BTreeSet::new(),
            },
        );
        self.stats.bump(&[Counter::ObjectsAllocated]);
        self.meta_bytes.fetch_add(48, Ordering::Relaxed);
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        let mut st = self.state.lock().expect("not poisoned");
        let Some(rec) = st.objects.remove(&base) else {
            // Unknown base with a deferred heap: requeue or the block
            // leaks in quarantine (mirrors DangSan's untracked-base path).
            if self.mode == OracleMode::Lazy {
                if let Some(heap) = self.heap.lock().expect("not poisoned").upgrade() {
                    heap.requeue_batch(&[base]);
                }
            }
            return InvalidationReport::default();
        };
        st.dead.push((base, rec.max_end));
        self.stats.bump(&[Counter::ObjectsFreed]);
        match self.mode {
            OracleMode::Eager => {
                let report = self.invalidate(base, &rec);
                self.meta_bytes.fetch_sub(48, Ordering::Relaxed);
                report
            }
            OracleMode::Lazy => {
                st.pending.push((base, rec));
                InvalidationReport::default()
            }
        }
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        let mut st = self.state.lock().expect("not poisoned");
        if let Some(rec) = st.objects.get_mut(&base) {
            rec.end = base + new_size;
            rec.max_end = rec.max_end.max(rec.end);
        }
    }

    fn register_ptr(&self, loc: Addr, value: u64) {
        let mut st = self.state.lock().expect("not poisoned");
        // Append-only: an overwritten location keeps its old edges (the
        // walk's value re-check resolves them), and live objects only — a
        // value into a freed (even pending) object is dropped, like a
        // registration after DangSan detached the log chain.
        let Some(rec) = st
            .objects
            .range_mut(..=value)
            .next_back()
            .filter(|(b, r)| value >= **b && value <= r.end)
            .map(|(_, r)| r)
        else {
            return;
        };
        rec.incoming.insert(loc);
        self.stats.bump(&[Counter::PtrsRegistered]);
    }

    fn defers_free(&self) -> bool {
        self.mode == OracleMode::Lazy
    }

    fn drain(&self) {
        if self.mode == OracleMode::Eager {
            return;
        }
        let mut st = self.state.lock().expect("not poisoned");
        let pending = std::mem::take(&mut st.pending);
        if pending.is_empty() {
            return;
        }
        let mut bases = Vec::with_capacity(pending.len());
        for (base, rec) in &pending {
            let _ = self.invalidate(*base, rec);
            self.meta_bytes.fetch_sub(48, Ordering::Relaxed);
            bases.push(*base);
        }
        drop(st);
        if let Some(heap) = self.heap.lock().expect("not poisoned").upgrade() {
            heap.requeue_batch(&bases);
        }
    }

    fn bind_heap(&self, heap: &Arc<Heap>) {
        *self.heap.lock().expect("not poisoned") = Arc::downgrade(heap);
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
    use dangsan_heap::AllocError;

    fn setup(mode: OracleMode) -> (Arc<AddressSpace>, HookedHeap<ShadowOracle>) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = ShadowOracle::new(Arc::clone(&mem), mode);
        (Arc::clone(&mem), HookedHeap::new(heap, det))
    }

    #[test]
    fn eager_masks_exactly_like_dangsan() {
        let (mem, hh) = setup(OracleMode::Eager);
        let obj = hh.malloc(48).unwrap();
        let holder = hh.malloc(16).unwrap();
        hh.store_ptr(holder.base, obj.base + 8).unwrap();
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 1);
        // Bit 63 set, original bits preserved (not DangNULL's poison).
        assert_eq!(
            mem.read_word(holder.base).unwrap(),
            (obj.base + 8) | INVALID_BIT
        );
    }

    #[test]
    fn overwritten_location_resolves_as_stale_not_unlinked() {
        let (mem, hh) = setup(OracleMode::Eager);
        let a = hh.malloc(48).unwrap();
        let b = hh.malloc(48).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, a.base).unwrap();
        hh.store_ptr(holder.base, b.base).unwrap();
        // Append-only: the registration against `a` survives the
        // overwrite, and the walk's value re-check skips it as stale.
        let r = hh.free(a.base).unwrap();
        assert_eq!((r.invalidated, r.stale), (0, 1));
        let r = hh.free(b.base).unwrap();
        assert_eq!(r.invalidated, 1);
        assert_eq!(mem.read_word(holder.base).unwrap(), b.base | INVALID_BIT);
    }

    #[test]
    fn redstored_dangling_value_is_masked_at_drain() {
        // The fuzz_diff seed-56450 divergence, reduced: a location
        // registered while the object lives, overwritten, then re-stored
        // with the dangling base *after* the free. The deferred sweep
        // re-reads the location and masks it (the value IS dangling);
        // an unlink-on-overwrite oracle wrongly dropped the edge.
        let (mem, hh) = setup(OracleMode::Lazy);
        let obj = hh.malloc(16).unwrap();
        let other = hh.malloc(40).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        hh.store_ptr(holder.base, other.base).unwrap(); // overwrite
        hh.free(obj.base).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap(); // dangling re-store
        hh.detector().drain();
        assert_eq!(mem.read_word(holder.base).unwrap(), obj.base | INVALID_BIT);
    }

    #[test]
    fn lazy_quarantines_then_masks_at_drain() {
        let (mem, hh) = setup(OracleMode::Lazy);
        let obj = hh.malloc(48).unwrap();
        let holder = hh.malloc(16).unwrap();
        hh.store_ptr(holder.base, obj.base).unwrap();
        hh.free(obj.base).unwrap();
        // Pre-drain: the pointer is still raw (deferred semantics), the
        // block is quarantined (a second free is a DoubleFree, the slot
        // is not reused).
        assert_eq!(mem.read_word(holder.base).unwrap(), obj.base);
        assert_eq!(hh.free(obj.base), Err(AllocError::DoubleFree(obj.base)));
        let again = hh.malloc(48).unwrap();
        assert_ne!(again.base, obj.base);
        // Drain: masked, and the block circulates again.
        hh.detector().drain();
        assert_eq!(mem.read_word(holder.base).unwrap(), obj.base | INVALID_BIT);
        assert!(hh.detector().ever_dangling(obj.base + 48));
        assert!(!hh.detector().ever_dangling(obj.base + 49));
        let mut reused = false;
        for _ in 0..64 {
            if hh.malloc(48).unwrap().base == obj.base {
                reused = true;
                break;
            }
        }
        assert!(reused, "drained block never re-entered circulation");
    }

    #[test]
    fn registration_against_a_pending_object_is_dropped() {
        // Matches DangSan's detached-chain rule: a pointer stored after
        // the free is not seen by the sweep.
        let (mem, hh) = setup(OracleMode::Lazy);
        let obj = hh.malloc(48).unwrap();
        let early = hh.malloc(8).unwrap();
        let late = hh.malloc(8).unwrap();
        hh.store_ptr(early.base, obj.base).unwrap();
        hh.free(obj.base).unwrap();
        hh.store_ptr(late.base, obj.base).unwrap(); // post-free copy
        hh.detector().drain();
        assert_eq!(mem.read_word(early.base).unwrap(), obj.base | INVALID_BIT);
        assert_eq!(mem.read_word(late.base).unwrap(), obj.base, "dropped");
    }

    #[test]
    fn ever_dangling_uses_the_largest_lifetime_extent() {
        let (_, hh) = setup(OracleMode::Eager);
        let obj = hh.malloc(96).unwrap();
        let base = obj.base;
        assert!(!hh.detector().ever_dangling(base), "still live");
        // Shrink to nothing, then free: the invalidation walk sees a
        // zero-length object, but interior addresses from the 96-byte
        // era were still part of a freed object's lifetime.
        let (shrunk, _) = hh.realloc(base, 0).unwrap();
        assert_eq!(shrunk.base, base, "shrink stays in place");
        hh.free(base).unwrap();
        assert!(hh.detector().ever_dangling(base));
        assert!(hh.detector().ever_dangling(base + 64));
        assert!(hh.detector().ever_dangling(base + 96), "guard byte");
        assert!(!hh.detector().ever_dangling(base + 97), "past any extent");
        // An address never owned by a freed object stays clean.
        let live = hh.malloc(16).unwrap();
        assert!(!hh.detector().ever_dangling(live.base));
    }

    #[test]
    fn guard_byte_keeps_one_past_end_in_range() {
        let (mem, hh) = setup(OracleMode::Eager);
        let obj = hh.malloc(16).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base + 16).unwrap(); // one past the end
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 1);
        assert_eq!(
            mem.read_word(holder.base).unwrap(),
            (obj.base + 16) | INVALID_BIT
        );
    }
}
