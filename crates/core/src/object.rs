//! Per-object metadata (the record the metapagetable points at).

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::ptr;

use dangsan_vmem::Addr;

use crate::log::ThreadLog;
use crate::pool::PoolItem;

/// Epochs are drawn from this global counter and never reused: every
/// *lifetime* of every record — in any pool, in any detector — gets a
/// value no other lifetime ever had. A cache slot keyed on
/// `(record, epoch)` can therefore only validate during the exact
/// allocation lifetime that filled it; pool recycling, detector teardown
/// and address reuse by the host allocator all make the key a mismatch
/// instead of an ABA hazard.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Returns a never-before-issued epoch (see [`ObjectMeta::epoch`]).
pub fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Metadata for one tracked heap object: its range plus the head of its
/// lock-free list of per-thread logs (paper Figure 6).
///
/// Records are pool-recycled and type-stable; all fields are atomics so a
/// racing reader can never observe a torn value.
pub struct ObjectMeta {
    /// First byte of the object.
    pub base: AtomicU64,
    /// Last address considered "inside" the object, *inclusive*. Thanks to
    /// the allocator's +1 guard byte this is `base + requested_size`, so a
    /// pointer one past the end still belongs to this object (§4.4).
    pub end: AtomicU64,
    /// Bytes of shadow mapping this object covers (its stride).
    pub covered: AtomicU64,
    /// Head of the per-thread log list.
    pub head: AtomicPtr<ThreadLog>,
    /// The record's current lifetime, from [`fresh_epoch`]. Replaced at
    /// *both* ends of the lifetime — on [`ObjectMeta::init`] and again at
    /// the start of the detector's free path — so hot-path cache slots
    /// that captured `(record, epoch)` stop matching the instant the
    /// object dies, without any cross-object or cross-thread flush. The
    /// double replacement closes the mid-free window: a slot filled while
    /// a free is in flight holds the free's epoch, which `init` then
    /// retires before the record can be reused.
    pub epoch: AtomicU64,
    pool_next: AtomicPtr<ObjectMeta>,
}

impl Default for ObjectMeta {
    fn default() -> Self {
        ObjectMeta {
            base: AtomicU64::new(0),
            end: AtomicU64::new(0),
            covered: AtomicU64::new(0),
            head: AtomicPtr::new(ptr::null_mut()),
            epoch: AtomicU64::new(0),
            pool_next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

impl PoolItem for ObjectMeta {
    fn pool_next(&self) -> &AtomicPtr<ObjectMeta> {
        &self.pool_next
    }
}

impl ObjectMeta {
    /// Initialises the record for a new object, starting a fresh lifetime
    /// (see [`ObjectMeta::epoch`]).
    pub fn init(&self, base: Addr, size: u64, covered: u64) {
        self.base.store(base, Ordering::Release);
        self.end.store(base + size, Ordering::Release);
        self.covered.store(covered, Ordering::Release);
        self.head.store(ptr::null_mut(), Ordering::Release);
        self.epoch.store(fresh_epoch(), Ordering::Release);
    }

    /// Whether `value` points into the object (inclusive end, see `end`).
    #[inline]
    pub fn in_range(&self, value: u64) -> bool {
        let base = self.base.load(Ordering::Acquire);
        let end = self.end.load(Ordering::Acquire);
        value >= base && value <= end
    }

    /// Encodes this record as the `u64` stored in the metapagetable.
    pub fn as_meta_value(&self) -> u64 {
        let p = self as *const ObjectMeta as u64;
        debug_assert_eq!(p >> 56, 0, "host pointers exceed 56 bits");
        p
    }

    /// Decodes a metapagetable value back into a record reference.
    ///
    /// # Safety
    ///
    /// `value` must have been produced by [`ObjectMeta::as_meta_value`] on
    /// a record owned by a pool that is still alive.
    pub unsafe fn from_meta_value<'a>(value: u64) -> &'a ObjectMeta {
        // SAFETY: guaranteed by the caller; pool records are type-stable.
        unsafe { &*(value as *const ObjectMeta) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use dangsan_vmem::HEAP_BASE;

    #[test]
    fn range_check_is_inclusive_of_guard() {
        let m = ObjectMeta::default();
        m.init(HEAP_BASE, 24, 32);
        assert!(m.in_range(HEAP_BASE));
        assert!(m.in_range(HEAP_BASE + 24), "one past the end is inside");
        assert!(!m.in_range(HEAP_BASE + 25));
        assert!(!m.in_range(HEAP_BASE - 1));
    }

    #[test]
    fn meta_value_roundtrip() {
        let pool: Pool<ObjectMeta> = Pool::new();
        let m = pool.take();
        m.init(HEAP_BASE + 64, 8, 16);
        let v = m.as_meta_value();
        // SAFETY: `v` came from `as_meta_value` on a live pool record.
        let back = unsafe { ObjectMeta::from_meta_value(v) };
        assert_eq!(back.base.load(Ordering::Relaxed), HEAP_BASE + 64);
        assert!(core::ptr::eq(back, m));
    }
}
