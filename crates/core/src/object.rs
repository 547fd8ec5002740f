//! Per-object metadata (the record the metapagetable points at).

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::ptr;

use dangsan_vmem::Addr;

use crate::log::ThreadLog;
use crate::pool::PoolItem;

/// The source of [`ObjectMeta::epoch`]: one counter for every record in
/// every detector, so no two lifetimes ever share a value.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

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
    /// The record's current lifetime, stamped once by
    /// [`ObjectMeta::init`] from a process-wide counter that never
    /// repeats. It is the object's id in the flight recorder (birth, free
    /// and sweep events), so a forensics pass can tell apart lifetimes
    /// that shared a base address or a recycled record.
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
        self.epoch.store(
            NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            Ordering::Release,
        );
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
