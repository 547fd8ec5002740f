//! Type-stable object pools for detector metadata.
//!
//! Paper §7 notes that DangSan "requires careful reuse of per-object
//! metadata structures" because the lock-free design lets a registering
//! thread hold a reference to metadata that a freeing thread is recycling
//! concurrently. The reproduction makes that discipline memory-safe by
//! construction: metadata records are allocated once, recycled through a
//! Treiber stack, and only returned to the host allocator when the whole
//! detector is dropped (at which point no workload thread can hold a
//! reference). A late-arriving registration can therefore write into a
//! *recycled* record — a benign race the free-time value check filters out,
//! exactly as in the paper — but never into freed memory.
//!
//! Only the records themselves are pooled. A log's indirect blocks and
//! hash tables travel with the log (see [`crate::log`]), and the sweep's
//! location buffer is per thread, so no free takes a lock here.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::ptr;

use std::sync::Mutex;

/// Implemented by records that can live in a [`Pool`].
pub trait PoolItem: Default {
    /// The intrusive link used while the item sits in the free stack.
    fn pool_next(&self) -> &AtomicPtr<Self>;
}

/// Bit position of the free-stack head's generation tag: user-space
/// addresses fit in the low 48 bits, leaving the top 16 for the tag.
const GEN_SHIFT: u32 = 48;
/// The address half of a tagged head.
const ADDR_MASK: usize = (1 << GEN_SHIFT) - 1;

/// `head` with its generation tag stripped.
fn untag<T>(head: *mut T) -> *mut T {
    head.map_addr(|a| a & ADDR_MASK)
}

/// `next` tagged one generation past `head`, the value a successful CAS
/// of `head` installs.
fn retag<T>(head: *mut T, next: *mut T) -> *mut T {
    let generation = ((head.addr() >> GEN_SHIFT) + 1) & 0xFFFF;
    next.map_addr(|a| a | (generation << GEN_SHIFT))
}

/// A lock-free free-list of `T` records with type-stable backing memory.
pub struct Pool<T: PoolItem> {
    /// The free stack's top record, tagged in its high bits with a
    /// generation that every successful CAS bumps. Without the tag a pop
    /// that stalls between reading `top.next` and its CAS can lose a race
    /// to pop, pop, push of the same top and still succeed, installing a
    /// `next` another thread owns: one record handed to two owners.
    head: AtomicPtr<T>,
    /// Every record ever created, so `Drop` can reclaim host memory.
    all: Mutex<Vec<*mut T>>,
    /// Host bytes allocated for records (for memory accounting).
    bytes: AtomicU64,
}

// SAFETY: `head` is only manipulated with CAS; `all` is lock-protected and
// raw pointers are freed only in `Drop` under exclusive access.
unsafe impl<T: PoolItem + Send> Send for Pool<T> {}
// SAFETY: as above.
unsafe impl<T: PoolItem + Send> Sync for Pool<T> {}

impl<T: PoolItem> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PoolItem> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool {
            head: AtomicPtr::new(ptr::null_mut()),
            all: Mutex::new(Vec::new()),
            bytes: AtomicU64::new(0),
        }
    }

    /// Takes a recycled record, or allocates a fresh one.
    ///
    /// The returned reference stays valid until the pool is dropped, even
    /// if the record is recycled in the meantime (type-stability).
    pub fn take(&self) -> &T {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let cur = untag(head);
            if cur.is_null() {
                break;
            }
            // SAFETY: non-null stack entries are live pool-owned records
            // (a stale read of a since-popped one is still type-stable
            // memory, and the tagged CAS below then fails).
            let next = unsafe { (*cur).pool_next().load(Ordering::Acquire) };
            match self.head.compare_exchange_weak(
                head,
                retag(head, next),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // SAFETY: we won the pop; the record is ours to hand out.
                Ok(_) => return unsafe { &*cur },
                Err(actual) => head = actual,
            }
        }
        let fresh = Box::into_raw(Box::<T>::default());
        assert_eq!(
            fresh.addr() & !ADDR_MASK,
            0,
            "record address overlaps the free stack's generation tag"
        );
        self.bytes
            .fetch_add(core::mem::size_of::<T>() as u64, Ordering::Relaxed);
        self.all.lock().expect("not poisoned").push(fresh);
        // SAFETY: freshly allocated, owned by the pool, never freed until
        // the pool drops.
        unsafe { &*fresh }
    }

    /// Returns a record to the free stack. The caller must have reset it
    /// and must not use the reference afterwards (late racy writes are
    /// tolerated but lost).
    pub fn recycle(&self, item: &T) {
        let raw = item as *const T as *mut T;
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            item.pool_next().store(untag(head), Ordering::Release);
            match self.head.compare_exchange_weak(
                head,
                retag(head, raw),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Host bytes backing all records ever allocated from this pool.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total records ever allocated.
    pub fn allocated(&self) -> usize {
        self.all.lock().expect("not poisoned").len()
    }
}

impl<T: PoolItem> Drop for Pool<T> {
    fn drop(&mut self) {
        for raw in self.all.get_mut().expect("not poisoned").drain(..) {
            // SAFETY: every record was created by `Box::into_raw` in
            // `take`, appears in `all` exactly once, and no references
            // outlive the pool (callers' lifetimes are tied to the
            // detector that owns the pool).
            unsafe { drop(Box::from_raw(raw)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicBool;

    #[derive(Default)]
    struct Rec {
        value: AtomicU64,
        /// Set while a `take` caller owns the record.
        owned: AtomicBool,
        next: AtomicPtr<Rec>,
    }

    impl PoolItem for Rec {
        fn pool_next(&self) -> &AtomicPtr<Rec> {
            &self.next
        }
    }

    #[test]
    fn take_recycle_take_reuses_memory() {
        let pool: Pool<Rec> = Pool::new();
        let a = pool.take();
        let a_ptr = a as *const Rec;
        a.value.store(7, Ordering::Relaxed);
        pool.recycle(a);
        let b = pool.take();
        assert_eq!(b as *const Rec, a_ptr);
        assert_eq!(pool.allocated(), 1);
    }

    #[test]
    fn fresh_allocation_when_empty() {
        let pool: Pool<Rec> = Pool::new();
        let a = pool.take() as *const Rec;
        let b = pool.take() as *const Rec;
        assert_ne!(a, b);
        assert_eq!(pool.allocated(), 2);
        assert_eq!(pool.bytes(), 2 * core::mem::size_of::<Rec>() as u64);
    }

    #[test]
    fn concurrent_take_recycle_is_linearizable() {
        use std::sync::Arc;
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 50_000;
        let pool: Arc<Pool<Rec>> = Arc::new(Pool::new());
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    // Two records out at once: another thread's pop that
                    // stalls across this pop, pop, push of the same head
                    // is exactly the ABA window the generation tag closes.
                    let pair = [pool.take(), pool.take()];
                    for r in pair {
                        let was_owned = r.owned.swap(true, Ordering::AcqRel);
                        assert!(!was_owned, "one record handed to two owners");
                        r.value.fetch_add(1, Ordering::Relaxed);
                    }
                    for r in pair {
                        r.owned.store(false, Ordering::Release);
                        pool.recycle(r);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No record was ever handed to two threads at once, so the records
        // in `all` sum to exactly the number of hand-outs.
        let total: u64 = {
            let all = pool.all.lock().unwrap();
            all.iter()
                // SAFETY: records are live until the pool drops.
                .map(|&r| unsafe { (*r).value.load(Ordering::Relaxed) })
                .sum()
        };
        assert_eq!(total, THREADS * ROUNDS * 2);
    }
}
