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
//! Object records, per-thread logs and the logs' hash tables are pooled
//! (tables in one pool per capacity class, shared by all of a detector's
//! logs; see [`crate::log::TablePools`]). A log's indirect blocks travel
//! with the log, and the sweep's location buffer is per thread. Only a
//! fresh allocation takes the pool's lock, never a take or a recycle.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::ptr;

use std::sync::Mutex;

/// Implemented by records that can live in a [`Pool`].
pub trait PoolItem: Sized {
    /// The intrusive link used while the item sits in the free stack.
    fn pool_next(&self) -> &AtomicPtr<Self>;

    /// Host bytes the record holds, counted by [`Pool::bytes`] when the
    /// pool adopts it: the record itself plus any storage it owns.
    fn host_bytes(&self) -> u64 {
        core::mem::size_of::<Self>() as u64
    }
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
    pub fn take(&self) -> &T
    where
        T: Default,
    {
        self.try_take().unwrap_or_else(|| self.adopt(T::default()))
    }

    /// Takes a recycled record, or `None` when the free stack is empty.
    /// Never allocates.
    pub fn try_take(&self) -> Option<&T> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let cur = untag(head);
            if cur.is_null() {
                return None;
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
                Ok(_) => return Some(unsafe { &*cur }),
                Err(actual) => head = actual,
            }
        }
    }

    /// Moves a freshly built record into the pool, which owns it from
    /// now on, and hands it out as if taken. [`Self::bytes`] grows by its
    /// [`PoolItem::host_bytes`].
    pub fn adopt(&self, item: T) -> &T {
        self.bytes.fetch_add(item.host_bytes(), Ordering::Relaxed);
        let fresh = Box::into_raw(Box::new(item));
        assert_eq!(
            fresh.addr() & !ADDR_MASK,
            0,
            "record address overlaps the free stack's generation tag"
        );
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

    /// Host bytes backing all records this pool ever adopted.
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
            // `adopt`, appears in `all` exactly once, and no references
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

    /// A record owning storage beyond its own size.
    #[derive(Default)]
    struct Buf {
        data: Vec<u8>,
        next: AtomicPtr<Buf>,
    }

    impl PoolItem for Buf {
        fn pool_next(&self) -> &AtomicPtr<Buf> {
            &self.next
        }

        fn host_bytes(&self) -> u64 {
            core::mem::size_of::<Buf>() as u64 + self.data.len() as u64
        }
    }

    #[test]
    fn try_take_never_allocates_and_adopt_counts_host_bytes() {
        let pool: Pool<Buf> = Pool::new();
        assert!(pool.try_take().is_none(), "empty pool");
        assert_eq!((pool.allocated(), pool.bytes()), (0, 0));
        let a = pool.adopt(Buf {
            data: vec![7; 100],
            ..Buf::default()
        });
        assert_eq!(a.data.len(), 100, "handed out as built");
        let one = core::mem::size_of::<Buf>() as u64;
        assert_eq!((pool.allocated(), pool.bytes()), (1, one + 100));
        let a_ptr = a as *const Buf;
        pool.recycle(a);
        let b = pool.try_take().expect("the recycled record");
        assert_eq!(b as *const Buf, a_ptr);
        assert!(pool.try_take().is_none(), "reuse allocated nothing");
        assert_eq!((pool.allocated(), pool.bytes()), (1, one + 100));
        pool.recycle(b);
        // `take` prefers the free stack, then adopts a default record.
        assert_eq!(pool.take() as *const Buf, a_ptr);
        pool.take();
        assert_eq!((pool.allocated(), pool.bytes()), (2, 2 * one + 100));
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
                for round in 0..ROUNDS {
                    // Two records out at once: another thread's pop that
                    // stalls across this pop, pop, push of the same head
                    // is exactly the ABA window the generation tag closes.
                    // Every 64th round adopts a fresh record, so adoption
                    // races the pops and pushes too.
                    let second = match round % 64 {
                        0 => pool.adopt(Rec::default()),
                        _ => pool
                            .try_take()
                            .unwrap_or_else(|| pool.adopt(Rec::default())),
                    };
                    let pair = [pool.take(), second];
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
