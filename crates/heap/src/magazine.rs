//! TLS magazines: the tcmalloc fast path, bound into the heap itself.
//!
//! Every thread owns one *magazine* per size class — a small private free
//! list — so the common `malloc`/`free` touches no lock at all. Blocks move
//! between a magazine and the (sharded, locked) central lists only in
//! batches of [`BATCH`], and a magazine never holds more than [`MAG_CAP`]
//! blocks per class, so per-thread hoarding is bounded.
//!
//! The lifecycle follows the same TLS-slab discipline as the detector's
//! counters (`dangsan::stats`):
//!
//! * a thread's magazines bind to **one heap at a time**, identified by a
//!   never-reused id; touching a different heap drains the old binding
//!   back to its central lists first, so a stale binding can never alias
//!   a newer heap's blocks;
//! * the binding holds only a [`Weak`] heap reference, so cached blocks
//!   keep no dropped heap alive (draining into a dead heap is a no-op —
//!   the simulated memory is gone with it);
//! * thread exit drains via the TLS destructor, so `free`d blocks always
//!   return to the central lists once the thread is joined;
//! * each binding registers a single-writer block counter with the heap,
//!   and [`Heap::magazine_blocks`] sums live counters under the registry
//!   lock — exactly like `Stats::snapshot` — so "no blocks are parked in
//!   any magazine" is an observable, testable invariant after a join.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use dangsan_vmem::Addr;

use crate::heap::{Heap, BATCH, CENTRAL_SHARDS};
use crate::size_classes::classes;

/// Magazine capacity per size class. A `free` that grows a list past this
/// spills [`BATCH`] blocks back to the central lists, leaving [`BATCH`]
/// behind — the classic tcmalloc high/low watermark pair.
pub(crate) const MAG_CAP: usize = 2 * BATCH;

/// Blocks parked in one thread's magazines for one heap. Only the owning
/// thread writes (plain load + store, never an RMW); any thread may read
/// through the heap's registry.
#[derive(Debug, Default)]
pub(crate) struct MagCounter {
    blocks: AtomicU64,
}

impl MagCounter {
    fn add(&self, n: u64) {
        self.blocks
            .store(self.blocks.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    fn sub(&self, n: u64) {
        self.blocks
            .store(self.blocks.load(Ordering::Relaxed) - n, Ordering::Relaxed);
    }

    pub(crate) fn blocks(&self) -> u64 {
        self.blocks.load(Ordering::Relaxed)
    }
}

/// One thread's magazines for its currently bound heap.
struct Magazines {
    /// `Heap::id` of the bound heap.
    heap_id: u64,
    /// The bound heap; `Weak` so parked blocks don't keep it alive.
    heap: Weak<Heap>,
    /// This binding's registered block counter.
    counter: Arc<MagCounter>,
    /// One free list per size class.
    lists: Vec<Vec<Addr>>,
}

impl Magazines {
    fn bind(heap: &Heap) -> Magazines {
        let counter = heap.register_magazine();
        Magazines {
            heap_id: heap.id(),
            heap: heap.weak(),
            counter,
            lists: classes().iter().map(|_| Vec::new()).collect(),
        }
    }
}

impl Drop for Magazines {
    fn drop(&mut self) {
        // Rebind or thread exit: hand every parked block back to the
        // bound heap's central lists and deregister the counter. If the
        // heap is already gone its memory is gone too — dropping the
        // addresses is the correct (and only possible) cleanup.
        if let Some(heap) = self.heap.upgrade() {
            heap.retire_magazines(&self.counter, &mut self.lists);
        }
    }
}

thread_local! {
    static MAGS: RefCell<Option<Magazines>> = const { RefCell::new(None) };

    /// This thread's central-list shard, assigned round-robin at first
    /// use so threads spread across the shards.
    static SHARD: Cell<usize> = {
        static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
        Cell::new(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % CENTRAL_SHARDS)
    };
}

/// The calling thread's home shard in the central free lists.
pub(crate) fn shard_index() -> usize {
    SHARD.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` with the calling thread's magazine list for `class_id` (and
/// the binding's block counter), binding to `heap` first — and draining
/// any previous binding — if needed. Returns `None` when the thread's TLS
/// is already torn down (the caller falls back to the central lists).
///
/// `f` may call back into `heap`'s central lists (refill/spill) but must
/// not re-enter the magazine layer; the `RefCell` borrow is held across
/// the call.
fn with_magazine<R>(
    heap: &Heap,
    class_id: u32,
    f: impl FnOnce(&mut Vec<Addr>, &MagCounter) -> R,
) -> Option<R> {
    MAGS.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let rebind = match slot.as_ref() {
            Some(m) => m.heap_id != heap.id(),
            None => true,
        };
        if rebind {
            // Dropping the old binding drains it into *its* heap.
            *slot = None;
            *slot = Some(Magazines::bind(heap));
        }
        let mags = slot.as_mut().expect("just bound");
        f(&mut mags.lists[class_id as usize], &mags.counter)
    })
    .ok()
}

/// Serves one block of `class_id` from the calling thread's magazine,
/// refilling a batch from the central lists when it runs dry.
///
/// `Some(Err(_))` propagates a refill failure (heap exhausted); `None`
/// means the TLS layer is unavailable and the caller must use the
/// central path directly.
pub(crate) fn alloc(heap: &Heap, class_id: u32) -> Option<Result<Addr, crate::AllocError>> {
    with_magazine(heap, class_id, |list, counter| {
        if list.is_empty() {
            let class = &classes()[class_id as usize];
            heap.central_pop(class, BATCH, list)?;
            counter.add(list.len() as u64);
        }
        let base = list.pop().expect("refill yields at least one block");
        counter.sub(1);
        Ok(base)
    })
}

/// Parks a released block of `class_id` in the calling thread's magazine,
/// spilling a batch to the central lists past the capacity watermark.
/// Returns `false` when the TLS layer is unavailable.
pub(crate) fn free(heap: &Heap, class_id: u32, addr: Addr) -> bool {
    with_magazine(heap, class_id, |list, counter| {
        list.push(addr);
        counter.add(1);
        if list.len() > MAG_CAP {
            let spill = (list.len() - BATCH) as u64;
            heap.central_push(class_id, list, BATCH);
            counter.sub(spill);
        }
    })
    .is_some()
}

/// Drains the calling thread's magazines if (and only if) they are bound
/// to `heap`. Other threads' magazines are untouched — they drain when
/// their owners rebind or exit.
pub(crate) fn flush_current(heap: &Heap) {
    let _ = MAGS.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.as_ref().is_some_and(|m| m.heap_id == heap.id()) {
            // Drop drains into the heap's central lists.
            *slot = None;
        }
    });
}
