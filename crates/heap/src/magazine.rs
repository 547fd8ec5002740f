//! TLS magazines: the tcmalloc fast path, bound into the heap itself.
//!
//! Every thread owns one *magazine* per size class — a small private free
//! list — so the common `malloc`/`free` touches no lock at all. Blocks move
//! between a magazine and the (sharded, locked) central lists only in
//! batches of [`BATCH`], and a magazine never holds more than [`MAG_CAP`]
//! blocks per class, so per-thread hoarding is bounded.
//!
//! A thread's magazines are bound to a heap's central lists through the
//! stack's one per-thread binding ([`dangsan_trace::binding`]), which
//! decides when they drain; this module keeps only the lists and the
//! handover:
//!
//! * a thread's magazines bind to **one heap at a time**; touching a
//!   different heap drains the old binding back to its central lists
//!   first, so blocks never leak across heaps;
//! * the binding holds only a `Weak` reference, so cached blocks keep no
//!   dropped heap alive (draining into a dead heap is a no-op — the
//!   simulated memory is gone with it);
//! * thread exit drains the magazines, so `free`d blocks always return to
//!   the central lists once the thread is joined, and a malloc or free
//!   made after that (from a later TLS destructor) goes through magazines
//!   of its own that drain at once;
//! * each binding registers a single-writer block counter, and
//!   [`Heap::magazine_blocks`] sums the registered counters under the
//!   registry lock, so "no blocks are parked in any magazine" is an
//!   observable, testable invariant after a join.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dangsan_trace::{Binding, Owner, Registry};
use dangsan_vmem::Addr;

use crate::heap::{Central, Heap, BATCH, CENTRAL_SHARDS};
use crate::size_classes::classes;
use crate::AllocError;

/// Magazine capacity per size class. A `free` that grows a list past this
/// spills [`BATCH`] blocks back to the central lists, leaving [`BATCH`]
/// behind — the classic tcmalloc high/low watermark pair.
pub(crate) const MAG_CAP: usize = 2 * BATCH;

/// One thread's magazines for its bound heap: one free list per size
/// class, touched only by that thread.
pub(crate) struct Lists(Vec<Vec<Addr>>);

impl Default for Lists {
    fn default() -> Self {
        Lists(classes().iter().map(|_| Vec::new()).collect())
    }
}

/// A thread's registered state is the number of blocks parked in its
/// magazines. Only that thread writes it (plain load + store, never an
/// RMW); [`Heap::magazine_blocks`] reads it through the registry.
impl Owner for Central {
    type State = AtomicU64;
    type Local = Lists;

    fn registry(&self) -> &Registry<AtomicU64> {
        &self.magazines
    }

    fn new_state(&self) -> AtomicU64 {
        AtomicU64::new(0)
    }

    /// Rebind or thread exit: every parked block goes back to the central
    /// lists.
    fn retire(&self, _: &AtomicU64, lists: &mut Lists) {
        for (class_id, list) in lists.0.iter_mut().enumerate() {
            if !list.is_empty() {
                self.push(class_id as u32, list, 0);
            }
        }
    }
}

thread_local! {
    static MAGAZINES: Binding<Central> = const { Binding::new() };

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

/// Serves one block of `class_id` from the calling thread's magazine,
/// refilling a batch from the central lists when it runs dry (an error is
/// the refill's: the heap is exhausted).
pub(crate) fn alloc(heap: &Heap, class_id: u32) -> Result<Addr, AllocError> {
    Binding::with(&MAGAZINES, &heap.central, |parked, lists| {
        let list = &mut lists.0[class_id as usize];
        let before = list.len();
        if before == 0 {
            heap.central_pop(&classes()[class_id as usize], BATCH, list)?;
        }
        let base = list.pop().expect("refill yields at least one block");
        recount(parked, before, list.len());
        Ok(base)
    })
}

/// Parks a released block of `class_id` in the calling thread's magazine,
/// spilling a batch to the central lists past the capacity watermark.
pub(crate) fn free(heap: &Heap, class_id: u32, addr: Addr) {
    Binding::with(&MAGAZINES, &heap.central, |parked, lists| {
        let list = &mut lists.0[class_id as usize];
        let before = list.len();
        list.push(addr);
        if list.len() > MAG_CAP {
            heap.central.push(class_id, list, BATCH);
        }
        recount(parked, before, list.len());
    });
}

/// Moves the thread's parked-block count by one list's change in length.
fn recount(parked: &AtomicU64, before: usize, after: usize) {
    let n = parked.load(Ordering::Relaxed) + after as u64;
    parked.store(n - before as u64, Ordering::Relaxed);
}

/// Drains the calling thread's magazines if (and only if) they are bound
/// to `heap`. Other threads' magazines are untouched — they drain when
/// their owners rebind or exit.
pub(crate) fn flush_current(heap: &Heap) {
    Binding::release(&MAGAZINES, &*heap.central);
}
