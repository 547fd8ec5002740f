//! Batched hit counting for the software TLB.
//!
//! The TLB sits on a path too hot for even a per-thread slab store per
//! hit, so it counts hits with a per-thread countdown, credited to a
//! shared counter once per batch.

use core::sync::atomic::{AtomicU64, Ordering};
use std::cell::Cell;

/// Hits are published to the owner's counter after this many accumulate
/// (and on every miss), so counters lag true counts by a bounded,
/// deterministic amount.
const HIT_FLUSH_EVERY: u64 = 64;

/// A per-thread hit batch, owned by the TLB's thread local.
///
/// Hit accounting is a countdown, not a tally: the hit path only loads,
/// decrements and stores `left`, and every `HIT_FLUSH_EVERY`th hit takes
/// a branch that credits the whole batch to its owner. Checking *which*
/// owner got each hit on every access (a compare plus a second cell
/// store) measurably slowed the very paths being counted, so attribution
/// waits for batch boundaries. The owner is the address space that last
/// missed on this thread, named by its never-reused TLB stamp. A batch
/// whose owner is not the space flushing it — accesses to two live spaces
/// interleaved on one thread with no miss in between — is dropped rather
/// than credited, so a counter is never inflated by a space that may
/// already be gone. In the single-owner steady state the counts are exact.
pub(crate) struct HitCountdown {
    /// Hits remaining before the batch flushes; starts (and resets to)
    /// `HIT_FLUSH_EVERY`.
    left: Cell<u64>,
    /// Id of the instance the in-flight batch is credited to.
    owner: Cell<u64>,
}

impl HitCountdown {
    /// An empty batch owned by no instance (ids start at 1).
    pub const fn new() -> HitCountdown {
        HitCountdown {
            left: Cell::new(HIT_FLUSH_EVERY),
            owner: Cell::new(0),
        }
    }

    /// Records one hit for the instance `owner`: decrement the countdown,
    /// and on every `HIT_FLUSH_EVERY`th hit credit the whole batch to
    /// `hits` if `owner` still owns it.
    #[inline(always)]
    pub fn hit(&self, owner: u64, hits: &AtomicU64) {
        let left = self.left.get() - 1;
        if left == 0 {
            if self.owner.get() == owner {
                hits.fetch_add(HIT_FLUSH_EVERY, Ordering::Relaxed);
            }
            self.left.set(HIT_FLUSH_EVERY);
        } else {
            self.left.set(left);
        }
    }

    /// Credits the pending partial batch to `hits` if `owner` owns it,
    /// then starts an empty one (a reader's flush before it loads `hits`).
    pub fn flush(&self, owner: u64, hits: &AtomicU64) {
        let n = HIT_FLUSH_EVERY - self.left.get();
        if n > 0 {
            if self.owner.get() == owner {
                hits.fetch_add(n, Ordering::Relaxed);
            }
            self.left.set(HIT_FLUSH_EVERY);
        }
    }

    /// The miss path: flush the pending batch, then credit the next one
    /// to `owner`.
    pub fn restart(&self, owner: u64, hits: &AtomicU64) {
        self.flush(owner, hits);
        self.owner.set(owner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_credit_only_their_owner() {
        let (c, hits) = (HitCountdown::new(), AtomicU64::new(0));
        let total = || hits.load(Ordering::Relaxed);
        c.restart(1, &hits);
        for _ in 0..HIT_FLUSH_EVERY + 3 {
            c.hit(1, &hits);
        }
        assert_eq!(total(), HIT_FLUSH_EVERY, "a full batch lands at once");
        c.flush(1, &hits);
        assert_eq!(total(), HIT_FLUSH_EVERY + 3, "a reader's flush is exact");
        // Instance 2 hits without a miss of its own: the batch is still
        // instance 1's, so 2's flush drops it instead of crediting it.
        for _ in 0..5 {
            c.hit(2, &hits);
        }
        c.restart(2, &hits);
        assert_eq!(total(), HIT_FLUSH_EVERY + 3);
        c.hit(2, &hits);
        c.flush(2, &hits);
        assert_eq!(
            total(),
            HIT_FLUSH_EVERY + 4,
            "after its miss, 2 owns the batch"
        );
    }
}
