//! Deferred free sweep: a bounded quarantine behind a sharded work queue.
//!
//! With `Config::deferred_sweep` on, `on_free` retires the object's epoch,
//! detaches its pointer logs, and enqueues an [`ObjectSweep`] here instead
//! of walking the logs on the freeing thread. Helper threads (or the
//! freeing thread itself, under backpressure or an explicit drain) pop
//! jobs and run the invalidation walk; the freed block stays quarantined
//! in the heap — on no free list — until its sweep retires, so its
//! address range can never be recarved while stale pointers to it are
//! still being masked.
//!
//! The queue copies `heap::magazine`'s central-list discipline: four
//! shards, each a mutex around a deque, with a home shard per thread and
//! steal-before-sleep probing of the other shards. Each job is one whole
//! object, and `pending` counts objects queued or in flight, which is what
//! both the backpressure caps and `drain` wait on.

use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use dangsan_vmem::Addr;

use crate::log::ThreadLog;
use crate::object::ObjectMeta;

/// Work-queue shards, matching `heap::magazine`'s central-list sharding.
pub(crate) const SWEEP_SHARDS: usize = 4;

/// The detached log chain of a freed object. The chain was removed from
/// its `ObjectMeta` with a `swap`, so the holder is its sole owner; logs
/// are pool-owned type-stable memory, safe to walk from any thread.
pub(crate) struct LogChain(pub *mut ThreadLog);

// SAFETY: the chain is detached (unreachable from the metadata record)
// and logs live in a type-stable pool owned by the detector, which
// outlives the queue and its workers.
unsafe impl Send for LogChain {}

/// The metadata record of a freed object, carried to its retire.
///
/// A deferred free does *not* tear down the shadow mapping or recycle
/// the record — both wait for the sweep's retire, keeping the free hook
/// O(1). The quarantine makes the delay safe: the block cannot be
/// recarved (so no new object needs these shadow slots) until the
/// retiring sweep has cleared them and recycled the record.
#[derive(Clone, Copy)]
pub(crate) struct MetaRef(pub *const ObjectMeta);

// SAFETY: records are pool-owned type-stable memory; from detach to
// retire the sweep holding this reference is the record's sole owner.
unsafe impl Send for MetaRef {}

/// A freed object's identity and teardown handles, snapshotted at the
/// free and carried to its retire.
#[derive(Clone, Copy)]
pub(crate) struct FreedObject {
    /// Base address snapshot of the freed block.
    pub base: Addr,
    /// Inclusive end-of-range snapshot (`ObjectMeta::end` semantics).
    pub end: Addr,
    /// The epoch the object lived under — its identity in the trace.
    pub obj_id: u64,
    /// Shadow bytes covered by the object (`ObjectMeta::covered`).
    pub covered: u64,
    /// The record to clear + recycle when the object retires.
    pub meta: MetaRef,
    /// Bytes charged to the queue's quarantine accounting by
    /// [`SweepQueue::push_object`], released when the sweep retires;
    /// `None` for inline sweeps, which never enter the queue.
    pub charge: Option<u64>,
}

/// One freed object awaiting its invalidation walk.
pub(crate) struct ObjectSweep {
    /// The object being swept.
    pub obj: FreedObject,
    /// The object's detached per-thread logs.
    pub logs: LogChain,
}

/// One work-queue shard: its jobs and the deepest the deque ever got,
/// both behind the shard's mutex.
#[derive(Default)]
struct Shard {
    jobs: VecDeque<ObjectSweep>,
    /// Highest job depth this shard's deque ever reached (diagnostics:
    /// surfaced through `StatsSnapshot::sweep_shard_peaks` so the scaling
    /// bench can show how evenly frees spread across shards).
    peak: u64,
}

impl Shard {
    fn push(&mut self, job: ObjectSweep) {
        self.jobs.push_back(job);
        self.peak = self.peak.max(self.jobs.len() as u64);
    }
}

/// The sharded deferred-sweep queue (see the module docs).
pub(crate) struct SweepQueue {
    shards: [Mutex<Shard>; SWEEP_SHARDS],
    /// Objects enqueued and not yet retired (in-flight included).
    pending: AtomicU64,
    /// Bytes quarantined by those objects.
    pending_bytes: AtomicU64,
    /// Shutdown flag for the workers; set before the final drain.
    stop: AtomicU64,
    /// Byte/object caps beyond which a freeing thread sweeps a batch.
    max_bytes: u64,
    max_objects: u64,
    /// Sleep/wake rendezvous: workers wait here for work, `drain` waits
    /// here for in-flight jobs to retire. One condvar for both — every
    /// waiter re-checks its own condition.
    sync: Mutex<()>,
    cv: Condvar,
    /// Workers currently asleep; enqueue skips the notify syscall when
    /// nobody is listening (the common case in a free-heavy loop).
    sleepers: AtomicU64,
}

impl SweepQueue {
    pub(crate) fn new(max_bytes: u64, max_objects: u64) -> SweepQueue {
        SweepQueue {
            shards: Default::default(),
            pending: AtomicU64::new(0),
            pending_bytes: AtomicU64::new(0),
            stop: AtomicU64::new(0),
            max_bytes,
            max_objects,
            sync: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicU64::new(0),
        }
    }

    /// The calling thread's home shard (stable per thread, spread by id).
    pub(crate) fn home_shard() -> usize {
        (dangsan_trace::current_thread_id() as usize) % SWEEP_SHARDS
    }

    fn shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().expect("not poisoned")
    }

    /// Enqueues a fresh object sweep, charging `bytes` to the quarantine
    /// accounting (recorded in the job, released by its retire). Returns
    /// `(pending objects, pending bytes)` after the enqueue, for the
    /// trace event and the caller's backpressure check.
    pub(crate) fn push_object(&self, mut job: ObjectSweep, bytes: u64) -> (u64, u64) {
        job.obj.charge = Some(bytes);
        self.shard(Self::home_shard()).push(job);
        let pending = self.pending.fetch_add(1, Ordering::AcqRel) + 1;
        let pending_bytes = self.pending_bytes.fetch_add(bytes, Ordering::AcqRel) + bytes;
        self.wake();
        (pending, pending_bytes)
    }

    /// Returns a popped job to the queue (a worker losing its detector
    /// reference mid-shutdown hands the job back for the final drain).
    pub(crate) fn push_back(&self, job: ObjectSweep) {
        self.shard(Self::home_shard()).jobs.push_back(job);
        self.wake();
    }

    /// Wakes waiters after a push. The sleeper count lets the common
    /// free-heavy case (workers busy, nobody asleep) skip the notify;
    /// the SeqCst pairing with the waiters' increment-before-recheck
    /// makes the skip safe: either this load sees the sleeper (and the
    /// notify, serialized by `sync`, reaches its wait), or the sleeper's
    /// recheck sees the push and never sleeps.
    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.sync.lock().expect("not poisoned");
            // One push, one waiter: every waiter on this condvar makes
            // progress on a queued job (workers run it, a drain's wait
            // loop pops and runs it itself), so notify_one suffices and
            // skips the thundering herd a free-heavy loop would trigger.
            self.cv.notify_one();
        }
    }

    /// Pops up to `max` jobs, draining the calling thread's home shard
    /// first and stealing from the other shards only if the home shard
    /// holds fewer than `max`. A free that trips a cap sweeps one such
    /// batch: one lock acquisition per visited shard (not per job), and
    /// the home-first order keeps a freeing thread sweeping mostly its
    /// own objects — but it still steals when its shard is short,
    /// because with global caps a thread that cannot steal would trip
    /// `over_cap` on every free while the backlog sits untouched in
    /// someone else's shard. Takes from the *back* of each shard —
    /// newest first, the objects whose log chains and shadow lines the
    /// freeing thread just touched — while helpers and `drain` pop the
    /// front. With no helpers, nothing takes the oldest jobs before
    /// `drain`; the caps still bound how many wait. Returns the number of
    /// jobs taken by stealing.
    pub(crate) fn pop_batch(&self, home: usize, max: usize, out: &mut Vec<ObjectSweep>) -> u64 {
        let mut stolen = 0;
        for probe in 0..SWEEP_SHARDS {
            let left = max - out.len();
            if left == 0 {
                break;
            }
            let jobs = &mut self.shard((home + probe) % SWEEP_SHARDS).jobs;
            let take = left.min(jobs.len());
            if probe != 0 {
                stolen += take as u64;
            }
            let split = jobs.len() - take;
            out.extend(jobs.drain(split..));
        }
        stolen
    }

    /// Pops a job: the home shard first (FIFO), then steals from the
    /// other shards. The flag reports whether the job was stolen.
    pub(crate) fn pop(&self, home: usize) -> Option<(ObjectSweep, bool)> {
        for probe in 0..SWEEP_SHARDS {
            let job = self.shard((home + probe) % SWEEP_SHARDS).jobs.pop_front();
            if let Some(job) = job {
                return Some((job, probe != 0));
            }
        }
        None
    }

    /// Retires one object: releases its quarantine charge and wakes any
    /// `drain` waiting for the count to reach zero.
    pub(crate) fn retire_object(&self, bytes: u64) {
        self.pending_bytes.fetch_sub(bytes, Ordering::AcqRel);
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.sync.lock().expect("not poisoned");
            self.cv.notify_all();
        }
    }

    /// Objects enqueued and not yet retired.
    pub(crate) fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Estimated bytes held by pending sweeps (the quarantine charge).
    pub(crate) fn pending_bytes(&self) -> u64 {
        self.pending_bytes.load(Ordering::Acquire)
    }

    /// Each shard's *current* backlog depth (jobs queued right now; the
    /// telemetry gauge twin of the monotone [`SweepQueue::shard_peaks`]).
    /// One short lock per shard — cold, collection-path only.
    pub(crate) fn shard_depths(&self) -> [u64; SWEEP_SHARDS] {
        core::array::from_fn(|i| self.shard(i).jobs.len() as u64)
    }

    /// Whether the quarantine exceeds either cap (a freeing thread that
    /// finds it so sweeps one batch before it returns).
    pub(crate) fn over_cap(&self) -> bool {
        self.pending.load(Ordering::Acquire) > self.max_objects
            || self.pending_bytes.load(Ordering::Acquire) > self.max_bytes
    }

    /// Signals the workers to exit once the queue is empty.
    pub(crate) fn request_stop(&self) {
        self.stop.store(1, Ordering::Release);
        let _g = self.sync.lock().expect("not poisoned");
        self.cv.notify_all();
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire) != 0
    }

    /// Blocks until new work may be available or the queue is stopping.
    /// Returns immediately if a job was pushed since the caller's last
    /// empty `pop`: the sleeper count is raised (SeqCst) *before* the
    /// emptiness re-check, so any push racing with this wait either sees
    /// the sleeper in [`SweepQueue::wake`] or happened early enough for
    /// the re-check to see the job.
    pub(crate) fn wait_for_work(&self) {
        let g = self.sync.lock().expect("not poisoned");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !self.stopping() && self.is_empty() {
            let _g = self.cv.wait(g).expect("not poisoned");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until either a job is poppable or every pending object has
    /// retired. Used by `drain` when the queue looks empty but jobs are
    /// still in flight on the workers.
    pub(crate) fn wait_for_retire_or_work(&self) {
        let g = self.sync.lock().expect("not poisoned");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.pending() != 0 && self.is_empty() {
            let _g = self.cv.wait(g).expect("not poisoned");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Highest depth each shard ever reached (see [`Shard::peak`]).
    /// One short lock per shard — cold, collection-path only.
    pub(crate) fn shard_peaks(&self) -> [u64; SWEEP_SHARDS] {
        core::array::from_fn(|i| self.shard(i).peak)
    }

    fn is_empty(&self) -> bool {
        (0..SWEEP_SHARDS).all(|i| self.shard(i).jobs.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> ObjectSweep {
        ObjectSweep {
            obj: FreedObject {
                base: 0x1000,
                end: 0x103f,
                obj_id: 7,
                covered: 64,
                meta: MetaRef(core::ptr::null()),
                charge: None,
            },
            logs: LogChain(core::ptr::null_mut()),
        }
    }

    #[test]
    fn push_pop_retire_accounting() {
        let q = SweepQueue::new(1 << 20, 8);
        assert_eq!(q.push_object(job(), 100), (1, 100));
        assert_eq!(q.push_object(job(), 50), (2, 150));
        assert!(!q.over_cap());
        let home = SweepQueue::home_shard();
        let (j, stolen) = q.pop(home).expect("job queued");
        assert!(!stolen, "home shard serves its own pushes first");
        assert_eq!(j.obj.charge, Some(100));
        // Popping does not retire: the object is in flight, still pending.
        assert_eq!(q.pending(), 2);
        q.retire_object(100);
        assert_eq!(q.pending(), 1);
        q.pop(home).expect("second job");
        q.retire_object(50);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn steals_report_and_caps_trip() {
        let q = SweepQueue::new(120, 1024);
        q.push_object(job(), 100);
        // Pop from a different home shard: found by stealing.
        let other = (SweepQueue::home_shard() + 1) % SWEEP_SHARDS;
        let (_, stolen) = q.pop(other).expect("stealable");
        assert!(stolen);
        assert!(!q.over_cap());
        q.push_object(job(), 100);
        assert!(q.over_cap(), "200 quarantined bytes exceed the 120 cap");
        q.retire_object(100);
        q.retire_object(100);
        assert!(!q.over_cap());
    }

    #[test]
    fn shard_peaks_track_high_water() {
        let q = SweepQueue::new(1 << 20, 1024);
        let home = SweepQueue::home_shard();
        q.push_object(job(), 8);
        q.push_object(job(), 8);
        q.push_object(job(), 8);
        assert_eq!(q.shard_peaks()[home], 3);
        let mut out = Vec::new();
        q.pop_batch(home, 3, &mut out);
        assert_eq!(out.len(), 3);
        q.push_object(job(), 8);
        assert_eq!(q.shard_peaks()[home], 3, "peak is a high-water mark");
    }
}
