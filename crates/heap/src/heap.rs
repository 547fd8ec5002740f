//! The heap proper: page heap, sharded central free lists,
//! malloc/free/realloc, and the TLS-magazine fast path.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::collections::BTreeMap;
use std::sync::Arc;

use dangsan_trace::{EventCode, Registry, Trace, TraceLevel, Tracer};
use dangsan_vmem::{Addr, AddressSpace, HEAP_BASE, HEAP_SIZE, INVALID_BIT, PAGE_SIZE};
use std::sync::Mutex;

use crate::magazine;
use crate::size_classes::{class_for_size, classes, SizeClass};
use crate::span::{SpanInfo, SpanRegistry};
use crate::{AllocError, Allocation, FreeInfo};

/// Objects moved between a thread magazine and a central list per lock
/// acquisition.
pub(crate) const BATCH: usize = 32;

/// Shards per central free list. Threads home to a shard round-robin, so
/// the rare spill/refill batches from different threads usually take
/// different locks even within one size class.
pub const CENTRAL_SHARDS: usize = 4;

/// Outcome of `realloc`, mirroring the three cases of paper §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReallocOutcome {
    /// The object was left (or grown) in place; pointers stay valid and
    /// need not be invalidated.
    InPlace(Allocation),
    /// A new object was allocated and the contents copied; the caller's
    /// hooked `malloc`/`free` handle mapping and invalidation.
    Moved {
        /// The old object, already freed.
        old: FreeInfo,
        /// The replacement allocation holding the copied bytes.
        new: Allocation,
    },
}

/// The tcmalloc-style heap.
///
/// Thread-safe. With thread caching on (the default), the common
/// [`Heap::malloc`]/[`Heap::free`] is served lock-free from the calling
/// thread's TLS magazines (see the `magazine` module); magazines exchange
/// `BATCH`-sized block batches with the sharded central free lists, and
/// fresh spans are carved off a lock-free bump pointer. With
/// [`Heap::set_thread_cached`]`(false)` every operation takes the central
/// path (one short per-class shard lock each) — the "locked" ablation
/// baseline for the scaling benchmarks.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dangsan_vmem::AddressSpace;
/// use dangsan_heap::Heap;
///
/// let mem = Arc::new(AddressSpace::new());
/// let heap = Heap::new(Arc::clone(&mem));
/// let a = heap.malloc(24).unwrap();
/// mem.write_word(a.base, 7).unwrap();
/// heap.free(a.base).unwrap();
/// ```
pub struct Heap {
    mem: Arc<AddressSpace>,
    registry: SpanRegistry,
    /// Next unused page offset within the heap segment: a lock-free bump
    /// pointer (CAS loop, so a failed oversized carve consumes nothing).
    next_page: AtomicU64,
    /// Reusable dedicated spans for large allocations, keyed by page
    /// count. Large allocations are rare; a plain lock is fine here.
    large_pool: Mutex<BTreeMap<u64, Vec<Addr>>>,
    /// The central free lists, which the TLS magazines bind to.
    pub(crate) central: Arc<Central>,
    heap_pages: AtomicU64,
    /// Whether malloc/free go through the TLS magazines (default on).
    thread_cached: AtomicBool,
    /// Flight-recorder attach point; span carving is recorded here. The
    /// cached malloc/free fast paths never touch it.
    trace: Trace,
}

/// A heap's central free lists, `lists[class][shard]`, and the registry
/// of the TLS magazines that drain into them (see [`crate::magazine`]).
pub(crate) struct Central {
    pub(crate) lists: Vec<Vec<Mutex<Vec<Addr>>>>,
    /// Each bound thread's count of the blocks parked in its magazines.
    pub(crate) magazines: Registry<AtomicU64>,
}

impl Central {
    /// Returns `objs[keep..]` of `class_id` to the calling thread's home
    /// shard.
    pub(crate) fn push(&self, class_id: u32, objs: &mut Vec<Addr>, keep: usize) {
        let shard = magazine::shard_index();
        let mut list = self.lists[class_id as usize][shard]
            .lock()
            .expect("not poisoned");
        list.extend(objs.drain(keep..));
    }
}

impl Heap {
    /// Creates a heap managing the simulated heap segment of `mem`.
    pub fn new(mem: Arc<AddressSpace>) -> Arc<Heap> {
        let lists = classes()
            .iter()
            .map(|_| {
                (0..CENTRAL_SHARDS)
                    .map(|_| Mutex::new(Vec::new()))
                    .collect()
            })
            .collect();
        Arc::new(Heap {
            mem,
            registry: SpanRegistry::new(),
            next_page: AtomicU64::new(0),
            large_pool: Mutex::new(BTreeMap::new()),
            central: Arc::new(Central {
                lists,
                magazines: Registry::default(),
            }),
            heap_pages: AtomicU64::new(0),
            thread_cached: AtomicBool::new(true),
            trace: Trace::new(),
        })
    }

    /// Toggles the TLS-magazine fast path (on by default). Turning it off
    /// flushes the calling thread's magazines and routes subsequent
    /// malloc/free through the locked central lists — the ablation
    /// baseline `Config::thread_cached_heap = false` measures. Blocks
    /// parked by *other* threads stay put until those threads rebind or
    /// exit; use a fresh heap per ablation arm for clean comparisons.
    pub fn set_thread_cached(&self, on: bool) {
        self.thread_cached.store(on, Ordering::Relaxed);
        if !on {
            magazine::flush_current(self);
        }
    }

    /// Whether malloc/free use the TLS magazines.
    pub fn thread_cached(&self) -> bool {
        self.thread_cached.load(Ordering::Relaxed)
    }

    /// Drains the calling thread's magazines (if bound to this heap) back
    /// to the central lists. Exactly what happens automatically on thread
    /// exit or when the thread touches a different heap.
    pub fn flush_thread_cache(&self) {
        magazine::flush_current(self);
    }

    /// Total blocks currently parked in live TLS magazines, summed over
    /// every thread caching for this heap. Exact for any reader ordered
    /// after the caching threads (a `join`); zero once all threads have
    /// flushed or exited.
    pub fn magazine_blocks(&self) -> u64 {
        self.central
            .magazines
            .read(|mags| mags.iter().map(|n| n.load(Ordering::Relaxed)).sum())
    }

    /// Free blocks currently parked on each central-list shard, summed
    /// across size classes — the telemetry plane's shard-balance gauge
    /// (a heavily skewed distribution means thread homes are clustering
    /// on one lock). Cold: takes one short lock per (class, shard).
    pub fn central_shard_blocks(&self) -> [u64; CENTRAL_SHARDS] {
        let mut out = [0u64; CENTRAL_SHARDS];
        for class in &self.central.lists {
            for (o, shard) in out.iter_mut().zip(class.iter()) {
                *o += shard.lock().expect("not poisoned").len() as u64;
            }
        }
        out
    }

    /// Attaches a flight recorder; span carving is recorded from then on
    /// (at [`dangsan_trace::TraceLevel::Full`]). Once-only: the first
    /// tracer wins.
    pub fn set_tracer(&self, tracer: &Arc<Tracer>) {
        self.trace.attach(tracer);
    }

    /// The address space this heap allocates from.
    pub fn mem(&self) -> &Arc<AddressSpace> {
        &self.mem
    }

    /// Bytes of simulated memory the heap has claimed (its resident set).
    pub fn resident_bytes(&self) -> u64 {
        self.heap_pages.load(Ordering::Relaxed) * PAGE_SIZE
    }

    fn carve_pages(&self, pages: u64) -> Result<Addr, AllocError> {
        // CAS rather than fetch_add: an oversized request must fail
        // without advancing the bump pointer, or it would permanently
        // leak the address space it did not get.
        let mut start_page = self.next_page.load(Ordering::Relaxed);
        loop {
            let end_page = start_page
                .checked_add(pages)
                .ok_or(AllocError::OutOfMemory)?;
            let end_bytes = end_page
                .checked_mul(PAGE_SIZE)
                .ok_or(AllocError::OutOfMemory)?;
            if end_bytes > HEAP_SIZE {
                return Err(AllocError::OutOfMemory);
            }
            match self.next_page.compare_exchange_weak(
                start_page,
                end_page,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => start_page = current,
            }
        }
        let start = HEAP_BASE + start_page * PAGE_SIZE;
        self.mem
            .map(start, pages * PAGE_SIZE)
            .map_err(|_| AllocError::OutOfMemory)?;
        self.heap_pages.fetch_add(pages, Ordering::Relaxed);
        self.trace
            .record(TraceLevel::Full, EventCode::HeapCarve, start, pages, 0);
        Ok(start)
    }

    /// Carves a fresh span for `class` and pushes its objects onto `out`.
    fn refill_from_new_span(
        &self,
        class: &SizeClass,
        out: &mut Vec<Addr>,
    ) -> Result<(), AllocError> {
        let start = self.carve_pages(class.span_pages)?;
        let span = SpanInfo::new(
            start,
            class.span_pages,
            class.size,
            class.objects_per_span,
            class.shift,
            false,
        );
        let span = self.registry.insert(span);
        for i in 0..span.objects {
            out.push(span.object_base(i));
        }
        Ok(())
    }

    /// Pops up to `want` objects of `class` from the central lists into
    /// `out`: the calling thread's home shard first, then the other
    /// shards (blocks freed by other threads must be reachable before we
    /// spend fresh address space), and only then a freshly carved span —
    /// whose leftover objects are parked on the home shard.
    pub(crate) fn central_pop(
        &self,
        class: &SizeClass,
        want: usize,
        out: &mut Vec<Addr>,
    ) -> Result<(), AllocError> {
        let shards = &self.central.lists[class.id as usize];
        let home = magazine::shard_index();
        for probe in 0..CENTRAL_SHARDS {
            let mut list = shards[(home + probe) % CENTRAL_SHARDS]
                .lock()
                .expect("not poisoned");
            if list.is_empty() {
                continue;
            }
            let take = want.min(list.len());
            let at = list.len() - take;
            out.extend(list.drain(at..));
            return Ok(());
        }
        let mut fresh = Vec::new();
        self.refill_from_new_span(class, &mut fresh)?;
        let take = want.min(fresh.len());
        let at = fresh.len() - take;
        out.extend(fresh.drain(at..));
        if !fresh.is_empty() {
            shards[home]
                .lock()
                .expect("not poisoned")
                .append(&mut fresh);
        }
        Ok(())
    }

    fn finish_alloc(&self, span: &SpanInfo, base: Addr, requested: u64) -> Allocation {
        let idx = span.object_index(base).expect("base inside span");
        let fresh = span.mark_allocated(idx);
        debug_assert!(fresh, "object handed out twice");
        Allocation {
            base,
            requested,
            usable: span.stride - 1,
            span_start: span.start,
            span_pages: span.pages,
            stride: span.stride,
            shift: span.shift,
        }
    }

    pub(crate) fn alloc_small(
        &self,
        class: &SizeClass,
        requested: u64,
    ) -> Result<Allocation, AllocError> {
        let base = if self.thread_cached() {
            magazine::alloc(self, class.id)?
        } else {
            let mut one = Vec::with_capacity(1);
            self.central_pop(class, 1, &mut one)?;
            one.pop().expect("central_pop returns at least one")
        };
        let span = self.registry.lookup(base).expect("object has a span");
        Ok(self.finish_alloc(span, base, requested))
    }

    fn alloc_large(&self, requested: u64) -> Result<Allocation, AllocError> {
        let pages = (requested + 1).div_ceil(PAGE_SIZE);
        let reused = {
            let mut pool = self.large_pool.lock().expect("not poisoned");
            pool.get_mut(&pages).and_then(Vec::pop)
        };
        let start = match reused {
            Some(start) => start,
            None => {
                let start = self.carve_pages(pages)?;
                self.registry
                    .insert(SpanInfo::new(start, pages, pages * PAGE_SIZE, 1, 12, true));
                start
            }
        };
        let span = self.registry.lookup(start).expect("span just ensured");
        // Reused spans may contain stale data; programs expect malloc'd
        // memory to be arbitrary, but we zero to keep runs deterministic.
        self.mem
            .zero(start, span.pages * PAGE_SIZE)
            .expect("span memory is mapped");
        Ok(self.finish_alloc(span, start, requested))
    }

    /// Allocates `size` bytes (plus the paper's one guard byte) and returns
    /// the object with its span layout.
    pub fn malloc(&self, size: u64) -> Result<Allocation, AllocError> {
        let internal = size.checked_add(1).ok_or(AllocError::BadSize)?;
        match class_for_size(internal) {
            Some(class) => self.alloc_small(class, size),
            None => self.alloc_large(size),
        }
    }

    /// `calloc`: allocates and zero-fills (reused small objects may
    /// otherwise carry stale bytes, exactly like real malloc).
    pub fn calloc(&self, count: u64, size: u64) -> Result<Allocation, AllocError> {
        let total = count.checked_mul(size).ok_or(AllocError::BadSize)?;
        let a = self.malloc(total)?;
        self.mem
            .zero(a.base, total)
            .expect("fresh allocation is mapped");
        Ok(a)
    }

    /// Validates that `addr` is the base of a live heap object without
    /// changing any state. The heap tracker calls this before letting the
    /// detector invalidate pointers, so invalidation always happens while
    /// the object still owns its memory.
    pub fn resolve_free(&self, addr: Addr) -> Result<FreeInfo, AllocError> {
        let (span, idx) = self.object_slot(addr)?;
        if !span.is_allocated(idx) {
            return Err(AllocError::DoubleFree(addr));
        }
        Ok(FreeInfo {
            base: addr,
            usable: span.stride - 1,
        })
    }

    /// The span and slot index of the object whose base is `addr`: the
    /// lookup every free and realloc starts with. A masked pointer is an
    /// `InvalidPointer`; an address that is not an object base is
    /// `NotAnObject`. Whether the slot is live is the caller's check.
    fn object_slot(&self, addr: Addr) -> Result<(&SpanInfo, u64), AllocError> {
        if addr & INVALID_BIT != 0 {
            return Err(AllocError::InvalidPointer(addr));
        }
        let span = self
            .registry
            .lookup(addr)
            .ok_or(AllocError::NotAnObject(addr))?;
        let idx = span
            .object_index(addr)
            .ok_or(AllocError::NotAnObject(addr))?;
        if span.object_base(idx) != addr {
            return Err(AllocError::NotAnObject(addr));
        }
        Ok((span, idx))
    }

    /// Shared free logic: validates, clears the liveness bit, and returns
    /// the span so the caller can decide where the object goes.
    fn release(&self, addr: Addr) -> Result<(&SpanInfo, FreeInfo), AllocError> {
        let (span, idx) = self.object_slot(addr)?;
        if !span.mark_free(idx) {
            return Err(AllocError::DoubleFree(addr));
        }
        Ok((
            span,
            FreeInfo {
                base: addr,
                usable: span.stride - 1,
            },
        ))
    }

    /// Returns a (released) large span to the reuse pool.
    fn pool_large(&self, span: &SpanInfo) {
        self.large_pool
            .lock()
            .expect("not poisoned")
            .entry(span.pages)
            .or_default()
            .push(span.start);
    }

    /// Puts the released block at `addr` back into circulation: a large
    /// span into the reuse pool, a small block into the calling thread's
    /// magazine when thread caching is on, otherwise straight to the home
    /// central-list shard.
    /// Inlined into both callers: `free` and a retiring sweep's
    /// single-block requeue are each on a hot path.
    #[inline(always)]
    fn put_back(&self, span: &SpanInfo, addr: Addr) {
        if span.large {
            self.pool_large(span);
            return;
        }
        let class_id = class_for_size(span.stride)
            .expect("span stride is a class size")
            .id;
        if self.thread_cached() {
            magazine::free(self, class_id, addr);
        } else {
            let shard = magazine::shard_index();
            self.central.lists[class_id as usize][shard]
                .lock()
                .expect("not poisoned")
                .push(addr);
        }
    }

    /// Frees the object at `addr`: into the calling thread's magazine
    /// when thread caching is on, otherwise straight to the home
    /// central-list shard.
    pub fn free(&self, addr: Addr) -> Result<FreeInfo, AllocError> {
        let (span, info) = self.release(addr)?;
        self.put_back(span, addr);
        Ok(info)
    }

    /// Frees the object at `addr` into quarantine: the liveness bit is
    /// cleared (so a second free still reports `DoubleFree`), but the
    /// block is pushed to *no* free list — it cannot be handed out by
    /// `malloc` again until a matching [`Heap::requeue_batch`] retires
    /// it. Deferred-sweep
    /// detectors use this to keep a block out of circulation while its
    /// invalidation sweep is still in flight, so the object's address
    /// range can never be recarved (and its range-check snapshot never
    /// aliased) before the sweep completes.
    pub fn quarantine(&self, addr: Addr) -> Result<FreeInfo, AllocError> {
        let (_span, info) = self.release(addr)?;
        Ok(info)
    }

    /// Retires a batch of quarantined blocks, making them allocatable
    /// again. Large spans go back to the reuse pool; small blocks are
    /// grouped per size class and pushed to the caller's home central
    /// shard in one lock acquisition per class (the magazine spill
    /// discipline — a sweep retire must not pay one lock per block).
    pub fn requeue_batch(&self, addrs: &[Addr]) {
        // The common caller is a retiring sweep requeuing one block; that
        // path must not allocate (it sits on the drain's critical path),
        // so singles go back the way a plain free's block does.
        if let [addr] = *addrs {
            let span = self
                .registry
                .lookup(addr)
                .expect("quarantined block's span is registered");
            self.put_back(span, addr);
            return;
        }
        let shard = magazine::shard_index();
        let mut by_class: Vec<Vec<Addr>> = vec![Vec::new(); classes().len()];
        for &addr in addrs {
            let span = self
                .registry
                .lookup(addr)
                .expect("quarantined block's span is registered");
            if span.large {
                self.pool_large(span);
            } else {
                let class_id = class_for_size(span.stride)
                    .expect("span stride is a class size")
                    .id;
                by_class[class_id as usize].push(addr);
            }
        }
        for (class_id, blocks) in by_class.iter().enumerate() {
            if !blocks.is_empty() {
                self.central.lists[class_id][shard]
                    .lock()
                    .expect("not poisoned")
                    .extend_from_slice(blocks);
            }
        }
    }

    /// Resizes the object at `addr` (paper §4.2 semantics).
    ///
    /// In-place when the new size still fits the object's stride; otherwise
    /// allocates, copies, and frees, returning both halves so a heap
    /// tracker can invalidate pointers to the old object.
    pub fn realloc(&self, addr: Addr, new_size: u64) -> Result<ReallocOutcome, AllocError> {
        let (span, idx) = self.object_slot(addr)?;
        // Unlike a free, a realloc of a freed block is not a double free:
        // the block is simply not an object any more.
        if !span.is_allocated(idx) {
            return Err(AllocError::NotAnObject(addr));
        }
        let internal = new_size.checked_add(1).ok_or(AllocError::BadSize)?;
        if internal <= span.stride {
            return Ok(ReallocOutcome::InPlace(Allocation {
                base: addr,
                requested: new_size,
                usable: span.stride - 1,
                span_start: span.start,
                span_pages: span.pages,
                stride: span.stride,
                shift: span.shift,
            }));
        }
        let old_usable = span.stride - 1;
        let new = self.malloc(new_size)?;
        let copy_len = old_usable.min(new_size);
        // The simulated memcpy: like the real one, it copies pointer bits
        // without telling the detector (paper §7 limitation).
        self.mem
            .copy(addr, new.base, copy_len)
            .expect("both objects are mapped");
        let old = self.free(addr)?;
        Ok(ReallocOutcome::Moved { old, new })
    }

    /// Resolves an arbitrary interior pointer to `(object base, usable)`.
    pub fn object_of(&self, addr: Addr) -> Option<(Addr, u64)> {
        self.registry.object_of(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<AddressSpace>, Arc<Heap>) {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        (mem, heap)
    }

    #[test]
    fn malloc_free_roundtrip() {
        let (mem, heap) = setup();
        let a = heap.malloc(100).unwrap();
        assert!((HEAP_BASE..HEAP_BASE + HEAP_SIZE).contains(&a.base));
        assert!(a.usable >= 100);
        mem.write_word(a.base, 42).unwrap();
        let info = heap.free(a.base).unwrap();
        assert_eq!(info.base, a.base);
    }

    #[test]
    fn guard_byte_forces_next_class() {
        let (_, heap) = setup();
        // Requesting exactly a class size must land in the *next* class
        // because of the +1 guard byte.
        let a = heap.malloc(8).unwrap();
        assert!(a.stride > 8, "stride {} should exceed 8", a.stride);
    }

    #[test]
    fn objects_do_not_overlap() {
        let (_, heap) = setup();
        let mut allocs = Vec::new();
        for i in 0..500u64 {
            allocs.push(heap.malloc(1 + (i % 300)).unwrap());
        }
        let mut ranges: Vec<(u64, u64)> =
            allocs.iter().map(|a| (a.base, a.base + a.stride)).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn free_reuses_memory() {
        let (_, heap) = setup();
        let a = heap.malloc(64).unwrap();
        heap.free(a.base).unwrap();
        let b = heap.malloc(64).unwrap();
        assert_eq!(a.base, b.base, "LIFO reuse from central list");
    }

    #[test]
    fn flush_returns_objects_to_central() {
        let (_, heap) = setup();
        let a = heap.malloc(16).unwrap();
        heap.free(a.base).unwrap();
        heap.flush_thread_cache();
        assert_eq!(heap.magazine_blocks(), 0, "flush empties the magazines");
        // Allocate through the locked path so the flushed block cannot
        // hide in a refilled magazine while we search for it.
        heap.set_thread_cached(false);
        let seen = (0..200).any(|_| heap.malloc(16).unwrap().base == a.base);
        assert!(seen, "flushed object is reachable from the central list");
    }

    #[test]
    fn double_free_detected() {
        let (_, heap) = setup();
        let a = heap.malloc(64).unwrap();
        heap.free(a.base).unwrap();
        assert_eq!(heap.free(a.base), Err(AllocError::DoubleFree(a.base)));
    }

    #[test]
    fn quarantined_block_is_unreachable_until_requeued() {
        let (_, heap) = setup();
        // Pin the class's free lists empty so reuse is observable.
        heap.set_thread_cached(false);
        let a = heap.malloc(64).unwrap();
        heap.quarantine(a.base).unwrap();
        // Quarantine counts as the free for double-free...
        assert_eq!(heap.quarantine(a.base), Err(AllocError::DoubleFree(a.base)));
        assert_eq!(heap.free(a.base), Err(AllocError::DoubleFree(a.base)));
        // ...but the block is on no list: a same-class malloc must carve
        // elsewhere instead of handing the quarantined address back.
        let b = heap.malloc(64).unwrap();
        assert_ne!(a.base, b.base, "quarantined block was recarved");
        heap.requeue_batch(&[a.base]);
        let c = heap.malloc(64).unwrap();
        assert_eq!(a.base, c.base, "requeued block is allocatable again");
        heap.free(b.base).unwrap();
        heap.free(c.base).unwrap();
    }

    #[test]
    fn requeue_batch_groups_classes_and_large_spans() {
        let (_, heap) = setup();
        heap.set_thread_cached(false);
        let small_a = heap.malloc(64).unwrap();
        let small_b = heap.malloc(64).unwrap();
        let other = heap.malloc(300).unwrap();
        let large = heap.malloc(200 * 1024).unwrap();
        for a in [&small_a, &small_b, &other, &large] {
            heap.quarantine(a.base).unwrap();
        }
        heap.requeue_batch(&[small_a.base, small_b.base, other.base, large.base]);
        // Every retired block (including the large span) is reusable.
        let l2 = heap.malloc(200 * 1024).unwrap();
        assert_eq!(l2.base, large.base, "large span back in the reuse pool");
        let o2 = heap.malloc(300).unwrap();
        assert_eq!(o2.base, other.base);
        let s1 = heap.malloc(64).unwrap();
        let s2 = heap.malloc(64).unwrap();
        let mut got = [s1.base, s2.base];
        got.sort_unstable();
        let mut want = [small_a.base, small_b.base];
        want.sort_unstable();
        assert_eq!(got, want, "both small blocks retired to the class list");
    }

    #[test]
    fn invalidated_pointer_free_detected() {
        let (_, heap) = setup();
        let a = heap.malloc(64).unwrap();
        let dangling = a.base | INVALID_BIT;
        assert_eq!(
            heap.free(dangling),
            Err(AllocError::InvalidPointer(dangling))
        );
        let msg = AllocError::InvalidPointer(dangling).to_string();
        assert!(msg.contains("Attempt to free invalid pointer"));
    }

    #[test]
    fn interior_free_rejected() {
        let (_, heap) = setup();
        let a = heap.malloc(64).unwrap();
        assert_eq!(
            heap.free(a.base + 8),
            Err(AllocError::NotAnObject(a.base + 8))
        );
    }

    #[test]
    fn free_and_realloc_share_the_lookup_but_not_the_freed_verdict() {
        // Masked and interior addresses fail the shared lookup the same
        // way everywhere; a freed block is a double free to the free
        // paths but names no object to realloc.
        let (_, heap) = setup();
        let a = heap.malloc(64).unwrap();
        let masked = a.base | INVALID_BIT;
        let interior = a.base + 8;
        for (addr, err) in [
            (masked, AllocError::InvalidPointer(masked)),
            (interior, AllocError::NotAnObject(interior)),
        ] {
            assert_eq!(heap.resolve_free(addr), Err(err));
            assert_eq!(heap.quarantine(addr), Err(err));
            assert_eq!(heap.realloc(addr, 8).unwrap_err(), err);
        }
        heap.free(a.base).unwrap();
        let freed = AllocError::DoubleFree(a.base);
        assert_eq!(heap.resolve_free(a.base), Err(freed));
        assert_eq!(heap.quarantine(a.base), Err(freed));
        assert_eq!(heap.free(a.base), Err(freed));
        assert_eq!(
            heap.realloc(a.base, 8).unwrap_err(),
            AllocError::NotAnObject(a.base)
        );
    }

    #[test]
    fn large_allocations_roundtrip_and_reuse() {
        let (mem, heap) = setup();
        let a = heap.malloc(100_000).unwrap();
        assert_eq!(a.span_pages, (100_001u64).div_ceil(PAGE_SIZE));
        assert_eq!(a.shift, 12);
        mem.write_word(a.base + 99_992, 7).unwrap();
        heap.free(a.base).unwrap();
        let b = heap.malloc(100_000).unwrap();
        assert_eq!(a.base, b.base, "large span reused");
        // Reused span is zeroed.
        assert_eq!(mem.read_word(b.base + 99_992).unwrap(), 0);
    }

    #[test]
    fn realloc_in_place_when_it_fits() {
        let (_, heap) = setup();
        let a = heap.malloc(20).unwrap();
        match heap.realloc(a.base, a.usable).unwrap() {
            ReallocOutcome::InPlace(n) => {
                assert_eq!(n.base, a.base);
                assert_eq!(n.requested, a.usable);
            }
            other => panic!("expected in-place, got {other:?}"),
        }
    }

    #[test]
    fn realloc_moves_and_copies() {
        let (mem, heap) = setup();
        let a = heap.malloc(24).unwrap();
        mem.write_word(a.base, 0x1111).unwrap();
        mem.write_word(a.base + 16, 0x2222).unwrap();
        match heap.realloc(a.base, 5000).unwrap() {
            ReallocOutcome::Moved { old, new } => {
                assert_eq!(old.base, a.base);
                assert_ne!(new.base, a.base);
                assert_eq!(mem.read_word(new.base).unwrap(), 0x1111);
                assert_eq!(mem.read_word(new.base + 16).unwrap(), 0x2222);
                // Old object is gone.
                assert_eq!(heap.free(a.base), Err(AllocError::DoubleFree(a.base)));
            }
            other => panic!("expected move, got {other:?}"),
        }
    }

    #[test]
    fn object_of_interior_pointer() {
        let (_, heap) = setup();
        let a = heap.malloc(100).unwrap();
        let (base, usable) = heap.object_of(a.base + 57).unwrap();
        assert_eq!(base, a.base);
        assert_eq!(usable, a.usable);
        assert!(
            heap.object_of(a.base + a.stride).is_none() || {
                // Next slot may be another (not yet allocated) object: must not
                // resolve to a live object.
                heap.object_of(a.base + a.stride).is_none()
            }
        );
    }

    #[test]
    fn resident_bytes_grow_with_spans() {
        let (_, heap) = setup();
        assert_eq!(heap.resident_bytes(), 0);
        let _a = heap.malloc(10).unwrap();
        assert!(heap.resident_bytes() >= PAGE_SIZE);
    }

    #[test]
    fn oversized_allocation_reports_oom() {
        let (_, heap) = setup();
        // A single request larger than the heap segment fails cleanly
        // before any pages are mapped.
        assert_eq!(heap.malloc(HEAP_SIZE), Err(AllocError::OutOfMemory));
        assert_eq!(heap.resident_bytes(), 0, "nothing was mapped");
        // The heap still works afterwards.
        let a = heap.malloc(64).unwrap();
        heap.free(a.base).unwrap();
    }

    #[test]
    fn calloc_zeroes_reused_memory() {
        let (mem, heap) = setup();
        let a = heap.malloc(64).unwrap();
        mem.write_word(a.base, 0xDEAD).unwrap();
        heap.free(a.base).unwrap();
        // malloc reuses the object with stale bytes...
        let b = heap.malloc(64).unwrap();
        assert_eq!(b.base, a.base);
        assert_eq!(mem.read_word(b.base).unwrap(), 0xDEAD, "stale bytes");
        heap.free(b.base).unwrap();
        // ...calloc does not.
        let c = heap.calloc(8, 8).unwrap();
        assert_eq!(c.base, a.base);
        assert_eq!(mem.read_word(c.base).unwrap(), 0);
        heap.free(c.base).unwrap();
    }

    #[test]
    fn calloc_rejects_overflowing_products() {
        let (_, heap) = setup();
        assert_eq!(heap.calloc(u64::MAX, 16), Err(AllocError::BadSize));
    }

    #[test]
    fn zero_size_malloc_is_allowed() {
        let (_, heap) = setup();
        let a = heap.malloc(0).unwrap();
        let b = heap.malloc(0).unwrap();
        assert_ne!(a.base, b.base, "zero-size objects are distinct");
        heap.free(a.base).unwrap();
        heap.free(b.base).unwrap();
    }

    #[test]
    fn concurrent_malloc_free() {
        let (_, heap) = setup();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let heap = Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                let mut live = Vec::new();
                for i in 0..2000u64 {
                    live.push(heap.malloc(8 + i % 200).unwrap().base);
                    if live.len() > 64 {
                        let victim = live.swap_remove((i % 64) as usize);
                        heap.free(victim).unwrap();
                    }
                }
                for a in live {
                    heap.free(a).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(heap.magazine_blocks(), 0, "joined threads drained");
    }
}
