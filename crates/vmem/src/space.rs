//! The sparse, thread-safe address space.
//!
//! Implemented as a three-level radix tree over the 48-bit canonical user
//! space (12 bits per level, 4 KiB leaf pages). Interior nodes and pages are
//! installed with compare-and-swap, so all accesses — including page-table
//! population — are lock-free. This matters for the reproduction: DangSan's
//! entire point is that pointer tracking adds no locks, so the substrate
//! underneath it must not add any either.

use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::cell::Cell;
use std::ptr;
use std::sync::Arc;

use dangsan_trace::{EventCode, Trace, TraceLevel, Tracer};

use crate::hits::HitCountdown;
use crate::layout::{
    is_canonical_user, page_of, word_index, Addr, PAGE_SHIFT, PAGE_SIZE, WORDS_PER_PAGE,
};
use crate::{FaultKind, MapError, MemFault};

/// A 4 KiB page of atomically accessible 8-byte words.
struct Page {
    words: [AtomicU64; WORDS_PER_PAGE],
}

impl Page {
    fn new_zeroed() -> Box<Page> {
        // A page is 4 KiB of zero bytes; AtomicU64 is repr(transparent) over
        // u64 so an all-zero allocation is a valid Page.
        // SAFETY: `Page` consists solely of `AtomicU64`s, for which the
        // all-zero bit pattern is a valid value, and `alloc_zeroed` returns
        // memory with the alignment of `Page`.
        unsafe {
            let layout = std::alloc::Layout::new::<Page>();
            let raw = std::alloc::alloc_zeroed(layout) as *mut Page;
            if raw.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            Box::from_raw(raw)
        }
    }
}

const FANOUT: usize = 1 << 12;

/// Number of entries in the per-thread software TLB (a power of two).
///
/// 64 direct-mapped entries cover 256 KiB of working set per thread, which
/// captures the instrumented-store hot path (the pointer slab, the log
/// arena and the object being written all live on a handful of pages)
/// while keeping the whole structure inside two cache lines of metadata.
const TLB_SLOTS: usize = 64;

/// One direct-mapped TLB entry: (validity stamp, page number) → raw page
/// pointer.
///
/// The stamp fuses the space's identity and its invalidation generation
/// into one word: stamps are drawn from a global never-reused counter, and
/// a space takes a fresh stamp on every `unmap`. A slot whose stamp equals
/// the space's *current* stamp was therefore filled by this very space
/// with no unmap since — one compare where an (id, generation) pair would
/// need two.
#[derive(Clone, Copy)]
struct TlbSlot {
    /// The filling space's `tlb_stamp` at fill time; 0 is never issued, so
    /// zeroed slots can never hit.
    stamp: u64,
    /// Virtual page number the entry translates.
    page: u64,
    /// The translation itself.
    ptr: *const Page,
}

impl TlbSlot {
    const EMPTY: TlbSlot = TlbSlot {
        stamp: 0,
        page: 0,
        ptr: ptr::null(),
    };
}

/// Per-thread translation state: the direct-mapped slot array plus a small
/// batch of hit counts not yet flushed to the owning space's atomic
/// counter (flushing every hit would put a contended `fetch_add` back on
/// the path the TLB exists to shorten).
struct ThreadTlb {
    slots: [Cell<TlbSlot>; TLB_SLOTS],
    /// Hits not yet credited, owned by the stamp of the last space that
    /// took a miss on this thread.
    hits: HitCountdown,
}

thread_local! {
    static TLB: ThreadTlb = const {
        ThreadTlb {
            slots: [const { Cell::new(TlbSlot::EMPTY) }; TLB_SLOTS],
            hits: HitCountdown::new(),
        }
    };
}

/// Stamps are handed out once and never reused (across all spaces), so a
/// stale TLB entry — from a dropped space, another space, or this space
/// before an `unmap` — can never match.
static NEXT_TLB_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_tlb_stamp() -> u64 {
    NEXT_TLB_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Hit/miss counters for a space's software TLB (see
/// [`AddressSpace::tlb_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Word accesses resolved from the calling threads' TLBs.
    pub hits: u64,
    /// Word accesses that walked the radix tree (including faulting ones).
    pub misses: u64,
}

/// Interior radix node: 4096 child pointers.
struct Node<C> {
    children: [AtomicPtr<C>; FANOUT],
}

impl<C> Node<C> {
    fn new() -> Box<Node<C>> {
        // SAFETY: the node is an array of `AtomicPtr`, for which the
        // all-zero (null) pattern is valid, and the allocation is made with
        // the node's own layout.
        unsafe {
            let layout = std::alloc::Layout::new::<Node<C>>();
            let raw = std::alloc::alloc_zeroed(layout) as *mut Node<C>;
            if raw.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            Box::from_raw(raw)
        }
    }

    /// Returns the child at `idx`, installing a new one created by `make`
    /// if none is present. Lock-free; on a lost race the loser's node is
    /// freed and the winner's returned.
    fn get_or_install(&self, idx: usize, make: impl FnOnce() -> *mut C) -> *mut C {
        let slot = &self.children[idx];
        let cur = slot.load(Ordering::Acquire);
        if !cur.is_null() {
            return cur;
        }
        let fresh = make();
        match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` was just created by `make`, never shared,
                // and lost the race, so we are its only owner.
                unsafe { drop(Box::from_raw(fresh)) };
                winner
            }
        }
    }

    fn get(&self, idx: usize) -> *mut C {
        self.children[idx].load(Ordering::Acquire)
    }
}

/// A page translated once, for batched word operations — the bulk
/// counterpart of [`AddressSpace::read_word`]/[`AddressSpace::write_word`],
/// obtained from [`AddressSpace::with_page`].
///
/// Every access through a `PageRef` skips the page-directory walk (and the
/// TLB) entirely: the translation was paid once for the whole page — TLB
/// accelerated, like any other access — which is what makes walking a
/// free-time pointer log by page cheaper than translating every location
/// individually.
pub struct PageRef<'a> {
    page: &'a Page,
    base: Addr,
}

impl core::fmt::Debug for PageRef<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PageRef").field("base", &self.base).finish()
    }
}

impl PageRef<'_> {
    /// First byte of the page this reference translates.
    pub fn base(&self) -> Addr {
        self.base
    }

    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU64 {
        debug_assert_eq!(addr & !(PAGE_SIZE - 1), self.base, "addr off page");
        debug_assert_eq!(addr % 8, 0, "unaligned word access");
        &self.page.words[word_index(addr)]
    }

    /// Reads the 8-byte word at `addr` (acquire ordering). `addr` must be
    /// 8-byte aligned and on this page.
    #[inline]
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.word(addr).load(Ordering::Acquire)
    }

    /// Writes the 8-byte word at `addr` (release ordering). `addr` must be
    /// 8-byte aligned and on this page.
    #[inline]
    pub fn write_word(&self, addr: Addr, value: u64) {
        self.word(addr).store(value, Ordering::Release);
    }

    /// Invalidates a run of `count` adjacent word slots starting at
    /// `first` (8-byte stride, entirely on this page) against the
    /// inclusive range `[lo, hi]`: the bounds are computed once for the
    /// whole run, then a straight slice walk sets `bit` into every word
    /// whose value still lands in the range. Each word keeps individual
    /// CAS semantics — a value concurrently overwritten by the program
    /// is never clobbered — but the run pays one index computation and
    /// no per-word assertions. A word outside the range (or one that
    /// loses its CAS) counts as stale. Returns `(invalidated, stale)`.
    pub fn invalidate_run(
        &self,
        first: Addr,
        count: usize,
        lo: Addr,
        hi: Addr,
        bit: u64,
    ) -> (u64, u64) {
        debug_assert!(count > 0, "empty run");
        debug_assert_eq!(first % 8, 0, "unaligned run");
        debug_assert_eq!(first & !(PAGE_SIZE - 1), self.base, "run start off page");
        debug_assert_eq!(
            (first + (count as u64 - 1) * 8) & !(PAGE_SIZE - 1),
            self.base,
            "run end off page"
        );
        let start = word_index(first);
        let mut invalidated = 0u64;
        let mut stale = 0u64;
        for word in &self.page.words[start..start + count] {
            let value = word.load(Ordering::Acquire);
            if lo <= value && value <= hi {
                match word.compare_exchange(value, value | bit, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => invalidated += 1,
                    Err(_) => stale += 1,
                }
            } else {
                stale += 1;
            }
        }
        (invalidated, stale)
    }
}

/// A sparse simulated 64-bit address space.
///
/// All word accesses are atomic with acquire/release semantics, so the
/// structure can be shared freely across threads (`Arc<AddressSpace>`).
///
/// # Examples
///
/// ```
/// use dangsan_vmem::{AddressSpace, HEAP_BASE, PAGE_SIZE};
///
/// let mem = AddressSpace::new();
/// mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
/// mem.write_word(HEAP_BASE + 8, 0xdead_beef).unwrap();
/// assert_eq!(mem.read_word(HEAP_BASE + 8).unwrap(), 0xdead_beef);
/// ```
pub struct AddressSpace {
    root: Box<Node<Node<Node<Page>>>>,
    mapped_pages: AtomicUsize,
    /// This space's current TLB validity stamp (see [`TlbSlot`]): globally
    /// unique, replaced with a fresh one on every `unmap`, so entries
    /// filled before the unmap stop matching — restoring fault-on-access
    /// semantics without touching other threads' TLBs.
    tlb_stamp: AtomicU64,
    /// Runtime kill switch for the TLB, used by the hot-path benchmarks to
    /// measure the uncached walk on the same binary.
    tlb_enabled: AtomicBool,
    tlb_hits: AtomicU64,
    tlb_misses: AtomicU64,
    /// Flight-recorder attach point; faults are recorded here. Detached
    /// (free) until [`AddressSpace::set_tracer`], and only fault paths
    /// consult it — word-access fast paths never touch it.
    trace: Trace,
}

// SAFETY: all interior mutability is through atomics; raw child pointers are
// only written via CAS and only freed in `Drop` (when `&mut self` guarantees
// exclusive access).
unsafe impl Send for AddressSpace {}
// SAFETY: as above; shared references only perform atomic operations.
unsafe impl Sync for AddressSpace {}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space with nothing mapped.
    pub fn new() -> Self {
        AddressSpace {
            root: Node::new(),
            mapped_pages: AtomicUsize::new(0),
            tlb_stamp: AtomicU64::new(fresh_tlb_stamp()),
            tlb_enabled: AtomicBool::new(true),
            tlb_hits: AtomicU64::new(0),
            tlb_misses: AtomicU64::new(0),
            trace: Trace::new(),
        }
    }

    /// Attaches a flight recorder; faults (including the non-canonical
    /// traps DangSan's invalidation produces) are recorded from then on.
    /// Once-only: the first attached tracer stays for the space's
    /// lifetime.
    pub fn set_tracer(&self, tracer: &Arc<Tracer>) {
        self.trace.attach(tracer);
    }

    /// Builds (and records) a fault at `addr`.
    #[cold]
    fn fault(&self, kind: FaultKind, addr: Addr) -> MemFault {
        self.trace.record(
            TraceLevel::Lifecycles,
            EventCode::VmemFault,
            addr,
            match kind {
                FaultKind::Unmapped => 0,
                FaultKind::NonCanonical => 1,
                FaultKind::Unaligned => 2,
            },
            0,
        );
        MemFault { kind, addr }
    }

    fn indices(page: u64) -> (usize, usize, usize) {
        (
            ((page >> 24) & 0xfff) as usize,
            ((page >> 12) & 0xfff) as usize,
            (page & 0xfff) as usize,
        )
    }

    fn lookup_page(&self, addr: Addr) -> Option<&Page> {
        let (i0, i1, i2) = Self::indices(page_of(addr));
        let l1 = self.root.get(i0);
        if l1.is_null() {
            return None;
        }
        // SAFETY: non-null children are valid `Node`s installed by
        // `get_or_install` and never freed while `self` is alive.
        let l1 = unsafe { &*l1 };
        let l2 = l1.get(i1);
        if l2.is_null() {
            return None;
        }
        // SAFETY: as above.
        let l2 = unsafe { &*l2 };
        let page = l2.get(i2);
        if page.is_null() {
            return None;
        }
        // SAFETY: as above; pages are only freed in `Drop`/`unmap`, and
        // `unmap` requires the caller to guarantee no concurrent access to
        // the unmapped range (mirroring real munmap semantics).
        Some(unsafe { &*page })
    }

    /// [`Self::lookup_page`] with a per-thread software TLB in front of
    /// the radix walk. This is the translation used by every word access:
    /// on a hit, the three dependent tree loads collapse into one slot
    /// compare plus one generation load.
    #[inline]
    fn lookup_page_fast(&self, addr: Addr) -> Option<&Page> {
        if !self.tlb_enabled.load(Ordering::Relaxed) {
            return self.lookup_page(addr);
        }
        let page_no = page_of(addr);
        let idx = (page_no as usize) & (TLB_SLOTS - 1);
        TLB.with(|tlb| {
            let slot = tlb.slots[idx].get();
            let stamp = self.tlb_stamp.load(Ordering::Acquire);
            if slot.stamp == stamp && slot.page == page_no {
                tlb.hits.hit(stamp, &self.tlb_hits);
                // SAFETY: stamps are never reused, so a matching stamp
                // proves this very space (alive through `&self`) filled
                // the slot and no `unmap` intervened — the page is still
                // mapped. The space never frees a page before `Drop`
                // (`unmap` quarantines), so the pointer is live.
                return Some(unsafe { &*slot.ptr });
            }
            self.tlb_fill(tlb, addr, page_no, idx, stamp)
        })
    }

    /// The TLB miss path: flush the hit batch, count the miss, walk the
    /// radix tree, and (on success) install the translation. Out of line
    /// so the hit path above compiles to a compare and a countdown.
    #[cold]
    fn tlb_fill(
        &self,
        tlb: &ThreadTlb,
        addr: Addr,
        page_no: u64,
        idx: usize,
        stamp: u64,
    ) -> Option<&Page> {
        tlb.hits.restart(stamp, &self.tlb_hits);
        self.tlb_misses.fetch_add(1, Ordering::Relaxed);
        let page = self.lookup_page(addr)?;
        // Negative results are never cached: a later `map` must be
        // visible immediately. `stamp` was read before the walk, so a
        // racing unmap at worst stores an entry that can no longer
        // match.
        tlb.slots[idx].set(TlbSlot {
            stamp,
            page: page_no,
            ptr: page as *const Page,
        });
        Some(page)
    }

    /// Software-TLB hit/miss counters for this space.
    ///
    /// The calling thread's pending hit batch is flushed first, so after a
    /// single-threaded, single-space workload the numbers are exact; with
    /// concurrent threads, up to one unflushed batch per other thread may
    /// be missing, and a batch whose hits straddle several spaces is
    /// credited entirely to the space that started it (the one that last
    /// missed on that thread).
    pub fn tlb_stats(&self) -> TlbStats {
        let stamp = self.tlb_stamp.load(Ordering::Acquire);
        TLB.with(|tlb| tlb.hits.flush(stamp, &self.tlb_hits));
        TlbStats {
            hits: self.tlb_hits.load(Ordering::Relaxed),
            misses: self.tlb_misses.load(Ordering::Relaxed),
        }
    }

    /// Enables or disables the software TLB at runtime (it starts
    /// enabled). Disabling sends every access back through the full radix
    /// walk; behaviour is identical either way. Used by the hot-path
    /// benchmarks to measure both configurations in one process.
    pub fn set_tlb_enabled(&self, on: bool) {
        self.tlb_enabled.store(on, Ordering::Relaxed);
    }

    /// Maps `len` bytes starting at `addr` (rounded out to page boundaries),
    /// zero-filled.
    ///
    /// Fails with [`MapError::AlreadyMapped`] if any page in the range is
    /// already present; already-mapped prefixes are left in place.
    pub fn map(&self, addr: Addr, len: u64) -> Result<(), MapError> {
        let (first, last) = range_pages(addr, len)?;
        for p in first..=last {
            let (i0, i1, i2) = Self::indices(p);
            let l1 = self.root.get_or_install(i0, || Box::into_raw(Node::new()));
            // SAFETY: `get_or_install` returns a valid node owned by the tree.
            let l1 = unsafe { &*l1 };
            let l2 = l1.get_or_install(i1, || Box::into_raw(Node::new()));
            // SAFETY: as above.
            let l2 = unsafe { &*l2 };
            let slot = &l2.children[i2];
            let fresh = Box::into_raw(Page::new_zeroed());
            match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.mapped_pages.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // SAFETY: `fresh` lost the race and was never shared.
                    unsafe { drop(Box::from_raw(fresh)) };
                    return Err(MapError::AlreadyMapped(p << PAGE_SHIFT));
                }
            }
        }
        Ok(())
    }

    /// Unmaps `len` bytes starting at `addr`. Subsequent accesses fault with
    /// [`FaultKind::Unmapped`].
    ///
    /// Like real `munmap`, racing an unmap against accesses to the same
    /// range is a program bug; here it is memory-safe (accesses fault or
    /// succeed) because pages are retired to a quarantine list rather than
    /// freed immediately.
    pub fn unmap(&self, addr: Addr, len: u64) -> Result<(), MapError> {
        let (first, last) = range_pages(addr, len)?;
        // Invalidate every thread's cached translations for this space
        // before any page is detached: a fresh stamp makes every existing
        // slot a mismatch, so no thread that observes it can still reach a
        // page this call unmaps.
        self.tlb_stamp.store(fresh_tlb_stamp(), Ordering::Release);
        for p in first..=last {
            let (i0, i1, i2) = Self::indices(p);
            let l1 = self.root.get(i0);
            if l1.is_null() {
                return Err(MapError::NotMapped(p << PAGE_SHIFT));
            }
            // SAFETY: non-null children are valid nodes owned by the tree.
            let l1 = unsafe { &*l1 };
            let l2 = l1.get(i1);
            if l2.is_null() {
                return Err(MapError::NotMapped(p << PAGE_SHIFT));
            }
            // SAFETY: as above.
            let l2 = unsafe { &*l2 };
            let old = l2.children[i2].swap(ptr::null_mut(), Ordering::AcqRel);
            if old.is_null() {
                return Err(MapError::NotMapped(p << PAGE_SHIFT));
            }
            // Leak the page instead of freeing it: a concurrent reader that
            // resolved the pointer just before the swap may still touch it.
            // The simulation never unmaps enough pages for this to matter,
            // and it exactly reproduces the "stale TLB entry" window real
            // hardware has. The count still goes down for accounting.
            self.mapped_pages.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Number of currently mapped pages (for resident-memory accounting).
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages.load(Ordering::Relaxed)
    }

    /// Resident bytes, i.e. mapped pages times the page size.
    pub fn resident_bytes(&self) -> u64 {
        self.mapped_pages() as u64 * PAGE_SIZE
    }

    fn word(&self, addr: Addr) -> Result<&AtomicU64, MemFault> {
        if !is_canonical_user(addr) {
            // The UAF trap: DangSan's invalidation sets bit 63, so a
            // dereference of a neutralised dangling pointer lands here.
            // Recording it gives the forensics pass its anchor event.
            return Err(self.fault(FaultKind::NonCanonical, addr));
        }
        if !addr.is_multiple_of(8) {
            return Err(self.fault(FaultKind::Unaligned, addr));
        }
        let page = self
            .lookup_page_fast(addr)
            .ok_or_else(|| self.fault(FaultKind::Unmapped, addr))?;
        Ok(&page.words[word_index(addr)])
    }

    /// Reads the 8-byte word at `addr` (acquire ordering).
    pub fn read_word(&self, addr: Addr) -> Result<u64, MemFault> {
        Ok(self.word(addr)?.load(Ordering::Acquire))
    }

    /// Writes the 8-byte word at `addr` (release ordering).
    pub fn write_word(&self, addr: Addr, value: u64) -> Result<(), MemFault> {
        self.word(addr)?.store(value, Ordering::Release);
        Ok(())
    }

    /// Translates the page containing `addr` once and returns a
    /// [`PageRef`] for batched word operations on it, or the fault that a
    /// word access at `addr` would raise ([`FaultKind::NonCanonical`] or
    /// [`FaultKind::Unmapped`] — alignment is per word, checked by the
    /// `PageRef` accessors).
    ///
    /// The translation goes through the software TLB like any word
    /// access (and counts in its hit rates), once per call: batched
    /// callers amortise it over every word they touch on the page.
    #[inline]
    pub fn with_page(&self, addr: Addr) -> Result<PageRef<'_>, MemFault> {
        if !is_canonical_user(addr) {
            return Err(self.fault(FaultKind::NonCanonical, addr));
        }
        match self.lookup_page_fast(addr) {
            Some(page) => Ok(PageRef {
                page,
                base: addr & !(PAGE_SIZE - 1),
            }),
            None => Err(self.fault(FaultKind::Unmapped, addr)),
        }
    }

    /// Copies `len` bytes from `src` to `dst` word-wise, used by the
    /// allocator's `realloc` move path (the simulated `memcpy`).
    ///
    /// The ranges must both be 8-byte aligned; `len` is rounded up to a
    /// multiple of 8. Copying is not atomic as a whole, matching `memcpy`.
    /// Pages are translated once per page crossed, not once per word.
    pub fn copy(&self, src: Addr, dst: Addr, len: u64) -> Result<(), MemFault> {
        let words = len.div_ceil(8);
        if words > 0 {
            for a in [src, dst] {
                if a % 8 != 0 {
                    return Err(MemFault {
                        kind: FaultKind::Unaligned,
                        addr: a,
                    });
                }
            }
        }
        let mut i = 0u64;
        while i < words {
            let (s, d) = (src + i * 8, dst + i * 8);
            let sp = self.with_page(s)?;
            let dp = self.with_page(d)?;
            // Copy to the nearer of the two page ends, then re-translate.
            let span = (words - i)
                .min((sp.base() + PAGE_SIZE - s) / 8)
                .min((dp.base() + PAGE_SIZE - d) / 8);
            for w in 0..span {
                dp.write_word(d + w * 8, sp.read_word(s + w * 8));
            }
            i += span;
        }
        Ok(())
    }

    /// Zeroes `len` bytes starting at the 8-byte-aligned `addr`, one page
    /// translation per page crossed.
    pub fn zero(&self, addr: Addr, len: u64) -> Result<(), MemFault> {
        let words = len.div_ceil(8);
        if words > 0 && !addr.is_multiple_of(8) {
            return Err(MemFault {
                kind: FaultKind::Unaligned,
                addr,
            });
        }
        let mut i = 0u64;
        while i < words {
            let a = addr + i * 8;
            let page = self.with_page(a)?;
            let span = (words - i).min((page.base() + PAGE_SIZE - a) / 8);
            for w in 0..span {
                page.write_word(a + w * 8, 0);
            }
            i += span;
        }
        Ok(())
    }
}

impl Drop for AddressSpace {
    fn drop(&mut self) {
        for c0 in self.root.children.iter() {
            let l1 = c0.swap(ptr::null_mut(), Ordering::AcqRel);
            if l1.is_null() {
                continue;
            }
            // SAFETY: `&mut self` in `drop` guarantees exclusive access, so
            // every non-null child pointer is uniquely owned here.
            let l1 = unsafe { Box::from_raw(l1) };
            for c1 in l1.children.iter() {
                let l2 = c1.swap(ptr::null_mut(), Ordering::AcqRel);
                if l2.is_null() {
                    continue;
                }
                // SAFETY: as above.
                let l2 = unsafe { Box::from_raw(l2) };
                for c2 in l2.children.iter() {
                    let page = c2.swap(ptr::null_mut(), Ordering::AcqRel);
                    if !page.is_null() {
                        // SAFETY: as above.
                        unsafe { drop(Box::from_raw(page)) };
                    }
                }
            }
        }
    }
}

fn range_pages(addr: Addr, len: u64) -> Result<(u64, u64), MapError> {
    if len == 0 {
        return Err(MapError::BadRange);
    }
    let end = addr.checked_add(len - 1).ok_or(MapError::BadRange)?;
    if !is_canonical_user(addr) || !is_canonical_user(end) {
        return Err(MapError::BadRange);
    }
    Ok((page_of(addr), page_of(end)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{HEAP_BASE, INVALID_BIT};

    #[test]
    fn unmapped_access_faults() {
        let mem = AddressSpace::new();
        let err = mem.read_word(HEAP_BASE).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.addr, HEAP_BASE);
    }

    #[test]
    fn non_canonical_access_faults_even_when_backing_exists() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        let dangling = HEAP_BASE | INVALID_BIT;
        let err = mem.read_word(dangling).unwrap_err();
        assert_eq!(err.kind, FaultKind::NonCanonical);
        assert_eq!(err.original_addr(), HEAP_BASE);
    }

    #[test]
    fn unaligned_word_access_faults() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        let err = mem.read_word(HEAP_BASE + 3).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unaligned);
    }

    #[test]
    fn map_write_read_roundtrip_across_pages() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, 3 * PAGE_SIZE).unwrap();
        for i in 0..(3 * PAGE_SIZE / 8) {
            mem.write_word(HEAP_BASE + i * 8, i * 7 + 1).unwrap();
        }
        for i in 0..(3 * PAGE_SIZE / 8) {
            assert_eq!(mem.read_word(HEAP_BASE + i * 8).unwrap(), i * 7 + 1);
        }
    }

    #[test]
    fn pages_start_zeroed() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        assert_eq!(mem.read_word(HEAP_BASE + 128).unwrap(), 0);
    }

    #[test]
    fn double_map_rejected() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        assert_eq!(
            mem.map(HEAP_BASE, PAGE_SIZE),
            Err(MapError::AlreadyMapped(HEAP_BASE))
        );
    }

    #[test]
    fn unmap_then_access_faults() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, 2 * PAGE_SIZE).unwrap();
        mem.write_word(HEAP_BASE, 42).unwrap();
        mem.unmap(HEAP_BASE, PAGE_SIZE).unwrap();
        assert_eq!(
            mem.read_word(HEAP_BASE).unwrap_err().kind,
            FaultKind::Unmapped
        );
        // The second page is untouched.
        assert_eq!(mem.read_word(HEAP_BASE + PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn unmap_unmapped_rejected() {
        let mem = AddressSpace::new();
        assert_eq!(
            mem.unmap(HEAP_BASE, PAGE_SIZE),
            Err(MapError::NotMapped(HEAP_BASE))
        );
    }

    #[test]
    fn copy_words() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, 2 * PAGE_SIZE).unwrap();
        for i in 0..16u64 {
            mem.write_word(HEAP_BASE + i * 8, i + 100).unwrap();
        }
        mem.copy(HEAP_BASE, HEAP_BASE + PAGE_SIZE, 16 * 8).unwrap();
        for i in 0..16u64 {
            assert_eq!(
                mem.read_word(HEAP_BASE + PAGE_SIZE + i * 8).unwrap(),
                i + 100
            );
        }
    }

    #[test]
    fn accounting_tracks_pages() {
        let mem = AddressSpace::new();
        assert_eq!(mem.mapped_pages(), 0);
        mem.map(HEAP_BASE, 5 * PAGE_SIZE).unwrap();
        assert_eq!(mem.mapped_pages(), 5);
        assert_eq!(mem.resident_bytes(), 5 * PAGE_SIZE);
        mem.unmap(HEAP_BASE + PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert_eq!(mem.mapped_pages(), 3);
    }

    #[test]
    fn concurrent_mixed_access() {
        use std::sync::Arc;
        let mem = Arc::new(AddressSpace::new());
        mem.map(HEAP_BASE, 16 * PAGE_SIZE).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let base = HEAP_BASE + t * 2 * PAGE_SIZE;
                for i in 0..512u64 {
                    mem.write_word(base + i * 8, t * 10_000 + i).unwrap();
                }
                for i in 0..512u64 {
                    assert_eq!(mem.read_word(base + i * 8).unwrap(), t * 10_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn tlb_hits_on_repeated_access() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        for i in 0..1000u64 {
            mem.write_word(HEAP_BASE, i).unwrap();
        }
        let s = mem.tlb_stats();
        assert!(s.hits >= 990, "repeated same-page stores should hit: {s:?}");
        assert!(s.misses >= 1);
    }

    #[test]
    fn unmap_then_access_through_warm_tlb_faults() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        // Warm the TLB entry for the page.
        mem.write_word(HEAP_BASE, 7).unwrap();
        assert_eq!(mem.read_word(HEAP_BASE).unwrap(), 7);
        mem.unmap(HEAP_BASE, PAGE_SIZE).unwrap();
        // The warm entry must not resurrect the unmapped page.
        assert_eq!(
            mem.read_word(HEAP_BASE).unwrap_err().kind,
            FaultKind::Unmapped
        );
    }

    #[test]
    fn remap_after_unmap_reaches_fresh_page() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        mem.write_word(HEAP_BASE, 0xAA).unwrap(); // warm entry, old page
        mem.unmap(HEAP_BASE, PAGE_SIZE).unwrap();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        // The new page starts zeroed; a stale translation would still see
        // 0xAA in the quarantined old page.
        assert_eq!(mem.read_word(HEAP_BASE).unwrap(), 0);
        mem.write_word(HEAP_BASE, 0xBB).unwrap();
        assert_eq!(mem.read_word(HEAP_BASE).unwrap(), 0xBB);
    }

    #[test]
    fn tlb_entries_do_not_leak_across_spaces() {
        let a = AddressSpace::new();
        let b = AddressSpace::new();
        a.map(HEAP_BASE, PAGE_SIZE).unwrap();
        a.write_word(HEAP_BASE, 1).unwrap(); // warm A's translation
                                             // Same thread, same page number, different space: must fault, not
                                             // hit A's cached page.
        assert_eq!(
            b.read_word(HEAP_BASE).unwrap_err().kind,
            FaultKind::Unmapped
        );
        b.map(HEAP_BASE, PAGE_SIZE).unwrap();
        b.write_word(HEAP_BASE, 2).unwrap();
        assert_eq!(a.read_word(HEAP_BASE).unwrap(), 1);
        assert_eq!(b.read_word(HEAP_BASE).unwrap(), 2);
    }

    #[test]
    fn disabled_tlb_counts_nothing_and_stays_correct() {
        let mem = AddressSpace::new();
        mem.set_tlb_enabled(false);
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        for i in 0..100u64 {
            mem.write_word(HEAP_BASE + (i % 8) * 8, i).unwrap();
        }
        let s = mem.tlb_stats();
        assert_eq!(s, TlbStats::default());
        // Re-enabling resumes caching without correctness loss.
        mem.set_tlb_enabled(true);
        assert_eq!(mem.read_word(HEAP_BASE + 56).unwrap(), 95);
        assert!(mem.tlb_stats().misses >= 1);
    }

    #[test]
    fn tlb_survives_conflict_evictions() {
        let mem = AddressSpace::new();
        // Two pages that collide in the direct-mapped array (same index
        // modulo TLB_SLOTS) keep evicting each other; values must stay
        // correct throughout.
        let far = HEAP_BASE + (TLB_SLOTS as u64) * PAGE_SIZE;
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        mem.map(far, PAGE_SIZE).unwrap();
        for i in 0..200u64 {
            mem.write_word(HEAP_BASE, i).unwrap();
            mem.write_word(far, i + 1_000_000).unwrap();
            assert_eq!(mem.read_word(HEAP_BASE).unwrap(), i);
            assert_eq!(mem.read_word(far).unwrap(), i + 1_000_000);
        }
    }

    #[test]
    fn with_page_faults_mirror_word_faults() {
        let mem = AddressSpace::new();
        assert_eq!(
            mem.with_page(HEAP_BASE).unwrap_err().kind,
            FaultKind::Unmapped
        );
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        let dangling = HEAP_BASE | INVALID_BIT;
        let err = mem.with_page(dangling).unwrap_err();
        assert_eq!(err.kind, FaultKind::NonCanonical);
        assert_eq!(err.original_addr(), HEAP_BASE);
    }

    #[test]
    fn page_ref_word_ops_match_per_word_api() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        let p = mem.with_page(HEAP_BASE + 24).unwrap();
        assert_eq!(p.base(), HEAP_BASE);
        p.write_word(HEAP_BASE + 24, 77);
        assert_eq!(p.read_word(HEAP_BASE + 24), 77);
        assert_eq!(mem.read_word(HEAP_BASE + 24).unwrap(), 77);
        // Writes through the per-word API are visible through the ref and
        // vice versa — it is the same page.
        mem.write_word(HEAP_BASE + 24, 80).unwrap();
        assert_eq!(p.read_word(HEAP_BASE + 24), 80);
    }

    #[test]
    fn invalidate_run_masks_only_in_range_words() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        let bit = 1u64 << 63;
        let (lo, hi) = (1000u64, 1063u64);
        // Words: in-range, below, in-range (at hi), above, already-masked.
        let values = [1000u64, 999, 1063, 1064, 1000 | bit];
        for (i, v) in values.iter().enumerate() {
            mem.write_word(HEAP_BASE + i as u64 * 8, *v).unwrap();
        }
        let page = mem.with_page(HEAP_BASE).unwrap();
        let (inv, stale) = page.invalidate_run(HEAP_BASE, values.len(), lo, hi, bit);
        assert_eq!((inv, stale), (2, 3));
        assert_eq!(mem.read_word(HEAP_BASE).unwrap(), 1000 | bit);
        assert_eq!(mem.read_word(HEAP_BASE + 8).unwrap(), 999);
        assert_eq!(mem.read_word(HEAP_BASE + 16).unwrap(), 1063 | bit);
        assert_eq!(mem.read_word(HEAP_BASE + 24).unwrap(), 1064);
        assert_eq!(mem.read_word(HEAP_BASE + 32).unwrap(), 1000 | bit);
    }

    #[test]
    fn zero_and_copy_span_pages() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, 4 * PAGE_SIZE).unwrap();
        for i in 0..(3 * PAGE_SIZE / 8) {
            mem.write_word(HEAP_BASE + i * 8, i + 1).unwrap();
        }
        // Zero an unaligned-to-page span crossing two page boundaries.
        mem.zero(HEAP_BASE + 16, 2 * PAGE_SIZE).unwrap();
        assert_eq!(mem.read_word(HEAP_BASE + 8).unwrap(), 2);
        assert_eq!(mem.read_word(HEAP_BASE + 16).unwrap(), 0);
        assert_eq!(mem.read_word(HEAP_BASE + 2 * PAGE_SIZE + 8).unwrap(), 0);
        assert_eq!(
            mem.read_word(HEAP_BASE + 2 * PAGE_SIZE + 16).unwrap(),
            2 * PAGE_SIZE / 8 + 3
        );
        // Copy where src and dst sit at different page offsets, so the
        // batched chunks end at different boundaries for each side.
        for i in 0..(PAGE_SIZE / 8) {
            mem.write_word(HEAP_BASE + i * 8, i + 500).unwrap();
        }
        mem.copy(
            HEAP_BASE + 8,
            HEAP_BASE + 3 * PAGE_SIZE - 256,
            PAGE_SIZE - 8,
        )
        .unwrap();
        for i in 0..((PAGE_SIZE - 8) / 8) {
            assert_eq!(
                mem.read_word(HEAP_BASE + 3 * PAGE_SIZE - 256 + i * 8)
                    .unwrap(),
                i + 501
            );
        }
        // Faults carry the first failing address, as before batching.
        let err = mem
            .zero(HEAP_BASE + 3 * PAGE_SIZE, 2 * PAGE_SIZE)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.addr, HEAP_BASE + 4 * PAGE_SIZE);
        assert_eq!(
            mem.zero(HEAP_BASE + 1, 8).unwrap_err().kind,
            FaultKind::Unaligned
        );
    }
}
