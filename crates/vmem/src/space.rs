//! The sparse, thread-safe address space.
//!
//! Implemented as a three-level radix tree over the 48-bit canonical user
//! space (12 bits per level, 4 KiB leaf pages), built from the crate's
//! page directory ([`Dir`]): interior nodes and pages are installed with
//! compare-and-swap, so all accesses — including page-table population —
//! are lock-free. This matters for the reproduction: DangSan's entire
//! point is that pointer tracking adds no locks, so the substrate
//! underneath it must not add any either.

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dangsan_trace::{EventCode, Trace, TraceLevel, Tracer};

use crate::dir::{Dir, Zeroed};
use crate::layout::{
    is_canonical_user, page_of, word_index, Addr, PAGE_SHIFT, PAGE_SIZE, WORDS_PER_PAGE,
};
use crate::{FaultKind, MapError, MemFault};

/// A 4 KiB page of atomically accessible 8-byte words.
struct Page {
    words: [AtomicU64; WORDS_PER_PAGE],
}

// SAFETY: a page is all `AtomicU64`s, for which zero is a valid value.
unsafe impl Zeroed for Page {}

/// A page translated once, for batched word operations — the bulk
/// counterpart of [`AddressSpace::read_word`]/[`AddressSpace::write_word`],
/// obtained from [`AddressSpace::with_page`].
///
/// Every access through a `PageRef` skips the page-directory walk
/// entirely: the translation was paid once for the whole page, which is
/// what makes walking a free-time pointer log by page cheaper than
/// translating every location individually.
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
    root: Box<Dir<Dir<Dir<Page>>>>,
    mapped_pages: AtomicUsize,
    /// Flight-recorder attach point; faults are recorded here. Detached
    /// (free) until [`AddressSpace::set_tracer`], and only fault paths
    /// consult it — word-access fast paths never touch it.
    trace: Trace,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space with nothing mapped.
    pub fn new() -> Self {
        AddressSpace {
            root: Dir::new(),
            mapped_pages: AtomicUsize::new(0),
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

    /// The translation every word access and [`Self::with_page`] runs:
    /// three dependent loads down the page directory, no cache in front.
    #[inline]
    fn lookup_page(&self, addr: Addr) -> Option<&Page> {
        let (i0, i1, i2) = Self::indices(page_of(addr));
        self.root.get(i0)?.get(i1)?.get(i2)
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
            let l1 = self.root.get_or_install(i0, Dir::new).0;
            let l2 = l1.get_or_install(i1, Dir::new).0;
            if !l2.get_or_install(i2, Page::zeroed_box).1 {
                return Err(MapError::AlreadyMapped(p << PAGE_SHIFT));
            }
            self.mapped_pages.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Unmaps `len` bytes starting at `addr`. Subsequent accesses fault with
    /// [`FaultKind::Unmapped`].
    ///
    /// Like real `munmap`, racing an unmap against accesses to the same
    /// range is a program bug; here it is memory-safe (accesses fault or
    /// succeed) because unmapped pages are leaked ([`Dir::leak`]), not
    /// freed.
    pub fn unmap(&self, addr: Addr, len: u64) -> Result<(), MapError> {
        let (first, last) = range_pages(addr, len)?;
        for p in first..=last {
            let (i0, i1, i2) = Self::indices(p);
            // Leak the page instead of freeing it: a concurrent reader that
            // resolved the pointer just before the detach may still touch
            // it. The simulation never unmaps enough pages for this to
            // matter, and it exactly reproduces the "stale TLB entry"
            // window real hardware has. The count still goes down for
            // accounting.
            let l2 = self.root.get(i0).and_then(|l1| l1.get(i1));
            if !l2.is_some_and(|l2| l2.leak(i2)) {
                return Err(MapError::NotMapped(p << PAGE_SHIFT));
            }
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
            .lookup_page(addr)
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
    /// The translation is the same directory walk a word access runs,
    /// once per call: batched callers amortise it over every word they
    /// touch on the page.
    #[inline]
    pub fn with_page(&self, addr: Addr) -> Result<PageRef<'_>, MemFault> {
        if !is_canonical_user(addr) {
            return Err(self.fault(FaultKind::NonCanonical, addr));
        }
        match self.lookup_page(addr) {
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
    fn remap_after_unmap_reaches_fresh_page() {
        let mem = AddressSpace::new();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        mem.write_word(HEAP_BASE, 0xAA).unwrap();
        mem.unmap(HEAP_BASE, PAGE_SIZE).unwrap();
        mem.map(HEAP_BASE, PAGE_SIZE).unwrap();
        // The new page starts zeroed; reaching the leaked old page would
        // still see 0xAA.
        assert_eq!(mem.read_word(HEAP_BASE).unwrap(), 0);
        mem.write_word(HEAP_BASE, 0xBB).unwrap();
        assert_eq!(mem.read_word(HEAP_BASE).unwrap(), 0xBB);
    }

    #[test]
    fn pages_do_not_leak_across_spaces() {
        let a = AddressSpace::new();
        let b = AddressSpace::new();
        a.map(HEAP_BASE, PAGE_SIZE).unwrap();
        a.write_word(HEAP_BASE, 1).unwrap();
        // Same thread, same page number, different space: must fault, not
        // reach A's page.
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
