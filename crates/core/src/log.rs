//! The pointer location log (paper §4.4, Figures 6 and 7).
//!
//! Each tracked object owns a lock-free singly linked list of
//! [`ThreadLog`]s, one per thread that stored pointers to it. A log is an
//! append-only structure with three tiers:
//!
//! 1. a small *embedded* array of entries (the common case — most objects
//!    have only a handful of pointers to them),
//! 2. an *indirect log* block allocated on overflow,
//! 3. a *hash table* fallback once the indirect log fills, bounding memory
//!    for pathological duplicate patterns the lookback cannot catch.
//!
//! Only the owning thread appends (release stores); the freeing thread
//! reads (acquire loads). There are no locks and no CAS on the append fast
//! path — this is the log-structured design that gives DangSan its
//! scalability.
//!
//! ## Benign races, by design
//!
//! The paper accepts that a pointer propagated concurrently with `free`
//! may be missed (§7): our reader takes an acquire snapshot of each tier
//! length, so late appends are simply not walked. Nothing a log uses is
//! freed while the detector lives: indirect blocks stay attached to the
//! (pool-recycled) log, and hash tables go back to the detector's
//! [`TablePools`], which hand them to whichever log promotes next. So a
//! late append can land in a log that now belongs to a different object,
//! and a late append or late grow can land in a table that another log
//! took from a pool. The free-time value check filters such entries out
//! as stale, exactly as it does for recycled logs.
//!
//! ## Tiers are per lifetime
//!
//! A recycled log starts in the embedded tier whatever its last object
//! reached. [`ThreadLog::reset`] zeroes the log's whole active chain of
//! hash tables (the table and every smaller one it grew from) and returns
//! each to its capacity class in the [`TablePools`]. A lifetime that fills
//! its indirect block takes the *largest* free table, so a hot lifetime
//! starts where an earlier one finished growing instead of regrowing and
//! recopying from the smallest class; a grow takes a free table of twice
//! the size. Only an empty pool allocates. A grow publishes only over the
//! table it copied, so a late grow racing `reset` returns its copy to the
//! pool instead of publishing it.

use core::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::ptr;

use dangsan_trace::{EventCode, Trace, TraceLevel};
use dangsan_vmem::Addr;

use crate::compress::{self, Fold};
use crate::config::{Config, EMBEDDED_ENTRIES, HASH_INITIAL_SLOTS};
use crate::pool::{Pool, PoolItem};
use crate::stats::{Counter, Stats};

/// `b` payload of a [`EventCode::TierPromote`] event: a fresh indirect
/// block replaced the embedded array (tier 1 → 2).
pub const TIER_INDIRECT: u64 = 1;
/// Tier promotion payload: a hash table (fresh, or the largest pooled
/// one) took over from the indirect block (tier 2 → 3).
pub const TIER_HASH: u64 = 2;
/// Tier promotion payload: the no-hash ablation chained a doubled
/// indirect block instead.
pub const TIER_INDIRECT_CHAIN: u64 = 3;
/// Tier promotion payload: an existing hash table doubled.
pub const TIER_HASH_GROW: u64 = 4;

/// Outcome of an append, used for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Appended {
    /// Entry stored (possibly merged into a compressed slot).
    Stored,
    /// Merged into an existing compressed entry (shares a slot).
    Compressed,
    /// The location was already recorded (lookback or hash hit).
    Duplicate,
}

/// An overflow block of log entries.
pub struct IndirectBlock {
    cap: u32,
    len: AtomicU32,
    /// Older, full block (only used when the hash fallback is disabled).
    prev: AtomicPtr<IndirectBlock>,
    entries: Box<[AtomicU64]>,
}

impl IndirectBlock {
    fn new(cap: u32) -> Box<IndirectBlock> {
        Box::new(IndirectBlock {
            cap,
            len: AtomicU32::new(0),
            prev: AtomicPtr::new(ptr::null_mut()),
            entries: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn bytes(&self) -> u64 {
        core::mem::size_of::<IndirectBlock>() as u64 + self.cap as u64 * 8
    }
}

/// Open-addressing hash table of plain locations (the Figure 7 fallback).
pub struct LogHashTable {
    cap: u32,
    count: AtomicU32,
    /// The smaller table this one was grown from. It stays in the log's
    /// active chain until [`ThreadLog::reset`] returns the whole chain.
    prev: AtomicPtr<LogHashTable>,
    /// The free-stack link while the table sits in its [`TablePools`]
    /// class. Separate from `prev`, so a late grow into a pooled table
    /// cannot corrupt a free stack.
    pool_next: AtomicPtr<LogHashTable>,
    slots: Box<[AtomicU64]>,
}

impl PoolItem for LogHashTable {
    fn pool_next(&self) -> &AtomicPtr<LogHashTable> {
        &self.pool_next
    }

    fn host_bytes(&self) -> u64 {
        core::mem::size_of::<LogHashTable>() as u64 + self.cap as u64 * 8
    }
}

impl LogHashTable {
    fn new(cap: u32) -> LogHashTable {
        debug_assert!(cap.is_power_of_two());
        LogHashTable {
            cap,
            count: AtomicU32::new(0),
            prev: AtomicPtr::new(ptr::null_mut()),
            pool_next: AtomicPtr::new(ptr::null_mut()),
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn hash(loc: Addr) -> u64 {
        // Fibonacci hashing over the word-aligned location.
        (loc >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Owner-thread insert. Returns `Ok(false)` on duplicate and
    /// `Err(())` when the table needs growing first.
    fn insert(&self, loc: Addr) -> Result<bool, ()> {
        if self.count.load(Ordering::Relaxed) * 4 >= self.cap * 3 {
            return Err(()); // needs grow
        }
        let mask = (self.cap - 1) as u64;
        let mut i = Self::hash(loc) & mask;
        loop {
            let cur = self.slots[i as usize].load(Ordering::Acquire);
            if cur == loc {
                return Ok(false);
            }
            if cur == 0 {
                self.slots[i as usize].store(loc, Ordering::Release);
                self.count.fetch_add(1, Ordering::Relaxed);
                return Ok(true);
            }
            i = (i + 1) & mask;
        }
    }
}

/// Capacity classes of [`TablePools`]: class `i` holds tables of
/// `HASH_INITIAL_SLOTS << i` slots, up to the largest power of two a
/// `u32` capacity can hold.
const TABLE_CLASSES: usize = (u32::BITS - HASH_INITIAL_SLOTS.trailing_zeros()) as usize;

/// One detector's hash tables, in one [`Pool`] per capacity class shared
/// by all its logs (the paper's §7 reuse of per-object metadata). The
/// pools own every table ever allocated and free them only when the
/// detector drops, so tables are type-stable exactly like logs and
/// records. They are touched only at a promotion, a grow, or the reset of
/// a log that holds a table, never on a plain append.
pub struct TablePools {
    classes: [Pool<LogHashTable>; TABLE_CLASSES],
}

impl Default for TablePools {
    fn default() -> Self {
        TablePools {
            classes: std::array::from_fn(|_| Pool::new()),
        }
    }
}

impl TablePools {
    fn class(&self, cap: u32) -> &Pool<LogHashTable> {
        &self.classes[(cap.trailing_zeros() - HASH_INITIAL_SLOTS.trailing_zeros()) as usize]
    }

    /// The largest free table, for a promotion, and whether it had to be
    /// host-allocated (every class was empty).
    fn take_largest(&self) -> (&LogHashTable, bool) {
        match self.classes.iter().rev().find_map(Pool::try_take) {
            Some(table) => (table, false),
            None => (
                self.classes[0].adopt(LogHashTable::new(HASH_INITIAL_SLOTS)),
                true,
            ),
        }
    }

    /// A free table of `cap` slots, for a grow.
    fn take(&self, cap: u32) -> &LogHashTable {
        let class = self.class(cap);
        class
            .try_take()
            .unwrap_or_else(|| class.adopt(LogHashTable::new(cap)))
    }

    /// Zeroes `table` and returns it to its class. The caller must own it
    /// and must not use it afterwards (a late racy write is lost).
    fn give_back(&self, table: &LogHashTable) {
        for s in table.slots.iter() {
            s.store(0, Ordering::Release);
        }
        table.count.store(0, Ordering::Release);
        table.prev.store(ptr::null_mut(), Ordering::Release);
        self.class(table.cap).recycle(table);
    }

    /// Host bytes of every table ever allocated, attached to a log or free.
    pub fn bytes(&self) -> u64 {
        self.classes.iter().map(Pool::bytes).sum()
    }
}

/// The storage behind one detector's overflow tiers, shared by all its
/// logs and passed to every [`ThreadLog::append`].
#[derive(Default)]
pub struct Overflow {
    /// Host bytes of indirect blocks, which stay attached to their logs.
    indirect_bytes: AtomicU64,
    tables: TablePools,
}

impl Overflow {
    /// Host bytes of indirect blocks.
    pub fn indirect_bytes(&self) -> u64 {
        self.indirect_bytes.load(Ordering::Relaxed)
    }

    /// Host bytes of hash tables, attached to a log or free in a pool.
    pub fn table_bytes(&self) -> u64 {
        self.tables.bytes()
    }
}

/// A per-(object, thread) pointer log.
///
/// Created through [`crate::pool::Pool`]; never freed while the detector
/// lives, so references held across the paper's benign races stay valid.
pub struct ThreadLog {
    /// Owning thread (see [`crate::detector::current_thread_id`]).
    pub thread_id: AtomicU64,
    /// Next log in the object's list (Figure 6).
    pub next: AtomicPtr<ThreadLog>,
    pool_next: AtomicPtr<ThreadLog>,
    embedded_len: AtomicU32,
    embedded: [AtomicU64; EMBEDDED_ENTRIES],
    indirect: AtomicPtr<IndirectBlock>,
    hash: AtomicPtr<LogHashTable>,
}

impl Default for ThreadLog {
    fn default() -> Self {
        ThreadLog {
            thread_id: AtomicU64::new(u64::MAX),
            next: AtomicPtr::new(ptr::null_mut()),
            pool_next: AtomicPtr::new(ptr::null_mut()),
            embedded_len: AtomicU32::new(0),
            embedded: Default::default(),
            indirect: AtomicPtr::new(ptr::null_mut()),
            hash: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

impl PoolItem for ThreadLog {
    fn pool_next(&self) -> &AtomicPtr<ThreadLog> {
        &self.pool_next
    }
}

impl ThreadLog {
    /// Appends `loc`, applying lookback, compression and the overflow
    /// policy from `cfg`. Must only be called by the owning thread.
    ///
    /// `overflow` supplies indirect blocks (crediting their host bytes)
    /// and hash tables. `trace`/`obj_id` let tier
    /// promotions land in the flight recorder; at `TraceLevel::Off` both
    /// are dead weight the promotion (cold) paths never touch.
    pub fn append(
        &self,
        loc: Addr,
        cfg: &Config,
        stats: &Stats,
        overflow: &Overflow,
        trace: &Trace,
        obj_id: u64,
    ) -> Appended {
        // Tier 3 active: everything goes through the hash table.
        let hash = self.hash.load(Ordering::Acquire);
        if !hash.is_null() {
            // SAFETY: hash tables are never freed while the detector lives.
            return self.hash_insert(unsafe { &*hash }, loc, stats, overflow, trace, obj_id);
        }

        // Lookback (§4.4): scan the most recent entries for this location.
        if cfg.lookback > 0 && self.lookback_contains(loc, cfg.lookback) {
            stats.bump(&[Counter::DupPtrs]);
            return Appended::Duplicate;
        }

        // Compression (§6): try folding into the most recent entry.
        if cfg.compression {
            if let Some((slot, cur)) = self.last_slot() {
                match compress::fold(cur, loc) {
                    Fold::Duplicate => {
                        stats.bump(&[Counter::DupPtrs]);
                        return Appended::Duplicate;
                    }
                    Fold::Merged(v) => {
                        slot.store(v, Ordering::Release);
                        stats.bump(&[Counter::CompressedMerges]);
                        return Appended::Compressed;
                    }
                    Fold::Full => {}
                }
            }
        }

        self.push_plain(loc, cfg, stats, overflow, trace, obj_id);
        Appended::Stored
    }

    fn hash_insert<'a>(
        &self,
        mut table: &'a LogHashTable,
        loc: Addr,
        stats: &Stats,
        overflow: &'a Overflow,
        trace: &Trace,
        obj_id: u64,
    ) -> Appended {
        loop {
            match table.insert(loc) {
                Ok(true) => return Appended::Stored,
                Ok(false) => {
                    stats.bump(&[Counter::DupPtrs]);
                    return Appended::Duplicate;
                }
                Err(()) => {
                    // Grow: copy into a free table twice the size; the old
                    // one stays behind `prev` in the active chain.
                    let bigger = overflow.tables.take(table.cap * 2);
                    for s in table.slots.iter() {
                        let v = s.load(Ordering::Acquire);
                        if v != 0 {
                            let _ = bigger.insert(v);
                        }
                    }
                    let old = ptr::from_ref(table).cast_mut();
                    bigger.prev.store(old, Ordering::Release);
                    let raw = ptr::from_ref(bigger).cast_mut();
                    if self
                        .hash
                        .compare_exchange(old, raw, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        // A late append: `reset` returned `table` to its
                        // pool meanwhile. The copy was never published, so
                        // it goes back too. It is never freed: it may have
                        // come from a pool, where a late appender may
                        // still hold it.
                        overflow.tables.give_back(bigger);
                        return Appended::Stored;
                    }
                    table = bigger;
                    trace.record(
                        TraceLevel::Full,
                        EventCode::TierPromote,
                        obj_id,
                        TIER_HASH_GROW,
                        u64::from(table.cap),
                    );
                }
            }
        }
    }

    /// Returns the slot and value of the most recently appended entry.
    fn last_slot(&self) -> Option<(&AtomicU64, u64)> {
        let ind = self.indirect.load(Ordering::Acquire);
        if !ind.is_null() {
            // SAFETY: indirect blocks live as long as the detector.
            let ind = unsafe { &*ind };
            let len = ind.len.load(Ordering::Relaxed);
            if len > 0 {
                let slot = &ind.entries[(len - 1) as usize];
                return Some((slot, slot.load(Ordering::Acquire)));
            }
        }
        let len = self.embedded_len.load(Ordering::Relaxed);
        if len > 0 {
            let slot = &self.embedded[(len - 1) as usize];
            return Some((slot, slot.load(Ordering::Acquire)));
        }
        None
    }

    fn lookback_contains(&self, loc: Addr, k: usize) -> bool {
        let mut remaining = k;
        let ind = self.indirect.load(Ordering::Acquire);
        if !ind.is_null() {
            // SAFETY: indirect blocks live as long as the detector.
            let ind = unsafe { &*ind };
            let len = ind.len.load(Ordering::Relaxed) as usize;
            let take = len.min(remaining);
            for i in (len - take..len).rev() {
                if compress::contains(ind.entries[i].load(Ordering::Acquire), loc) {
                    return true;
                }
            }
            remaining -= take;
            if remaining == 0 || len == ind.cap as usize {
                // Older entries are in a previous tier only if this block
                // is not yet full; once full we stop looking back further.
                return false;
            }
        }
        let len = self.embedded_len.load(Ordering::Relaxed) as usize;
        let take = len.min(remaining);
        for i in (len - take..len).rev() {
            if compress::contains(self.embedded[i].load(Ordering::Acquire), loc) {
                return true;
            }
        }
        false
    }

    fn push_plain(
        &self,
        loc: Addr,
        cfg: &Config,
        stats: &Stats,
        overflow: &Overflow,
        trace: &Trace,
        obj_id: u64,
    ) {
        // Tier 1: embedded array.
        let el = self.embedded_len.load(Ordering::Relaxed) as usize;
        if el < EMBEDDED_ENTRIES {
            self.embedded[el].store(loc, Ordering::Release);
            self.embedded_len.store(el as u32 + 1, Ordering::Release);
            return;
        }
        // Tier 2: indirect block.
        let mut ind_ptr = self.indirect.load(Ordering::Acquire);
        if ind_ptr.is_null() {
            let block = IndirectBlock::new(cfg.indirect_capacity as u32);
            overflow
                .indirect_bytes
                .fetch_add(block.bytes(), Ordering::Relaxed);
            stats.bump(&[Counter::IndirectBlocks]);
            trace.record(
                TraceLevel::Full,
                EventCode::TierPromote,
                obj_id,
                TIER_INDIRECT,
                cfg.indirect_capacity as u64,
            );
            ind_ptr = Box::into_raw(block);
            self.indirect.store(ind_ptr, Ordering::Release);
        }
        // SAFETY: indirect blocks live as long as the detector.
        let ind = unsafe { &*ind_ptr };
        let len = ind.len.load(Ordering::Relaxed);
        if len < ind.cap {
            ind.entries[len as usize].store(loc, Ordering::Release);
            ind.len.store(len + 1, Ordering::Release);
            return;
        }
        if cfg.hash_fallback {
            // Tier 3: switch to the largest free hash table.
            let (table, fresh) = overflow.tables.take_largest();
            stats.add(&[
                (Counter::HashPromotions, 1),
                (Counter::Hashtables, u64::from(fresh)),
            ]);
            trace.record(
                TraceLevel::Full,
                EventCode::TierPromote,
                obj_id,
                TIER_HASH,
                u64::from(table.cap),
            );
            let _ = table.insert(loc);
            self.hash
                .store(ptr::from_ref(table).cast_mut(), Ordering::Release);
        } else {
            // Ablation: keep chaining ever larger blocks (the unbounded
            // log the paper warns about).
            let block = IndirectBlock::new(ind.cap * 2);
            overflow
                .indirect_bytes
                .fetch_add(block.bytes(), Ordering::Relaxed);
            stats.bump(&[Counter::IndirectBlocks]);
            trace.record(
                TraceLevel::Full,
                EventCode::TierPromote,
                obj_id,
                TIER_INDIRECT_CHAIN,
                u64::from(ind.cap * 2),
            );
            block.prev.store(ind_ptr, Ordering::Release);
            block.entries[0].store(loc, Ordering::Release);
            block.len.store(1, Ordering::Release);
            self.indirect.store(Box::into_raw(block), Ordering::Release);
        }
    }

    /// Whether the hash-table tier is active in this lifetime.
    ///
    /// Only a lifetime that filled its indirect block activates it
    /// ([`Self::reset`] leaves the log without a table). Once active, every
    /// location appended from then on is a member of the hash set, and
    /// members are never removed while the log belongs to its current
    /// object — membership only grows until the object is freed. The
    /// detector's registration memo relies on this monotonicity: a
    /// location observed in the hash stays a duplicate until a free
    /// invalidates the memo.
    #[inline]
    pub fn hash_active(&self) -> bool {
        !self.hash.load(Ordering::Acquire).is_null()
    }

    /// Visits every location recorded in this log (invalidation walk).
    pub fn for_each_location(&self, mut f: impl FnMut(Addr)) {
        let el = self.embedded_len.load(Ordering::Acquire) as usize;
        for i in 0..el.min(EMBEDDED_ENTRIES) {
            for loc in compress::locations(self.embedded[i].load(Ordering::Acquire)) {
                f(loc);
            }
        }
        let mut ind_ptr = self.indirect.load(Ordering::Acquire);
        while !ind_ptr.is_null() {
            // SAFETY: indirect blocks live as long as the detector.
            let ind = unsafe { &*ind_ptr };
            let len = (ind.len.load(Ordering::Acquire) as usize).min(ind.cap as usize);
            for i in 0..len {
                for loc in compress::locations(ind.entries[i].load(Ordering::Acquire)) {
                    f(loc);
                }
            }
            ind_ptr = ind.prev.load(Ordering::Acquire);
        }
        let hash = self.hash.load(Ordering::Acquire);
        if !hash.is_null() {
            // SAFETY: hash tables live as long as the detector.
            let hash = unsafe { &*hash };
            for s in hash.slots.iter() {
                let v = s.load(Ordering::Acquire);
                if v != 0 {
                    f(v);
                }
            }
        }
    }

    /// Clears the log for reuse by a new (object, thread) pair, which
    /// starts in the embedded tier.
    ///
    /// Indirect blocks stay attached (zeroed), and the active chain of hash
    /// tables goes back to `overflow`'s pools, zeroed: a racing late append
    /// never touches freed memory; see module docs.
    pub fn reset(&self, overflow: &Overflow) {
        self.thread_id.store(u64::MAX, Ordering::Release);
        self.next.store(ptr::null_mut(), Ordering::Release);
        self.embedded_len.store(0, Ordering::Release);
        let mut ind_ptr = self.indirect.load(Ordering::Acquire);
        while !ind_ptr.is_null() {
            // SAFETY: blocks live as long as the detector.
            let ind = unsafe { &*ind_ptr };
            ind.len.store(0, Ordering::Release);
            ind_ptr = ind.prev.load(Ordering::Acquire);
        }
        let mut hash_ptr = self.hash.swap(ptr::null_mut(), Ordering::AcqRel);
        while !hash_ptr.is_null() {
            // SAFETY: tables are pool-owned and type-stable, and the swap
            // made this reset the chain's sole owner.
            let table = unsafe { &*hash_ptr };
            hash_ptr = table.prev.load(Ordering::Acquire);
            overflow.tables.give_back(table);
        }
    }
}

impl Drop for ThreadLog {
    fn drop(&mut self) {
        let mut ind_ptr = *self.indirect.get_mut();
        while !ind_ptr.is_null() {
            // SAFETY: exclusive access in drop; blocks were created by
            // `Box::into_raw` and are freed exactly once here.
            let block = unsafe { Box::from_raw(ind_ptr) };
            ind_ptr = block.prev.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan_vmem::HEAP_BASE;

    fn collect(log: &ThreadLog) -> Vec<Addr> {
        let mut v = Vec::new();
        log.for_each_location(|l| v.push(l));
        v.sort_unstable();
        v.dedup();
        v
    }

    fn setup() -> (Config, Stats, Overflow) {
        (Config::default(), Stats::default(), Overflow::default())
    }

    #[test]
    fn embedded_appends_roundtrip() {
        let (cfg, stats, ovf) = setup();
        let log = ThreadLog::default();
        // Use widely spaced locations so compression does not kick in.
        let locs: Vec<Addr> = (0..5).map(|i| HEAP_BASE + i * 0x1000).collect();
        for &l in &locs {
            assert_eq!(
                log.append(l, &cfg, &stats, &ovf, &Trace::new(), 1),
                Appended::Stored
            );
        }
        assert_eq!(collect(&log), locs);
    }

    #[test]
    fn lookback_suppresses_recent_duplicates() {
        let (cfg, stats, ovf) = setup();
        let log = ThreadLog::default();
        let l = HEAP_BASE + 0x2000;
        assert_eq!(
            log.append(l, &cfg, &stats, &ovf, &Trace::new(), 1),
            Appended::Stored
        );
        for _ in 0..10 {
            assert_eq!(
                log.append(l, &cfg, &stats, &ovf, &Trace::new(), 1),
                Appended::Duplicate
            );
        }
        assert_eq!(collect(&log), vec![l]);
        assert_eq!(stats.snapshot().dup_ptrs, 10);
    }

    #[test]
    fn lookback_window_is_bounded() {
        let (cfg, stats, ovf) = setup();
        let cfg = cfg.with_lookback(2).with_compression(false);
        let log = ThreadLog::default();
        let a = HEAP_BASE + 0x1000;
        log.append(a, &cfg, &stats, &ovf, &Trace::new(), 1);
        // Push `a` out of the 2-entry window.
        log.append(HEAP_BASE + 0x2000, &cfg, &stats, &ovf, &Trace::new(), 1);
        log.append(HEAP_BASE + 0x3000, &cfg, &stats, &ovf, &Trace::new(), 1);
        // `a` is re-logged because the window no longer covers it.
        assert_eq!(
            log.append(a, &cfg, &stats, &ovf, &Trace::new(), 1),
            Appended::Stored
        );
        assert_eq!(
            collect(&log),
            vec![a, HEAP_BASE + 0x2000, HEAP_BASE + 0x3000]
        );
    }

    #[test]
    fn compression_packs_neighbours() {
        let (cfg, stats, ovf) = setup();
        let log = ThreadLog::default();
        let a = HEAP_BASE + 0x100;
        assert_eq!(
            log.append(a, &cfg, &stats, &ovf, &Trace::new(), 1),
            Appended::Stored
        );
        assert_eq!(
            log.append(a + 8, &cfg, &stats, &ovf, &Trace::new(), 1),
            Appended::Compressed
        );
        assert_eq!(
            log.append(a + 16, &cfg, &stats, &ovf, &Trace::new(), 1),
            Appended::Compressed
        );
        assert_eq!(log.embedded_len.load(Ordering::Relaxed), 1, "one slot");
        assert_eq!(collect(&log), vec![a, a + 8, a + 16]);
    }

    #[test]
    fn overflow_into_indirect_block() {
        let (cfg, stats, ovf) = setup();
        let cfg = Config {
            compression: false,
            lookback: 0,
            ..cfg
        };
        let log = ThreadLog::default();
        let n = EMBEDDED_ENTRIES + 20;
        let locs: Vec<Addr> = (0..n as u64).map(|i| HEAP_BASE + i * 0x1000).collect();
        for &l in &locs {
            log.append(l, &cfg, &stats, &ovf, &Trace::new(), 1);
        }
        assert_eq!(collect(&log), locs);
        assert_eq!(stats.snapshot().indirect_blocks, 1);
        assert!(ovf.indirect_bytes() > 0);
    }

    #[test]
    fn overflow_into_hash_table_dedups() {
        let (_, stats, ovf) = setup();
        let cfg = Config {
            compression: false,
            lookback: 0,
            indirect_capacity: 8,
            ..Config::default()
        };
        let log = ThreadLog::default();
        let n = (EMBEDDED_ENTRIES + 8 + 50) as u64;
        let locs: Vec<Addr> = (0..n).map(|i| HEAP_BASE + i * 0x1000).collect();
        for &l in &locs {
            log.append(l, &cfg, &stats, &ovf, &Trace::new(), 1);
        }
        assert_eq!(stats.snapshot().hashtables, 1);
        // Re-appending hash-resident locations is deduplicated.
        let dups_before = stats.snapshot().dup_ptrs;
        let last = *locs.last().unwrap();
        log.append(last, &cfg, &stats, &ovf, &Trace::new(), 1);
        assert_eq!(stats.snapshot().dup_ptrs, dups_before + 1);
        assert_eq!(collect(&log), locs);
    }

    #[test]
    fn hash_table_grows_without_losing_entries() {
        let (_, stats, ovf) = setup();
        let cfg = Config {
            compression: false,
            lookback: 0,
            indirect_capacity: 8,
            ..Config::default()
        };
        let log = ThreadLog::default();
        let n = 2_000u64;
        let locs: Vec<Addr> = (0..n).map(|i| HEAP_BASE + i * 0x1000).collect();
        for &l in &locs {
            log.append(l, &cfg, &stats, &ovf, &Trace::new(), 1);
        }
        assert_eq!(collect(&log), locs);
    }

    #[test]
    fn no_hash_fallback_chains_blocks() {
        let (_, stats, ovf) = setup();
        let cfg = Config {
            compression: false,
            lookback: 0,
            indirect_capacity: 8,
            hash_fallback: false,
            ..Config::default()
        };
        let log = ThreadLog::default();
        let n = 200u64;
        let locs: Vec<Addr> = (0..n).map(|i| HEAP_BASE + i * 0x1000).collect();
        for &l in &locs {
            log.append(l, &cfg, &stats, &ovf, &Trace::new(), 1);
        }
        assert_eq!(collect(&log), locs);
        assert!(stats.snapshot().indirect_blocks >= 3, "blocks chained");
        assert_eq!(stats.snapshot().hashtables, 0);
    }

    #[test]
    fn reset_empties_all_tiers_and_keeps_capacity() {
        let (_, stats, ovf) = setup();
        let cfg = Config {
            compression: false,
            lookback: 0,
            indirect_capacity: 8,
            ..Config::default()
        };
        let log = ThreadLog::default();
        // 84 entries reach the hash tier and grow its table 64 → 128.
        for i in 0..100u64 {
            log.append(HEAP_BASE + i * 0x1000, &cfg, &stats, &ovf, &Trace::new(), 1);
        }
        let bytes = |o: &Overflow| o.indirect_bytes() + o.table_bytes();
        let bytes_before = bytes(&ovf);
        log.reset(&ovf);
        assert!(collect(&log).is_empty());
        // The next lifetime starts in the embedded tier, without a table.
        assert!(!log.hash_active(), "reset returns the hash tables");
        let first = HEAP_BASE + 0x800_0000;
        log.append(first, &cfg, &stats, &ovf, &Trace::new(), 1);
        assert!(!log.hash_active());
        assert_eq!(log.embedded_len.load(Ordering::Relaxed), 1);
        assert_eq!(collect(&log), vec![first]);
        // Refilling past the indirect block takes the largest pooled
        // table, and reuse allocates nothing new (60 entries fit the
        // 128-slot table without another grow).
        for i in 1..60u64 {
            log.append(first + i * 0x1000, &cfg, &stats, &ovf, &Trace::new(), 1);
        }
        assert!(log.hash_active(), "the lifetime filled its indirect block");
        // SAFETY: the table lives as long as `ovf`.
        let table = unsafe { &*log.hash.load(Ordering::Acquire) };
        assert_eq!(table.cap, 128, "largest free table first");
        assert_eq!(collect(&log).len(), 60);
        assert_eq!(bytes(&ovf), bytes_before);
        let s = stats.snapshot();
        assert_eq!((s.hashtables, s.hash_promotions), (1, 2), "{s:?}");
    }

    #[test]
    fn late_grow_never_reactivates_a_parked_table() {
        let (_, stats, ovf) = setup();
        let cfg = Config {
            compression: false,
            lookback: 0,
            indirect_capacity: 8,
            ..Config::default()
        };
        let log = ThreadLog::default();
        for i in 0..20u64 {
            log.append(HEAP_BASE + i * 0x1000, &cfg, &stats, &ovf, &Trace::new(), 1);
        }
        // SAFETY: the table lives as long as `ovf`.
        let table = unsafe { &*log.hash.load(Ordering::Acquire) };
        log.reset(&ovf);
        // The previous lifetime's owner saw the table full just before
        // `reset` returned it, and now grows it.
        table.count.store(table.cap, Ordering::Relaxed);
        let late = log.hash_insert(table, HEAP_BASE, &stats, &ovf, &Trace::new(), 1);
        assert_eq!(late, Appended::Stored);
        assert!(!log.hash_active(), "the grown copy must not be published");
        // The copy went back to its pool, zeroed, and the original is
        // still in its own.
        let copy = ovf.tables.class(128).try_take().expect("copy pooled");
        assert_eq!(copy.count.load(Ordering::Relaxed), 0);
        assert!(copy.prev.load(Ordering::Relaxed).is_null());
        assert!(copy.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0));
        let original = ovf.tables.class(64).try_take().expect("table pooled");
        assert!(ptr::eq(original, table));
    }

    #[test]
    fn reader_sees_prefix_under_concurrent_appends() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let log = Arc::new(ThreadLog::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let log = Arc::clone(&log);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // A huge indirect block keeps the log in the array tiers,
                // where append order is program order (the hash tier is an
                // unordered set and has no prefix property).
                let cfg = Config {
                    indirect_capacity: 1 << 22,
                    ..Config::default()
                };
                let stats = Stats::default();
                let ovf = Overflow::default();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    log.append(HEAP_BASE + i * 0x1000, &cfg, &stats, &ovf, &Trace::new(), 1);
                    i += 1;
                }
                i
            })
        };
        // Wait for the first append so the writer is guaranteed a slice of
        // real concurrency even on a single-core machine.
        while collect(&log).is_empty() {
            std::thread::yield_now();
        }
        // Concurrent reads must always observe a dense prefix.
        for _ in 0..200 {
            let mut seen = Vec::new();
            log.for_each_location(|l| seen.push((l - HEAP_BASE) / 0x1000));
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), seen.len(), "no duplicates");
            if let Some(&max) = sorted.last() {
                assert_eq!(sorted.len() as u64, max + 1, "dense prefix");
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total = writer.join().unwrap();
        assert!(total > 0);
    }
}
