//! Pointer-tagging defense arms: xTag, implicit identifiers, PA-MACs.
//!
//! The invalidation detectors (DangSan, DangNULL, FreeSentry) act at
//! *free* time: they rewrite every tracked pointer into a trapping shape.
//! The modern related work detects at *dereference* time instead, by
//! making the pointer itself carry evidence of which allocation it came
//! from and checking that evidence on every access:
//!
//! * **xTag** (Bernhard et al.) — a per-block generation tag kept in
//!   software shadow memory, mirrored into the pointer's spare high bits
//!   (48..=62 here, above the 48-bit canonical range) at allocation and
//!   *bumped on free*, so a stale pointer's tag mismatches the block's
//!   current tag. A k-bit tag wraps after `2^k - 1` reuses of the same
//!   slot, after which a historical pointer revalidates: the scheme's
//!   documented miss, surfaced by [`TagDetector::tag_wraps`].
//! * **implicit-ID** (DangKiller-style) — no per-pointer shadow state at
//!   all: each allocation gets a fresh 64-bit identifier, a keyed hash of
//!   which is truncated into the spare bits. The block's shadow record
//!   holds only the current identifier; a dereference recomputes the
//!   hash and compares. A free retires the identifier, so stale tags
//!   mismatch except with probability `2^-k` (hash collision).
//! * **pa-mac** (PACSan / CryptSan-style) — an ARM-PA-shaped keyed MAC
//!   over *(block base, allocation id)* folded into the spare bits. The
//!   MAC binds the pointer's target block, not just its generation; the
//!   deliberate truncation to k bits models PAC's small signature field
//!   and its `2^-k` forgery/collision rate.
//!
//! All three share one engine ([`TagDetector`]) parameterized by a
//! [`TagScheme`]: a shadow table of per-block records (which persists
//! across frees — the shadow tag of a freed block is exactly what makes
//! a stale dereference detectable) plus the scheme's tag derivation.
//! Detection happens in [`dangsan::Detector::check_deref`]: a valid tag
//! strips to the canonical address, a stale tag strips to `canonical |
//! INVALID_BIT` — the same shape the invalidation sweep writes — so a
//! stale-tag dereference faults exactly like an invalidated pointer and
//! classifies as a use-after-free in the interpreter. `free`/`realloc`
//! through a stale tag abort as `AllocError::InvalidPointer`, mirroring
//! the allocator abort a masked pointer produces.

use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dangsan::{Counter, Detector, InvalidationReport, Stats, StatsSnapshot};
use dangsan_heap::{AllocError, Allocation};
use dangsan_vmem::{tag_of, untag, with_tag, Addr, INVALID_BIT, TAG_BITS};

/// Default tag width: the full spare field. At 15 bits the xTag wrap
/// horizon (32767 reuses of one slot) and the hash/MAC collision rate
/// (2^-15) are both far outside what a generated fuzz program can hit,
/// which is what makes misses *classifiable* rather than routine.
pub const DEFAULT_TAG_BITS: u32 = TAG_BITS;

/// Default key for the keyed schemes (any odd constant works; the fuzz
/// harness reruns with a different key to classify collision misses).
pub const DEFAULT_TAG_KEY: u64 = 0x00D1_E5A4_7A65;

/// Which tagging scheme a [`TagDetector`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagScheme {
    /// Per-block generation counter, bumped on free; wraps after
    /// `2^bits - 1` reuses (tag 0 is reserved for "never tagged").
    XTag {
        /// Generation-tag width in bits (1..=15).
        bits: u32,
    },
    /// Keyed hash of a fresh 64-bit allocation identifier.
    ImplicitId {
        /// Truncated hash width in bits (1..=15).
        bits: u32,
        /// Hash key (models DangKiller's metadata-derivation secret).
        key: u64,
    },
    /// Keyed MAC over (block base, allocation id), PA-style.
    PaMac {
        /// Truncated MAC width in bits (1..=15).
        bits: u32,
        /// MAC key (models the PA key register).
        key: u64,
    },
}

impl TagScheme {
    /// The three schemes at their default widths and keys, in the order
    /// every harness lists them: xTag, implicit identifiers, PA-style
    /// MACs.
    pub const DEFAULTS: [TagScheme; 3] = [
        TagScheme::XTag {
            bits: DEFAULT_TAG_BITS,
        },
        TagScheme::ImplicitId {
            bits: DEFAULT_TAG_BITS,
            key: DEFAULT_TAG_KEY,
        },
        TagScheme::PaMac {
            bits: DEFAULT_TAG_BITS,
            key: DEFAULT_TAG_KEY,
        },
    ];

    /// The scheme's arm name: `xtag`, `implicit-id` or `pa-mac`.
    pub fn name(&self) -> &'static str {
        match self {
            TagScheme::XTag { .. } => "xtag",
            TagScheme::ImplicitId { .. } => "implicit-id",
            TagScheme::PaMac { .. } => "pa-mac",
        }
    }

    /// The configured tag width in bits.
    pub fn bits(&self) -> u32 {
        match *self {
            TagScheme::XTag { bits }
            | TagScheme::ImplicitId { bits, .. }
            | TagScheme::PaMac { bits, .. } => bits,
        }
    }

    fn mask(&self) -> u64 {
        (1 << self.bits()) - 1
    }
}

/// splitmix64's finalizer: the hash/MAC primitive for the keyed schemes
/// (a stand-in with good bit diffusion; the modeled property is the
/// truncation, not the cipher).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-block shadow record. Records persist after free — a freed block's
/// bumped tag / retired id is what a stale dereference is checked
/// against — and are overwritten in place when the allocator recycles
/// the slot.
struct BlockTag {
    /// Inclusive end of the block's slot (`base + usable`): resolution
    /// is by slot extent, not requested size, so in-place shrinks never
    /// orphan an interior pointer's shadow lookup.
    end: Addr,
    /// Current xTag generation value (nonzero once tagged).
    gen_tag: u64,
    /// Current allocation identifier (implicit-ID / pa-mac schemes).
    id: u64,
    /// Tags issued for this slot so far (xTag wrap accounting).
    issued: u64,
}

#[derive(Default)]
struct TagTable {
    blocks: BTreeMap<Addr, BlockTag>,
}

impl TagTable {
    /// The shadow record whose slot contains `addr`, if any.
    fn containing(&self, addr: Addr) -> Option<(Addr, &BlockTag)> {
        let (base, rec) = self.blocks.range(..=addr).next_back()?;
        (addr <= rec.end).then_some((*base, rec))
    }
}

/// Host-byte model for the memory-overhead column: xTag keeps one shadow
/// tag byte per 16-byte granule of heap address space; the identifier
/// schemes keep a fixed per-block record (id, and for pa-mac the per-
/// block MAC context). Shadow state is address-space-proportional and
/// persists after free, so accounting never shrinks.
fn shadow_cost(scheme: &TagScheme, usable: u64) -> u64 {
    match scheme {
        TagScheme::XTag { .. } => 8 + (usable + 1).div_ceil(16),
        TagScheme::ImplicitId { .. } => 8,
        TagScheme::PaMac { .. } => 16,
    }
}

/// The shared tagging-arm engine. Thread-safe (one mutex around the
/// shadow table — these schemes keep no per-pointer state, so the table
/// is touched once per alloc/free/dereference, not per registered
/// pointer).
pub struct TagDetector {
    scheme: TagScheme,
    state: Mutex<TagTable>,
    next_id: AtomicU64,
    stats: Stats,
    meta_bytes: AtomicU64,
    wraps: AtomicU64,
}

impl TagDetector {
    /// Builds a detector for `scheme`; widths are clamped to the spare
    /// field (1..=15 bits).
    pub fn new(scheme: TagScheme) -> Arc<TagDetector> {
        let scheme = match scheme {
            TagScheme::XTag { bits } => TagScheme::XTag {
                bits: bits.clamp(1, TAG_BITS),
            },
            TagScheme::ImplicitId { bits, key } => TagScheme::ImplicitId {
                bits: bits.clamp(1, TAG_BITS),
                key,
            },
            TagScheme::PaMac { bits, key } => TagScheme::PaMac {
                bits: bits.clamp(1, TAG_BITS),
                key,
            },
        };
        Arc::new(TagDetector {
            scheme,
            state: Mutex::new(TagTable::default()),
            next_id: AtomicU64::new(1),
            stats: Stats::default(),
            meta_bytes: AtomicU64::new(0),
            wraps: AtomicU64::new(0),
        })
    }

    /// The scheme this arm models.
    pub fn scheme(&self) -> TagScheme {
        self.scheme
    }

    /// xTag generation-space exhaustions: tags issued to some slot beyond
    /// the `2^bits - 1` distinct values. Nonzero means a historical
    /// pointer may revalidate — the arm's documented miss window. Always
    /// zero for the identifier schemes (their miss model is the
    /// per-check collision probability instead).
    pub fn tag_wraps(&self) -> u64 {
        self.wraps.load(Ordering::Relaxed)
    }

    /// The tag value a *currently valid* pointer to `base` carries.
    fn current_tag(&self, base: Addr, rec: &BlockTag) -> u64 {
        match self.scheme {
            TagScheme::XTag { .. } => rec.gen_tag,
            TagScheme::ImplicitId { key, .. } => mix(rec.id ^ key) & self.scheme.mask(),
            TagScheme::PaMac { key, .. } => {
                mix(mix(base) ^ key ^ rec.id.rotate_left(17)) & self.scheme.mask()
            }
        }
    }

    /// Issues the next generation for a slot: fresh identifier always;
    /// for xTag the generation counter steps through the nonzero k-bit
    /// values (0 is reserved so an untagged pointer never validates) and
    /// records exhaustion once every distinct value has been handed out.
    fn advance(&self, rec: &mut BlockTag) {
        rec.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if let TagScheme::XTag { .. } = self.scheme {
            let cap = self.scheme.mask(); // nonzero values: 1..=cap
            rec.gen_tag = if rec.gen_tag >= cap {
                1
            } else {
                rec.gen_tag + 1
            };
            rec.issued += 1;
            if rec.issued > cap {
                self.wraps.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The tag check shared by dereference, free and [`Self::probe`]:
    /// resolves `addr`'s canonical part against the shadow table and
    /// reports whether its tag field matches the block's current tag.
    /// `None`: the address is outside every known slot.
    fn check(&self, addr: Addr) -> Option<bool> {
        let c = untag(addr);
        let st = self.state.lock().expect("not poisoned");
        let (base, rec) = st.containing(c)?;
        Some(tag_of(addr) == self.current_tag(base, rec))
    }

    /// Whether dereferencing `value` now would hit a stale tag (the
    /// fuzzer's slab probe). Unknown addresses and valid tags are not
    /// stale.
    pub fn probe(&self, value: u64) -> bool {
        if value & INVALID_BIT != 0 {
            return false;
        }
        self.check(value) == Some(false)
    }
}

impl Detector for TagDetector {
    fn name(&self) -> &'static str {
        match self.scheme {
            TagScheme::XTag { .. } => "xtag",
            TagScheme::ImplicitId { .. } => "implicit-id",
            TagScheme::PaMac { .. } => "pa-mac",
        }
    }

    fn on_alloc(&self, alloc: &Allocation) {
        let mut st = self.state.lock().expect("not poisoned");
        let end = alloc.base + alloc.usable;
        let rec = st.blocks.entry(alloc.base).or_insert_with(|| {
            self.meta_bytes
                .fetch_add(shadow_cost(&self.scheme, alloc.usable), Ordering::Relaxed);
            BlockTag {
                end,
                gen_tag: 0,
                id: 0,
                issued: 0,
            }
        });
        rec.end = end;
        self.advance(rec);
        self.stats.bump(&[Counter::ObjectsAllocated]);
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        // Nothing is rewritten in program memory: the *shadow* advances,
        // so every outstanding pointer's tag goes stale at once.
        let mut st = self.state.lock().expect("not poisoned");
        if let Some(rec) = st.blocks.get_mut(&base) {
            self.advance(rec);
        }
        self.stats.bump(&[Counter::ObjectsFreed]);
        InvalidationReport::default()
    }

    fn on_realloc_in_place(&self, _base: Addr, _new_size: u64) {
        // The block's identity is unchanged and resolution is by slot
        // extent, so outstanding pointers stay valid: nothing to do.
    }

    fn register_ptr(&self, _loc: Addr, _value: u64) {
        // The defining property of this arm family: no per-pointer
        // state, so a pointer store costs nothing.
    }

    fn encode_ptr(&self, base: Addr) -> Addr {
        let st = self.state.lock().expect("not poisoned");
        match st.blocks.get(&base) {
            Some(rec) => with_tag(base, self.current_tag(base, rec)),
            None => base,
        }
    }

    fn check_deref(&self, addr: Addr) -> Addr {
        if addr & INVALID_BIT != 0 {
            return addr; // already a trapping shape; fault as-is
        }
        match self.check(addr) {
            // Valid tag: the access proceeds at the canonical address.
            Some(true) => untag(addr),
            // Stale tag: rewrite into the invalidation sweep's trapping
            // shape so the access faults as a use-after-free.
            Some(false) => untag(addr) | INVALID_BIT,
            // Not a heap slot this arm ever tagged (stack, globals,
            // fabricated integers): pass through, natural fault class.
            None => addr,
        }
    }

    fn decode_free(&self, addr: Addr) -> Result<Addr, AllocError> {
        if addr & INVALID_BIT != 0 {
            return Ok(addr); // let the allocator reject the masked shape
        }
        match self.check(addr) {
            Some(true) => Ok(untag(addr)),
            Some(false) => Err(AllocError::InvalidPointer(addr)),
            None => Ok(addr),
        }
    }

    fn probe_stale(&self, value: u64) -> bool {
        self.probe(value)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn metadata_bytes(&self) -> u64 {
        self.meta_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan::HookedHeap;
    use dangsan_heap::Heap;
    use dangsan_vmem::{AddressSpace, FaultKind};

    fn setup(scheme: TagScheme) -> HookedHeap<TagDetector> {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        HookedHeap::new(heap, TagDetector::new(scheme))
    }

    #[test]
    fn stale_tag_faults_like_an_invalidated_pointer() {
        for scheme in TagScheme::DEFAULTS {
            let hh = setup(scheme);
            let obj = hh.malloc(48).unwrap();
            let holder = hh.malloc(8).unwrap();
            hh.store_ptr(holder.base, obj.base).unwrap();
            hh.free(obj.base).unwrap();
            // The stored pointer is bit-identical to before the free —
            // nothing was rewritten — yet dereferencing it now traps
            // with the invalidation sweep's exact fault shape.
            let dangling = hh.load(holder.base).unwrap();
            assert_eq!(dangling, obj.base, "{scheme:?}: memory untouched");
            let fault = hh.load(dangling).unwrap_err();
            assert_eq!(fault.kind, FaultKind::NonCanonical, "{scheme:?}");
            assert_eq!(fault.addr & INVALID_BIT, INVALID_BIT, "{scheme:?}");
            assert_eq!(untag(fault.addr & !INVALID_BIT), untag(dangling));
        }
    }

    #[test]
    fn live_pointers_and_interior_pointers_pass() {
        for scheme in TagScheme::DEFAULTS {
            let hh = setup(scheme);
            let obj = hh.malloc(64).unwrap();
            hh.store_untracked(obj.base + 24, 0xFEED).unwrap();
            assert_eq!(hh.load(obj.base + 24).unwrap(), 0xFEED, "{scheme:?}");
            hh.free(obj.base).unwrap();
        }
    }

    #[test]
    fn free_through_stale_tag_aborts_like_a_masked_pointer() {
        for scheme in TagScheme::DEFAULTS {
            let hh = setup(scheme);
            let obj = hh.malloc(48).unwrap();
            let stale = obj.base;
            hh.free(obj.base).unwrap();
            assert_eq!(
                hh.free(stale),
                Err(AllocError::InvalidPointer(stale)),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn untagged_and_wild_values_keep_their_natural_fault_class() {
        for scheme in TagScheme::DEFAULTS {
            let hh = setup(scheme);
            let _obj = hh.malloc(48).unwrap();
            // An unmapped canonical address is outside every slot: it
            // must fault Unmapped, not be misread as a stale tag.
            let fault = hh.load(0x0000_2000_0000_0000).unwrap_err();
            assert_eq!(fault.kind, FaultKind::Unmapped, "{scheme:?}");
            // A wild non-canonical value stays a plain fault.
            let fault = hh.load(0x7edd_0000_0000_1000).unwrap_err();
            assert_eq!(fault.kind, FaultKind::NonCanonical, "{scheme:?}");
        }
    }

    #[test]
    fn realloc_in_place_keeps_outstanding_pointers_valid() {
        for scheme in TagScheme::DEFAULTS {
            let hh = setup(scheme);
            let obj = hh.malloc(40).unwrap();
            let holder = hh.malloc(8).unwrap();
            hh.store_ptr(holder.base, obj.base).unwrap();
            let (new, _) = hh.realloc(obj.base, obj.usable).unwrap();
            assert_eq!(new.base, obj.base, "{scheme:?}: same tag, same bits");
            let p = hh.load(holder.base).unwrap();
            assert!(hh.load(p).is_ok(), "{scheme:?}: pointer survived");
            hh.free(obj.base).unwrap();
        }
    }

    #[test]
    fn xtag_exhaustion_is_a_documented_miss_not_a_false_trap() {
        // The satellite guarantee test: with a k-bit tag, 2^k - 1
        // distinct generations exist. Cycle one slot until the
        // generation returns to the saved pointer's value: the stale
        // pointer *revalidates* (a silent read, the scheme's documented
        // miss) and the wrap counter proves the exhaustion. Before the
        // wrap completes, every dereference of the stale pointer traps.
        const BITS: u32 = 2; // capacity: 3 nonzero tags
        let hh = setup(TagScheme::XTag { bits: BITS });
        let det = Arc::clone(hh.detector());
        let first = hh.malloc(48).unwrap();
        let stale = first.base; // carries generation tag 1
        hh.free(first.base).unwrap(); // slot advances to 2
        assert!(hh.load(stale).is_err(), "gen 2: stale trap");
        assert_eq!(det.tag_wraps(), 0, "no exhaustion yet");
        // alloc->3, free->1(wrap), alloc->2, free->3, alloc->1: after
        // enough reuse the slot's current generation equals the stale
        // pointer's again. Walk until it does.
        let mut wrapped = false;
        for _ in 0..(1 << BITS) {
            let again = hh.malloc(48).unwrap();
            assert_eq!(untag(again.base), untag(stale), "same slot recycled");
            if again.base == stale {
                wrapped = true;
                break;
            }
            hh.free(again.base).unwrap();
        }
        assert!(wrapped, "generation never returned within 2^k cycles");
        assert!(det.tag_wraps() > 0, "exhaustion unrecorded");
        // The documented miss: the stale pointer now reads the recycled
        // block silently. A *false trap* here would be a bug; a silent
        // read is the analytic guarantee's stated limit.
        assert!(hh.load(stale).is_ok(), "miss expected after wrap");
    }

    #[test]
    fn implicit_id_detects_realloc_move() {
        // The satellite guarantee test: a realloc that moves the block
        // retires the old identifier, so a pre-realloc pointer's hash no
        // longer matches — the move is detected at the next dereference
        // with no per-pointer state at all.
        let hh = setup(TagScheme::ImplicitId {
            bits: DEFAULT_TAG_BITS,
            key: DEFAULT_TAG_KEY,
        });
        let obj = hh.malloc(32).unwrap();
        let before = obj.base;
        hh.store_untracked(before, 0xABCD).unwrap();
        let (new, _) = hh.realloc(obj.base, 5000).unwrap();
        assert_ne!(untag(new.base), untag(before), "5000 bytes forces a move");
        assert_eq!(hh.load(new.base).unwrap(), 0xABCD, "contents moved");
        let fault = hh.load(before).unwrap_err();
        assert_eq!(fault.kind, FaultKind::NonCanonical);
        assert_eq!(fault.addr & INVALID_BIT, INVALID_BIT, "UAF-shaped");
        hh.free(new.base).unwrap();
    }

    #[test]
    fn pa_mac_truncated_collision_rate_matches_the_analytic_model() {
        // The satellite guarantee test: with a b-bit MAC a stale pointer
        // validates with probability 2^-b. Sample across keys — each
        // (key, id-pair) is one Bernoulli trial of the truncated MAC —
        // and pin the observed rate against the analytic rate. The
        // sequence is fully deterministic (fixed keys, fixed id order),
        // so the bound is a regression pin, not a flaky tolerance.
        const BITS: u32 = 4; // collision rate 1/16
        const TRIALS: u64 = 4096;
        let mut collisions = 0u64;
        for k in 0..TRIALS {
            let hh = setup(TagScheme::PaMac {
                bits: BITS,
                key: mix(k),
            });
            let obj = hh.malloc(48).unwrap();
            let stale = obj.base;
            hh.free(obj.base).unwrap();
            if hh.detector().probe(stale) {
                assert!(hh.load(stale).is_err(), "non-collision must trap");
            } else {
                // Current (freed) generation's truncated MAC collides
                // with the stale pointer's: the modeled forgery.
                assert!(hh.load(stale).is_ok(), "collision must read silently");
                collisions += 1;
            }
        }
        let expected = TRIALS / (1 << BITS); // 256
                                             // Binomial(4096, 1/16): sd ~ 15.5; allow ~4 sd either way.
        let (lo, hi) = (expected - 62, expected + 62);
        assert!(
            (lo..=hi).contains(&collisions),
            "observed {collisions} collisions outside [{lo}, {hi}] around analytic {expected}"
        );
    }

    #[test]
    fn probe_distinguishes_live_stale_and_unknown() {
        let hh = setup(TagScheme::XTag {
            bits: DEFAULT_TAG_BITS,
        });
        let det = Arc::clone(hh.detector());
        let obj = hh.malloc(48).unwrap();
        assert!(!det.probe(obj.base), "live pointer is not stale");
        assert!(!det.probe(0x1234), "integers are unknown, not stale");
        assert!(!det.probe(obj.base | INVALID_BIT), "masked: already dead");
        let stale = obj.base;
        hh.free(obj.base).unwrap();
        assert!(det.probe(stale), "freed generation probes stale");
    }

    #[test]
    fn works_from_multiple_threads() {
        for scheme in TagScheme::DEFAULTS {
            let hh = setup(scheme);
            let mut handles = Vec::new();
            for _ in 0..4 {
                let hh = hh.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..300 {
                        let obj = hh.malloc(32).unwrap();
                        let stale = obj.base;
                        hh.store_untracked(obj.base, 7).unwrap();
                        assert_eq!(hh.load(obj.base).unwrap(), 7);
                        hh.free(obj.base).unwrap();
                        // 15-bit tags: a wrap inside 300 iterations is
                        // impossible, so the stale read must trap.
                        assert!(hh.load(stale).is_err());
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let s = hh.detector().stats();
            assert_eq!(s.objects_allocated, 4 * 300, "{scheme:?}");
            assert_eq!(s.objects_freed, 4 * 300, "{scheme:?}");
        }
    }

    #[test]
    fn metadata_grows_with_address_space_not_live_set() {
        let hh = setup(TagScheme::XTag {
            bits: DEFAULT_TAG_BITS,
        });
        let a = hh.malloc(48).unwrap();
        let after_first = hh.detector().metadata_bytes();
        assert!(after_first > 0);
        hh.free(a.base).unwrap();
        assert_eq!(
            hh.detector().metadata_bytes(),
            after_first,
            "shadow tags persist after free"
        );
        // Recycling the same slot adds nothing new.
        let b = hh.malloc(48).unwrap();
        assert_eq!(untag(b.base), untag(a.base));
        assert_eq!(hh.detector().metadata_bytes(), after_first);
        hh.free(b.base).unwrap();
    }
}
