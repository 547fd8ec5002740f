//! Per-alloc-site tracking policy: the site-profile table and tier router.
//!
//! DangSan pays the full pointer-tracking cost uniformly, but most
//! allocation sites never have a pointer registered against their
//! objects — the expensive log tiers exist for a minority of sites. This
//! module learns which sites are provably boring and routes them to a
//! thinner path (DESIGN.md §5h):
//!
//! * [`Tier::Thin`] — no sweep-queue round trip at free: the object's
//!   epoch is retired and, if the log chain is empty (the profile's
//!   prediction), the free completes with shadow teardown only.
//! * [`Tier::Standard`] — today's path, unchanged.
//! * [`Tier::Hardened`] — full tracking plus a mandatory reuse delay:
//!   in deferred mode the swept block is pinned in a bounded FIFO
//!   before re-entering the allocator (sites with prior UAF reports).
//!
//! **The router may only trade work, never detection.** Routing is
//! structurally detection-safe regardless of profile quality:
//! `registerptr` always registers (lazily promoting a Thin object on
//! its slow path), and a free that finds a non-empty log chain always
//! runs the full invalidation walk. The profile merely authorises
//! skipping machinery whose input is *observed empty at free time* —
//! it never suppresses an invalidation. The one registration the thin
//! free can miss — a racing store that lands after the free detaches
//! the chain — is the same racing-store window the Standard path has
//! always had (§4.4's weak-consistency argument).
//!
//! The table is a fixed-size, direct-mapped array of atomics keyed by
//! `alloc_site() & (SITE_SLOTS - 1)`. Collisions *merge* evidence, which
//! is conservative in the safe direction: disqualifying evidence
//! (inbound pointers, demotions, UAF reports) only accumulates, so two
//! sites sharing a slot can lose Thin eligibility but a dirty site can
//! never borrow a clean neighbour's record — eligibility requires the
//! slot to have *zero* disqualifiers.

use core::sync::atomic::{AtomicU64, Ordering};

/// Slots in the direct-mapped site-profile table. Site ids are 16-bit
/// (`dangsan_trace::pack_size_site`), so 1024 slots keep the collision
/// rate low while the whole table stays a few cache lines per column.
pub const SITE_SLOTS: usize = 1024;

/// The tracking depth assigned to one allocation at `malloc` time.
///
/// Stored in `ObjectMeta::tier` as its `u64` discriminant so the free
/// path and the `registerptr` slow path can read it without locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Tier {
    /// Full tracking, synchronous or deferred sweep — today's path.
    Standard = 0,
    /// Epoch-only free when the log chain is empty; promoted to
    /// `Standard` by the first `registerptr` against the object.
    Thin = 1,
    /// Full tracking plus pinned (delayed) block reuse after the sweep.
    Hardened = 2,
}

/// One slot of evidence. All counters are monotonic and relaxed: the
/// profile is a heuristic input to the router, never a safety input —
/// see the module docs.
#[derive(Default)]
struct SiteProfile {
    /// Frees observed for objects routed from this slot.
    frees: AtomicU64,
    /// Total unique inbound pointer locations walked at those frees.
    inbound: AtomicU64,
    /// UAF reports attributed to this site by `forensics`.
    uaf_reports: AtomicU64,
    /// Times a Thin object from this slot was contradicted (a
    /// `registerptr` or a non-empty chain at free). Permanent
    /// disqualifier: one wrong prediction ends Thin routing here.
    demotions: AtomicU64,
}

/// A whole-table census: how many slots currently route each tier, and
/// the accumulated demotions. See [`SitePolicy::census`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCensus {
    /// Slots that would route Thin right now.
    pub thin: u64,
    /// Slots that would route Standard right now.
    pub standard: u64,
    /// Slots that would route Hardened right now.
    pub hardened: u64,
    /// Total Thin-prediction contradictions across the table.
    pub demotions: u64,
}

/// Lock-free site-profile table + router (see the module docs).
pub struct SitePolicy {
    slots: Box<[SiteProfile; SITE_SLOTS]>,
    /// Frees a slot must witness, with zero disqualifiers, before its
    /// sites route Thin (`Config::thin_min_frees`).
    thin_min_frees: u64,
}

impl SitePolicy {
    /// Creates an empty table; every site starts `Standard`.
    pub fn new(thin_min_frees: u64) -> Self {
        let slots: Vec<SiteProfile> = (0..SITE_SLOTS).map(|_| SiteProfile::default()).collect();
        let slots: Box<[SiteProfile; SITE_SLOTS]> =
            slots.try_into().unwrap_or_else(|_| unreachable!());
        SitePolicy {
            slots,
            thin_min_frees: thin_min_frees.max(1),
        }
    }

    #[inline]
    fn slot(&self, site: u64) -> &SiteProfile {
        &self.slots[(site as usize) & (SITE_SLOTS - 1)]
    }

    /// Routes one allocation: the tier for an object born at `site` now.
    ///
    /// Thin requires a history of `thin_min_frees` frees with *zero*
    /// inbound pointers and no contradiction or report ever; any UAF
    /// report forces Hardened; everything else is Standard.
    #[inline]
    pub fn route(&self, site: u64) -> Tier {
        let s = self.slot(site);
        if s.uaf_reports.load(Ordering::Relaxed) > 0 {
            return Tier::Hardened;
        }
        if s.demotions.load(Ordering::Relaxed) == 0
            && s.inbound.load(Ordering::Relaxed) == 0
            && s.frees.load(Ordering::Relaxed) >= self.thin_min_frees
        {
            return Tier::Thin;
        }
        Tier::Standard
    }

    /// Records the evidence one completed free produced: `inbound`
    /// unique locations walked.
    pub fn note_free(&self, site: u64, inbound: u64) {
        let s = self.slot(site);
        s.frees.fetch_add(1, Ordering::Relaxed);
        if inbound > 0 {
            s.inbound.fetch_add(inbound, Ordering::Relaxed);
        }
    }

    /// Records a Thin-prediction contradiction: the site stops routing
    /// Thin permanently (the object itself was already promoted by the
    /// caller before this is called).
    pub fn demote(&self, site: u64) {
        self.slot(site).demotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a UAF report attributed to `site`: the site routes
    /// Hardened from now on.
    pub fn note_uaf(&self, site: u64) {
        self.slot(site).uaf_reports.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts every slot's *current* routing decision plus the table's
    /// accumulated demotions — the telemetry plane's
    /// tier-population gauges. Cold (scans all [`SITE_SLOTS`] slots);
    /// each slot is classified by exactly the [`SitePolicy::route`]
    /// logic, so the census answers "what would an allocation from each
    /// slot get right now".
    pub fn census(&self) -> TierCensus {
        let mut c = TierCensus::default();
        for i in 0..SITE_SLOTS {
            match self.route(i as u64) {
                Tier::Thin => c.thin += 1,
                Tier::Standard => c.standard += 1,
                Tier::Hardened => c.hardened += 1,
            }
            c.demotions += self.slots[i].demotions.load(Ordering::Relaxed);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sites_route_standard() {
        let p = SitePolicy::new(4);
        assert_eq!(p.route(7), Tier::Standard);
    }

    #[test]
    fn clean_history_earns_thin() {
        let p = SitePolicy::new(4);
        for _ in 0..3 {
            p.note_free(7, 0);
            assert_eq!(p.route(7), Tier::Standard, "below the free floor");
        }
        p.note_free(7, 0);
        assert_eq!(p.route(7), Tier::Thin);
    }

    #[test]
    fn inbound_pointers_disqualify_thin() {
        let p = SitePolicy::new(1);
        p.note_free(7, 2);
        for _ in 0..100 {
            p.note_free(7, 0);
        }
        assert_eq!(p.route(7), Tier::Standard, "inbound evidence is sticky");
    }

    #[test]
    fn demotion_is_permanent() {
        let p = SitePolicy::new(1);
        p.note_free(7, 0);
        assert_eq!(p.route(7), Tier::Thin);
        p.demote(7);
        for _ in 0..100 {
            p.note_free(7, 0);
        }
        assert_eq!(p.route(7), Tier::Standard, "one contradiction ends Thin");
    }

    #[test]
    fn uaf_report_forces_hardened() {
        let p = SitePolicy::new(1);
        p.note_free(7, 0);
        assert_eq!(p.route(7), Tier::Thin);
        p.note_uaf(7);
        assert_eq!(p.route(7), Tier::Hardened);
    }

    #[test]
    fn collisions_merge_conservatively() {
        let p = SitePolicy::new(1);
        let (a, b) = (7u64, 7 + SITE_SLOTS as u64); // same slot
        p.note_free(a, 0);
        assert_eq!(p.route(b), Tier::Thin, "collision shares the history...");
        p.note_free(b, 5);
        assert_eq!(p.route(a), Tier::Standard, "...and shares disqualifiers");
    }
}
