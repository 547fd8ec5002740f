//! Comparison detectors for the DangSan evaluation (paper §8 and §9).
//!
//! The paper compares DangSan against the two prior pointer-invalidation
//! systems:
//!
//! * **DangNULL** (Lee et al., NDSS'15) — supports threads but serialises
//!   every pointer store through locked, tree-based shadow structures, and
//!   tracks only pointers *stored in heap objects*, missing the stack and
//!   globals entirely (hence its tiny `# inval` column in Table 1).
//! * **FreeSentry** (Younan, NDSS'15) — overhead comparable to DangSan but
//!   fundamentally single-threaded; the paper notes multithreading support
//!   would require adding locks everywhere.
//!
//! Both are reimplemented here against the same [`dangsan::Detector`]
//! interface so identical workloads can drive all three systems plus the
//! uninstrumented baseline. The models reproduce each system's *cost
//! shape* (what is locked, what is a tree walk, what is per-store work)
//! and *coverage* (which stores are tracked, what value is written on
//! invalidation), which is what Figures 9–12 and Table 1 measure.
//!
//! A third detector, [`DangSanLocked`], is the paper's implicit ablation:
//! DangSan's exact data structures behind one global lock, isolating how
//! much of the scalability comes from lock-freedom rather than logging.
//! [`QuarantineDetector`] models the §9 *secure allocator* class (DieHard /
//! Cling / ASan quarantines) together with the heap-massaging bypass that
//! disqualifies it against deliberate attacks.

//! [`ShadowOracle`] is not a comparison arm from the paper at all: it is
//! the differential fuzzer's ground truth — a deliberately simple exact
//! tracker of *every* pointer store, with an eager mode matching the
//! synchronous sweep's timing and a lazy mode matching the deferred
//! sweep's quarantine placement (DESIGN.md "Differential fuzzing").
//!
//! [`TagDetector`] covers the *dereference-time* defense family the §9
//! related work surveys: xTag-style generation tags, DangKiller-style
//! implicit identifiers, and PACSan/CryptSan-style truncated pointer
//! MACs, all folded into the spare high pointer bits and checked on
//! every access instead of rewritten at free (DESIGN.md §5j).

mod dangnull;
mod freesentry;
mod locked;
mod oracle;
mod quarantine;
mod tagging;

pub use dangnull::DangNull;
pub use freesentry::FreeSentry;
pub use locked::DangSanLocked;
pub use oracle::{OracleMode, ShadowOracle};
pub use quarantine::QuarantineDetector;
pub use tagging::{TagDetector, TagScheme, DEFAULT_TAG_BITS, DEFAULT_TAG_KEY};
