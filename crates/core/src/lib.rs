//! # DangSan: scalable use-after-free detection
//!
//! A Rust reproduction of *DangSan: Scalable Use-after-free Detection*
//! (van der Kouwe, Nigade, Giuffrida — EuroSys 2017).
//!
//! DangSan prevents use-after-free exploitation by **pointer
//! invalidation**: it tracks, per heap object, every memory location that
//! stores a pointer into the object, and rewrites those locations to
//! non-canonical addresses (most-significant bit set) the moment the
//! object is freed. A later dereference of the dangling pointer traps
//! instead of reading or corrupting reused memory.
//!
//! The design insight (§4.4) is that this workload is extremely
//! write-heavy — every pointer-typed store registers a location — while
//! reads happen only at `free`. Strong consistency is unnecessary because
//! stale or duplicate log entries are reconciled at read time by checking
//! whether the location still holds a pointer into the object. DangSan
//! therefore borrows the architecture of **log-structured file systems**:
//! per-thread, append-only logs per object, a lock-free list to find them,
//! and no synchronization whatsoever on the store fast path.
//!
//! ## Crate layout
//!
//! | module | paper concept |
//! |---|---|
//! | [`detector`] | the DangSan detector (`registerptr`, `invalptrs`) |
//! | [`log`] | per-thread pointer location logs (Figures 6–7) |
//! | [`compress`] | pointer compression (Figure 8) |
//! | [`object`] | per-object metadata records |
//! | [`pool`] | type-stable metadata recycling (§7's "careful reuse") |
//! | [`hooked`] | the heap tracker: malloc/free/realloc interposition |
//! | [`api`] | the `Detector` trait shared with baselines |
//! | [`stats`] | Table 1 counters |
//! | [`config`] | lookback/compression/hash-fallback knobs |
//!
//! The pointer-to-object mapper (metapagetable, Figure 5) lives in the
//! `dangsan-shadow` crate; the tcmalloc-style allocator in `dangsan-heap`;
//! the simulated address space in `dangsan-vmem`.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use dangsan_vmem::{AddressSpace, FaultKind};
//! use dangsan_heap::Heap;
//! use dangsan::{Config, DangSan, HookedHeap};
//!
//! let mem = Arc::new(AddressSpace::new());
//! let heap = Heap::new(Arc::clone(&mem));
//! let detector = DangSan::new(Arc::clone(&mem), Config::default());
//! let hh = HookedHeap::new(heap, detector);
//!
//! // A program with a use-after-free bug:
//! let obj = hh.malloc(64).unwrap();
//! let list_node = hh.malloc(16).unwrap();
//! hh.store_ptr(list_node.base, obj.base).unwrap(); // keep a pointer
//! hh.free(obj.base).unwrap();                      // ... then free it
//!
//! // The dangling pointer was invalidated: dereferencing it traps.
//! let dangling = hh.load(list_node.base).unwrap();
//! assert_eq!(hh.load(dangling).unwrap_err().kind, FaultKind::NonCanonical);
//! ```

pub mod api;
pub mod compress;
pub mod config;
pub mod detector;
pub mod hooked;
pub mod log;
pub mod object;
pub mod pool;
pub mod stats;
pub(crate) mod sweep;

pub use api::{bind_once, Detector, InvalidationReport, NullDetector};
pub use config::{Config, EMBEDDED_ENTRIES};
pub use detector::{current_thread_id, DangSan};
pub use hooked::{HookedHeap, HookedThread};
pub use stats::{Counter, MetadataLedger, Stats, StatsSnapshot};

// The flight recorder (`dangsan-trace`) re-exported at the top level:
// `Config::trace_level` takes a `TraceLevel`, `DangSan::tracer` hands back
// a `Tracer`, and forensics works off either.
pub use dangsan_trace::{
    forensics, set_alloc_site, Event, EventCode, TraceLevel, Tracer, UafReport,
};

// The telemetry plane (`dangsan-telemetry`) re-exported at the top
// level: `Config::metrics` makes `DangSan::new` build a `MetricsHub`,
// and workloads register their latency `Histogram`s on it.
pub use dangsan_telemetry as telemetry;

/// A shareable, thread-safe detector handle.
pub type SharedDetector = std::sync::Arc<dyn Detector + Send + Sync>;
