//! Live telemetry plane: what the detector is doing *right now*.
//!
//! The flight recorder (`dangsan-trace`) answers post-hoc questions —
//! which free produced this trap. This crate answers operational ones:
//! queue depths, tier populations, tail latency — the figures a
//! production deployment would graph. Three pieces:
//!
//! * [`Histogram`] — log-bucketed latency histograms recorded through
//!   per-thread single-writer slabs, bound through the stack's one
//!   per-thread binding (`dangsan_trace::binding`) as the detector's
//!   counters are: the owning thread writes its slab with plain load +
//!   store (never an RMW, never a lock), slabs stay registered and
//!   readable until the thread retires them, and
//!   [`Histogram::snapshot`] sums retired totals plus every registered
//!   slab under the registry mutex — so counts are exact for any reader
//!   ordered after the recording (a `join`, or `thread::scope`
//!   returning), with no dependence on TLS-destructor timing.
//! * [`MetricsHub`] — a pull-based registry of gauges and counters.
//!   Sources (the detector, the heap) register a closure once; nothing
//!   is pushed on the hot path, so a mutator never touches the hub at
//!   all. Collection, sampling and rendering are cold control-plane
//!   operations behind mutexes.
//! * [`Sampler`] — a background thread that collects the hub on a fixed
//!   cadence into an in-memory JSONL time series, plus a
//!   Prometheus-style text exposition dump on demand. The caller that
//!   wants a series starts one ([`MetricsHub::start_sampler`]) and
//!   writes the buffers to files; neither the detector nor this crate
//!   starts a thread or touches the filesystem on its own.
//!
//! The ablation contract mirrors the flight recorder's: with
//! `Config::metrics` off no hub exists and a record site costs at most
//! one relaxed load and an untaken branch ([`Histogram::record`] on a
//! workload-owned histogram is the measurement itself and exists in
//! both modes); the pull design keeps the detector's malloc / store /
//! free paths free of telemetry sites entirely.

pub mod hist;
pub mod registry;

pub use hist::{bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Collector, MetricKind, MetricsHub, Sample, Sampler};
