//! The metrics registry: pull-based gauges/counters plus the sampler.
//!
//! Subsystems register a *source* closure once (cold, behind a mutex);
//! nothing is ever pushed from a hot path — collection walks the
//! sources on demand, so with no collector running, a registered
//! subsystem pays nothing at all. Histograms register by name and are
//! flattened into `_count` / `_p50` / `_p99` / `_p999` / `_max` gauges
//! at collection time.
//!
//! The [`Sampler`] is a background thread collecting the hub every
//! `interval` into an in-memory JSONL time series (one object per
//! line, `ts_ms` first). The hub also renders a Prometheus-style text
//! exposition (`# TYPE` comments + `name value` lines). Both are plain
//! strings: harnesses decide what hits the filesystem.

use core::sync::atomic::{AtomicBool, Ordering};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::hist::Histogram;

/// How a sample should be read (and exported to Prometheus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing total.
    Counter,
    /// Point-in-time level; may go down.
    Gauge,
}

/// One collected metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (`snake_case`, stable across releases).
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The value at collection time.
    pub value: u64,
}

/// The push target handed to source closures during a collection.
#[derive(Debug, Default)]
pub struct Collector {
    samples: Vec<Sample>,
}

impl Collector {
    /// Reports a gauge.
    pub fn gauge(&mut self, name: &str, value: u64) {
        self.samples.push(Sample {
            name: name.to_string(),
            kind: MetricKind::Gauge,
            value,
        });
    }

    /// Reports a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.samples.push(Sample {
            name: name.to_string(),
            kind: MetricKind::Counter,
            value,
        });
    }
}

type Source = Box<dyn Fn(&mut Collector) + Send + Sync>;

/// Ceiling on retained time-series lines: at a 100 ms cadence
/// this is ~2.7 hours of history, and it bounds sampler memory on
/// long-running processes (oldest lines are dropped first).
const SERIES_CAP: usize = 100_000;

/// The metrics registry (see the module docs). Created by
/// `Config::metrics`-enabled detectors; harnesses reach it through
/// `DangSan::metrics`.
#[derive(Default)]
pub struct MetricsHub {
    sources: Mutex<Vec<Source>>,
    hists: Mutex<Vec<(String, Weak<Histogram>)>>,
    series: Mutex<VecDeque<String>>,
    dropped_lines: AtomicBool,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Arc<MetricsHub> {
        Arc::new(MetricsHub::default())
    }

    /// Registers a source closure, called on every collection. Sources
    /// should read their subsystem's counters/levels and push samples;
    /// they must not block on locks a hot path holds for long.
    pub fn register_source(&self, f: impl Fn(&mut Collector) + Send + Sync + 'static) {
        self.sources.lock().expect("not poisoned").push(Box::new(f));
    }

    /// Registers a histogram: each collection flattens it into
    /// `<name>_count/_p50/_p99/_p999/_max` gauges. The hub holds only a
    /// `Weak`; a dropped histogram silently leaves the export.
    pub fn register_histogram(&self, name: &str, h: &Arc<Histogram>) {
        self.hists
            .lock()
            .expect("not poisoned")
            .push((name.to_string(), Arc::downgrade(h)));
    }

    /// Collects every source and registered histogram into a flat
    /// sample list (stable order: sources in registration order, then
    /// histograms).
    pub fn collect(&self) -> Vec<Sample> {
        let mut c = Collector::default();
        {
            let sources = self.sources.lock().expect("not poisoned");
            for f in sources.iter() {
                f(&mut c);
            }
        }
        let hists = self.hists.lock().expect("not poisoned");
        for (name, h) in hists.iter() {
            if let Some(h) = h.upgrade() {
                let s = h.snapshot();
                c.gauge(&format!("{name}_count"), s.count());
                c.gauge(&format!("{name}_p50"), s.p50());
                c.gauge(&format!("{name}_p99"), s.p99());
                c.gauge(&format!("{name}_p999"), s.p999());
                c.gauge(&format!("{name}_max"), s.max());
            }
        }
        c.samples
    }

    /// One JSONL time-series line for the current state: a flat object,
    /// `ts_ms` (milliseconds since `epoch`) first, then every sample.
    /// Names are emitted as-is — they are crate-controlled identifiers,
    /// never user input, so no JSON escaping is needed.
    pub fn jsonl_line(&self, epoch: Instant) -> String {
        let ts_ms = epoch.elapsed().as_secs_f64() * 1e3;
        let mut line = format!("{{\"ts_ms\":{ts_ms:.3}");
        for s in self.collect() {
            line.push_str(&format!(",\"{}\":{}", s.name, s.value));
        }
        line.push('}');
        line
    }

    /// Prometheus-style text exposition of the current state.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for s in self.collect() {
            let kind = match s.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            };
            out.push_str(&format!(
                "# TYPE {} {kind}\n{} {}\n",
                s.name, s.name, s.value
            ));
        }
        out
    }

    /// The sampler's accumulated JSONL lines, oldest first. When the
    /// `SERIES_CAP` ceiling dropped lines, the first line returned is
    /// a marker object (`{"dropped":true}`).
    pub fn series(&self) -> Vec<String> {
        let lines = self.series.lock().expect("not poisoned");
        if self.dropped_lines.load(Ordering::Relaxed) {
            let mut out = Vec::with_capacity(lines.len() + 1);
            out.push("{\"dropped\":true}".to_string());
            out.extend(lines.iter().cloned());
            out
        } else {
            lines.iter().cloned().collect()
        }
    }

    fn push_line(&self, line: String) {
        let mut series = self.series.lock().expect("not poisoned");
        if series.len() >= SERIES_CAP {
            series.pop_front();
            self.dropped_lines.store(true, Ordering::Relaxed);
        }
        series.push_back(line);
    }

    /// Spawns the sampler thread: one [`MetricsHub::jsonl_line`] per
    /// `interval` until the returned [`Sampler`] is stopped or dropped.
    /// A final line is always taken at stop, so even a short run's
    /// series is non-empty.
    pub fn start_sampler(self: &Arc<Self>, interval: Duration) -> Sampler {
        let hub = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let epoch = Instant::now();
            while !stop_flag.load(Ordering::Relaxed) {
                hub.push_line(hub.jsonl_line(epoch));
                // park_timeout wakes early on unpark (the stop path),
                // so shutdown never waits out a long interval.
                std::thread::park_timeout(interval);
            }
            hub.push_line(hub.jsonl_line(epoch));
        });
        Sampler {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle to a running sampler thread; stopping (or dropping) joins it.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Stops and joins the sampler (idempotent; also runs on drop).
    ///
    /// A source's transient `Weak` upgrade can make the sampler thread
    /// itself the one dropping the source's owner — and therefore this
    /// `Sampler`, if that owner holds it. Joining would then be a
    /// self-join deadlock, so the sampler thread detaches instead: the
    /// stop flag is already set, and the thread exits as soon as the
    /// in-flight collection returns.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            handle.thread().unpark();
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicU64;

    #[test]
    fn sources_and_histograms_flatten_into_samples() {
        let hub = MetricsHub::new();
        let level = Arc::new(AtomicU64::new(42));
        let l = Arc::clone(&level);
        hub.register_source(move |c| {
            c.gauge("queue_depth", l.load(Ordering::Relaxed));
            c.counter("frees_total", 7);
        });
        let h = Arc::new(Histogram::new());
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        hub.register_histogram("lat_ns", &h);
        let samples = hub.collect();
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("queue_depth").value, 42);
        assert_eq!(get("queue_depth").kind, MetricKind::Gauge);
        assert_eq!(get("frees_total").value, 7);
        assert_eq!(get("frees_total").kind, MetricKind::Counter);
        assert_eq!(get("lat_ns_count").value, 3);
        assert_eq!(get("lat_ns_max").value, 30);
        level.store(13, Ordering::Relaxed);
        assert_eq!(
            hub.collect().first().expect("sample").value,
            13,
            "collection is pull-based, not a cached push"
        );
    }

    #[test]
    fn dropped_histogram_leaves_the_export() {
        let hub = MetricsHub::new();
        let h = Arc::new(Histogram::new());
        hub.register_histogram("gone", &h);
        drop(h);
        assert!(hub.collect().is_empty());
    }

    #[test]
    fn exposition_formats_render() {
        let hub = MetricsHub::new();
        hub.register_source(|c| {
            c.gauge("depth", 3);
            c.counter("total", 9);
        });
        let prom = hub.prometheus();
        assert!(prom.contains("# TYPE depth gauge\ndepth 3\n"));
        assert!(prom.contains("# TYPE total counter\ntotal 9\n"));
        let line = hub.jsonl_line(Instant::now());
        assert!(line.starts_with("{\"ts_ms\":"));
        assert!(line.contains("\"depth\":3"));
        assert!(line.contains("\"total\":9"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn sampler_stop_on_its_own_thread_detaches_instead_of_self_joining() {
        // Mirrors the detector: an owner holds the Sampler, and a
        // source's transient Weak upgrade can make the sampler thread
        // the one running the owner's drop. Deterministically force
        // that interleaving: park the source while it holds a strong
        // ref, drop the external ref, then release the source — the
        // owner (and its Sampler) now drops on the sampler thread.
        // Before the self-id check in Sampler::stop this self-joined
        // and hung forever.
        struct Owner {
            _sampler: Mutex<Option<Sampler>>,
        }
        let hub = MetricsHub::new();
        let owner = Arc::new(Owner {
            _sampler: Mutex::new(None),
        });
        let in_source = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let weak = Arc::downgrade(&owner);
        let (entered, gate) = (Arc::clone(&in_source), Arc::clone(&release));
        hub.register_source(move |c| {
            if let Some(owner) = weak.upgrade() {
                entered.store(true, Ordering::SeqCst);
                while !gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                drop(owner);
            }
            c.gauge("alive", 1);
        });
        *owner._sampler.lock().expect("not poisoned") =
            Some(hub.start_sampler(Duration::from_millis(1)));
        while !in_source.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        drop(owner); // the sampler thread's upgrade is now the last ref
        release.store(true, Ordering::SeqCst);
        // The detached sampler takes its final line and exits; wait for
        // the series to settle rather than sleeping a fixed amount.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let series = hub.series();
            if series.last().is_some_and(|l| l.contains("\"alive\":1")) {
                break;
            }
            assert!(Instant::now() < deadline, "sampler never emitted");
            std::thread::yield_now();
        }
    }

    #[test]
    fn sampler_emits_a_series_and_stops_cleanly() {
        let hub = MetricsHub::new();
        hub.register_source(|c| c.gauge("v", 1));
        let mut sampler = hub.start_sampler(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(20));
        sampler.stop();
        let series = hub.series();
        assert!(series.len() >= 2, "expected several lines: {series:?}");
        for line in &series {
            assert!(line.contains("\"v\":1"), "bad line {line}");
        }
        // Idempotent stop + drop after stop are both fine.
        sampler.stop();
        drop(sampler);
    }
}
