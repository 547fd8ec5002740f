//! Per-layer self times from a traced pass.
//!
//! Inside a sampled step every call is timed, so each hooked call's
//! span encloses exactly one timed detector hook. Self times subtract
//! the child span and the timer reads that land inside the parent: one
//! timer read per timed span (`c`, see [`crate::probe::timer_cost_ns`])
//! and two for each timed child. Per-call means come from the sampled
//! calls; totals scale them by every call the slabs counted.

use crate::probe::{Span, Totals};

/// Mean self time per call (ns) of each layer over a measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Heap share of a hooked `malloc` (hooked `malloc` − `on_alloc`).
    pub heap_malloc: f64,
    /// Heap share of a hooked `free` (hooked `free` − `on_free`).
    pub heap_free: f64,
    /// The vmem write of an instrumented store (`store_ptr` −
    /// `register_ptr`).
    pub vmem_store: f64,
    /// `on_alloc`.
    pub core_alloc: f64,
    /// `register_ptr`.
    pub core_register: f64,
    /// `on_free`: the inline walk, or the deferred enqueue plus any
    /// backpressure sweeps.
    pub sweep_free: f64,
    /// Step time outside every hooked call.
    pub workload_step: f64,
    /// Calls counted per span, for weighting.
    calls: Totals,
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Layers {
    /// Derives the per-call self times from measured-phase totals `m`,
    /// with `c` the cost of one timer read.
    pub fn from(m: &Totals, c: f64) -> Layers {
        let ns = |s| m.ns(s) as f64;
        let n = |s| m.timed(s) as f64;
        let parent = |outer, inner| ratio(ns(outer) - ns(inner) - 2.0 * c * n(outer), n(outer));
        let leaf = |s| ratio(ns(s) - c * n(s), n(s));
        let outer_calls = n(Span::Malloc) + n(Span::Free) + n(Span::Store);
        let outer_ns = ns(Span::Malloc) + ns(Span::Free) + ns(Span::Store);
        Layers {
            heap_malloc: parent(Span::Malloc, Span::OnAlloc),
            heap_free: parent(Span::Free, Span::OnFree),
            vmem_store: parent(Span::Store, Span::Register),
            core_alloc: leaf(Span::OnAlloc),
            core_register: leaf(Span::Register),
            sweep_free: leaf(Span::OnFree),
            workload_step: ratio(
                ns(Span::Step) - outer_ns - c * (outer_calls + n(Span::Step)),
                n(Span::Step),
            ),
            calls: *m,
        }
    }

    fn calls(&self, s: Span) -> f64 {
        self.calls.calls(s) as f64
    }

    /// Heap self time per heap call (malloc and free weighted by calls).
    pub fn heap_per_call(&self) -> f64 {
        let (m, f) = (self.calls(Span::Malloc), self.calls(Span::Free));
        ratio(self.heap_malloc * m + self.heap_free * f, m + f)
    }

    /// Core self time per core call (`on_alloc` and `register_ptr`).
    pub fn core_per_call(&self) -> f64 {
        let (a, r) = (self.calls(Span::OnAlloc), self.calls(Span::Register));
        ratio(self.core_alloc * a + self.core_register * r, a + r)
    }

    /// Estimated total self time (ns) of every layer plus the workload's
    /// own step time over the measured phase.
    pub fn accounted_ns(&self) -> f64 {
        self.heap_malloc * self.calls(Span::Malloc)
            + self.heap_free * self.calls(Span::Free)
            + self.vmem_store * self.calls(Span::Store)
            + self.core_alloc * self.calls(Span::OnAlloc)
            + self.core_register * self.calls(Span::Register)
            + self.sweep_free * self.calls(Span::OnFree)
            + self.workload_step * self.calls(Span::Step)
    }
}
