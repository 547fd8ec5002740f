//! Locked-DangSan ablation: DangSan's exact data structures with a global
//! mutex around every hook.
//!
//! The paper argues (§9) that adding locks to a FreeSentry-like design
//! "would dramatically increase overhead" and that DangSan's lock-free
//! logs are what make it scale. This detector lets the `fig10`/`ablations`
//! harnesses measure precisely that: same logs, same metapagetable, same
//! invalidation — plus one `Mutex`.

use std::sync::Arc;

use dangsan::{Config, DangSan, Detector, InvalidationReport, StatsSnapshot};
use dangsan_heap::{Allocation, Heap};
use dangsan_vmem::{Addr, AddressSpace};
use std::sync::Mutex;

/// DangSan behind a global lock (scalability ablation).
pub struct DangSanLocked {
    inner: Arc<DangSan>,
    lock: Mutex<()>,
}

impl DangSanLocked {
    /// Creates the locked variant with the given configuration.
    ///
    /// The deferred sweep is forced off: this wrapper does not forward
    /// `defers_free`, so a hooked heap would release blocks normally
    /// while the inner detector's sweep later requeued them a second
    /// time — double-listing the block. The ablation measures locking,
    /// not quarantine, so synchronous sweeps are the right shape anyway.
    pub fn new(mem: Arc<AddressSpace>, cfg: Config) -> Arc<DangSanLocked> {
        Arc::new(DangSanLocked {
            inner: DangSan::new(mem, cfg.with_deferred_sweep(false)),
            lock: Mutex::new(()),
        })
    }
}

impl Detector for DangSanLocked {
    fn name(&self) -> &'static str {
        "dangsan-locked"
    }

    fn on_alloc(&self, alloc: &Allocation) {
        let _g = self.lock.lock().expect("not poisoned");
        self.inner.on_alloc(alloc);
    }

    fn on_free(&self, base: Addr) -> InvalidationReport {
        let _g = self.lock.lock().expect("not poisoned");
        self.inner.on_free(base)
    }

    fn on_realloc_in_place(&self, base: Addr, new_size: u64) {
        let _g = self.lock.lock().expect("not poisoned");
        self.inner.on_realloc_in_place(base, new_size);
    }

    fn register_ptr(&self, loc: Addr, value: u64) {
        let _g = self.lock.lock().expect("not poisoned");
        self.inner.register_ptr(loc, value);
    }

    fn bind_heap(&self, heap: &Arc<Heap>) {
        self.inner.bind_heap(heap);
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangsan::HookedHeap;
    use dangsan_vmem::INVALID_BIT;

    #[test]
    fn behaves_identically_to_dangsan() {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSanLocked::new(Arc::clone(&mem), Config::default());
        let hh = HookedHeap::new(heap, det);
        let obj = hh.malloc(64).unwrap();
        let holder = hh.malloc(8).unwrap();
        hh.store_ptr(holder.base, obj.base + 16).unwrap();
        let r = hh.free(obj.base).unwrap();
        assert_eq!(r.invalidated, 1);
        assert_eq!(hh.load(holder.base).unwrap(), (obj.base + 16) | INVALID_BIT);
    }

    #[test]
    fn binding_a_heap_applies_thread_cached_heap() {
        // A hand-built HookedHeap (no env helper) must still run the
        // heap the way the config says, directly and through the lock.
        let cfg = Config::default().with_thread_cached_heap(false);
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        HookedHeap::new(Arc::clone(&heap), DangSan::new(mem, cfg));
        assert!(!heap.thread_cached(), "DangSan");
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        HookedHeap::new(Arc::clone(&heap), DangSanLocked::new(mem, cfg));
        assert!(!heap.thread_cached(), "DangSanLocked");
    }

    #[test]
    fn is_thread_safe() {
        let mem = Arc::new(AddressSpace::new());
        let heap = Heap::new(Arc::clone(&mem));
        let det = DangSanLocked::new(Arc::clone(&mem), Config::default());
        let hh = HookedHeap::new(heap, det);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let hh = hh.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let obj = hh.malloc(32).unwrap();
                    let holder = hh.malloc(8).unwrap();
                    hh.store_ptr(holder.base, obj.base).unwrap();
                    assert_eq!(hh.free(obj.base).unwrap().invalidated, 1);
                    hh.free(holder.base).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
