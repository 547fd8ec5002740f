//! Per-thread state bound to an owner: DangSan's single-writer rule
//! (§4.4), written once.
//!
//! DangSan scales because a thread's pointer log is written by that
//! thread alone. Four parts of the stack apply the same rule to their own
//! per-thread state, so that their hot paths share no read-modify-write:
//! the detector's counter slabs (`dangsan::stats`), the telemetry
//! histograms' slabs, the flight recorder's rings and the heap's TLS
//! magazines. This module is the binding all four use.
//!
//! * The **owner** side is a [`Registry`]: the state of every thread bound
//!   to the owner, under one lock, which readers take to sum or walk them.
//! * The **thread** side is a [`Binding`] in a `thread_local!`. For each
//!   owner the thread is bound to, it holds a `Weak` reference to the
//!   owner and the thread's state, plus a raw pointer to the last-used
//!   owner's state, so the common access is one id compare, a pointer
//!   read and two plain stores that mark the binding busy while the
//!   caller uses the state. Owners are told apart by a never-reused id
//!   ([`fresh_id`]), so a binding to a dropped owner can never match a
//!   new one, and the `Weak` keeps no dropped owner alive.
//! * A binding **retires** a state when its thread binds to another owner
//!   (unless the owner sets [`Owner::SEVERAL`]) and at thread exit. Under
//!   the registry lock, the state leaves the registry (unless
//!   [`Owner::KEEP_RETIRED`]) and the owner takes over what it held
//!   ([`Owner::retire`]), so a reader holding the lock sees the state
//!   exactly once: registered, or handed over.
//! * A use **after** the thread's binding was torn down (from a TLS
//!   destructor that runs later at thread exit) binds a state for that
//!   one use and retires it at once.
//!
//! Nothing depends on when TLS destructors run: a state is registered
//! from its first use, so a reader ordered after a thread's work (a
//! `join`, or `thread::scope` returning before the thread's destructors
//! ran) sees all of it.

use core::cell::{Cell, RefCell};
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::LocalKey;

/// A process-wide id that is never handed out twice (0 never is). Every
/// cache that keys thread-local state by its owner draws its ids here.
pub fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The owner's side: the state of every thread bound to it.
#[derive(Debug)]
pub struct Registry<S> {
    id: u64,
    live: Mutex<Vec<Arc<S>>>,
}

impl<S> Default for Registry<S> {
    fn default() -> Self {
        Registry {
            id: fresh_id(),
            live: Mutex::new(Vec::new()),
        }
    }
}

impl<S> Registry<S> {
    /// Runs `f` over the registered states under the registry lock.
    /// Retirements hand over under the same lock, so totals that `f`
    /// reads from the owner alongside the states count each state once.
    /// The lock is not reentrant: `f` must not use this owner's binding.
    pub fn read<R>(&self, f: impl FnOnce(&[Arc<S>]) -> R) -> R {
        f(&self.lock())
    }

    /// The registry lock, taken even when poisoned. Under it the
    /// registry only ever gains or loses one whole state, and a retiring
    /// state leaves it before its owner takes the handover, so a panic
    /// while the lock was held can cut short at most that one handover
    /// and never counts a state twice. Retirements run in TLS
    /// destructors, where a panic would abort the process.
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<S>>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An owner of per-thread states, shared through an `Arc`.
pub trait Owner: Send + Sync + Sized + 'static {
    /// A thread's state as the owner's readers see it: registered, and
    /// written only by the thread bound to it.
    type State: Send + Sync;
    /// A thread's state that only its thread touches (the heap's magazine
    /// lists): kept in the binding, never registered, and handed to one
    /// use at a time.
    type Local: Default;
    /// Whether a thread stays bound to every owner it uses instead of
    /// retiring one owner's state when it binds to another. Histograms
    /// set it: a request loop records into several in turn.
    const SEVERAL: bool = false;
    /// Whether a retired state stays registered. Flight-recorder rings
    /// do: a thread's history must stay readable after it exits.
    const KEEP_RETIRED: bool = false;

    /// The registry of this owner's states.
    fn registry(&self) -> &Registry<Self::State>;

    /// A new state for the calling thread.
    fn new_state(&self) -> Self::State;

    /// A registered state the calling thread binds to again instead of a
    /// new one (a kept ring). Called under the registry lock.
    fn find(&self, _live: &[Arc<Self::State>]) -> Option<Arc<Self::State>> {
        None
    }

    /// Takes over what a retiring state holds. Called under the registry
    /// lock, after the state left the registry.
    fn retire(&self, _state: &Self::State, _local: &mut Self::Local) {}
}

/// The calling thread's registered state for `owner`.
fn bind_state<O: Owner>(owner: &O) -> Arc<O::State> {
    let mut live = owner.registry().lock();
    if let Some(state) = owner.find(&live) {
        return state;
    }
    let state = Arc::new(owner.new_state());
    live.push(Arc::clone(&state));
    state
}

/// Retires `state` under `owner`'s registry lock.
fn retire_state<O: Owner>(owner: &O, state: &Arc<O::State>, local: &mut O::Local) {
    let mut live = owner.registry().lock();
    if !O::KEEP_RETIRED {
        live.retain(|s| !Arc::ptr_eq(s, state));
    }
    owner.retire(state, local);
}

/// `Binding::last_id` while an `f` runs: a use from inside `f` then
/// takes the late path instead of changing the binding `f` uses.
const BUSY: u64 = u64::MAX;

/// Holds `last_id` at [`BUSY`] while an `f` runs and restores it after,
/// also when `f` unwinds.
struct Busy<'a>(&'a Cell<u64>, u64);

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.0.set(self.1);
    }
}

/// One owner a thread is bound to.
struct Bound<O: Owner> {
    id: u64,
    owner: Weak<O>,
    state: Arc<O::State>,
    local: O::Local,
}

impl<O: Owner> Bound<O> {
    /// Hands the state over to its owner, if the owner is still alive.
    /// A dropped owner's memory is gone, so dropping the state is all
    /// there is to do.
    fn retire(mut self) {
        if let Some(owner) = self.owner.upgrade() {
            retire_state(&*owner, &self.state, &mut self.local);
        }
    }
}

/// The thread's side, for one kind of owner: declare one per kind with
/// `thread_local! { static X: Binding<O> = const { Binding::new() }; }`
/// and reach it with [`Binding::with`].
pub struct Binding<O: Owner> {
    /// Registry id of the last-used owner; 0 for none.
    last_id: Cell<u64>,
    /// The last-used owner's state and local part: the `Arc` and the
    /// `local` of its entry in `bound`. Valid while `last_id` is set;
    /// every change to `bound` clears `last_id` first, and none happens
    /// while it is [`BUSY`].
    last_state: Cell<*const O::State>,
    last_local: Cell<*mut O::Local>,
    /// Every owner this thread is bound to: one at most, unless
    /// [`Owner::SEVERAL`].
    bound: RefCell<Vec<Bound<O>>>,
}

impl<O: Owner> Binding<O> {
    /// An unbound binding.
    #[allow(clippy::new_without_default)] // only `thread_local!` makes one
    pub const fn new() -> Self {
        Binding {
            last_id: Cell::new(0),
            last_state: Cell::new(core::ptr::null()),
            last_local: Cell::new(core::ptr::null_mut()),
            bound: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` on the calling thread's state for `owner`, binding the
    /// thread to `owner` first when it last used another owner (see the
    /// module docs).
    ///
    /// After the thread's binding was torn down, or from inside another
    /// use's `f` of this kind, `f` runs on a state bound for this one use
    /// and retired right after.
    #[inline]
    pub fn with<R>(
        key: &'static LocalKey<Self>,
        owner: &Arc<O>,
        f: impl Fn(&O::State, &mut O::Local) -> R,
    ) -> R {
        let id = owner.registry().id;
        let done = key.try_with(|b| {
            if b.last_id.get() != id {
                b.rebind(owner)?;
            }
            b.last_id.set(BUSY);
            let _busy = Busy(&b.last_id, id);
            // SAFETY: `last_id` was `owner`'s, so both pointers point into
            // its entry of `bound` (its `Arc`'d state and its `local`).
            // While `_busy` holds, every other use of this binding takes
            // the late path or returns, so `bound` stays unchanged and
            // `local` has no other reference.
            let (state, local) = unsafe { (&*b.last_state.get(), &mut *b.last_local.get()) };
            Some(f(state, local))
        });
        match done {
            Ok(Some(r)) => r,
            _ => Self::once(owner, f),
        }
    }

    /// Binds this thread to `owner`, retiring what it no longer keeps.
    /// `None` for a use from inside an `f` or from a retirement.
    #[cold]
    fn rebind(&self, owner: &Arc<O>) -> Option<()> {
        if self.last_id.get() == BUSY {
            return None;
        }
        let mut bound = self.bound.try_borrow_mut().ok()?;
        self.last_id.set(0);
        let id = owner.registry().id;
        let at = match bound.iter().position(|b| b.id == id) {
            Some(at) => at,
            None => {
                bound
                    .extract_if(.., |b| !O::SEVERAL || b.owner.strong_count() == 0)
                    .for_each(Bound::retire);
                bound.push(Bound {
                    id,
                    owner: Arc::downgrade(owner),
                    state: bind_state(&**owner),
                    local: O::Local::default(),
                });
                bound.len() - 1
            }
        };
        self.last_state.set(Arc::as_ptr(&bound[at].state));
        self.last_local.set(&mut bound[at].local);
        self.last_id.set(id);
        Some(())
    }

    /// The late path: `f` on a state bound for this one use.
    #[cold]
    fn once<R>(owner: &Arc<O>, f: impl Fn(&O::State, &mut O::Local) -> R) -> R {
        let state = bind_state(&**owner);
        let mut local = O::Local::default();
        let r = f(&state, &mut local);
        retire_state(&**owner, &state, &mut local);
        r
    }

    /// Retires the calling thread's state for `owner`, if it has one.
    pub fn release(key: &'static LocalKey<Self>, owner: &O) {
        let _ = key.try_with(|b| {
            if b.last_id.get() == BUSY {
                return;
            }
            if let Ok(mut bound) = b.bound.try_borrow_mut() {
                b.last_id.set(0);
                let id = owner.registry().id;
                bound.extract_if(.., |e| e.id == id).for_each(Bound::retire);
            }
        });
    }

    /// How many owners this thread is bound to.
    pub fn bindings(&self) -> usize {
        self.bound.borrow().len()
    }
}

impl<O: Owner> Drop for Binding<O> {
    fn drop(&mut self) {
        // Thread exit. A later use from another TLS destructor takes the
        // late path in `with`.
        self.bound.get_mut().drain(..).for_each(Bound::retire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts one thread's adds; retired counts fold into `retired`.
    #[derive(Default)]
    struct Counter {
        registry: Registry<AtomicU64>,
        retired: AtomicU64,
    }

    impl Owner for Counter {
        type State = AtomicU64;
        type Local = ();

        fn registry(&self) -> &Registry<AtomicU64> {
            &self.registry
        }

        fn new_state(&self) -> AtomicU64 {
            AtomicU64::new(0)
        }

        fn retire(&self, state: &AtomicU64, _: &mut ()) {
            let n = self.retired.load(Ordering::Relaxed) + state.load(Ordering::Relaxed);
            self.retired.store(n, Ordering::Relaxed);
        }
    }

    impl Counter {
        fn add(self: &Arc<Self>, n: u64) {
            Binding::with(&COUNTS, self, |c, _| {
                c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed)
            });
        }

        fn total(&self) -> u64 {
            self.registry.read(|live| {
                self.retired.load(Ordering::Relaxed)
                    + live.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>()
            })
        }
    }

    thread_local! {
        static COUNTS: Binding<Counter> = const { Binding::new() };
    }

    #[test]
    fn ids_are_never_reused() {
        let (a, b) = (fresh_id(), fresh_id());
        assert!(a > 0 && b > a);
        assert!(Registry::<()>::default().id > b);
    }

    #[test]
    fn a_use_from_inside_f_takes_the_late_path() {
        let (a, b) = (Arc::new(Counter::default()), Arc::new(Counter::default()));
        Binding::with(&COUNTS, &a, |_, _| b.add(3));
        Binding::with(&COUNTS, &a, |_, _| a.add(2));
        a.add(1);
        assert_eq!((a.total(), b.total()), (3, 3));
        b.registry
            .read(|live| assert!(live.is_empty(), "retired at once"));
        a.registry
            .read(|live| assert_eq!(live.len(), 1, "the outer state stays"));
    }

    #[test]
    fn a_poisoned_registry_still_retires() {
        let c = Arc::new(Counter::default());
        let (bound_tx, bound) = std::sync::mpsc::channel();
        let (poisoned, poisoned_rx) = std::sync::mpsc::channel();
        let t = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.add(5);
                bound_tx.send(()).expect("test alive");
                poisoned_rx.recv().expect("test alive");
                // Exit retires the state under the poisoned lock.
            })
        };
        bound.recv().expect("bound");
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.registry.read(|_| panic!("poisons the lock")))
        };
        assert!(reader.join().is_err());
        assert!(c.registry.live.is_poisoned());
        poisoned.send(()).expect("thread alive");
        // A panic in the exit-time retirement would abort the process.
        t.join().expect("thread exits");
        c.registry.read(|live| assert!(live.is_empty()));
        assert_eq!(c.total(), 5);
    }
}
