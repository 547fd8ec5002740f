//! The page directory: one lock-free radix node, shared by every
//! page-indexed table in the reproduction.
//!
//! The address space's page table, the heap's span registry and the
//! shadow metapagetable all map a page number to something through the
//! same node: 4,096 child pointers, each installed at most once with a
//! compare-and-swap and owned by the node from then on. Readers never
//! lock and never wait; a thread that loses an install race frees its own
//! child and uses the winner's. Children are freed when their directory
//! drops, or never, for one detached by [`Dir::leak`].

use core::marker::PhantomData;
use core::sync::atomic::{AtomicPtr, Ordering};
use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::ptr;
use std::sync::RwLock;

use crate::layout::{Addr, HEAP_BASE, HEAP_SIZE, PAGE_SHIFT};

/// Children per directory node: one 12-bit slice of a page number.
pub const DIR_FANOUT: usize = 1 << 12;

/// Types that are valid when every byte is zero, so they can be
/// allocated zero-filled: pages of atomic words, directory nodes, and
/// the leaves of arrays of atomics that tables hang off a directory.
///
/// # Safety
///
/// The all-zero bit pattern must be a valid value of the type.
pub unsafe trait Zeroed: Sized {
    /// A zero-filled value on the heap. Allocating zeroed memory costs
    /// the OS nothing for the untouched parts of a 32 KiB node.
    fn zeroed_box() -> Box<Self> {
        const {
            assert!(
                size_of::<Self>() != 0,
                "zero-sized types have no allocation"
            )
        };
        let layout = Layout::new::<Self>();
        // SAFETY: the layout is `Self`'s own and not zero-sized, and the
        // implementor guarantees that zero bytes are a valid `Self`.
        unsafe {
            let raw = alloc_zeroed(layout).cast::<Self>();
            if raw.is_null() {
                handle_alloc_error(layout);
            }
            Box::from_raw(raw)
        }
    }
}

/// A directory node: [`DIR_FANOUT`] children, each installed lazily and
/// lock-free, owned by the node.
///
/// `Send` and `Sync` follow `C`'s as a lock's do: a shared directory
/// hands `&C` to every thread (`Sync`) and frees children that any
/// thread installed (`Send`).
pub struct Dir<C> {
    children: [AtomicPtr<C>; DIR_FANOUT],
    _owns: PhantomData<RwLock<C>>,
}

// SAFETY: a node is an array of `AtomicPtr`s, for which zero is null.
unsafe impl<C> Zeroed for Dir<C> {}

impl<C> Dir<C> {
    /// An empty directory.
    pub fn new() -> Box<Dir<C>> {
        Dir::zeroed_box()
    }

    /// The child at `idx`, if one is installed.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&C> {
        let child = self.children[idx].load(Ordering::Acquire);
        // SAFETY: a non-null child was installed by `get_or_install` and
        // is freed only when the directory drops (`&mut self`) or never
        // (`leak`), so it lives as long as `&self`.
        unsafe { child.as_ref() }
    }

    /// The child at `idx`, installing `make()`'s if none is there, and
    /// whether this call installed it. `make` runs only when the slot was
    /// empty at the first look; a call that then loses the install race
    /// frees its own child and returns the winner's, with `false`.
    pub fn get_or_install(&self, idx: usize, make: impl FnOnce() -> Box<C>) -> (&C, bool) {
        if let Some(child) = self.get(idx) {
            return (child, false);
        }
        let fresh = Box::into_raw(make());
        let slot = &self.children[idx];
        let (child, installed) = match slot.compare_exchange(
            ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => (fresh, true),
            Err(winner) => {
                // SAFETY: `fresh` came from `Box::into_raw` above and
                // was never published.
                drop(unsafe { Box::from_raw(fresh) });
                (winner, false)
            }
        };
        // SAFETY: `child` is installed (by this call or the winner) and
        // lives as long as `&self`, as in `get`.
        (unsafe { &*child }, installed)
    }

    /// Detaches the child at `idx` without freeing it, and reports
    /// whether one was there. A reader that found the child just before
    /// the detach may still hold it, so it is leaked, not freed: the
    /// address space unmaps pages this way.
    pub fn leak(&self, idx: usize) -> bool {
        !self.children[idx]
            .swap(ptr::null_mut(), Ordering::AcqRel)
            .is_null()
    }
}

impl<C> Drop for Dir<C> {
    fn drop(&mut self) {
        for slot in &mut self.children {
            let child = *slot.get_mut();
            if !child.is_null() {
                // SAFETY: `&mut self` excludes every reader, and each
                // installed child is owned by exactly this slot.
                drop(unsafe { Box::from_raw(child) });
            }
        }
    }
}

// Heap pages fill exactly two directory levels: a heap page index splits
// into a leaf index and a slot index, each below the fanout.
const _: () = assert!(HEAP_SIZE >> PAGE_SHIFT == (DIR_FANOUT * DIR_FANOUT) as u64);

/// The two-level directory index of the heap page holding `addr`: the
/// leaf, then the slot within it. `None` outside the heap segment.
#[inline]
pub fn heap_page(addr: Addr) -> Option<(usize, usize)> {
    let page = (addr.checked_sub(HEAP_BASE)? >> PAGE_SHIFT) as usize;
    (page < DIR_FANOUT * DIR_FANOUT).then_some((page / DIR_FANOUT, page % DIR_FANOUT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PAGE_SIZE;
    use std::sync::{Arc, Barrier};

    #[test]
    fn racing_installs_agree_on_one_child() {
        const THREADS: usize = 8;
        let dir: Arc<Dir<u64>> = Arc::from(Dir::new());
        // Every thread waits inside `make`, after its empty first look
        // and before its CAS, until all are there: all race the CAS.
        let in_make = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let (dir, in_make) = (Arc::clone(&dir), Arc::clone(&in_make));
                std::thread::spawn(move || {
                    let (child, installed) = dir.get_or_install(7, || {
                        in_make.wait();
                        Box::new(t)
                    });
                    (child as *const u64 as usize, installed)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.iter().filter(|(_, won)| *won).count(), 1);
        let winner = dir.get(7).expect("installed") as *const u64 as usize;
        assert!(results.iter().all(|(child, _)| *child == winner));
    }

    #[test]
    fn leak_detaches_and_reports_presence() {
        let dir: Box<Dir<u64>> = Dir::new();
        assert!(!dir.leak(3));
        let (_, installed) = dir.get_or_install(3, || Box::new(1));
        assert!(installed);
        assert!(dir.leak(3));
        assert!(dir.get(3).is_none());
        let (child, installed) = dir.get_or_install(3, || Box::new(2));
        assert!(installed && *child == 2);
    }

    #[test]
    fn heap_pages_split_into_two_levels() {
        assert_eq!(heap_page(HEAP_BASE), Some((0, 0)));
        assert_eq!(heap_page(HEAP_BASE + PAGE_SIZE - 1), Some((0, 0)));
        let second_leaf = HEAP_BASE + DIR_FANOUT as u64 * PAGE_SIZE;
        assert_eq!(heap_page(second_leaf + PAGE_SIZE), Some((1, 1)));
        let last = HEAP_BASE + HEAP_SIZE - 1;
        assert_eq!(heap_page(last), Some((DIR_FANOUT - 1, DIR_FANOUT - 1)));
        assert_eq!(heap_page(HEAP_BASE + HEAP_SIZE), None);
        assert_eq!(heap_page(HEAP_BASE - 8), None);
        assert_eq!(heap_page(0x1000), None);
    }
}
