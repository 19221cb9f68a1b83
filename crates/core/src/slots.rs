//! Dense, generational thread-slot handles.
//!
//! Thread ids ([`ThreadId`]) are sparse, monotonically allocated, and
//! never reused within a run — perfect keys for exports and reports,
//! but poor indices for the per-access and per-switch hot paths: a
//! `HashMap<ThreadId, _>` lookup costs a hash and a probe where the
//! paper budgets "only several instructions". The [`ThreadSlots`]
//! registry maps each live thread to a small dense **slot index**, so
//! hot per-thread state lives in plain `Vec`s indexed by slot.
//!
//! Slots are recycled when threads exit, which is exactly why the
//! handle is *generational*: a [`SlotId`] pairs the index with the
//! generation of its binding, and resolving a stale handle (the slot
//! was rebound to a younger thread) fails instead of silently aliasing
//! the new thread's state. Consumers that keep `Vec`s indexed by slot
//! must reset the slot's entry when a binding is created (see
//! [`ThreadSlots::bind`]) — the recycling invariant the proptest suite
//! in `tests/` exercises.
//!
//! Exports and CSV artifacts stay [`ThreadId`]-keyed: slot indices
//! depend on recycling order, so they are process-internal only.

use crate::ThreadId;
use std::collections::HashMap;
use std::fmt;

/// A generational handle to a dense thread slot.
///
/// Obtained from [`ThreadSlots::bind`] or [`ThreadSlots::lookup`];
/// resolves back to a [`ThreadId`] only while the binding it was
/// created under is still live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// The dense index, for indexing slot-sized `Vec`s.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The binding generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}g{}", self.index, self.generation)
    }
}

/// The slot registry: a slab of dense indices over live threads.
///
/// * [`bind`](Self::bind) assigns the lowest-free slot (LIFO recycling)
///   and bumps the slot's generation;
/// * [`release`](Self::release) frees the slot for reuse;
/// * [`lookup`](Self::lookup) / [`tid_of`](Self::tid_of) translate in
///   both directions, with stale handles rejected by generation.
///
/// The registry itself keeps a `ThreadId -> slot` map for the control
/// path (spawn, exit, external queries); hot paths hold on to the
/// [`SlotId`] and never hash.
#[derive(Debug, Clone, Default)]
pub struct ThreadSlots {
    /// Slot -> bound thread (None = free).
    tids: Vec<Option<ThreadId>>,
    /// Slot -> generation of the current (or last) binding.
    generations: Vec<u32>,
    /// Control-path reverse map; not used on hot paths.
    by_tid: HashMap<ThreadId, u32>,
    /// Free slot indices, reused LIFO.
    free: Vec<u32>,
    /// One-entry MRU cache for [`lookup_cached`](Self::lookup_cached):
    /// the per-batch engine path resolves the *same* running thread
    /// several times per step, and each plain `lookup` pays a hash.
    /// Invalidated on `release` (tids are never rebound, so a cached
    /// binding can only die by being released).
    hot: Option<(ThreadId, SlotId)>,
}

impl ThreadSlots {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ThreadSlots::default()
    }

    /// Binds `tid` to a slot and returns its handle. Rebinding an
    /// already-bound thread returns the existing handle.
    pub fn bind(&mut self, tid: ThreadId) -> SlotId {
        if let Some(&index) = self.by_tid.get(&tid) {
            return SlotId { index, generation: self.generations[index as usize] };
        }
        let index = match self.free.pop() {
            Some(i) => {
                self.tids[i as usize] = Some(tid);
                self.generations[i as usize] = self.generations[i as usize].wrapping_add(1);
                i
            }
            None => {
                let i = u32::try_from(self.tids.len()).expect("more than u32::MAX live threads");
                self.tids.push(Some(tid));
                self.generations.push(0);
                i
            }
        };
        self.by_tid.insert(tid, index);
        SlotId { index, generation: self.generations[index as usize] }
    }

    /// Releases `tid`'s slot for reuse; returns the freed handle, or
    /// `None` if the thread was not bound.
    pub fn release(&mut self, tid: ThreadId) -> Option<SlotId> {
        if matches!(self.hot, Some((t, _)) if t == tid) {
            self.hot = None;
        }
        let index = self.by_tid.remove(&tid)?;
        self.tids[index as usize] = None;
        self.free.push(index);
        Some(SlotId { index, generation: self.generations[index as usize] })
    }

    /// The live handle for `tid`, if bound.
    pub fn lookup(&self, tid: ThreadId) -> Option<SlotId> {
        if let Some((t, s)) = self.hot {
            if t == tid {
                return Some(s);
            }
        }
        let &index = self.by_tid.get(&tid)?;
        Some(SlotId { index, generation: self.generations[index as usize] })
    }

    /// [`lookup`](Self::lookup), but a hit is remembered so immediately
    /// repeated resolutions of the same thread (the per-batch engine
    /// sequence: step, control, switch-out) skip the hash probe.
    pub fn lookup_cached(&mut self, tid: ThreadId) -> Option<SlotId> {
        if let Some((t, s)) = self.hot {
            if t == tid {
                return Some(s);
            }
        }
        let &index = self.by_tid.get(&tid)?;
        let slot = SlotId { index, generation: self.generations[index as usize] };
        self.hot = Some((tid, slot));
        Some(slot)
    }

    /// Resolves a handle back to its thread; `None` if the slot was
    /// released or rebound since the handle was issued.
    pub fn tid_of(&self, slot: SlotId) -> Option<ThreadId> {
        if self.generations.get(slot.index())? != &slot.generation {
            return None;
        }
        self.tids[slot.index()]
    }

    /// Whether `slot` still refers to the binding it was issued under.
    pub fn is_live(&self, slot: SlotId) -> bool {
        self.tid_of(slot).is_some()
    }

    /// Number of live bindings.
    pub fn live(&self) -> usize {
        self.by_tid.len()
    }

    /// Total slots ever allocated — the size hot-path `Vec`s must grow
    /// to so every slot index is in bounds.
    pub fn capacity(&self) -> usize {
        self.tids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn bind_assigns_dense_indices() {
        let mut s = ThreadSlots::new();
        assert_eq!(s.bind(t(10)).index(), 0);
        assert_eq!(s.bind(t(20)).index(), 1);
        assert_eq!(s.bind(t(30)).index(), 2);
        assert_eq!(s.live(), 3);
        assert_eq!(s.capacity(), 3);
    }

    #[test]
    fn rebinding_is_idempotent() {
        let mut s = ThreadSlots::new();
        let a = s.bind(t(1));
        assert_eq!(s.bind(t(1)), a);
        assert_eq!(s.live(), 1);
    }

    #[test]
    fn release_recycles_lifo_with_new_generation() {
        let mut s = ThreadSlots::new();
        let a = s.bind(t(1));
        s.bind(t(2));
        assert_eq!(s.release(t(1)), Some(a));
        let b = s.bind(t(3));
        assert_eq!(b.index(), a.index(), "freed slot is reused");
        assert_ne!(b.generation(), a.generation(), "rebinding bumps the generation");
        // The stale handle no longer resolves; the fresh one does.
        assert_eq!(s.tid_of(a), None);
        assert_eq!(s.tid_of(b), Some(t(3)));
        assert!(!s.is_live(a));
        assert!(s.is_live(b));
    }

    #[test]
    fn release_unknown_is_none() {
        let mut s = ThreadSlots::new();
        assert_eq!(s.release(t(7)), None);
    }

    #[test]
    fn lookup_tracks_bindings() {
        let mut s = ThreadSlots::new();
        assert_eq!(s.lookup(t(1)), None);
        let a = s.bind(t(1));
        assert_eq!(s.lookup(t(1)), Some(a));
        s.release(t(1));
        assert_eq!(s.lookup(t(1)), None);
    }

    #[test]
    fn capacity_counts_released_slots() {
        let mut s = ThreadSlots::new();
        s.bind(t(5));
        s.bind(t(3));
        s.bind(t(9));
        s.release(t(3));
        assert_eq!(s.capacity(), 3, "capacity counts released slots too");
    }

    #[test]
    fn display_shows_index_and_generation() {
        let mut s = ThreadSlots::new();
        s.bind(t(1));
        s.release(t(1));
        let b = s.bind(t(2));
        assert_eq!(b.to_string(), "s0g1");
    }
}
