//! A slot-indexed d-ary max-heap of thread priorities.
//!
//! Both locality policies keep one such heap per processor (paper §5:
//! "both policies use the same binary heap data structure associated with
//! each processor"). Beyond the usual push/pop-max, the schedulers need
//! O(log n) *update-key* and *remove-by-thread* (priority updates of
//! dependents, dispatch removal) and an occasional min scan (idle
//! processors steal the thread with the **lowest** priority from a
//! neighbour).
//!
//! Entries are keyed by dense [`SlotId`] handles (see
//! [`locality_core::ThreadSlots`]), so the by-thread handle table is a
//! plain `Vec<u32>` indexed by slot — update-key and remove never hash.
//! The heap is 4-ary: one level shallower than a binary heap for the
//! same size, and the four children of a node share a cache line.
//!
//! Ties break toward the smaller [`ThreadId`] — never the slot index,
//! which is recycling-dependent — so runs are deterministic. Because the
//! `(priority, ThreadId)` order is a *strict total* order (thread ids
//! are unique), the pop sequence, the max, and the min are all
//! independent of the heap's arity and internal layout.

use locality_core::{SlotId, ThreadId};

/// Heap arity (children per node).
const ARITY: usize = 4;

/// Sentinel in the slot→position table for "not in this heap".
const ABSENT: u32 = u32::MAX;

/// A max-heap of `(priority, thread)` with slot-indexed handles.
#[derive(Debug, Clone, Default)]
pub struct PrioHeap {
    items: Vec<(f64, ThreadId, SlotId)>,
    /// Slot index → position in `items` ([`ABSENT`] when not queued).
    pos: Vec<u32>,
}

fn beats(a: (f64, ThreadId), b: (f64, ThreadId)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl PrioHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        PrioHeap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn pos_of(&self, slot: SlotId) -> Option<usize> {
        match self.pos.get(slot.index()) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    /// Whether `slot`'s thread is present.
    pub fn contains(&self, slot: SlotId) -> bool {
        self.pos_of(slot).is_some()
    }

    /// Current priority of `slot`'s thread, if present.
    #[cfg(test)]
    pub fn priority_of(&self, slot: SlotId) -> Option<f64> {
        self.pos_of(slot).map(|i| self.items[i].0)
    }

    /// Inserts `tid` (bound to `slot`) with `prio`, or updates its key if
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `prio` is NaN (priorities must be totally ordered).
    pub fn push(&mut self, tid: ThreadId, slot: SlotId, prio: f64) {
        assert!(!prio.is_nan(), "priority must not be NaN");
        if let Some(i) = self.pos_of(slot) {
            // A stale entry under a recycled slot would alias the new
            // thread's key; the scheduler removes threads at exit, so a
            // mismatch here is a lifecycle bug.
            debug_assert_eq!(self.items[i].2, slot, "stale heap entry under recycled slot");
            self.items[i].0 = prio;
            self.restore(i);
            return;
        }
        self.items.push((prio, tid, slot));
        let i = self.items.len() - 1;
        if slot.index() >= self.pos.len() {
            self.pos.resize(slot.index() + 1, ABSENT);
        }
        self.pos[slot.index()] = i as u32;
        self.sift_up(i);
    }

    /// Updates `slot`'s key; returns `false` if absent.
    pub fn update(&mut self, slot: SlotId, prio: f64) -> bool {
        assert!(!prio.is_nan(), "priority must not be NaN");
        let Some(i) = self.pos_of(slot) else { return false };
        debug_assert_eq!(self.items[i].2, slot, "stale heap entry under recycled slot");
        self.items[i].0 = prio;
        self.restore(i);
        true
    }

    /// The maximum entry without removing it.
    pub fn peek_max(&self) -> Option<(ThreadId, SlotId, f64)> {
        self.items.first().map(|&(p, t, s)| (t, s, p))
    }

    /// Removes and returns the maximum entry.
    pub fn pop_max(&mut self) -> Option<(ThreadId, SlotId, f64)> {
        if self.items.is_empty() {
            return None;
        }
        let (p, t, s) = self.items[0];
        self.remove_at(0);
        Some((t, s, p))
    }

    /// Removes `slot`'s thread; returns its priority if it was present.
    pub fn remove(&mut self, slot: SlotId) -> Option<f64> {
        let i = self.pos_of(slot)?;
        debug_assert_eq!(self.items[i].2, slot, "stale heap entry under recycled slot");
        let p = self.items[i].0;
        self.remove_at(i);
        Some(p)
    }

    /// The minimum entry (O(n) scan over the leaves; used only by idle
    /// stealing, which is rare). The `(priority, ThreadId)` order is
    /// strict and total, so every internal node strictly beats its
    /// children and the global minimum is always a leaf.
    pub fn min_entry(&self) -> Option<(ThreadId, SlotId, f64)> {
        let mut best: Option<(f64, ThreadId, SlotId)> = None;
        // First index with no children: ARITY * i + 1 >= len.
        let first_leaf = (self.items.len() + ARITY - 2) / ARITY;
        for &(p, t, s) in &self.items[first_leaf..] {
            if best.is_none_or(|b| beats((b.0, b.1), (p, t))) {
                best = Some((p, t, s));
            }
        }
        best.map(|(p, t, s)| (t, s, p))
    }

    /// All entries in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, SlotId, f64)> + '_ {
        self.items.iter().map(|&(p, t, s)| (t, s, p))
    }

    fn remove_at(&mut self, i: usize) {
        let last = self.items.len() - 1;
        let (_, _, slot) = self.items[i];
        self.items.swap(i, last);
        self.items.pop();
        self.pos[slot.index()] = ABSENT;
        if i < self.items.len() {
            let moved = self.items[i].2;
            self.pos[moved.index()] = i as u32;
            self.restore(i);
        }
    }

    fn key(&self, i: usize) -> (f64, ThreadId) {
        (self.items[i].0, self.items[i].1)
    }

    fn restore(&mut self, i: usize) {
        if i > 0 && beats(self.key(i), self.key((i - 1) / ARITY)) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if beats(self.key(i), self.key(parent)) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = ARITY * i + 1;
            let end = (first + ARITY).min(self.items.len());
            let mut best = i;
            for c in first..end {
                if beats(self.key(c), self.key(best)) {
                    best = c;
                }
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.items.swap(a, b);
        self.pos[self.items[a].2.index()] = a as u32;
        self.pos[self.items[b].2.index()] = b as u32;
    }

    /// Checks the heap invariant (tests/debugging).
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        for i in 1..self.items.len() {
            let parent = (i - 1) / ARITY;
            if beats(self.key(i), self.key(parent)) {
                return false;
            }
        }
        let present = self.pos.iter().filter(|&&i| i != ABSENT).count();
        present == self.items.len()
            && self
                .items
                .iter()
                .enumerate()
                .all(|(i, &(_, _, slot))| self.pos[slot.index()] == i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_core::ThreadSlots;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    /// A registry with tids `0..n` bound to slots in order.
    fn reg(n: u64) -> ThreadSlots {
        let mut r = ThreadSlots::new();
        for i in 0..n {
            r.bind(t(i));
        }
        r
    }

    fn push(h: &mut PrioHeap, r: &ThreadSlots, i: u64, prio: f64) {
        h.push(t(i), r.lookup(t(i)).unwrap(), prio);
    }

    #[test]
    fn push_pop_order() {
        let r = reg(4);
        let mut h = PrioHeap::new();
        push(&mut h, &r, 1, 1.0);
        push(&mut h, &r, 2, 3.0);
        push(&mut h, &r, 3, 2.0);
        assert_eq!(h.pop_max().map(|(tid, _, p)| (tid, p)), Some((t(2), 3.0)));
        assert_eq!(h.pop_max().map(|(tid, _, p)| (tid, p)), Some((t(3), 2.0)));
        assert_eq!(h.pop_max().map(|(tid, _, p)| (tid, p)), Some((t(1), 1.0)));
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn ties_break_by_smaller_tid() {
        let r = reg(10);
        let mut h = PrioHeap::new();
        push(&mut h, &r, 9, 1.0);
        push(&mut h, &r, 2, 1.0);
        push(&mut h, &r, 5, 1.0);
        assert_eq!(h.pop_max().unwrap().0, t(2));
        assert_eq!(h.pop_max().unwrap().0, t(5));
        assert_eq!(h.pop_max().unwrap().0, t(9));
    }

    #[test]
    fn update_moves_entries_both_ways() {
        let r = reg(10);
        let mut h = PrioHeap::new();
        for i in 0..10 {
            push(&mut h, &r, i, i as f64);
        }
        assert!(h.update(r.lookup(t(0)).unwrap(), 100.0));
        assert_eq!(h.peek_max().unwrap().0, t(0));
        assert!(h.update(r.lookup(t(0)).unwrap(), -1.0));
        assert_eq!(h.peek_max().unwrap().0, t(9));
        assert!(h.check_invariants());
        let mut r = r;
        let unqueued = r.bind(t(99));
        assert!(!h.update(unqueued, 5.0));
    }

    #[test]
    fn remove_arbitrary() {
        let r = reg(20);
        let mut h = PrioHeap::new();
        for i in 0..20 {
            push(&mut h, &r, i, (i * 7 % 13) as f64);
        }
        let s5 = r.lookup(t(5)).unwrap();
        assert_eq!(h.remove(s5), Some((5 * 7 % 13) as f64));
        assert_eq!(h.remove(s5), None);
        assert!(!h.contains(s5));
        assert_eq!(h.len(), 19);
        assert!(h.check_invariants());
    }

    #[test]
    fn min_entry_finds_global_min() {
        let r = reg(50);
        let mut h = PrioHeap::new();
        for i in 0..50u64 {
            push(&mut h, &r, i, ((i * 31 + 7) % 101) as f64);
        }
        let (tid, _, p) = h.min_entry().unwrap();
        let true_min = h.iter().min_by(|a, b| a.2.partial_cmp(&b.2).unwrap()).unwrap();
        assert_eq!(p, true_min.2);
        assert_eq!(tid, true_min.0);
    }

    #[test]
    fn min_of_empty_and_single() {
        let r = reg(2);
        let mut h = PrioHeap::new();
        assert_eq!(h.min_entry(), None);
        push(&mut h, &r, 1, 4.0);
        assert_eq!(h.min_entry().map(|(tid, _, p)| (tid, p)), Some((t(1), 4.0)));
    }

    #[test]
    fn push_existing_updates() {
        let r = reg(2);
        let mut h = PrioHeap::new();
        push(&mut h, &r, 1, 1.0);
        push(&mut h, &r, 1, 9.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.priority_of(r.lookup(t(1)).unwrap()), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_priority_panics() {
        let r = reg(2);
        PrioHeap::new().push(t(1), r.lookup(t(1)).unwrap(), f64::NAN);
    }

    #[test]
    fn stress_invariants() {
        // Deterministic pseudo-random operation mix.
        let r = reg(40);
        let mut h = PrioHeap::new();
        let mut x = 12345u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let op = step() % 4;
            let i = step() % 40;
            let prio = (step() % 1000) as f64;
            match op {
                0 | 1 => push(&mut h, &r, i, prio),
                2 => {
                    h.remove(r.lookup(t(i)).unwrap());
                }
                _ => {
                    h.pop_max();
                }
            }
            assert!(h.check_invariants());
        }
    }

    #[test]
    fn pop_all_sorted() {
        let r = reg(100);
        let mut h = PrioHeap::new();
        for i in 0..100u64 {
            push(&mut h, &r, i, ((i * 37 + 11) % 97) as f64);
        }
        let mut prev = f64::INFINITY;
        while let Some((_, _, p)) = h.pop_max() {
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    fn recycled_slot_after_remove_is_fresh() {
        let mut r = ThreadSlots::new();
        let a = r.bind(t(1));
        let mut h = PrioHeap::new();
        h.push(t(1), a, 5.0);
        assert_eq!(h.remove(a), Some(5.0));
        r.release(t(1));
        let b = r.bind(t(2));
        assert_eq!(b.index(), a.index(), "slot must be recycled for this test");
        assert!(!h.contains(b), "recycled slot must not inherit the old entry");
        h.push(t(2), b, 7.0);
        assert_eq!(h.priority_of(b), Some(7.0));
        assert_eq!(
            h.priority_of(a),
            Some(7.0),
            "positions are per-index; callers hold live handles"
        );
        assert!(h.check_invariants());
    }
}
