//! The dynamic shared-state dependency graph built from user annotations
//! (paper §2.3).
//!
//! An `at_share(a, b, q)` annotation adds (or re-weights) the directed edge
//! `(a → b)` with coefficient `q ∈ [0, 1]`: *fraction `q` of thread `a`'s
//! state is shared with thread `b`*. The destination of an edge *depends
//! on* the source: when `a` runs and misses, `b`'s cached state is dragged
//! toward `q·N`.
//!
//! Unspecified edges implicitly carry coefficient 0 (pure decay, the
//! independent case). No transitivity is assumed; edges need not be
//! bidirectional (mergesort's children feed the parent but not vice
//! versa). Annotations are *hints*: wrong or missing ones affect only
//! performance, never correctness — which is why [`SharingGraph::set`]
//! validates the coefficient but the lookup path never fails.

use crate::params::check_coefficient;
use crate::{ModelError, ThreadId};
use std::collections::BTreeMap;

/// A directed, weighted state-sharing graph `G = (V, E)` with coefficients
/// `q ∈ [0, 1]` on each edge.
///
/// The mutation/build side is backed by ordered maps so iteration order
/// (and therefore every simulated schedule that consults the graph) is
/// deterministic. The read side used by the per-switch `O(out-degree)`
/// priority update is a CSR-style adjacency — sorted sources with
/// contiguous `(dst, q)` rows — rebuilt by [`compact`](Self::compact)
/// after mutations; [`dependents_of`](Self::dependents_of) walks the
/// contiguous row when the graph is compact and falls back to the maps
/// (same order, same items) when it is not.
///
/// ```
/// use locality_core::{SharingGraph, ThreadId};
/// let (parent, left, right) = (ThreadId(1), ThreadId(2), ThreadId(3));
/// let mut g = SharingGraph::new();
/// // Mergesort: each child's state is fully contained in the parent's.
/// g.set(left, parent, 1.0)?;
/// g.set(right, parent, 1.0)?;
/// assert_eq!(g.weight(left, parent), 1.0);
/// assert_eq!(g.weight(parent, left), 0.0); // not symmetric
/// assert_eq!(g.out_degree(left), 1);
/// # Ok::<(), locality_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharingGraph {
    /// Out-edges: for each source, destinations and coefficients.
    out: BTreeMap<ThreadId, BTreeMap<ThreadId, f64>>,
    /// In-edges (destinations back to sources), kept so a thread can be
    /// removed in O(degree) when it exits.
    into: BTreeMap<ThreadId, BTreeMap<ThreadId, f64>>,
    edges: usize,
    /// CSR read cache over `out`; valid while `dirty` is false.
    csr: Csr,
    /// Whether `csr` lags behind the maps.
    dirty: bool,
}

/// Compressed sparse rows over the out-edges: `srcs` is sorted, row `i`
/// of `edges` spans `offsets[i] .. offsets[i + 1]` with destinations in
/// thread-id order — the same order the `BTreeMap` side yields.
#[derive(Debug, Clone, Default)]
struct Csr {
    srcs: Vec<ThreadId>,
    offsets: Vec<u32>,
    edges: Vec<(ThreadId, f64)>,
}

impl Csr {
    fn row(&self, src: ThreadId) -> &[(ThreadId, f64)] {
        match self.srcs.binary_search(&src) {
            Ok(i) => &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// Equality is defined over the logical edge set only; the CSR cache is
/// a rebuildable view and two graphs differing only in compaction state
/// are equal.
impl PartialEq for SharingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.out == other.out && self.into == other.into && self.edges == other.edges
    }
}

impl SharingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SharingGraph::default()
    }

    /// Adds or re-weights the edge `(src → dst)` with coefficient `q`.
    ///
    /// This is the runtime effect of the `at_share(src, dst, q)` annotation.
    /// Setting `q = 0` removes the edge (an absent edge and a zero edge are
    /// indistinguishable to the model).
    ///
    /// # Errors
    ///
    /// * [`ModelError::NonFiniteSharingCoefficient`] if `q` is NaN or
    ///   infinite;
    /// * [`ModelError::InvalidSharingCoefficient`] if `q ∉ [0, 1]`;
    /// * [`ModelError::SelfSharing`] if `src == dst`.
    pub fn set(&mut self, src: ThreadId, dst: ThreadId, q: f64) -> Result<(), ModelError> {
        check_coefficient(q)?;
        if src == dst {
            return Err(ModelError::SelfSharing { thread: src.0 });
        }
        if q == 0.0 {
            self.remove_edge(src, dst);
            return Ok(());
        }
        let prev = self.out.entry(src).or_default().insert(dst, q);
        self.into.entry(dst).or_default().insert(src, q);
        if prev.is_none() {
            self.edges += 1;
        }
        if prev != Some(q) {
            self.dirty = true;
        }
        Ok(())
    }

    /// Removes the edge `(src → dst)`; returns its previous weight, if any.
    pub fn remove_edge(&mut self, src: ThreadId, dst: ThreadId) -> Option<f64> {
        let w = self.out.get_mut(&src).and_then(|m| m.remove(&dst));
        if w.is_some() {
            if let Some(m) = self.into.get_mut(&dst) {
                m.remove(&src);
            }
            self.edges -= 1;
            self.dirty = true;
        }
        w
    }

    /// Coefficient of the edge `(src → dst)`, or 0 when absent.
    ///
    /// The graph is conceptually complete with unspecified edges carrying
    /// 0 coefficients (paper §2.3), so this lookup never fails.
    pub fn weight(&self, src: ThreadId, dst: ThreadId) -> f64 {
        self.out.get(&src).and_then(|m| m.get(&dst)).copied().unwrap_or(0.0)
    }

    /// Threads whose cached state depends on `src` — the destinations of
    /// edges starting at `src` — with their coefficients, in thread-id
    /// order.
    ///
    /// When the CSR read cache is in sync (no mutation since the last
    /// [`compact`](Self::compact)) this walks one contiguous CSR row (the
    /// hot `O(out-degree)` path); otherwise it falls back to the ordered
    /// map, yielding the identical sequence.
    pub fn dependents_of(&self, src: ThreadId) -> impl Iterator<Item = (ThreadId, f64)> + '_ {
        let (row, sparse): (&[(ThreadId, f64)], _) =
            if self.dirty { (&[], self.out.get(&src)) } else { (self.csr.row(src), None) };
        row.iter().copied().chain(sparse.into_iter().flatten().map(|(&t, &q)| (t, q)))
    }

    /// Rebuilds the CSR read cache if mutations invalidated it. Called
    /// by the runtime before entering the per-switch priority updates;
    /// a no-op when already compact.
    pub fn compact(&mut self) {
        if !self.dirty {
            return;
        }
        self.csr.srcs.clear();
        self.csr.offsets.clear();
        self.csr.edges.clear();
        self.csr.offsets.push(0);
        for (&src, dsts) in &self.out {
            if dsts.is_empty() {
                continue;
            }
            self.csr.srcs.push(src);
            self.csr.edges.extend(dsts.iter().map(|(&t, &q)| (t, q)));
            let end = u32::try_from(self.csr.edges.len()).expect("more than u32::MAX edges");
            self.csr.offsets.push(end);
        }
        self.dirty = false;
    }

    /// Threads `src` depends on — the sources of edges ending at `src`.
    pub fn dependencies_of(&self, dst: ThreadId) -> impl Iterator<Item = (ThreadId, f64)> + '_ {
        self.into.get(&dst).into_iter().flatten().map(|(&t, &q)| (t, q))
    }

    /// Number of dependents of `src` (out-degree `d`; the per-switch
    /// priority-update cost is `O(d)`).
    pub fn out_degree(&self, src: ThreadId) -> usize {
        self.out.get(&src).map_or(0, BTreeMap::len)
    }

    /// Total number of edges with non-zero coefficients.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// True if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges == 0
    }

    /// Removes every edge incident to `t` (called when the thread exits).
    pub fn remove_thread(&mut self, t: ThreadId) {
        if let Some(dsts) = self.out.remove(&t) {
            self.edges -= dsts.len();
            self.dirty |= !dsts.is_empty();
            for dst in dsts.keys() {
                if let Some(m) = self.into.get_mut(dst) {
                    m.remove(&t);
                }
            }
        }
        if let Some(srcs) = self.into.remove(&t) {
            self.edges -= srcs.len();
            self.dirty |= !srcs.is_empty();
            for src in srcs.keys() {
                if let Some(m) = self.out.get_mut(src) {
                    m.remove(&t);
                }
            }
        }
    }

    /// All edges `(src, dst, q)` in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (ThreadId, ThreadId, f64)> + '_ {
        self.out.iter().flat_map(|(&src, dsts)| dsts.iter().map(move |(&dst, &q)| (src, dst, q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn set_and_weight() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        assert_eq!(g.weight(t(1), t(2)), 0.5);
        assert_eq!(g.weight(t(2), t(1)), 0.0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn reweight_does_not_duplicate() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(1), t(2), 0.9).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(t(1), t(2)), 0.9);
    }

    #[test]
    fn zero_weight_removes() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(1), t(2), 0.0).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.weight(t(1), t(2)), 0.0);
    }

    #[test]
    fn rejects_self_edges_and_bad_q() {
        let mut g = SharingGraph::new();
        assert_eq!(g.set(t(1), t(1), 0.5), Err(ModelError::SelfSharing { thread: 1 }));
        assert!(g.set(t(1), t(2), 1.5).is_err());
        assert!(g.set(t(1), t(2), -0.5).is_err());
        assert!(g.is_empty());
    }

    #[test]
    fn rejects_non_finite_q_with_dedicated_variant() {
        let mut g = SharingGraph::new();
        assert!(matches!(
            g.set(t(1), t(2), f64::NAN),
            Err(ModelError::NonFiniteSharingCoefficient { q }) if q.is_nan()
        ));
        assert!(matches!(
            g.set(t(1), t(2), f64::INFINITY),
            Err(ModelError::NonFiniteSharingCoefficient { q }) if q == f64::INFINITY
        ));
        assert!(matches!(
            g.set(t(1), t(2), f64::NEG_INFINITY),
            Err(ModelError::NonFiniteSharingCoefficient { .. })
        ));
        // Out-of-range-but-finite keeps the original variant.
        assert!(matches!(
            g.set(t(1), t(2), 2.0),
            Err(ModelError::InvalidSharingCoefficient { q }) if q == 2.0
        ));
        assert!(g.is_empty(), "rejected annotations must not touch the graph");
    }

    #[test]
    fn dependents_sorted_and_complete() {
        let mut g = SharingGraph::new();
        g.set(t(5), t(9), 0.1).unwrap();
        g.set(t(5), t(2), 0.2).unwrap();
        g.set(t(5), t(7), 0.3).unwrap();
        g.set(t(6), t(2), 0.4).unwrap();
        let deps: Vec<_> = g.dependents_of(t(5)).collect();
        assert_eq!(deps, vec![(t(2), 0.2), (t(7), 0.3), (t(9), 0.1)]);
        assert_eq!(g.out_degree(t(5)), 3);
        assert_eq!(g.out_degree(t(42)), 0);
    }

    #[test]
    fn dependencies_inverse_of_dependents() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(3), 0.5).unwrap();
        g.set(t(2), t(3), 0.7).unwrap();
        let deps: Vec<_> = g.dependencies_of(t(3)).collect();
        assert_eq!(deps, vec![(t(1), 0.5), (t(2), 0.7)]);
    }

    #[test]
    fn remove_thread_cleans_both_directions() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(2), t(1), 0.6).unwrap();
        g.set(t(2), t(3), 0.7).unwrap();
        g.set(t(3), t(2), 0.8).unwrap();
        g.remove_thread(t(2));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.weight(t(1), t(2)), 0.0);
        assert_eq!(g.weight(t(3), t(2)), 0.0);
        assert_eq!(g.dependents_of(t(2)).count(), 0);
    }

    #[test]
    fn remove_thread_keeps_unrelated_edges() {
        let mut g = SharingGraph::new();
        g.set(t(1), t(2), 0.5).unwrap();
        g.set(t(3), t(4), 0.6).unwrap();
        g.remove_thread(t(1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(t(3), t(4)), 0.6);
    }

    #[test]
    fn edges_iterator_is_deterministic() {
        let mut g = SharingGraph::new();
        g.set(t(2), t(1), 0.2).unwrap();
        g.set(t(1), t(2), 0.1).unwrap();
        g.set(t(1), t(3), 0.3).unwrap();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all, vec![(t(1), t(2), 0.1), (t(1), t(3), 0.3), (t(2), t(1), 0.2)]);
    }

    #[test]
    fn compact_and_sparse_reads_agree() {
        let mut g = SharingGraph::new();
        g.set(t(5), t(9), 0.1).unwrap();
        g.set(t(5), t(2), 0.2).unwrap();
        g.set(t(6), t(2), 0.4).unwrap();
        assert!(g.dirty, "mutations invalidate the CSR cache");
        let sparse: Vec<_> = g.dependents_of(t(5)).collect();
        g.compact();
        assert!(!g.dirty);
        let compact: Vec<_> = g.dependents_of(t(5)).collect();
        assert_eq!(sparse, compact);
        assert_eq!(compact, vec![(t(2), 0.2), (t(9), 0.1)]);
        assert_eq!(g.dependents_of(t(42)).count(), 0);
    }

    #[test]
    fn compaction_tracks_every_mutation() {
        let mut g = SharingGraph::new();
        g.compact();
        assert!(!g.dirty, "empty graph compacts trivially");
        g.set(t(1), t(2), 0.5).unwrap();
        assert!(g.dirty);
        g.compact();
        // Re-setting the same weight changes nothing: still compact.
        g.set(t(1), t(2), 0.5).unwrap();
        assert!(!g.dirty);
        g.set(t(1), t(2), 0.9).unwrap();
        assert!(g.dirty);
        g.compact();
        g.remove_edge(t(1), t(2));
        assert!(g.dirty);
        g.compact();
        assert_eq!(g.dependents_of(t(1)).count(), 0);
        g.set(t(1), t(2), 0.5).unwrap();
        g.compact();
        g.remove_thread(t(2));
        assert!(g.dirty);
        g.compact();
        assert_eq!(g.dependents_of(t(1)).count(), 0);
    }

    #[test]
    fn equality_ignores_compaction_state() {
        let mut a = SharingGraph::new();
        let mut b = SharingGraph::new();
        a.set(t(1), t(2), 0.5).unwrap();
        b.set(t(1), t(2), 0.5).unwrap();
        a.compact();
        assert_eq!(a, b);
        let cloned = a.clone();
        assert_eq!(cloned, a);
    }

    #[test]
    fn mergesort_annotation_pattern() {
        // Figure 3 of the paper: children point at the parent with q=1,
        // no parent->child edges (parent prefetches nothing for children).
        let mut g = SharingGraph::new();
        let (parent, l, r) = (t(10), t(11), t(12));
        g.set(l, parent, 1.0).unwrap();
        g.set(r, parent, 1.0).unwrap();
        assert_eq!(g.dependents_of(l).collect::<Vec<_>>(), vec![(parent, 1.0)]);
        assert_eq!(g.out_degree(parent), 0);
    }
}
