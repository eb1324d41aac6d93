//! The decision variables of S3CRM: `(S, I, K(I))`.
//!
//! `I` is represented implicitly: a node is internal exactly when it holds
//! at least one coupon, matching the paper's `K(I) = {k_i | v_i ∈ I}`.

use osn_graph::{CsrGraph, NodeId};
use osn_propagation::{DeploymentRef, Ledger};
use serde::{Deserialize, Serialize};

/// A (partial or final) solution: the seed set and per-node coupon counts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deployment {
    /// Selected seeds `S`, in selection order (no duplicates).
    pub seeds: Vec<NodeId>,
    /// `k_i` per node (0 for non-internal nodes); indexed by node id.
    pub coupons: Vec<u32>,
}

impl Deployment {
    /// Empty deployment over `n` users.
    pub fn empty(n: usize) -> Self {
        Deployment {
            seeds: Vec::new(),
            coupons: vec![0; n],
        }
    }

    /// Whether `v` is a seed.
    pub fn is_seed(&self, v: NodeId) -> bool {
        self.seeds.contains(&v)
    }

    /// Add a seed (idempotent).
    pub fn add_seed(&mut self, v: NodeId) {
        if !self.is_seed(v) {
            self.seeds.push(v);
        }
    }

    /// Give `v` extra coupons, capped at its out-degree (a user can never
    /// refer more friends than they have: `k_i ∈ [0, |N(v_i)|]`). Returns
    /// the number actually added.
    pub fn add_coupons(&mut self, graph: &CsrGraph, v: NodeId, count: u32) -> u32 {
        let cap = graph.out_degree(v) as u32;
        let cur = self.coupons[v.index()];
        let add = count.min(cap.saturating_sub(cur));
        self.coupons[v.index()] = cur + add;
        add
    }

    /// Total allocated coupons `Σ k_i`.
    pub fn total_coupons(&self) -> u64 {
        self.coupons.iter().map(|&k| k as u64).sum()
    }
}

/// A copy of an estimator's live deployment, for snapshots and results.
impl From<&Ledger<'_>> for Deployment {
    fn from(ledger: &Ledger<'_>) -> Self {
        Deployment {
            seeds: ledger.seeds().to_vec(),
            coupons: ledger.coupons().to_vec(),
        }
    }
}

/// Borrow a deployment as the batched-evaluation view — the one conversion
/// every greedy loop uses to build `simulate_batch` submissions.
impl<'a> From<&'a Deployment> for DeploymentRef<'a> {
    fn from(dep: &'a Deployment) -> Self {
        DeploymentRef {
            seeds: &dep.seeds,
            coupons: &dep.coupons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn graph() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn coupons_capped_at_out_degree() {
        let g = graph();
        let mut d = Deployment::empty(3);
        assert_eq!(d.add_coupons(&g, NodeId(0), 5), 2);
        assert_eq!(d.coupons[0], 2);
        assert_eq!(d.add_coupons(&g, NodeId(0), 1), 0);
        // Leaf node can hold no coupons at all.
        assert_eq!(d.add_coupons(&g, NodeId(1), 3), 0);
    }

    #[test]
    fn seeds_are_deduplicated() {
        let mut d = Deployment::empty(3);
        d.add_seed(NodeId(1));
        d.add_seed(NodeId(1));
        assert_eq!(d.seeds, vec![NodeId(1)]);
        assert!(d.is_seed(NodeId(1)));
        assert!(!d.is_seed(NodeId(0)));
    }
}
