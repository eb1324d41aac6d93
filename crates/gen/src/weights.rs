//! Influence-probability models.
//!
//! The paper's default (following \[3\], \[6\], \[8\], \[9\], \[14\], \[15\], \[17\], \[18\])
//! sets `P(e(i,j)) = 1 / in-degree(v_j)` — the weighted-cascade convention.
//! Uniform and trivalency models are provided for sensitivity experiments.

use osn_graph::GraphBuilder;
use rand::Rng;

/// How edge influence probabilities are assigned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightModel {
    /// `P(e(i,j)) = 1 / in-degree(v_j)` — the paper's default.
    InverseInDegree,
    /// Every edge gets the same probability.
    Uniform(f64),
    /// Each edge gets one of the given probabilities uniformly at random —
    /// the classical trivalency model uses `{0.1, 0.01, 0.001}`.
    Trivalency([f64; 3]),
}

impl WeightModel {
    /// The classical trivalency constants.
    pub fn trivalency_default() -> Self {
        WeightModel::Trivalency([0.1, 0.01, 0.001])
    }
}

/// Assign probabilities to every edge of `builder` in place.
pub fn assign_weights<R: Rng>(builder: &mut GraphBuilder, model: WeightModel, rng: &mut R) {
    match model {
        WeightModel::InverseInDegree => {
            let in_deg = builder.in_degrees();
            builder.reweight(|_, v, _| {
                let d = in_deg[v as usize];
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f64
                }
            });
        }
        WeightModel::Uniform(p) => {
            assert!((0.0..=1.0).contains(&p), "uniform probability out of range");
            builder.reweight(|_, _, _| p);
        }
        WeightModel::Trivalency(choices) => {
            builder.reweight(|_, _, _| choices[rng.gen_range(0..3usize)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use osn_graph::NodeId;

    fn star_builder() -> GraphBuilder {
        // 3 sources all pointing at node 3.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3, 0.0).unwrap();
        b.add_edge(1, 3, 0.0).unwrap();
        b.add_edge(2, 3, 0.0).unwrap();
        b.add_edge(0, 1, 0.0).unwrap();
        b
    }

    #[test]
    fn inverse_in_degree_matches_paper_convention() {
        let mut b = star_builder();
        assign_weights(&mut b, WeightModel::InverseInDegree, &mut seeded_rng(1));
        let g = b.build().unwrap();
        // Node 3 has in-degree 3 -> each incoming edge carries 1/3.
        let p = g.edge_prob(NodeId(0), NodeId(3)).unwrap();
        assert!((p - 1.0 / 3.0).abs() < 1e-12);
        // Node 1 has in-degree 1 -> probability 1.
        assert_eq!(g.edge_prob(NodeId(0), NodeId(1)), Some(1.0));
    }

    #[test]
    fn uniform_sets_every_edge() {
        let mut b = star_builder();
        assign_weights(&mut b, WeightModel::Uniform(0.25), &mut seeded_rng(1));
        let g = b.build().unwrap();
        for u in g.nodes() {
            for (_, p) in g.ranked_out(u) {
                assert_eq!(p, 0.25);
            }
        }
    }

    #[test]
    fn trivalency_only_uses_given_values() {
        let mut b = star_builder();
        assign_weights(
            &mut b,
            WeightModel::trivalency_default(),
            &mut seeded_rng(2),
        );
        let g = b.build().unwrap();
        for u in g.nodes() {
            for (_, p) in g.ranked_out(u) {
                assert!([0.1, 0.01, 0.001].contains(&p));
            }
        }
    }
}
