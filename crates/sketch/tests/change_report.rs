//! The sketch estimator's change reports are complete.
//!
//! The ID loop's lazy-greedy heap re-scores, after each committed move,
//! only the moved node, the nodes a [`RefreshDelta`] names in
//! `probs_changed` or `eligibility_changed`, and the in-sources of its
//! `gains_changed`; every other cached marginal is reused as is. Random
//! scripts of coupon grants and seed packages on random cyclic digraphs
//! check, after every move, that
//!
//! * `order()` is exactly the ascending set of nodes where `is_active`
//!   holds, and
//! * every node outside that dirty rule has a bitwise-unchanged
//!   `coupon_add_delta` — an under-reported move would serve it stale.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_propagation::{BenefitEstimator, DeltaScratch, RefreshDelta};
use osn_sketch::{SketchEstimator, SketchIndex, SketchParams};
use proptest::prelude::*;

/// Node count of the random digraphs.
const N: usize = 12;

/// Random directed graph over [`N`] nodes — cycles, cross- and back-edges
/// all allowed. Self-loops are dropped; duplicate pairs collapse last-wins
/// in the builder.
fn digraph_strategy() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0u32..N as u32, 0u32..N as u32, 0.2f64..=1.0), 1..40)
}

/// A move script: `(op, node, amount)` with op 0 = grant coupons, 1 = seed
/// package.
fn moves_strategy() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..2, 0u32..N as u32, 1u32..3), 1..16)
}

fn build(edges: &[(u32, u32, f64)]) -> CsrGraph {
    let mut b = GraphBuilder::new(N);
    for &(u, v, p) in edges {
        if u != v {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build().unwrap()
}

/// Uneven benefits and coupon prices, so a stale marginal shows in bits.
fn data() -> NodeData {
    let benefit: Vec<f64> = (0..N).map(|i| 1.0 + (i % 5) as f64).collect();
    let sc: Vec<f64> = (0..N).map(|i| 0.5 + (i % 4) as f64 * 0.75).collect();
    NodeData::new(benefit, vec![1.0; N], sc).unwrap()
}

/// Every node's `(ΔB, ΔCsc)` add probe, as raw bits.
fn probes(sk: &SketchEstimator<'_>) -> Vec<(u64, u64)> {
    let mut scratch = DeltaScratch::default();
    (0..N)
        .map(|i| {
            let (db, dc) = sk.coupon_add_delta(NodeId(i as u32), &mut scratch);
            (db.to_bits(), dc.to_bits())
        })
        .collect()
}

/// The heap's dirty rule: the moved node, `probs_changed`,
/// `eligibility_changed`, and the in-sources of `gains_changed`.
fn dirty(g: &CsrGraph, delta: &RefreshDelta, moved: NodeId) -> Vec<bool> {
    let mut dirty = vec![false; N];
    dirty[moved.index()] = true;
    for &u in delta.probs_changed.iter().chain(&delta.eligibility_changed) {
        dirty[u.index()] = true;
    }
    for &v in &delta.gains_changed {
        for &src in g.in_sources(v) {
            dirty[src.index()] = true;
        }
    }
    dirty
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_change_reports_name_every_stale_marginal(
        edges in digraph_strategy(),
        moves in moves_strategy(),
    ) {
        let g = build(&edges);
        let d = data();
        let params = SketchParams {
            epsilon: 0.3,
            delta: 0.3,
            seed: 23,
            ..SketchParams::default()
        };
        let index = SketchIndex::build(&g, &d, &params);
        let mut coupons = vec![0u32; N];
        coupons[0] = (g.out_degree(NodeId(0)) as u32).min(1);
        let mut sk = SketchEstimator::new(&g, &d, &index, &[NodeId(0)], &coupons);
        for &(op, node, amount) in &moves {
            let v = NodeId(node);
            let before = probes(&sk);
            let delta = if op == 0 {
                sk.add_coupons(v, amount).1
            } else {
                sk.add_seed_package(v, amount)
            };

            let active: Vec<NodeId> = (0..N as u32)
                .map(NodeId)
                .filter(|&u| sk.is_active(u))
                .collect();
            prop_assert_eq!(sk.order(), &active[..], "order after op {} on {}", op, node);

            let dirty = dirty(&g, &delta, v);
            let after = probes(&sk);
            for i in 0..N {
                prop_assert!(
                    dirty[i] || before[i] == after[i],
                    "node {}'s add probe changed after op {} on {}, but the report \
                     leaves it clean",
                    i, op, node
                );
            }
        }
    }
}
