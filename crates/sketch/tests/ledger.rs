//! The sketch backend's costs are the analytic engine's, bit for bit.
//!
//! Both estimators keep their deployment in an `osn_propagation::Ledger`.
//! Random move scripts on random cyclic digraphs are applied in step to a
//! `SketchEstimator` and a `SpreadEngine`; after every move their seeds,
//! coupons, `Cseed`, `Csc` and every node's add and removal ΔCsc must be
//! equal, and equal to the from-scratch `expected_sc_cost` and
//! `SpreadState` deltas of the same deployment.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_propagation::spread::SpreadState;
use osn_propagation::{expected_sc_cost, seed_cost, BenefitEstimator, DeltaScratch, SpreadEngine};
use osn_sketch::{SketchEstimator, SketchIndex, SketchParams};
use proptest::prelude::*;

/// Node count of the random digraphs.
const N: usize = 12;

/// Random directed graph over [`N`] nodes — cycles, cross- and back-edges
/// all allowed. Self-loops are dropped; duplicate pairs collapse last-wins
/// in the builder.
fn digraph_strategy() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0u32..N as u32, 0u32..N as u32, 0.05f64..=1.0), 1..40)
}

/// A move script: `(op, node, amount)` with op 0 = grant coupons, 1 = seed
/// package, 2 = retrieve coupons.
fn moves_strategy() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..3, 0u32..N as u32, 1u32..3), 1..16)
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

/// Uneven coupon prices, so a wrong child set or rank shows in ΔCsc.
fn data() -> NodeData {
    let sc: Vec<f64> = (0..N).map(|i| 0.5 + (i % 4) as f64 * 0.75).collect();
    let seed: Vec<f64> = (0..N).map(|i| 1.0 + (i % 3) as f64).collect();
    NodeData::new(vec![1.0; N], seed, sc).unwrap()
}

fn assert_same_costs(
    sk: &SketchEstimator<'_>,
    engine: &SpreadEngine<'_>,
    g: &CsrGraph,
    d: &NodeData,
) {
    assert_eq!(sk.ledger().seeds(), engine.seeds(), "seeds");
    assert_eq!(sk.ledger().coupons(), engine.coupons(), "coupons");
    let seeds = engine.seeds();
    let coupons = engine.coupons();
    let seed = seed_cost(d, seeds).to_bits();
    assert_eq!(
        BenefitEstimator::seed_cost(sk).to_bits(),
        seed,
        "sketch Cseed"
    );
    assert_eq!(engine.seed_cost().to_bits(), seed, "engine Cseed");
    let sc = expected_sc_cost(g, d, seeds, coupons).to_bits();
    assert_eq!(BenefitEstimator::sc_cost(sk).to_bits(), sc, "sketch Csc");
    assert_eq!(engine.sc_cost().to_bits(), sc, "engine Csc");

    let state = SpreadState::evaluate(g, d, seeds, coupons);
    let mut scratch = DeltaScratch::default();
    for i in 0..N {
        let v = NodeId(i as u32);
        let (_, add_ref) = state.coupon_delta(g, d, v, 1);
        let (_, add_sk) = sk.coupon_add_delta(v, &mut scratch);
        let (_, add_en) = engine.coupon_add_delta(v, &mut scratch);
        assert_eq!(
            add_sk.to_bits(),
            add_ref.to_bits(),
            "sketch add ΔCsc at {i}"
        );
        assert_eq!(
            add_en.to_bits(),
            add_ref.to_bits(),
            "engine add ΔCsc at {i}"
        );
        let (_, rm_ref) = state.coupon_removal_delta(g, d, v);
        let (_, rm_sk) = sk.coupon_removal_delta(v, &mut scratch);
        let (_, rm_en) = engine.coupon_removal_delta(v, &mut scratch);
        assert_eq!(
            rm_sk.to_bits(),
            rm_ref.to_bits(),
            "sketch removal ΔCsc at {i}"
        );
        assert_eq!(
            rm_en.to_bits(),
            rm_ref.to_bits(),
            "engine removal ΔCsc at {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sketch_and_engine_share_exact_costs_after_any_move_sequence(
        edges in digraph_strategy(),
        moves in moves_strategy(),
    ) {
        let g = build(&edges);
        let d = data();
        let params = SketchParams {
            epsilon: 0.3,
            delta: 0.3,
            seed: 11,
            ..SketchParams::default()
        };
        let index = SketchIndex::build(&g, &d, &params);
        let mut coupons = vec![0u32; N];
        coupons[0] = (g.out_degree(NodeId(0)) as u32).min(1);
        let mut sk = SketchEstimator::new(&g, &d, &index, &[NodeId(0)], &coupons);
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons);
        assert_same_costs(&sk, &engine, &g, &d);
        for &(op, node, amount) in &moves {
            let v = NodeId(node);
            match op {
                0 => {
                    let (a, _) = sk.add_coupons(v, amount);
                    let (b, _) = engine.add_coupons(v, amount);
                    prop_assert_eq!(a, b, "coupons granted to {}", node);
                }
                1 => {
                    sk.add_seed_package(v, amount);
                    engine.add_seed_package(v, amount);
                }
                _ => {
                    let (a, _) = sk.remove_coupons(v, amount);
                    let (b, _) = engine.remove_coupons(v, amount);
                    prop_assert_eq!(a, b, "coupons retrieved from {}", node);
                }
            }
            assert_same_costs(&sk, &engine, &g, &d);
        }
    }
}
