//! Deterministic instances reconstructing the paper's worked examples.
//!
//! These fixtures pin the propagation semantics to the exact numbers printed
//! in the paper; the integration tests in `tests/paper_fig1.rs` and
//! `tests/paper_example1.rs` assert them to many decimal places.

use osn_graph::{CsrGraph, GraphBuilder, NodeData};

/// A self-contained worked-example instance.
#[derive(Clone, Debug)]
pub struct Fixture {
    pub graph: CsrGraph,
    pub data: NodeData,
    /// The investment budget `Binv`.
    pub budget: f64,
}

/// The Fig. 1 comparison example (Sec. III).
///
/// Reconstruction notes — the figure itself is not machine-readable, so edge
/// probabilities and attributes are recovered from the printed arithmetic:
///
/// * node ids: `0..=4` are the paper's `v1..=v5`;
/// * `b = [3, 3, 3, 3, 6]` (all defaults 3; `b(v5) = 6` recovered from the
///   S3CRM case-3 benefit `8.295 = 3 + 0.55·3 + 0.45·0.5·3 + 0.55·0.9·6`);
/// * `c_seed = [1, 1.54, 1.5, 100, 100]` (`c_seed(v3) = 1.5` from the IM
///   total cost `2.7 = 1.5 + 0.7 + 0.5`; `c_seed(v2) = 1.54` from the PM
///   total cost `2.1 = 1.54 + 0.36 + 0.2`; `v4, v5` have seed costs above
///   `Binv` — "v4 and v5 never become a seed");
/// * `c_sc = 1` everywhere;
/// * edges: `v1→v4 (0.55)`, `v1→v2 (0.5)`, `v2→v1 (0.36)`, `v2→v3 (0.2)`,
///   `v3→v4 (0.7)`, `v3→v2 (0.5)`, `v4→v5 (0.9)`;
/// * `Binv = 3.5`.
///
/// Expected values (asserted in tests):
/// * IM package (seed `v3`, 2 SCs): benefit 6.6, cost 2.7, rate ≈ 2.44;
/// * PM package (seed `v1`, 2 SCs): benefit 6.15, cost 2.05, rate 3;
/// * S3CRM case 2 (seed `v1`, SCs on `v1`,`v2`): benefit 5.46, cost 1.975;
/// * S3CRM case 3 (seed `v1`, SCs on `v1`,`v4`): benefit 8.295, cost 2.675,
///   rate ≈ 3.1 — the optimum highlighted by the paper.
pub fn fig1() -> Fixture {
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 3, 0.55).unwrap(); // v1 -> v4
    b.add_edge(0, 1, 0.5).unwrap(); //  v1 -> v2
    b.add_edge(1, 0, 0.36).unwrap(); // v2 -> v1
    b.add_edge(1, 2, 0.2).unwrap(); //  v2 -> v3
    b.add_edge(2, 3, 0.7).unwrap(); //  v3 -> v4
    b.add_edge(2, 1, 0.5).unwrap(); //  v3 -> v2
    b.add_edge(3, 4, 0.9).unwrap(); //  v4 -> v5
    let graph = b.build().unwrap();
    let data = NodeData::new(
        vec![3.0, 3.0, 3.0, 3.0, 6.0],
        vec![1.0, 1.54, 1.5, 100.0, 100.0],
        vec![1.0; 5],
    )
    .unwrap();
    Fixture {
        graph,
        data,
        budget: 3.5,
    }
}

/// The Example 1 / Fig. 3 instance (Sec. IV-A, Investment Deployment).
///
/// A two-level tree: `v1` is the only affordable seed
/// (`c_seed(v1) ≈ 0`, everyone else unaffordable), every user has
/// `b = c_sc = 1`.
///
/// ```text
///            v1 (id 0)
///          0.6 |  \ 0.4
///        v2 (1)    v3 (2)
///      0.5 | \0.4  0.8 | \0.7
///      v4(3) v5(4) v6(5)  v7(6)
/// ```
///
/// Expected first-iteration marginal redemptions after the initial
/// deployment (seed `v1`, one SC):
/// `MR(v1←SC) = 1`, `MR(v2←SC) = 0.6`, `MR(v3←SC) ≈ 0.16`.
pub fn example1() -> Fixture {
    let mut b = GraphBuilder::new(7);
    b.add_edge(0, 1, 0.6).unwrap(); // v1 -> v2
    b.add_edge(0, 2, 0.4).unwrap(); // v1 -> v3
    b.add_edge(1, 3, 0.5).unwrap(); // v2 -> v4
    b.add_edge(1, 4, 0.4).unwrap(); // v2 -> v5
    b.add_edge(2, 5, 0.8).unwrap(); // v3 -> v6
    b.add_edge(2, 6, 0.7).unwrap(); // v3 -> v7
    let graph = b.build().unwrap();
    let mut seed_costs = vec![100.0; 7];
    seed_costs[0] = 0.0;
    let data = NodeData::new(vec![1.0; 7], seed_costs, vec![1.0; 7]).unwrap();
    Fixture {
        graph,
        data,
        budget: 5.0,
    }
}

/// The Theorem 1 hardness-reduction instance (Sec. III).
///
/// `V = {v_u} ∪ V_a ∪ V_b` with `|V_a| = |V_b| = m`:
/// * each `v_b^i` connects only to its counterpart `v_a^i` with weight 1;
/// * the unique affordable seed `v_u` connects to the `k` *designated*
///   users of `V_b` with weight 1 (in the paper these are the top-`k`
///   influencers of the inner IM instance; here the caller names them);
/// * `c_seed(v_u) = k`, all other seed costs are prohibitive;
/// * `c_sc(v_b) = ε`, `c_sc(v_a) = 0` ("activated simultaneously" — the
///   coupon constraint vanishes on `V_a`);
/// * `b(v_u) = ε`, `b(v_b) = 0`, `b(v_a) = 1`;
/// * `Binv = k + k·ε`, so `v_u` affords exactly `k` coupons.
///
/// Any optimal S3CRM solution must seed `v_u`, give it `k` coupons, and
/// relay through the designated `V_b` users — i.e. solve the embedded
/// maximum-coverage/IM instance. The integration test `hardness.rs`
/// verifies this mechanically with the exhaustive solver, which is the
/// executable form of the reduction argument.
///
/// Node ids: `0` is `v_u`; `1..=m` are `V_b`; `m+1..=2m` are `V_a`
/// (counterpart of `v_b^i` = node `i` is node `m + i`).
///
/// `vb_benefit` is 0 in the literal gadget — which drives the Theorem 2
/// constant `b0 = max b / min b` to infinity and makes S3CA's guarantee
/// vacuous on it (as NP-hardness demands). Passing a small positive value
/// "regularizes" the gadget so greedy one-step marginals become visible;
/// the integration tests use both forms to demonstrate that boundary.
pub fn hardness_reduction(
    m: usize,
    k: usize,
    designated: &[u32],
    epsilon: f64,
    vb_benefit: f64,
) -> Fixture {
    assert!(k >= 1 && k <= m, "need 1 ≤ k ≤ m");
    assert_eq!(designated.len(), k, "exactly k designated V_b users");
    assert!(
        epsilon > 0.0 && epsilon < 0.5,
        "ε must be a small positive constant"
    );
    let n = 1 + 2 * m;
    let mut b = GraphBuilder::new(n);
    for &i in designated {
        assert!(
            (1..=m as u32).contains(&i),
            "designated ids must lie in V_b"
        );
        b.add_edge(0, i, 1.0).unwrap(); // v_u -> v_b^i
    }
    for i in 1..=m as u32 {
        b.add_edge(i, m as u32 + i, 1.0).unwrap(); // v_b^i -> v_a^i
    }
    let graph = b.build().unwrap();

    let mut benefit = vec![0.0; n];
    benefit[0] = epsilon;
    for b in benefit.iter_mut().take(m + 1).skip(1) {
        *b = vb_benefit;
    }
    for b in benefit.iter_mut().take(2 * m + 1).skip(m + 1) {
        *b = 1.0;
    }
    let mut seed_cost = vec![1e6; n];
    seed_cost[0] = k as f64;
    let mut sc_cost = vec![0.0; n];
    for c in sc_cost.iter_mut().take(m + 1).skip(1) {
        *c = epsilon;
    }
    let data = NodeData::new(benefit, seed_cost, sc_cost).unwrap();
    Fixture {
        graph,
        data,
        budget: k as f64 + k as f64 * epsilon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::NodeId;

    #[test]
    fn fig1_rank_order_matches_paper() {
        let f = fig1();
        // v1's highest-probability friend is v4 (0.55) then v2 (0.5); the
        // dependent-edge discussion in the paper relies on this order.
        assert_eq!(f.graph.out_targets(NodeId(0)), &[NodeId(3), NodeId(1)]);
        assert_eq!(f.graph.out_probs(NodeId(0)), &[0.55, 0.5]);
        assert_eq!(f.graph.out_targets(NodeId(2)), &[NodeId(3), NodeId(1)]);
    }

    #[test]
    fn fig1_attributes() {
        let f = fig1();
        assert_eq!(f.data.benefit(NodeId(4)), 6.0);
        assert_eq!(f.data.seed_cost(NodeId(2)), 1.5);
        assert!(f.data.seed_cost(NodeId(3)) > f.budget);
        assert_eq!(f.budget, 3.5);
    }

    #[test]
    fn example1_is_a_two_level_tree() {
        let f = example1();
        assert_eq!(f.graph.node_count(), 7);
        assert_eq!(f.graph.edge_count(), 6);
        assert_eq!(f.graph.out_degree(NodeId(0)), 2);
        for leaf in 3..7u32 {
            assert_eq!(f.graph.out_degree(NodeId(leaf)), 0);
        }
        // Only v1 is an affordable seed.
        assert_eq!(f.data.seed_cost(NodeId(0)), 0.0);
        assert!(f.data.seed_cost(NodeId(1)) > f.budget);
    }

    #[test]
    fn hardness_reduction_structure() {
        let f = hardness_reduction(4, 2, &[1, 3], 0.01, 0.0);
        assert_eq!(f.graph.node_count(), 9);
        // v_u reaches only the designated V_b users.
        assert_eq!(f.graph.out_targets(NodeId(0)), &[NodeId(1), NodeId(3)]);
        // Counterpart wiring v_b^i -> v_a^i.
        assert_eq!(f.graph.out_targets(NodeId(2)), &[NodeId(6)]);
        // Only v_u is an affordable seed.
        assert!(f.data.seed_cost(NodeId(0)) <= f.budget);
        assert!(f.data.seed_cost(NodeId(1)) > f.budget);
        // Benefits live on V_a.
        assert_eq!(f.data.benefit(NodeId(5)), 1.0);
        assert_eq!(f.data.benefit(NodeId(1)), 0.0);
        assert!((f.budget - (2.0 + 2.0 * 0.01)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "designated")]
    fn hardness_reduction_validates_designated_set() {
        hardness_reduction(3, 2, &[1], 0.01, 0.0);
    }
}
