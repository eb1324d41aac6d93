//! The pivot list's cursor yields the heap queue's pop sequence, bit for bit.
//!
//! [`PivotList`] ranks every user's bundled seed package and bare-seed
//! fallback once per graph; its cursor applies the budget filter per
//! campaign. The oracle is the per-campaign max-heap it replaced
//! ([`PivotQueue`], every [`seed_package`](s3crm_tests::seed_package) at
//! the budget). Both must yield the same packages in the same order with
//! the same `benefit`, `cost` and `rate` bits — on random cyclic digraphs
//! with sink nodes, duplicated attributes that force rate ties, signed-zero
//! attributes, and budgets from below the cheapest seed to above the total
//! cost, including every package's exact cost and seed cost, where a
//! bundled package stops fitting while its bare seed still fits.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use proptest::prelude::*;
use s3crm_core::pivot::{PivotList, SeedPackage};
use s3crm_tests::PivotQueue;

/// Every field of a package, floats as bits.
fn bits(p: &SeedPackage) -> (NodeId, u32, u64, u64, u64) {
    (
        p.node,
        p.coupons,
        p.benefit.to_bits(),
        p.cost.to_bits(),
        p.rate.to_bits(),
    )
}

/// Compare the cursor's full sequence with the oracle's pops at `binv`;
/// `Err` names the first difference. Returns the sequence length.
fn compare(
    graph: &CsrGraph,
    data: &NodeData,
    list: &PivotList,
    binv: f64,
) -> Result<usize, String> {
    let mut queue = PivotQueue::build(graph, data, binv);
    let oracle: Vec<_> = std::iter::from_fn(|| queue.pop())
        .map(|p| bits(&p))
        .collect();
    let cursor: Vec<_> = list.cursor(binv).map(|p| bits(&p)).collect();
    if let Some(i) = (0..oracle.len().min(cursor.len())).find(|&i| oracle[i] != cursor[i]) {
        return Err(format!(
            "binv {binv}: pop {i} is {:?}, oracle {:?}",
            cursor[i], oracle[i]
        ));
    }
    if oracle.len() != cursor.len() {
        return Err(format!(
            "binv {binv}: {} packages, oracle {}",
            cursor.len(),
            oracle.len()
        ));
    }
    Ok(cursor.len())
}

/// Budgets from below the cheapest seed to above the total cost, plus
/// every node's seed cost and every package's cost exactly (the `≤`
/// boundaries), and the non-finite extremes.
fn budget_ladder(graph: &CsrGraph, data: &NodeData) -> Vec<f64> {
    let mut ladder = vec![-1.0, 0.0, f64::INFINITY, f64::NAN];
    let mut total = 0.0;
    for v in graph.nodes() {
        ladder.push(data.seed_cost(v));
        for coupons in [0, 1] {
            let (_, cost) = osn_propagation::spread::standalone_package(graph, data, v, coupons);
            ladder.push(cost);
            ladder.push(cost * 0.999);
            total += cost;
        }
    }
    ladder.push(total + 1.0);
    ladder
}

/// Node count of the random digraphs; the last [`SINKS`] have no out-edges.
const N: usize = 24;
const SINKS: u32 = 4;

/// Random directed graph over [`N`] nodes — cycles, cross- and back-edges
/// all allowed. Self-loops are dropped; duplicate pairs collapse last-wins
/// in the builder.
fn digraph_strategy() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec(
        (0u32..N as u32 - SINKS, 0u32..N as u32, 0.05f64..=1.0),
        1..80,
    )
}

/// An attribute value from a small pool, so distinct nodes share
/// attributes and their packages tie on rate, with `±0.0` among them.
fn attr_strategy() -> impl Strategy<Value = f64> {
    (0u8..8, 0.01f64..3.0).prop_map(|(k, x)| match k {
        0 => -0.0,
        1 => 0.0,
        2 => 0.5,
        3 => 1.0,
        4 => 1.5,
        _ => x,
    })
}

fn build(edges: &[(u32, u32, f64)], n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, p) in edges {
        if u != v {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One list, every budget of the ladder: the same sequence as a fresh
    /// heap at that budget.
    #[test]
    fn cursor_matches_heap_oracle(
        edges in digraph_strategy(),
        benefit in proptest::collection::vec(attr_strategy(), N..N + 1),
        seed_cost in proptest::collection::vec(attr_strategy(), N..N + 1),
        sc in proptest::collection::vec(attr_strategy(), N..N + 1),
    ) {
        let g = build(&edges, N);
        let d = NodeData::new(benefit, seed_cost, sc).unwrap();
        let list = PivotList::build(&g, &d);
        for binv in budget_ladder(&g, &d) {
            if let Err(e) = compare(&g, &d, &list, binv) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}

/// A hand-checked instance: at budget 2 node 0's bundled package (seed 1 +
/// 0.9 · coupon cost 2 = 2.8) no longer fits but its bare seed does, and it
/// lands behind the leaf and ahead of the equal-attribute node 3, whose
/// bundled package ties node 0's on rate.
#[test]
fn fallback_and_ties_follow_the_oracle() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 2, 0.9).unwrap();
    b.add_edge(3, 1, 0.9).unwrap();
    let g = b.build().unwrap();
    let d = NodeData::new(
        vec![1.0, 0.0, 4.0, 1.0],
        vec![1.0, 5.0, 0.5, 1.0],
        vec![0.5, 2.0, 2.0, 0.5],
    )
    .unwrap();
    let list = PivotList::build(&g, &d);
    let at_two: Vec<(NodeId, u32)> = list.cursor(2.0).map(|p| (p.node, p.coupons)).collect();
    assert_eq!(at_two, vec![(NodeId(2), 0), (NodeId(0), 0), (NodeId(3), 0)]);
    let at_three: Vec<(NodeId, u32)> = list.cursor(3.0).map(|p| (p.node, p.coupons)).collect();
    assert_eq!(
        at_three,
        vec![(NodeId(2), 0), (NodeId(0), 1), (NodeId(3), 1)]
    );
    for binv in budget_ladder(&g, &d) {
        compare(&g, &d, &list, binv).unwrap();
    }
}

/// SplitMix64 step, the larger instance's deterministic generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 2,000-node random digraph with a fifth of the nodes sinks and
/// attributes drawn from eight values, so rate ties are common; the budget
/// sweeps from nothing to everything in 40 steps.
#[test]
fn cursor_matches_heap_oracle_on_a_large_instance() {
    const NODES: usize = 2_000;
    let mut state = 0x0009_1707_u64;
    let mut b = GraphBuilder::new(NODES);
    for i in 0..(NODES - NODES / 5) as u32 {
        for _ in 0..1 + splitmix(&mut state) % 4 {
            let j = (splitmix(&mut state) % NODES as u64) as u32;
            if j != i {
                let p = 0.05 + (splitmix(&mut state) % 19) as f64 * 0.05;
                b.add_edge(i, j, p).unwrap();
            }
        }
    }
    let g = b.build().unwrap();
    const POOL: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 1.0, 1.75, 2.5, 4.0];
    let mut attrs = || -> Vec<f64> {
        (0..NODES)
            .map(|_| POOL[(splitmix(&mut state) % 8) as usize])
            .collect()
    };
    let d = NodeData::new(attrs(), attrs(), attrs()).unwrap();
    let list = PivotList::build(&g, &d);
    assert!(list.resident_bytes() <= 64 * NODES);
    let total: f64 = g.nodes().map(|v| d.seed_cost(v) + d.sc_cost(v)).sum();
    let mut lengths = Vec::new();
    for step in 0..=40 {
        let binv = total * f64::from(step) / 40.0 - 0.5;
        lengths.push(compare(&g, &d, &list, binv).unwrap());
    }
    assert_eq!(lengths[0], 0, "a negative budget fits nothing");
    assert_eq!(
        *lengths.last().unwrap(),
        NODES,
        "the whole budget fits everyone"
    );
}
