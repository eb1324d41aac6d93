//! GPI's prefix-summed level sums are bit-identical to re-summing.
//!
//! [`identify_guaranteed_paths`] reads each guaranteed path's cost and
//! benefit as a cached left-fold prefix over per-level sums. The oracle
//! below is the DFS it replaced, which re-sums `levels[..=l]` from level 0
//! at every visit (O(depth) per visit). Both must produce the same visit
//! sequence, the same explored count and, for every path, the same
//! `cost` and `benefit` bits — on random cyclic digraphs with back- and
//! cross-edges, non-dyadic and signed-zero attributes and budgets from
//! tight to loose, and on one deep generated instance where the DFS
//! reaches depths in the hundreds and summation order matters most.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use proptest::prelude::*;
use s3crm_core::deployment::Deployment;
use s3crm_core::gpi::{identify_guaranteed_paths, GpForest, GuaranteedPath, Visit};
use s3crm_core::id_phase::ExploreTracker;

/// The re-summing GPI DFS for one seed, as a test oracle. Marks visited
/// nodes in `explored` like the production DFS.
fn oracle_forest(
    graph: &CsrGraph,
    data: &NodeData,
    seed: NodeId,
    budget: f64,
    explored: &mut ExploreTracker,
) -> (Vec<Visit>, Vec<GuaranteedPath>) {
    let mut visits: Vec<Visit> = Vec::new();
    let mut paths: Vec<GuaranteedPath> = Vec::new();
    let mut visited = vec![false; graph.node_count()];
    let mut level_csc: Vec<f64> = Vec::new();
    let mut level_b: Vec<f64> = Vec::new();
    let mut stack: Vec<(NodeId, u32, Option<usize>)> = vec![(seed, 0, None)];
    while let Some((node, level, parent)) = stack.pop() {
        if visited[node.index()] {
            continue;
        }
        let l = level as usize;
        let own_csc = if level == 0 { 0.0 } else { data.sc_cost(node) };
        let prior_cost: f64 = level_csc.iter().take(l + 1).sum();
        let cost = prior_cost + own_csc;
        if cost > budget {
            while stack.last().is_some_and(|&(_, sl, _)| sl >= level) {
                stack.pop();
            }
            continue;
        }
        visited[node.index()] = true;
        explored.mark(node);
        if level_csc.len() <= l {
            level_csc.resize(l + 1, 0.0);
            level_b.resize(l + 1, 0.0);
        }
        let prior_benefit: f64 = level_b.iter().take(l + 1).sum();
        let benefit = prior_benefit + data.benefit(node);
        level_csc[l] += own_csc;
        level_b[l] += data.benefit(node);
        let visit_index = visits.len();
        visits.push(Visit {
            node,
            level,
            parent,
        });
        paths.push(GuaranteedPath { cost, benefit });
        for &child in graph.out_targets(node).iter().rev() {
            if !visited[child.index()] {
                stack.push((child, level + 1, Some(visit_index)));
            }
        }
    }
    (visits, paths)
}

/// Bits of every path's `(cost, benefit)`.
fn path_bits(paths: &[GuaranteedPath]) -> Vec<(u64, u64)> {
    paths
        .iter()
        .map(|p| (p.cost.to_bits(), p.benefit.to_bits()))
        .collect()
}

/// Run production GPI and the oracle over `seeds`; `Err` names the first
/// difference. Returns the production forests on success.
fn compare(
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    binv: f64,
) -> Result<Vec<GpForest>, String> {
    let n = graph.node_count();
    let mut dep = Deployment::empty(n);
    for &s in seeds {
        dep.add_seed(s);
    }
    let mut explored = ExploreTracker::new(n);
    let forests = identify_guaranteed_paths(graph, data, &dep, binv, &mut explored);
    let mut oracle_explored = ExploreTracker::new(n);
    if forests.len() != dep.seeds.len() {
        return Err(format!(
            "{} forests for {} seeds",
            forests.len(),
            dep.seeds.len()
        ));
    }
    for (forest, &s) in forests.iter().zip(&dep.seeds) {
        let (visits, paths) = oracle_forest(
            graph,
            data,
            s,
            binv - data.seed_cost(s),
            &mut oracle_explored,
        );
        if forest.seed != s || forest.visits != visits {
            return Err(format!("seed {s:?}: visit sequences differ"));
        }
        if path_bits(&forest.paths) != path_bits(&paths) {
            return Err(format!("seed {s:?}: path bits differ"));
        }
    }
    if explored.count() != oracle_explored.count() {
        return Err(format!(
            "explored {} vs oracle {}",
            explored.count(),
            oracle_explored.count()
        ));
    }
    Ok(forests)
}

/// Node count of the random digraphs.
const N: usize = 24;

/// Random directed graph over [`N`] nodes — cycles, cross- and back-edges
/// all allowed. Self-loops are dropped; duplicate pairs collapse last-wins
/// in the builder.
fn digraph_strategy() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0u32..N as u32, 0u32..N as u32, 0.05f64..=1.0), 1..80)
}

/// An attribute value: mostly a non-dyadic float, sometimes `±0.0` so the
/// fold's signed-zero identity is exercised.
fn attr_strategy() -> impl Strategy<Value = f64> {
    (0u8..10, 0.01f64..3.0).prop_map(|(k, x)| match k {
        0 => -0.0,
        1 => 0.0,
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

    /// Every visit and every path bit matches the oracle; `budget_frac`
    /// runs from 0 (only seeds fit, pruning fires at once) past 1 (every
    /// coupon cost fits).
    #[test]
    fn prefix_sums_match_resumming_oracle(
        edges in digraph_strategy(),
        sc in proptest::collection::vec(attr_strategy(), N..N + 1),
        benefit in proptest::collection::vec(attr_strategy(), N..N + 1),
        seeds in proptest::collection::vec(0u32..N as u32, 1..5),
        budget_frac in 0.0f64..=1.3,
    ) {
        let g = build(&edges, N);
        let seed_costs: Vec<f64> = sc.iter().map(|c| 0.3 * c.abs()).collect();
        let total_sc: f64 = sc.iter().sum();
        let d = NodeData::new(benefit, seed_costs, sc).unwrap();
        let seeds: Vec<NodeId> = seeds.into_iter().map(NodeId).collect();
        let binv = 0.5 + budget_frac * total_sc;
        if let Err(e) = compare(&g, &d, &seeds, binv) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// SplitMix64 step, the deep instance's deterministic generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[lo, hi)` from 53 random bits.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix(state) >> 11) as f64 / (1u64 << 53) as f64)
}

/// A 3,200-node digraph whose DFS runs deep: a spine `i → i + 1` holds
/// every node's highest-probability edge, and two random back- or
/// cross-edges per node add cycles and sibling branches.
fn deep_instance() -> (CsrGraph, NodeData) {
    const NODES: usize = 3_200;
    let mut state = 0x0005_eed0_f6d1_u64;
    let mut b = GraphBuilder::new(NODES);
    for i in 0..NODES as u32 {
        if (i as usize) + 1 < NODES {
            b.add_edge(i, i + 1, 0.95).unwrap();
        }
        for _ in 0..2 {
            let j = (splitmix(&mut state) % NODES as u64) as u32;
            if j != i && j != i + 1 {
                b.add_edge(i, j, uniform(&mut state, 0.05, 0.9)).unwrap();
            }
        }
    }
    let benefit: Vec<f64> = (0..NODES).map(|_| uniform(&mut state, 0.1, 7.0)).collect();
    let sc: Vec<f64> = (0..NODES).map(|_| uniform(&mut state, 0.01, 0.9)).collect();
    let seed_costs = vec![1.3; NODES];
    (
        b.build().unwrap(),
        NodeData::new(benefit, seed_costs, sc).unwrap(),
    )
}

#[test]
fn deep_instance_matches_resumming_oracle() {
    let (g, d) = deep_instance();
    let seeds = [NodeId(0), NodeId(1_600), NodeId(2_999)];
    for binv in [40.0, 150.0, 600.0] {
        let forests = compare(&g, &d, &seeds, binv).unwrap_or_else(|e| panic!("binv {binv}: {e}"));
        let depth = forests
            .iter()
            .flat_map(|f| f.visits.iter().map(|v| v.level))
            .max()
            .unwrap();
        let paths: usize = forests.iter().map(|f| f.paths.len()).sum();
        assert!(paths > 300, "binv {binv}: only {paths} paths");
        if binv >= 150.0 {
            assert!(depth >= 200, "binv {binv}: DFS depth only {depth}");
        }
    }
}
