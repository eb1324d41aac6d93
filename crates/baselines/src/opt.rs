//! Exact optimum by computation-intensive search (Sec. VI-D, Fig. 10).
//!
//! The paper validates the Theorem 2 ratio by comparing S3CA against "the
//! optimal solution obtained by computation-intensive exhaustive search in
//! small networks with 150 nodes". This solver enumerates seed sets of
//! bounded size and coupon allocations over a bounded support with
//! branch-and-bound pruning:
//!
//! * coupon support = nodes within two hops of the seeds, trimmed to the
//!   configured width by descending `Σ_children P·b` potential;
//! * depth-first allocation enumeration with a budget prune and an
//!   optimistic redemption-rate bound (unconstrained downstream gains over
//!   the current cost).
//!
//! Each seed set's search walks one [`SpreadEngine`]: a child is its parent
//! plus one coupon, and a backtrack retrieves it. A maintained engine is
//! bit-identical to a fresh build, so every value is `objective::evaluate`'s.
//!
//! The search is exact relative to its configured support caps; on
//! instances small enough for the caps not to bind (every unit test here,
//! and the Fig. 10 sizes with the defaults) it returns the true optimum.

use osn_graph::traversal::bfs_hops;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::spread::standalone_package;
use osn_propagation::{BenefitEstimator, SpreadEngine};
use s3crm_core::deployment::Deployment;
use s3crm_core::objective::{self, ObjectiveValue};

/// Search-space caps of the exact solver.
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Maximum seed-set size enumerated.
    pub max_seeds: usize,
    /// Candidate seed pool: the top nodes by standalone package rate
    /// (enumerating seed pairs over *all* nodes is quadratic in `|V|` and
    /// dominates everything else; the optimum's seeds are overwhelmingly
    /// high-rate packages).
    pub seed_pool: usize,
    /// Maximum total coupons in an allocation.
    pub max_total_coupons: u32,
    /// Maximum coupons per single node.
    pub max_coupons_per_node: u32,
    /// Width of the coupon support (candidate coupon holders per seed set).
    pub support_width: usize,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            max_seeds: 2,
            seed_pool: 8,
            max_total_coupons: 6,
            max_coupons_per_node: 3,
            support_width: 10,
        }
    }
}

/// Exhaustively search for the best deployment under budget `binv`.
pub fn exhaustive_opt(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    cfg: &OptConfig,
) -> (Deployment, ObjectiveValue) {
    let n = graph.node_count();
    let mut search = Search {
        graph,
        data,
        binv,
        cfg,
        best: (Deployment::empty(n), ObjectiveValue::default()),
    };

    // Affordable seeds ranked by standalone package rate, trimmed to the
    // configured pool.
    let mut affordable: Vec<(f64, NodeId)> = graph
        .nodes()
        .filter(|&v| data.seed_cost(v) <= binv)
        .map(|v| {
            let (b, c) = standalone_package(graph, data, v, u32::from(graph.out_degree(v) > 0));
            (if c > 0.0 { b / c } else { 0.0 }, v)
        })
        .collect();
    affordable.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("rates are finite"));
    affordable.truncate(cfg.seed_pool.max(1));
    let affordable: Vec<NodeId> = affordable.into_iter().map(|(_, v)| v).collect();

    let mut seed_sets: Vec<Vec<NodeId>> = Vec::new();
    enumerate_subsets(&affordable, cfg.max_seeds, &mut seed_sets);

    for seeds in seed_sets {
        let seed_cost: f64 = seeds.iter().map(|&s| data.seed_cost(s)).sum();
        if seed_cost > binv {
            continue;
        }
        // Coupon support: two-hop neighborhood, trimmed by potential.
        let support = coupon_support(graph, data, &seeds, cfg.support_width);

        // DFS over allocations, walking one engine from zero coupons.
        let mut engine = SpreadEngine::new(graph, data, &seeds, &vec![0; n]);
        let value = objective::value_from_estimator(&engine);
        search.allocate(&support, 0, 0, value, &mut engine);
    }
    search.best
}

/// All non-empty subsets of `pool` with at most `max` elements.
fn enumerate_subsets(pool: &[NodeId], max: usize, out: &mut Vec<Vec<NodeId>>) {
    fn rec(
        pool: &[NodeId],
        start: usize,
        max: usize,
        cur: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == max {
            return;
        }
        for i in start..pool.len() {
            cur.push(pool[i]);
            rec(pool, i + 1, max, cur, out);
            cur.pop();
        }
    }
    let mut cur = Vec::new();
    rec(pool, 0, max, &mut cur, out);
}

/// Nodes within two hops of the seeds with positive out-degree, ranked by
/// unconstrained one-step potential `Σ_children P·b`, trimmed to `width`.
fn coupon_support(
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    width: usize,
) -> Vec<NodeId> {
    let hops = bfs_hops(graph, seeds);
    let mut cand: Vec<(f64, NodeId)> = graph
        .nodes()
        .filter(|&v| hops[v.index()] <= 2 && graph.out_degree(v) > 0)
        .map(|v| {
            let potential: f64 = graph.ranked_out(v).map(|(t, p)| p * data.benefit(t)).sum();
            (potential, v)
        })
        .collect();
    cand.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("potentials are finite"));
    cand.truncate(width);
    cand.into_iter().map(|(_, v)| v).collect()
}

/// The exact search over one instance: its budget and caps, and the best
/// deployment found so far with its objective.
struct Search<'a> {
    graph: &'a CsrGraph,
    data: &'a NodeData,
    binv: f64,
    cfg: &'a OptConfig,
    best: (Deployment, ObjectiveValue),
}

impl Search<'_> {
    /// Branch-and-bound over the coupons of `support[idx..]`; `value` is the
    /// objective of `engine`'s deployment, which is the same again on
    /// return.
    fn allocate(
        &mut self,
        support: &[NodeId],
        idx: usize,
        used: u32,
        value: ObjectiveValue,
        engine: &mut SpreadEngine,
    ) {
        if !value.within_budget(self.binv) {
            return; // costs only grow along this branch
        }
        if value.rate > self.best.1.rate {
            self.best = (Deployment::from(engine.ledger()), value);
        }
        let cfg = self.cfg;
        if idx >= support.len() || used >= cfg.max_total_coupons {
            return;
        }
        // Optimistic bound: every remaining coupon could add at most the
        // instance's best single-hop gain at zero additional cost.
        let remaining = (cfg.max_total_coupons - used) as f64;
        let max_b = self.data.benefits().iter().fold(0.0f64, |a, &b| a.max(b));
        let optimistic =
            (value.benefit + remaining * max_b) / value.total_cost().max(f64::MIN_POSITIVE);
        if value.total_cost() > 0.0 && optimistic <= self.best.1.rate {
            return;
        }

        let node = support[idx];
        let cap = cfg
            .max_coupons_per_node
            .min(self.graph.out_degree(node) as u32)
            .min(cfg.max_total_coupons - used);
        // k = 0 first keeps the search finding sparse optima early. That
        // child is the deployment unchanged, so it reuses `value`; each later
        // child is one coupon more at `node`.
        let mut child = value;
        for k in 0..=cap {
            if k > 0 {
                engine.add_coupons(node, 1);
                child = objective::value_from_estimator(engine);
            }
            self.allocate(support, idx + 1, used + k, child, engine);
        }
        engine.remove_coupons(node, cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    /// Fig. 1 reconstruction: OPT is seed v1 with SCs on v1 and v4
    /// (rate 8.295 / 2.675 ≈ 3.1).
    fn fig1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3, 0.55).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 0, 0.36).unwrap();
        b.add_edge(1, 2, 0.2).unwrap();
        b.add_edge(2, 3, 0.7).unwrap();
        b.add_edge(2, 1, 0.5).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        let d = NodeData::new(
            vec![3.0, 3.0, 3.0, 3.0, 6.0],
            vec![1.0, 1.54, 1.5, 100.0, 100.0],
            vec![1.0; 5],
        )
        .unwrap();
        (b.build().unwrap(), d)
    }

    #[test]
    fn fig1_opt_matches_the_paper() {
        let (g, d) = fig1();
        let (dep, value) = exhaustive_opt(&g, &d, 3.5, &OptConfig::default());
        assert_eq!(dep.seeds, vec![NodeId(0)], "OPT seeds {:?}", dep.seeds);
        assert_eq!(dep.coupons, vec![1, 0, 0, 1, 0], "OPT allocation");
        assert!(
            (value.rate - 8.295 / 2.675).abs() < 1e-9,
            "rate {}",
            value.rate
        );
    }

    #[test]
    fn respects_budget() {
        let (g, d) = fig1();
        for binv in [1.5, 2.5, 3.5] {
            let (_, v) = exhaustive_opt(&g, &d, binv, &OptConfig::default());
            assert!(v.within_budget(binv));
        }
    }

    #[test]
    fn tiny_budget_allows_only_cheap_seed() {
        let (g, d) = fig1();
        let (dep, v) = exhaustive_opt(&g, &d, 1.0, &OptConfig::default());
        // Only v1 (cost 1) fits; no coupon is affordable on top.
        assert_eq!(dep.seeds, vec![NodeId(0)]);
        assert!((v.total_cost() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_returns_empty() {
        let (g, d) = fig1();
        let (dep, v) = exhaustive_opt(&g, &d, 0.0, &OptConfig::default());
        assert!(dep.seeds.is_empty());
        assert_eq!(v.rate, 0.0);
    }

    #[test]
    fn opt_dominates_greedy_on_small_instances() {
        use s3crm_core::{s3ca, S3caConfig};
        let (g, d) = fig1();
        let greedy = s3ca(&g, &d, 3.5, &S3caConfig::default());
        let (_, opt) = exhaustive_opt(&g, &d, 3.5, &OptConfig::default());
        assert!(
            opt.rate >= greedy.objective.rate - 1e-9,
            "OPT {} must dominate S3CA {}",
            opt.rate,
            greedy.objective.rate
        );
    }
}
