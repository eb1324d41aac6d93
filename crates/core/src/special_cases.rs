//! The special cases of Sec. III.
//!
//! The paper shows that both coupon strategies practiced by real platforms
//! are restrictions of S3CRM:
//!
//! 1. **Unlimited coupon strategy** (Uber, Lyft, Hotels.com): coupons are
//!    free and unbounded (`c_sc ≡ 0`, `k_i = |N(v_i)|`) — S3CRM reduces to
//!    `argmax_S B(S) / Cseed(S)` s.t. `Cseed(S) ≤ Binv`, and the
//!    propagation model collapses to plain IC.
//! 2. **Limited coupon strategy** (Dropbox, Airbnb, Booking.com): a fixed
//!    pre-determined allocation `K̂` (`k_i = k` for all) — S3CRM reduces to
//!    seed selection under the remaining budget `Binv − Csc(K̂)`.
//!
//! These reductions are implemented directly and double as an executable
//! sanity check of the claims: this module's unit tests verify the reduced
//! solvers agree with the general objective evaluated on the restricted
//! decision space.

use crate::deployment::Deployment;
use crate::objective::{self, ObjectiveValue};
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::cost::redemption_rate;
use osn_propagation::spread::SpreadState;

/// Benefit of a seed set under plain IC (the unlimited-strategy model:
/// everyone relays to all friends, coupons cost nothing).
pub fn plain_ic_benefit(graph: &CsrGraph, data: &NodeData, seeds: &[NodeId]) -> f64 {
    let coupons: Vec<u32> = graph.nodes().map(|v| graph.out_degree(v) as u32).collect();
    SpreadState::evaluate(graph, data, seeds, &coupons).expected_benefit
}

/// The reduced unlimited-strategy objective `B(S) / Cseed(S)`.
pub fn unlimited_rate(graph: &CsrGraph, data: &NodeData, seeds: &[NodeId]) -> f64 {
    let cost: f64 = seeds.iter().map(|&s| data.seed_cost(s)).sum();
    redemption_rate(plain_ic_benefit(graph, data, seeds), cost)
}

/// Greedy solver for the unlimited special case:
/// `argmax B(S)/Cseed(S)` s.t. `Cseed(S) ≤ Binv`. Candidates are the
/// `pool` highest out-degree users; the greedy keeps the best-rate prefix.
pub fn solve_unlimited(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    pool: usize,
) -> (Vec<NodeId>, f64) {
    let mut candidates: Vec<NodeId> = graph.nodes().collect();
    candidates.sort_by_key(|&v| std::cmp::Reverse(graph.out_degree(v)));
    candidates.truncate(pool.max(1));

    let mut seeds: Vec<NodeId> = Vec::new();
    let mut seed_cost = 0.0;
    let mut best: (Vec<NodeId>, f64) = (Vec::new(), 0.0);
    loop {
        let mut choice: Option<(f64, NodeId, f64)> = None;
        for &cand in &candidates {
            if seeds.contains(&cand) {
                continue;
            }
            let c = data.seed_cost(cand);
            if seed_cost + c > binv || c <= 0.0 && seed_cost + c == 0.0 {
                continue;
            }
            let mut trial = seeds.clone();
            trial.push(cand);
            let rate = redemption_rate(plain_ic_benefit(graph, data, &trial), seed_cost + c);
            if choice.as_ref().is_none_or(|(r, _, _)| rate > *r) {
                choice = Some((rate, cand, c));
            }
        }
        let Some((rate, cand, c)) = choice else { break };
        seeds.push(cand);
        seed_cost += c;
        if rate >= best.1 {
            best = (seeds.clone(), rate);
        }
    }
    best
}

/// Solve the limited special case: the allocation is pre-determined
/// (`k` coupons for every user the spread reaches), seeds are greedily
/// chosen for redemption rate under the full budget. Returns the deployment
/// and its objective.
pub fn solve_limited(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    k: u32,
    pool: usize,
) -> (Deployment, ObjectiveValue) {
    let mut candidates: Vec<NodeId> = graph.nodes().collect();
    candidates.sort_by_key(|&v| std::cmp::Reverse(graph.out_degree(v)));
    candidates.truncate(pool.max(1));

    let n = graph.node_count();
    let mut seeds: Vec<NodeId> = Vec::new();
    let mut best_dep = Deployment::empty(n);
    let mut best_val = ObjectiveValue::default();
    loop {
        let mut choice: Option<(f64, NodeId, Deployment, ObjectiveValue)> = None;
        for &cand in &candidates {
            if seeds.contains(&cand) {
                continue;
            }
            let mut trial_seeds = seeds.clone();
            trial_seeds.push(cand);
            let dep = limited_deployment(graph, &trial_seeds, k);
            let val = objective::evaluate(graph, data, &dep);
            if !val.within_budget(binv) {
                continue;
            }
            if choice.as_ref().is_none_or(|(r, _, _, _)| val.rate > *r) {
                choice = Some((val.rate, cand, dep, val));
            }
        }
        let Some((rate, cand, dep, val)) = choice else {
            break;
        };
        seeds.push(cand);
        if rate >= best_val.rate {
            best_dep = dep;
            best_val = val;
        }
    }
    (best_dep, best_val)
}

/// The limited strategy's deployment: `min(k, degree)` coupons for every
/// node reachable from the seeds.
pub fn limited_deployment(graph: &CsrGraph, seeds: &[NodeId], k: u32) -> Deployment {
    let mut dep = Deployment::empty(graph.node_count());
    for &s in seeds {
        dep.add_seed(s);
    }
    for v in osn_graph::traversal::reachable_set(graph, seeds) {
        dep.coupons[v.index()] = k.min(graph.out_degree(v) as u32);
    }
    dep
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn two_stars() -> (CsrGraph, NodeData) {
        // Star A: 0 -> {1,2} (p 0.9); star B: 3 -> {4} (p 0.9).
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.9).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        let g = b.build().unwrap();
        let d =
            NodeData::new(vec![1.0; 5], vec![1.0, 50.0, 50.0, 2.0, 50.0], vec![0.5; 5]).unwrap();
        (g, d)
    }

    #[test]
    fn unlimited_rate_is_benefit_over_seed_cost() {
        let (g, d) = two_stars();
        // Seed 0: B = 1 + 0.9 + 0.9 = 2.8; rate 2.8 / 1.
        let r = unlimited_rate(&g, &d, &[NodeId(0)]);
        assert!((r - 2.8).abs() < 1e-9);
        // Seed 3: B = 1.9, cost 2 → 0.95.
        let r3 = unlimited_rate(&g, &d, &[NodeId(3)]);
        assert!((r3 - 0.95).abs() < 1e-9);
    }

    #[test]
    fn solve_unlimited_prefers_the_efficient_star() {
        let (g, d) = two_stars();
        let (seeds, rate) = solve_unlimited(&g, &d, 10.0, 8);
        assert_eq!(seeds[0], NodeId(0));
        assert!((rate - 2.8).abs() < 1e-9, "adding star B would dilute");
        assert_eq!(seeds.len(), 1);
    }

    #[test]
    fn solve_unlimited_respects_budget() {
        let (g, d) = two_stars();
        let (seeds, _) = solve_unlimited(&g, &d, 0.5, 8);
        assert!(seeds.is_empty(), "no seed costs ≤ 0.5");
    }

    #[test]
    fn limited_deployment_caps_by_k_and_degree() {
        let (g, _) = two_stars();
        let dep = limited_deployment(&g, &[NodeId(0)], 1);
        assert_eq!(dep.coupons[0], 1, "degree 2 capped at k = 1");
        assert_eq!(dep.coupons[1], 0, "leaf has no out-edges");
        assert_eq!(dep.coupons[3], 0, "unreachable from seed 0");
    }

    #[test]
    fn solve_limited_matches_general_objective_on_restricted_space() {
        // The reduction claim: limited-strategy solving is S3CRM restricted
        // to (seed set, fixed K̂); the returned objective must equal the
        // general evaluation of the returned deployment.
        let (g, d) = two_stars();
        let (dep, val) = solve_limited(&g, &d, 10.0, 2, 8);
        let recheck = objective::evaluate(&g, &d, &dep);
        assert!((val.rate - recheck.rate).abs() < 1e-12);
        assert!(!dep.seeds.is_empty());
    }

    #[test]
    fn unlimited_model_is_plain_ic() {
        // With full out-degree coupons the coupon constraint never binds,
        // so benefit must equal the IC closed form on this forest.
        let (g, d) = two_stars();
        let b = plain_ic_benefit(&g, &d, &[NodeId(0), NodeId(3)]);
        assert!((b - (1.0 + 0.9 + 0.9 + 1.0 + 0.9)).abs() < 1e-9);
    }
}
