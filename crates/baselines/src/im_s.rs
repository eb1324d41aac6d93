//! **IM-S** — the paper's two-stage heuristic baseline (Sec. VI-A).
//!
//! Stage 1 runs the existing IM algorithm. Stage 2 "connects every two
//! seeds with the shortest paths, where the weight of each edge `e(i,j)` is
//! `1 − P(e(i,j))`", then "uniformly distributes SCs to the users in the
//! paths such that the overall seed cost and SC cost satisfy the investment
//! budget constraint": coupons are added to path users one round at a time
//! (one coupon per user per round) until the next round would break the
//! budget.

use crate::common::{CANDIDATE_POOL, MAX_SEEDS};
use crate::im::{greedy_seed_ranking, ImConfig};
use osn_graph::shortest_path::dijkstra_one_minus_p;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::world::WorldCache;
use osn_propagation::Ledger;
use s3crm_core::deployment::Deployment;
use s3crm_core::objective;

/// Run IM-S under budget `binv`.
pub fn im_s(graph: &CsrGraph, data: &NodeData, binv: f64, cfg: &ImConfig) -> Deployment {
    let n = graph.node_count();
    let cache = WorldCache::sample(graph, cfg.worlds, cfg.rng_seed);
    let ranking = greedy_seed_ranking(graph, &cache, CANDIDATE_POOL, MAX_SEEDS);

    // Stage 1: the longest affordable seed prefix (seed cost only — the SC
    // budget is consumed by stage 2).
    let mut seeds: Vec<NodeId> = Vec::new();
    let mut seed_cost = 0.0;
    for &v in &ranking {
        let c = data.seed_cost(v);
        if seed_cost + c > binv {
            break;
        }
        seed_cost += c;
        seeds.push(v);
    }
    let mut dep = Deployment::empty(n);
    if seeds.is_empty() {
        return dep;
    }
    for &s in &seeds {
        dep.add_seed(s);
    }

    // Stage 2: union of 1−P shortest-path users between every seed pair.
    let mut on_path = vec![false; n];
    for &s in &seeds {
        let sp = dijkstra_one_minus_p(graph, s);
        for &t in &seeds {
            if t == s {
                continue;
            }
            if let Some(path) = sp.path_to(t) {
                for v in path {
                    on_path[v.index()] = true;
                }
            }
        }
    }
    // Seeds are on their own paths by construction; with a single seed the
    // path set is just the seed.
    for &s in &seeds {
        on_path[s.index()] = true;
    }
    let path_users: Vec<NodeId> = (0..n)
        .map(NodeId::from_index)
        .filter(|v| on_path[v.index()])
        .collect();

    // Uniform rounds: +1 coupon to every path user per round while the
    // budget holds, on one ledger (rounds only add coupons); after `r`
    // accepted rounds each path user holds min(r, out-degree) coupons.
    let mut ledger = Ledger::new(graph, data, &dep.seeds, &dep.coupons);
    let mut rounds = 0;
    loop {
        let added: u32 = path_users.iter().map(|&v| ledger.add_coupons(v, 1)).sum();
        if added == 0 || !objective::fits_budget(ledger.seed_cost() + ledger.sc_cost(), binv) {
            break; // every path user is saturated, or the round broke the budget
        }
        rounds += 1;
    }
    for &v in &path_users {
        dep.add_coupons(graph, v, rounds);
    }
    dep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two hubs joined by a high-probability corridor and a low-probability
    /// shortcut: the shortest 1−P path runs through the corridor.
    fn corridor() -> (CsrGraph, NodeData) {
        let mut b = osn_graph::GraphBuilder::new(7);
        // Hubs 0 and 1 with local fans.
        b.add_edge(0, 2, 0.9).unwrap();
        b.add_edge(0, 3, 0.9).unwrap();
        b.add_edge(1, 4, 0.9).unwrap();
        b.add_edge(1, 5, 0.9).unwrap();
        // Corridor 0 -> 6 -> 1 (high probability).
        b.add_edge(0, 6, 0.95).unwrap();
        b.add_edge(6, 1, 0.95).unwrap();
        // Low-probability shortcut 0 -> 1.
        b.add_edge(0, 1, 0.05).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(7, 1.0, 1.0, 0.2);
        (g, d)
    }

    #[test]
    fn coupons_live_on_the_corridor() {
        let (g, d) = corridor();
        let dep = im_s(&g, &d, 10.0, &ImConfig::default());
        assert!(dep.seeds.len() >= 2, "two hubs affordable: {:?}", dep.seeds);
        // The corridor node must hold coupons; fan leaves must not.
        assert!(dep.coupons[6] > 0, "corridor user 6 got no coupons");
        assert_eq!(dep.coupons[2], 0, "fan leaf 2 is off-path");
    }

    #[test]
    fn respects_budget() {
        let (g, d) = corridor();
        for binv in [1.0, 3.0, 10.0] {
            let dep = im_s(&g, &d, binv, &ImConfig::default());
            let v = objective::evaluate(&g, &d, &dep);
            assert!(v.within_budget(binv), "cost {} > {binv}", v.total_cost());
        }
    }

    #[test]
    fn single_affordable_seed_degenerates_gracefully() {
        let (g, mut d) = corridor();
        // Make all but hub 0 unaffordable.
        for (i, c) in d.seed_cost_mut().iter_mut().enumerate() {
            if i != 0 {
                *c = 100.0;
            }
        }
        let dep = im_s(&g, &d, 2.0, &ImConfig::default());
        assert_eq!(dep.seeds.len(), 1);
        // The lone seed may still receive its own uniform coupons.
        assert!(dep.coupons.iter().sum::<u32>() <= g.out_degree(dep.seeds[0]) as u32);
    }

    #[test]
    fn empty_when_no_seed_affordable() {
        let (g, d) = corridor();
        let dep = im_s(&g, &d, 0.1, &ImConfig::default());
        assert!(dep.seeds.is_empty());
    }
}
