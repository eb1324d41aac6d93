//! Reverse-influence sampling (RIS) seed selection.
//!
//! Sec. V of the paper notes that benefit estimation "can be speeded up by
//! Monte Carlo [2] and reverse greedy methods [15]" — the TIM/IMM family.
//! This module implements the reverse-greedy primitive for the plain IC
//! model: sample **reverse-reachable (RR) sets** (the nodes that could have
//! influenced a uniformly random target under one coin-flip world) and pick
//! seeds by greedy maximum coverage over them. The expected influence of a
//! seed set is `n · (covered fraction of RR sets)`.
//!
//! RIS replaces the forward CELF greedy of [`im`](crate::im) as the ranking
//! stage when graphs get large: sampling cost concentrates on the targets'
//! in-neighborhoods instead of simulating full cascades per candidate.

use osn_graph::{CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Knobs of the RIS ranking.
#[derive(Clone, Copy, Debug)]
pub struct RisConfig {
    /// Number of RR sets sampled (θ). Estimation error decays as
    /// `O(sqrt(n/θ))`.
    pub rr_sets: usize,
    /// RNG seed.
    pub rng_seed: u64,
}

impl Default for RisConfig {
    fn default() -> Self {
        RisConfig {
            rr_sets: 10_000,
            rng_seed: 0x5EED_0515,
        }
    }
}

/// One reverse-reachable set: every node with a live reverse path to the
/// target under fresh coin flips (plain IC — each in-edge of a visited node
/// is live with its influence probability).
pub fn sample_rr_set<R: Rng>(graph: &CsrGraph, target: NodeId, rng: &mut R) -> Vec<NodeId> {
    let mut set = vec![target];
    let mut visited = std::collections::HashSet::new();
    visited.insert(target);
    let mut frontier = vec![target];
    while let Some(v) = frontier.pop() {
        for (u, p) in graph.ranked_in(v) {
            if !visited.contains(&u) && p > 0.0 && rng.gen_bool(p) {
                visited.insert(u);
                set.push(u);
                frontier.push(u);
            }
        }
    }
    set
}

/// Greedy maximum-coverage seed ranking over `cfg.rr_sets` RR sets.
/// Returns up to `max_seeds` seeds with their (cumulative) estimated
/// influence spread.
pub fn ris_seed_ranking(graph: &CsrGraph, cfg: &RisConfig, max_seeds: usize) -> Vec<(NodeId, f64)> {
    let n = graph.node_count();
    if n == 0 || max_seeds == 0 || cfg.rr_sets == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(cfg.rng_seed);
    // Sample θ RR sets of uniformly random targets.
    let sets: Vec<Vec<NodeId>> = (0..cfg.rr_sets)
        .map(|_| {
            let target = NodeId(rng.gen_range(0..n as u32));
            sample_rr_set(graph, target, &mut rng)
        })
        .collect();

    // node -> indices of RR sets containing it.
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, set) in sets.iter().enumerate() {
        for &v in set {
            membership[v.index()].push(i as u32);
        }
    }
    let mut counts: Vec<u32> = membership.iter().map(|m| m.len() as u32).collect();
    let mut covered = vec![false; sets.len()];
    let mut covered_total = 0usize;

    let mut ranking = Vec::with_capacity(max_seeds);
    for _ in 0..max_seeds.min(n) {
        let best = (0..n).max_by_key(|&i| counts[i]).expect("n > 0");
        if counts[best] == 0 {
            break; // nothing left to cover
        }
        // Mark the newly covered sets and discount other members.
        for &si in &membership[best] {
            if !covered[si as usize] {
                covered[si as usize] = true;
                covered_total += 1;
                for &v in &sets[si as usize] {
                    counts[v.index()] = counts[v.index()].saturating_sub(1);
                }
            }
        }
        let influence = n as f64 * covered_total as f64 / sets.len() as f64;
        ranking.push((NodeId(best as u32), influence));
    }
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::influence_spread;
    use osn_graph::GraphBuilder;
    use osn_propagation::world::WorldCache;

    fn hub_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(8);
        for v in 1..5 {
            b.add_edge(0, v, 0.9).unwrap();
        }
        b.add_edge(5, 6, 0.9).unwrap();
        b.add_edge(6, 7, 0.9).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rr_set_contains_the_target() {
        let g = hub_graph();
        let mut rng = SmallRng::seed_from_u64(1);
        for v in g.nodes() {
            let set = sample_rr_set(&g, v, &mut rng);
            assert!(set.contains(&v));
        }
    }

    #[test]
    fn rr_sets_of_hub_children_usually_contain_the_hub() {
        let g = hub_graph();
        let mut rng = SmallRng::seed_from_u64(2);
        let hits = (0..200)
            .filter(|_| sample_rr_set(&g, NodeId(1), &mut rng).contains(&NodeId(0)))
            .count();
        // p = 0.9 edge: expect ≈ 180.
        assert!(hits > 150, "hub appeared in only {hits}/200 RR sets");
    }

    #[test]
    fn ris_ranks_the_hub_first() {
        let g = hub_graph();
        let ranking = ris_seed_ranking(&g, &RisConfig::default(), 3);
        assert_eq!(ranking[0].0, NodeId(0));
        // Second pick complements: the chain head.
        assert_eq!(ranking[1].0, NodeId(5));
    }

    #[test]
    fn influence_estimates_match_forward_simulation() {
        let g = hub_graph();
        let ranking = ris_seed_ranking(
            &g,
            &RisConfig {
                rr_sets: 40_000,
                rng_seed: 3,
            },
            1,
        );
        let (seed, ris_est) = ranking[0];
        let cache = WorldCache::sample(&g, 4000, 17);
        let forward = influence_spread(&g, &cache, &[seed]);
        assert!(
            (ris_est - forward).abs() < 0.35,
            "RIS {ris_est} vs forward {forward}"
        );
    }

    #[test]
    fn empty_inputs() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(ris_seed_ranking(&g, &RisConfig::default(), 3).is_empty());
        let g2 = hub_graph();
        assert!(ris_seed_ranking(&g2, &RisConfig::default(), 0).is_empty());
    }

    #[test]
    fn ranking_stops_when_coverage_is_exhausted() {
        // Isolated nodes: each RR set is a singleton; after covering all
        // targets no further seed adds coverage.
        let g = GraphBuilder::new(3).build().unwrap();
        let ranking = ris_seed_ranking(
            &g,
            &RisConfig {
                rr_sets: 300,
                rng_seed: 5,
            },
            3,
        );
        assert_eq!(ranking.len(), 3);
        let (_, last) = ranking[2];
        assert!((last - 3.0).abs() < 1e-9, "full coverage = n");
    }
}
