//! Influence maximization — **IM-U** / **IM-L** (Sec. VI-A).
//!
//! Selection follows Kempe et al.'s greedy hill climbing with CELF lazy
//! re-evaluation over the Monte-Carlo world cache; the marginal influence of
//! a candidate is its average newly-reached mass across worlds under plain
//! IC (no coupon constraint — IM is oblivious to SC allocation, which is
//! the paper's whole point). To keep the first CELF sweep affordable the
//! candidate pool is restricted to the [`CANDIDATE_POOL`] highest
//! out-degree users (a standard IM engineering practice), and the
//! whole-pool round-0 sweep fans out with `osn-pool`'s one primitive,
//! `map_indexed`, on the shared pool (per-candidate gains land in
//! index-order slots, so the ranking is independent of the worker count).
//!
//! The paper then pairs the ranking with a coupon strategy and sweeps the
//! seed size over `|V|/2^n (n = 0..10)`, keeping the size of maximum
//! influence among those whose total cost fits `Binv` — all sweep sizes are
//! scored in one batched pass over the world cache. The costs of the ledger
//! [`CouponStrategy::deploy`] funds decide feasibility.

use crate::common::{seed_size_sweep, top_out_degree, CANDIDATE_POOL, MAX_SEEDS};
use crate::strategy::CouponStrategy;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::world::{WorldCache, WorldRef};
use osn_propagation::{DeploymentRef, McBackend};
use s3crm_core::deployment::Deployment;
use s3crm_core::objective;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Knobs of the IM baseline: its world cache. The candidate pool and the
/// seed cap are the fixed [`CANDIDATE_POOL`] and [`MAX_SEEDS`].
#[derive(Clone, Copy, Debug)]
pub struct ImConfig {
    /// Worlds used for influence estimation.
    pub worlds: usize,
    /// World-sampling seed.
    pub rng_seed: u64,
}

impl Default for ImConfig {
    fn default() -> Self {
        ImConfig {
            worlds: 32,
            rng_seed: 0x1357_9bdf,
        }
    }
}

#[derive(PartialEq)]
struct CelfEntry {
    gain: f64,
    node: NodeId,
    round: usize,
}

impl Eq for CelfEntry {}

impl Ord for CelfEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .expect("gains are finite")
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for CelfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy influence ranking with CELF over `cache`, fanning round 0 out on
/// the shared [`osn_pool::global`] pool.
pub fn greedy_seed_ranking(
    graph: &CsrGraph,
    cache: &WorldCache,
    candidate_pool: usize,
    max_seeds: usize,
) -> Vec<NodeId> {
    greedy_seed_ranking_on(graph, cache, candidate_pool, max_seeds, osn_pool::global())
}

/// [`greedy_seed_ranking`] on an explicit worker pool. The pool size never
/// changes the ranking (gains land in index-order slots); tests pin that
/// with size-1 and size-2 pools, mirroring `McBackend::evaluator_on`.
pub fn greedy_seed_ranking_on(
    graph: &CsrGraph,
    cache: &WorldCache,
    candidate_pool: usize,
    max_seeds: usize,
    workers: &osn_pool::ThreadPool,
) -> Vec<NodeId> {
    let n = graph.node_count();
    if n == 0 || max_seeds == 0 {
        return Vec::new();
    }
    let pool = top_out_degree(graph, candidate_pool);

    // Per-world activation bitmap shared across greedy rounds.
    let unlimited: Vec<u32> = graph.nodes().map(|v| graph.out_degree(v) as u32).collect();
    let mut active: Vec<Vec<bool>> = vec![vec![false; n]; cache.len()];

    // Marginal gain of `v` against the current per-world active sets; the
    // BFS reads each world in place and touches only its lane block's
    // union-live out-edges.
    let marginal = |v: NodeId, active: &[Vec<bool>]| -> f64 {
        let mut total = 0usize;
        for (w, act) in active.iter().enumerate() {
            if act[v.index()] {
                continue;
            }
            total += newly_reached(v, &unlimited, cache.world(w), act);
        }
        total as f64 / cache.len().max(1) as f64
    };

    // Round 0 touches every candidate — fan it out on the shared pool.
    // Gains land in index-order slots, so the heap (and thus the ranking)
    // is identical at any worker count.
    let gains: Vec<f64> = workers.map_indexed(pool.len(), |i| marginal(pool[i], &active));
    let mut heap: BinaryHeap<CelfEntry> = pool
        .iter()
        .zip(gains)
        .map(|(&v, gain)| CelfEntry {
            gain,
            node: v,
            round: 0,
        })
        .collect();

    let mut ranking = Vec::with_capacity(max_seeds);
    let mut round = 0usize;
    while ranking.len() < max_seeds {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Fresh evaluation: commit the seed and update world states.
            commit_seed(top.node, &unlimited, cache, &mut active);
            ranking.push(top.node);
            round += 1;
        } else {
            let gain = marginal(top.node, &active);
            heap.push(CelfEntry {
                gain,
                node: top.node,
                round,
            });
        }
    }
    ranking
}

/// Count nodes newly reached from `v` in one world (plain IC), without
/// mutating the activation sets.
fn newly_reached(v: NodeId, unlimited: &[u32], world: WorldRef<'_>, active: &[bool]) -> usize {
    // Cascade from {v}; already-active nodes block expansion exactly as in
    // the incremental greedy.
    let mut frontier = vec![v];
    let mut seen = std::collections::HashSet::new();
    seen.insert(v);
    let mut count = 1usize;
    while let Some(u) = frontier.pop() {
        let mut remaining = unlimited[u.index()];
        if remaining == 0 {
            continue;
        }
        world.for_live_out(u, |t| {
            if !active[t.index()] && !seen.contains(&t) {
                seen.insert(t);
                remaining -= 1;
                count += 1;
                frontier.push(t);
            }
            remaining > 0
        });
    }
    count
}

fn commit_seed(v: NodeId, unlimited: &[u32], cache: &WorldCache, active: &mut [Vec<bool>]) {
    for (w, act) in active.iter_mut().enumerate() {
        if act[v.index()] {
            continue;
        }
        let world = cache.world(w);
        act[v.index()] = true;
        let mut frontier = vec![v];
        while let Some(u) = frontier.pop() {
            let mut remaining = unlimited[u.index()];
            if remaining == 0 {
                continue;
            }
            world.for_live_out(u, |t| {
                if !act[t.index()] {
                    act[t.index()] = true;
                    remaining -= 1;
                    frontier.push(t);
                }
                remaining > 0
            });
        }
    }
}

/// IM paired with a coupon strategy under budget `binv`: the paper's
/// seed-size sweep keeps the feasible size of maximum influence.
pub fn im_with_strategy(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    strategy: CouponStrategy,
    cfg: &ImConfig,
) -> Deployment {
    let backend = McBackend::sample(graph, cfg.worlds, cfg.rng_seed);
    let ranking = greedy_seed_ranking(graph, backend.cache(), CANDIDATE_POOL, MAX_SEEDS);
    best_feasible_prefix(graph, data, binv, strategy, &ranking, &backend)
}

/// The paper's seed-size sweep over a precomputed influence ranking: try
/// prefixes of size `|V|/2^n`, keep the budget-feasible one of maximum
/// influence. Shared by the CELF-greedy ranking above and the RIS ranking
/// of [`ris`](crate::ris). All feasible prefixes are scored by **one
/// batched pass** over the world cache ("the seed size resulting in the
/// maximum influence is selected": influence is the mean activated count
/// under the strategy's coupons, with unit benefits).
pub fn best_feasible_prefix(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    strategy: CouponStrategy,
    ranking: &[NodeId],
    backend: &McBackend,
) -> Deployment {
    best_feasible_prefix_on(
        graph,
        data,
        binv,
        strategy,
        ranking,
        backend,
        osn_pool::global(),
    )
}

/// [`best_feasible_prefix`] scoring its batch on an explicit worker pool,
/// mirroring [`McBackend::evaluator_on`] so tests can force pool sizes
/// (which never change results).
pub fn best_feasible_prefix_on(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    strategy: CouponStrategy,
    ranking: &[NodeId],
    backend: &McBackend,
    workers: &osn_pool::ThreadPool,
) -> Deployment {
    let mut candidates: Vec<Deployment> = Vec::new();
    for size in seed_size_sweep(graph.node_count()) {
        if size > ranking.len() {
            continue;
        }
        let ledger = strategy.deploy(graph, data, &ranking[..size], binv);
        if objective::fits_budget(ledger.seed_cost() + ledger.sc_cost(), binv) {
            candidates.push(Deployment::from(&ledger));
        }
    }
    if candidates.is_empty() {
        return Deployment::empty(graph.node_count());
    }
    let unit = NodeData::uniform(graph.node_count(), 1.0, 0.0, 0.0);
    let ev = backend.evaluator_on(graph, &unit, workers);
    let batch: Vec<DeploymentRef<'_>> = candidates.iter().map(DeploymentRef::from).collect();
    let influences = ev.simulate_batch(&batch);
    // Strictly-greater keeps the smallest of tied sizes, matching the old
    // ascending serial sweep.
    let mut best = 0;
    for (i, stats) in influences.iter().enumerate().skip(1) {
        if stats.mean_activated > influences[best].mean_activated {
            best = i;
        }
    }
    candidates.swap_remove(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    /// A hub (node 0, degree 4) and a periphery chain.
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
    fn greedy_picks_the_hub_first() {
        let g = hub_graph();
        let cache = WorldCache::sample(&g, 64, 1);
        let ranking = greedy_seed_ranking(&g, &cache, 8, 3);
        assert_eq!(ranking[0], NodeId(0));
    }

    #[test]
    fn second_seed_complements_the_first() {
        let g = hub_graph();
        let cache = WorldCache::sample(&g, 64, 2);
        let ranking = greedy_seed_ranking(&g, &cache, 8, 2);
        // The chain head (5) adds ~2.7 new nodes; any hub neighbor adds ≤ 1.
        assert_eq!(ranking[1], NodeId(5));
    }

    #[test]
    fn im_respects_budget() {
        let g = hub_graph();
        let d = NodeData::uniform(8, 1.0, 2.0, 1.0);
        for binv in [2.0, 4.0, 8.0] {
            let dep = im_with_strategy(
                &g,
                &d,
                binv,
                CouponStrategy::Unlimited,
                &ImConfig::default(),
            );
            let v = objective::evaluate(&g, &d, &dep);
            assert!(v.within_budget(binv), "cost {} > {binv}", v.total_cost());
        }
    }

    #[test]
    fn larger_budget_buys_more_seeds() {
        let g = hub_graph();
        let d = NodeData::uniform(8, 1.0, 2.0, 1.0);
        let small = im_with_strategy(&g, &d, 2.5, CouponStrategy::Unlimited, &ImConfig::default());
        let large = im_with_strategy(
            &g,
            &d,
            50.0,
            CouponStrategy::Unlimited,
            &ImConfig::default(),
        );
        assert!(large.seeds.len() >= small.seeds.len());
        assert!(!large.seeds.is_empty());
    }

    #[test]
    fn limited_strategy_caps_coupons() {
        let g = hub_graph();
        let d = NodeData::uniform(8, 1.0, 2.0, 1.0);
        let dep = im_with_strategy(
            &g,
            &d,
            50.0,
            CouponStrategy::Limited(2),
            &ImConfig::default(),
        );
        for &k in &dep.coupons {
            assert!(k <= 2);
        }
    }

    #[test]
    fn empty_graph_yields_empty_deployment() {
        let g = GraphBuilder::new(0).build().unwrap();
        let d = NodeData::uniform(0, 1.0, 1.0, 1.0);
        let dep = im_with_strategy(&g, &d, 1.0, CouponStrategy::Unlimited, &ImConfig::default());
        assert!(dep.seeds.is_empty());
    }
}
