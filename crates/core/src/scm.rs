//! Phase 3 — SC Maneuver (Alg. 1 lines 25–39 and Alg. 3, DIMD).
//!
//! Reallocates already-invested coupons toward guaranteed paths that reach
//! valuable inactive users. Quantities involved:
//!
//! * **Amelioration Index** `Ia(g(s,v_i)) = Ba / Ca`: the guaranteed path's
//!   incremental benefit over its nearest *possibly activated* ascendant's
//!   path, per unit of incremental guaranteed cost.
//! * **Deterioration Index** `Id(Δv_j(k))`: the expected benefit lost per
//!   unit of expected SC cost recovered when retrieving `k` coupons from a
//!   donor `v_j` (evaluated against the live tentative deployment).
//! * **Maneuver Gap** `β`: the bar a donor must clear. We instantiate `β`
//!   as the path's amelioration index — donating is only sensible while the
//!   donor's loss rate undercuts the path's gain rate. (The paper's
//!   `β^{m,M*}` is the marginal form of the same quantity; this module uses
//!   the constant-β simplification.)
//!
//! A guaranteed path is *created* only when (a) the full coupon deficit
//! `δK` could be sourced from donors with `Id < β`, and (b) the resulting
//! deployment strictly improves the global redemption rate within budget —
//! otherwise every tentative operation for that path is rolled back
//! (Alg. 1 lines 37–38).

use crate::deployment::Deployment;
use crate::gpi::GpForest;
use crate::objective::{self, ObjectiveValue};
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::{BenefitEstimator, DeltaScratch, EngineCounters, SpreadEngine};

/// Summary of the maneuvering phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScmStats {
    /// Paths actually created (committed maneuvers).
    pub paths_created: usize,
    /// Total coupons moved by committed maneuvers.
    pub coupons_moved: u64,
    /// Spread-engine effort spent planning and committing maneuvers
    /// (tentative plans included, the initial engine build excluded — a
    /// no-op SCM phase reports zeros).
    pub eval: EngineCounters,
}

/// A scored guaranteed-path candidate.
struct Candidate {
    forest: usize,
    visit_index: usize,
    amelioration: f64,
}

/// Run the SC-Maneuver phase in place; returns the final objective and
/// statistics. SCM runs on the exact analytic [`SpreadEngine`]: maneuver
/// planning is dominated by O(deg) removal probes, which the engine serves
/// from cached holder DPs, so there is nothing for a sampling backend to
/// speed up here. The engine's ledger is the live deployment; a tentative
/// plan runs on an engine clone and is committed only when its objective
/// strictly improves within budget.
pub fn sc_maneuver(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    dep: &mut Deployment,
    forests: &[GpForest],
    max_paths: usize,
) -> (ObjectiveValue, ScmStats) {
    let mut stats = ScmStats::default();
    // Tentative plans run on clones (which reuse every cached holder DP),
    // so no maneuver ever re-evaluates the spread from scratch.
    let mut engine = SpreadEngine::new(graph, data, &dep.seeds, &dep.coupons);
    let mut current = objective::value_from_estimator(&engine);
    let mut scratch = DeltaScratch::default();

    let mut candidates = collect_candidates(forests, &engine, &current);
    // Descending amelioration index (Alg. 1 line 26).
    candidates.sort_by(|a, b| {
        b.amelioration
            .partial_cmp(&a.amelioration)
            .expect("AI values are finite")
    });

    for cand in candidates.into_iter().take(max_paths) {
        let forest = &forests[cand.forest];
        // Re-check activatability against the *current* deployment: an
        // earlier committed maneuver may have funded this path's parent.
        if !parent_unfunded(forest, cand.visit_index, engine.ledger().coupons()) {
            continue;
        }
        let beta = cand.amelioration;
        if let Some((tentative, moved)) = plan_maneuver(
            forest,
            cand.visit_index,
            beta,
            &engine,
            &mut scratch,
            &mut stats.eval,
        ) {
            let value = objective::value_from_estimator(&tentative);
            if value.rate > current.rate * (1.0 + 1e-12) && value.within_budget(binv) {
                engine = tentative;
                current = value;
                stats.paths_created += 1;
                stats.coupons_moved += moved;
            }
        }
    }
    if stats.paths_created > 0 {
        *dep = Deployment::from(engine.ledger());
    }
    (current, stats)
}

/// Filter GPs by the Alg. 1 line-28 preconditions and score their AIs.
fn collect_candidates(
    forests: &[GpForest],
    state: &SpreadEngine,
    current: &ObjectiveValue,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (fi, forest) in forests.iter().enumerate() {
        for (visit_index, path) in forest.paths.iter().enumerate() {
            if forest.visits[visit_index].level == 0 {
                continue; // the seed itself is trivially "reached"
            }
            // Condition 1: guaranteed cost within the invested SC budget.
            if path.cost > current.sc_cost {
                continue;
            }
            // Condition 2: endpoint not already activatable (its GP parent
            // holds no coupons in D*).
            if !parent_unfunded(forest, visit_index, state.ledger().coupons()) {
                continue;
            }
            // Amelioration index against the nearest possibly activated
            // ascendant's path.
            let Some(anchor) = nearest_activated_ascendant(forest, visit_index, state) else {
                continue;
            };
            let base = &forest.paths[anchor];
            let dc = path.cost - base.cost;
            if dc <= 0.0 {
                continue;
            }
            let db = path.benefit - base.benefit;
            if db <= 0.0 {
                continue;
            }
            out.push(Candidate {
                forest: fi,
                visit_index,
                amelioration: db / dc,
            });
        }
    }
    out
}

/// Whether the endpoint's DFS parent holds no coupons (the paper's
/// `K_p ∈ K(I*) = 0` precondition).
fn parent_unfunded(forest: &GpForest, visit_index: usize, coupons: &[u32]) -> bool {
    match forest.visits[visit_index].parent {
        Some(p) => coupons[forest.visits[p].node.index()] == 0,
        None => false,
    }
}

/// Nearest ascendant (by DFS parent chain) that is possibly activated under
/// the current deployment — positive activation probability or a seed.
fn nearest_activated_ascendant(
    forest: &GpForest,
    visit_index: usize,
    state: &SpreadEngine,
) -> Option<usize> {
    forest.ascendants(visit_index).find(|&i| {
        let node = forest.visits[i].node;
        state.active_prob()[node.index()] > 0.0 || state.ledger().is_seed(node)
    })
}

/// Try to fund the GP at `visit_index` by retrieving coupons from minimum-DI
/// donors (Alg. 3). Returns the funded tentative engine and the number of
/// coupons moved, or `None` when the deficit cannot be sourced under the
/// `Id < β` gate. Engine effort — whether or not the plan survives —
/// accumulates into `eval`.
fn plan_maneuver<'a>(
    forest: &GpForest,
    visit_index: usize,
    beta: f64,
    base_engine: &SpreadEngine<'a>,
    scratch: &mut DeltaScratch,
    eval: &mut EngineCounters,
) -> Option<(SpreadEngine<'a>, u64)> {
    // Receiver targets: the GP's K̂ allocation.
    let allocation = forest.allocation(visit_index);
    let coupons = base_engine.ledger().coupons();
    let mut target = vec![0u32; coupons.len()];
    for &(node, k) in &allocation {
        target[node.index()] = k;
    }
    // Deficits in GP member order (ascendants first — Alg. 3 fills from the
    // nearest activated ascendant downward).
    let mut receivers: Vec<NodeId> = Vec::new();
    let mut deficit_total = 0u64;
    for &(node, k) in &allocation {
        let have = coupons[node.index()];
        if k > have {
            receivers.push(node);
            deficit_total += (k - have) as u64;
        }
    }
    if deficit_total == 0 {
        return None; // already funded; nothing to maneuver
    }

    let mut engine = base_engine.clone();
    let counters_at_clone = engine.counters();
    let mut moved = 0u64;
    let mut recv_idx = 0usize;
    let outcome = loop {
        if moved >= deficit_total {
            break Some(moved);
        }
        // Advance to the next receiver still below target.
        while recv_idx < receivers.len()
            && engine.ledger().coupons()[receivers[recv_idx].index()]
                >= target[receivers[recv_idx].index()]
        {
            recv_idx += 1;
        }
        let Some(&receiver) = receivers.get(recv_idx) else {
            break None;
        };

        // Pick the donor with minimum deterioration index under the current
        // tentative allocation.
        let Some(donor) = best_donor(&engine, &target, beta, scratch) else {
            break None;
        };
        engine.remove_coupons(donor, 1);
        let (added, _) = engine.add_coupons(receiver, 1);
        if added == 0 {
            break None; // receiver saturated by out-degree; path infeasible
        }
        moved += 1;
    };
    *eval = eval.merged(&engine.counters().since(&counters_at_clone));
    outcome.map(|moved| (engine, moved))
}

/// Donor with minimal DI among nodes holding spare coupons (allocation above
/// their GP target), subject to `Id < β`. The candidates are the ledger's
/// holders in ascending node order, so ties go to the lowest node. DIs are
/// first-order removal deltas against the tentative deployment's spread
/// state, served from the engine's cached holder DPs.
fn best_donor(
    engine: &SpreadEngine,
    target: &[u32],
    beta: f64,
    scratch: &mut DeltaScratch,
) -> Option<NodeId> {
    let coupons = engine.ledger().coupons();
    let mut best: Option<(f64, NodeId)> = None;
    for &node in engine.ledger().holder_nodes() {
        if coupons[node.index()] <= target[node.index()] {
            continue; // no spare coupons beyond the GP's own needs
        }
        let (db, dc) = engine.coupon_removal_delta(node, scratch);
        let benefit_loss = -db;
        let cost_saved = -dc;
        let di = if cost_saved > 0.0 {
            benefit_loss / cost_saved
        } else if benefit_loss <= 0.0 {
            0.0 // free retrieval: no benefit lost, no cost saved
        } else {
            f64::MAX
        };
        if di < beta {
            match best {
                Some((b, _)) if b <= di => {}
                _ => best = Some((di, node)),
            }
        }
    }
    best.map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpi::identify_guaranteed_paths;
    use crate::id_phase::ExploreTracker;
    use osn_graph::GraphBuilder;

    /// The SCM showcase: a cheap seed whose local chain is mediocre plus a
    /// remote high-benefit user behind high-probability cheap edges.
    ///
    /// v0 → v3 (0.9) → v4 (0.95, benefit 50); v0 → v1 (0.6) → v2 (0.5).
    fn showcase() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3, 0.9).unwrap();
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(3, 4, 0.95).unwrap();
        let mut sc = vec![100.0; 5];
        sc[0] = 0.1;
        (
            b.build().unwrap(),
            NodeData::new(vec![1.0, 1.0, 1.0, 1.0, 50.0], sc, vec![1.0; 5]).unwrap(),
        )
    }

    #[test]
    fn maneuver_moves_coupon_toward_high_benefit_path() {
        let (g, d) = showcase();
        // Start from a deliberately suboptimal deployment: v0 has 2 coupons
        // and v1 relays deeper into the low-benefit chain, while v3 (the
        // gateway to the benefit-50 user) holds nothing.
        let mut dep = Deployment::empty(5);
        dep.add_seed(NodeId(0));
        dep.add_coupons(&g, NodeId(0), 2);
        dep.add_coupons(&g, NodeId(1), 1);
        let before = objective::evaluate(&g, &d, &dep);

        let mut tracker = ExploreTracker::new(5);
        let forests = identify_guaranteed_paths(&g, &d, &dep, 4.0, &mut tracker);
        let (after, stats) = sc_maneuver(&g, &d, 4.0, &mut dep, &forests, 100);

        assert!(stats.paths_created >= 1, "no maneuver committed: {stats:?}");
        assert!(
            after.rate > before.rate,
            "rate must improve: {} -> {}",
            before.rate,
            after.rate
        );
        assert!(
            dep.coupons[3] >= 1,
            "v3 should now hold a coupon to reach the benefit-50 user"
        );
    }

    #[test]
    fn no_maneuver_when_deployment_is_already_good() {
        let (g, d) = showcase();
        // Already optimal shape: v0 and v3 funded.
        let mut dep = Deployment::empty(5);
        dep.add_seed(NodeId(0));
        dep.add_coupons(&g, NodeId(0), 1);
        dep.add_coupons(&g, NodeId(3), 1);
        let before = objective::evaluate(&g, &d, &dep);
        let mut tracker = ExploreTracker::new(5);
        let forests = identify_guaranteed_paths(&g, &d, &dep, 4.0, &mut tracker);
        let (after, _) = sc_maneuver(&g, &d, 4.0, &mut dep, &forests, 100);
        assert!(after.rate >= before.rate - 1e-12, "SCM must never hurt");
    }

    #[test]
    fn rate_never_decreases() {
        let (g, d) = showcase();
        for coupons in [(1u32, 0u32), (2, 1), (2, 0)] {
            let mut dep = Deployment::empty(5);
            dep.add_seed(NodeId(0));
            dep.add_coupons(&g, NodeId(0), coupons.0);
            dep.add_coupons(&g, NodeId(1), coupons.1);
            let before = objective::evaluate(&g, &d, &dep);
            let mut tracker = ExploreTracker::new(5);
            let forests = identify_guaranteed_paths(&g, &d, &dep, 4.0, &mut tracker);
            let (after, _) = sc_maneuver(&g, &d, 4.0, &mut dep, &forests, 100);
            assert!(after.rate >= before.rate - 1e-12);
            assert!(after.within_budget(4.0));
        }
    }

    #[test]
    fn empty_forests_are_a_no_op() {
        let (g, d) = showcase();
        let mut dep = Deployment::empty(5);
        dep.add_seed(NodeId(0));
        dep.add_coupons(&g, NodeId(0), 1);
        let before = objective::evaluate(&g, &d, &dep);
        let (after, stats) = sc_maneuver(&g, &d, 4.0, &mut dep, &[], 100);
        assert_eq!(stats, ScmStats::default());
        assert_eq!(after, before);
    }
}
