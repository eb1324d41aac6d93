//! Shared helpers for the cross-crate integration tests.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_propagation::spread::SpreadState;
use osn_propagation::{
    expected_sc_cost, redemption_rate, seed_cost, EngineCounters, SimulationStats,
};
use s3crm_core::id_phase::{ExploreTracker, IdOutcome, Snapshot};
use s3crm_core::pivot::{PivotQueue, SeedPackage};
use s3crm_core::{Deployment, ObjectiveValue};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A per-test scratch directory that removes itself (and everything in it)
/// when dropped — including on assertion failure, which a trailing
/// `std::fs::remove_file(..).ok()` after the asserts never reaches.
///
/// Directories live under [`std::env::temp_dir`] and embed the process id
/// plus a process-wide counter, so parallel test binaries and parallel
/// tests within one binary never collide.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory tagged `tag` (used in the directory name to
    /// make leftovers attributable if a crash outruns `Drop`).
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("s3crm-test-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory (not created).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Assemble a deployment from a seed list and sparse `(node, k)` pairs.
pub fn deployment(n: usize, seeds: &[u32], coupons: &[(u32, u32)]) -> Deployment {
    let mut dep = Deployment::empty(n);
    for &s in seeds {
        dep.add_seed(NodeId(s));
    }
    for &(v, k) in coupons {
        dep.coupons[v as usize] = k;
    }
    dep
}

/// Analytic `(benefit, total_cost, rate)` of a deployment.
pub fn analytic(graph: &CsrGraph, data: &NodeData, dep: &Deployment) -> (f64, f64, f64) {
    let v = s3crm_core::objective::evaluate(graph, data, dep);
    (v.benefit, v.total_cost(), v.rate)
}

/// A random out-tree rooted at node 0 with per-level branching and distinct
/// edge probabilities (the analytic evaluator is exact on trees, making
/// them the reference instances for evaluator cross-validation).
pub fn random_tree(depth: usize, branching: usize, seed: u64) -> CsrGraph {
    use rand::Rng;
    let mut rng = osn_gen::seeded_rng(seed);
    let mut b = GraphBuilder::new(1000);
    let mut next_id = 1u32;
    let mut frontier = vec![0u32];
    for _ in 0..depth {
        let mut new_frontier = Vec::new();
        for &u in &frontier {
            for _ in 0..branching {
                if next_id as usize >= 1000 {
                    break;
                }
                let p: f64 = rng.gen_range(0.05..0.95);
                b.add_edge(u, next_id, p).unwrap();
                new_frontier.push(next_id);
                next_id += 1;
            }
        }
        frontier = new_frontier;
    }
    b.build().unwrap()
}

/// Uniform unit-value node data sized to `graph` (benefit, seed cost, and
/// SC cost all 1.0) — the workload most consistency tests share.
pub fn unit_data(graph: &CsrGraph) -> NodeData {
    NodeData::uniform(graph.node_count(), 1.0, 1.0, 1.0)
}

/// Field-by-field bit equality of [`SimulationStats`] — stricter than
/// `PartialEq` (distinguishes `0.0` from `-0.0` and would catch
/// NaN-compared-equal regressions). The single source of the bit-identity
/// assertion the determinism and consistency suites are built around.
pub fn assert_stats_bit_identical(a: &SimulationStats, b: &SimulationStats, what: &str) {
    assert_eq!(
        a.expected_benefit.to_bits(),
        b.expected_benefit.to_bits(),
        "{what}: expected_benefit {} vs {}",
        a.expected_benefit,
        b.expected_benefit
    );
    assert_eq!(
        a.mean_activated.to_bits(),
        b.mean_activated.to_bits(),
        "{what}: mean_activated"
    );
    assert_eq!(
        a.mean_redeemed_sc_cost.to_bits(),
        b.mean_redeemed_sc_cost.to_bits(),
        "{what}: mean_redeemed_sc_cost"
    );
    assert_eq!(
        a.mean_farthest_hop.to_bits(),
        b.mean_farthest_hop.to_bits(),
        "{what}: mean_farthest_hop"
    );
}

/// The coupon allocation most consistency tests use on trees: `k = 2` at
/// the root, one coupon on each node id in `1..extra`.
pub fn root_heavy_coupons(n: usize, extra: usize) -> Vec<u32> {
    let mut k = vec![0u32; n];
    if n > 0 {
        k[0] = 2;
    }
    for kv in k.iter_mut().take(extra.min(n)).skip(1) {
        *kv = 1;
    }
    k
}

/// Budget tolerance of the ID loop's feasibility tests.
const BUDGET_EPS: f64 = 1e-9;

/// The objective of `dep` from the from-scratch oracles: `state`'s
/// benefit (`state` must be [`SpreadState::evaluate`] of `dep`),
/// [`expected_sc_cost`] and [`seed_cost`].
pub fn oracle_value(
    graph: &CsrGraph,
    data: &NodeData,
    dep: &Deployment,
    state: &SpreadState,
) -> ObjectiveValue {
    let sc = expected_sc_cost(graph, data, &dep.seeds, &dep.coupons);
    let seed = seed_cost(data, &dep.seeds);
    ObjectiveValue {
        benefit: state.expected_benefit,
        seed_cost: seed,
        sc_cost: sc,
        rate: redemption_rate(state.expected_benefit, seed + sc),
    }
}

/// The original Investment Deployment loop: a from-scratch
/// [`SpreadState`] oracle evaluation after every move and an exhaustive
/// candidate rescan per iteration. The equivalence oracle for
/// `s3crm_core::id_phase::investment_deployment` (pinned by
/// `tests/determinism.rs`).
pub fn investment_deployment_reference(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    explored: &mut ExploreTracker,
    max_iterations: usize,
) -> IdOutcome {
    let n = graph.node_count();
    let mut queue = PivotQueue::build(graph, data, binv);
    let mut dep = Deployment::empty(n);

    let Some(first) = queue.pop() else {
        return IdOutcome {
            deployment: dep,
            objective: ObjectiveValue::default(),
            iterations: 0,
            snapshots: Vec::new(),
            eval_counters: EngineCounters::default(),
            lazy_rescores: 0,
        };
    };
    apply_package(graph, &mut dep, &first);
    explored.mark(first.node);

    let mut pivot = next_usable_pivot(&mut queue, &dep);
    let mut state = SpreadState::evaluate(graph, data, &dep.seeds, &dep.coupons);
    let mut value = oracle_value(graph, data, &dep, &state);
    let mut rescans = 0u64;

    let mut best_dep = dep.clone();
    let mut best_value = value;
    let mut iterations = 1usize;
    let mut snapshots: Vec<Snapshot> = vec![Snapshot {
        deployment: dep.clone(),
        objective: value,
    }];
    let milestone = (binv / 12.0).max(f64::MIN_POSITIVE);
    let mut next_milestone = value.total_cost() + milestone;

    while iterations < max_iterations {
        // Best coupon move (strategies 1–2) over the current spread.
        let mut best_mr = 0.0f64;
        let mut best_node: Option<(NodeId, f64, f64)> = None;
        for &u in &state.order {
            if state.active_prob[u.index()] <= 0.0 {
                continue;
            }
            if dep.coupons[u.index()] >= graph.out_degree(u) as u32 {
                continue;
            }
            explored.mark(u);
            let (db, dc) = state.coupon_delta(graph, data, u, 1);
            rescans += 1;
            if db <= 0.0 {
                continue;
            }
            if value.total_cost() + dc > binv + BUDGET_EPS {
                continue;
            }
            let mr = if dc > 0.0 { db / dc } else { f64::MAX };
            if mr > best_mr {
                best_mr = mr;
                best_node = Some((u, db, dc));
            }
        }

        let pivot_feasible = pivot
            .as_ref()
            .is_some_and(|p| value.total_cost() + p.cost <= binv + BUDGET_EPS);
        let pivot_rate = pivot.as_ref().map_or(0.0, |p| p.rate);

        let take_coupon = match (best_node.is_some(), pivot_feasible) {
            (false, false) => {
                if pivot.is_some() {
                    pivot = next_usable_pivot(&mut queue, &dep);
                    if pivot.is_some() {
                        continue;
                    }
                }
                break;
            }
            (true, false) => true,
            (false, true) => false,
            (true, true) => best_mr > pivot_rate,
        };

        if take_coupon {
            let (u, _, _) = best_node.expect("guarded by take_coupon");
            dep.add_coupons(graph, u, 1);
        } else {
            let pkg = pivot.take().expect("guarded by pivot_feasible");
            apply_package(graph, &mut dep, &pkg);
            explored.mark(pkg.node);
            pivot = next_usable_pivot(&mut queue, &dep);
        }
        iterations += 1;

        state = SpreadState::evaluate(graph, data, &dep.seeds, &dep.coupons);
        value = oracle_value(graph, data, &dep, &state);
        if value.within_budget(binv) && value.rate >= best_value.rate * (1.0 - 1e-9) {
            best_value = value;
            best_dep = dep.clone();
        }
        if value.within_budget(binv) && value.total_cost() >= next_milestone {
            snapshots.push(Snapshot {
                deployment: dep.clone(),
                objective: value,
            });
            next_milestone = value.total_cost() + milestone;
        }
    }
    if snapshots.last().map(|s| &s.deployment) != Some(&dep) && value.within_budget(binv) {
        snapshots.push(Snapshot {
            deployment: dep.clone(),
            objective: value,
        });
    }
    if snapshots.last().map(|s| &s.deployment) != Some(&best_dep) {
        snapshots.push(Snapshot {
            deployment: best_dep.clone(),
            objective: best_value,
        });
    }

    IdOutcome {
        deployment: best_dep,
        objective: best_value,
        iterations,
        snapshots,
        eval_counters: EngineCounters::default(),
        lazy_rescores: rescans,
    }
}

fn apply_package(graph: &CsrGraph, dep: &mut Deployment, pkg: &SeedPackage) {
    dep.add_seed(pkg.node);
    if pkg.coupons > 0 {
        dep.add_coupons(graph, pkg.node, pkg.coupons);
    }
}

/// Pop pivots until one names a node not yet invested in.
fn next_usable_pivot(queue: &mut PivotQueue, dep: &Deployment) -> Option<SeedPackage> {
    while let Some(p) = queue.pop() {
        if !dep.is_seed(p.node) && dep.coupons[p.node.index()] == 0 {
            return Some(p);
        }
    }
    None
}
