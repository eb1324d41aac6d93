//! Shared helpers for the cross-crate integration tests.

use osn_graph::traversal::bfs_hops;
use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_propagation::spread::{spread_levels, standalone_package, SpreadState};
use osn_propagation::{
    expected_sc_cost, redemption_rate, seed_cost, DeploymentRef, EngineCounters, Ledger, McBackend,
    SimulationStats,
};
use s3crm_baselines::common::{seed_size_sweep, top_out_degree, CANDIDATE_POOL, MAX_SEEDS};
use s3crm_baselines::opt::OptConfig;
use s3crm_baselines::strategy::CouponStrategy;
use s3crm_core::id_phase::{ExploreTracker, IdOutcome, Snapshot};
use s3crm_core::pivot::SeedPackage;
use s3crm_core::{Deployment, ObjectiveValue};
use std::collections::BinaryHeap;
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

/// Evaluate one user's seed package: seed + one coupon when the user has
/// friends, seed alone otherwise. If that bundled form exceeds `binv` but
/// the seed cost alone fits, the bare seed instead (Alg. 1 line 5 checks
/// the bundled form only; the algorithm degrades gracefully to the bare
/// seed). `None` when even the cheapest form exceeds `binv`.
pub fn seed_package(
    graph: &CsrGraph,
    data: &NodeData,
    v: NodeId,
    binv: f64,
) -> Option<SeedPackage> {
    let package = |coupons| {
        let (benefit, cost) = standalone_package(graph, data, v, coupons);
        SeedPackage {
            node: v,
            coupons,
            benefit,
            cost,
            rate: redemption_rate(benefit, cost),
        }
    };
    let bundled = package(u32::from(graph.out_degree(v) > 0));
    if bundled.cost <= binv {
        return Some(bundled);
    }
    (bundled.coupons == 1 && data.seed_cost(v) <= binv).then(|| package(0))
}

/// The original pivot-source queue (Alg. 1 lines 1–9): every user's
/// [`seed_package`] at `binv`, evaluated and heap-pushed per campaign. The
/// order oracle of `s3crm_core::pivot::PivotList`'s cursor (pinned by
/// `tests/pivot_order.rs`) and the queue of
/// [`investment_deployment_reference`].
#[derive(Debug)]
pub struct PivotQueue {
    heap: BinaryHeap<SeedPackage>,
}

impl PivotQueue {
    /// Build the queue for the whole network under budget `binv`.
    pub fn build(graph: &CsrGraph, data: &NodeData, binv: f64) -> Self {
        let heap = graph
            .nodes()
            .filter_map(|v| seed_package(graph, data, v, binv))
            .collect();
        PivotQueue { heap }
    }

    /// Pop the best remaining package.
    pub fn pop(&mut self) -> Option<SeedPackage> {
        self.heap.pop()
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

/// The original exact OPT search: `s3crm_baselines::opt::exhaustive_opt`'s
/// seed pool, seed subsets, coupon support and branch-and-bound, with every
/// child deployment evaluated from scratch by `objective::evaluate`. The
/// equivalence oracle of the engine-walking search (pinned by
/// `tests/opt_reference.rs`).
pub fn exhaustive_opt_reference(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    cfg: &OptConfig,
) -> (Deployment, ObjectiveValue) {
    let n = graph.node_count();
    let mut best = (Deployment::empty(n), ObjectiveValue::default());
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
    let pool: Vec<NodeId> = affordable.into_iter().map(|(_, v)| v).collect();

    let mut seed_sets = Vec::new();
    seed_subsets(&pool, 0, cfg.max_seeds, &mut Vec::new(), &mut seed_sets);
    for seeds in seed_sets {
        if seeds.iter().map(|&s| data.seed_cost(s)).sum::<f64>() > binv {
            continue;
        }
        // Coupon support: two-hop users with friends, by one-step potential.
        let hops = bfs_hops(graph, &seeds);
        let mut support: Vec<(f64, NodeId)> = graph
            .nodes()
            .filter(|&v| hops[v.index()] <= 2 && graph.out_degree(v) > 0)
            .map(|v| {
                (
                    graph.ranked_out(v).map(|(t, p)| p * data.benefit(t)).sum(),
                    v,
                )
            })
            .collect();
        support.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("potentials are finite"));
        support.truncate(cfg.support_width);
        let support: Vec<NodeId> = support.into_iter().map(|(_, v)| v).collect();

        let mut dep = Deployment {
            seeds,
            coupons: vec![0; n],
        };
        let value = s3crm_core::objective::evaluate(graph, data, &dep);
        let search = OptSearch {
            graph,
            data,
            binv,
            cfg,
            support: &support,
        };
        search.allocate(0, 0, value, &mut dep, &mut best);
    }
    best
}

/// Non-empty subsets of `pool[start..]` extending `cur`, at most `max` long.
fn seed_subsets(
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
        seed_subsets(pool, i + 1, max, cur, out);
        cur.pop();
    }
}

/// One seed set's branch-and-bound in [`exhaustive_opt_reference`].
struct OptSearch<'a> {
    graph: &'a CsrGraph,
    data: &'a NodeData,
    binv: f64,
    cfg: &'a OptConfig,
    support: &'a [NodeId],
}

impl OptSearch<'_> {
    /// Enumerate the coupons of `support[idx..]`; `value` is `dep`'s
    /// objective.
    fn allocate(
        &self,
        idx: usize,
        used: u32,
        value: ObjectiveValue,
        dep: &mut Deployment,
        best: &mut (Deployment, ObjectiveValue),
    ) {
        if !value.within_budget(self.binv) {
            return;
        }
        if value.rate > best.1.rate {
            *best = (dep.clone(), value);
        }
        let cfg = self.cfg;
        if idx >= self.support.len() || used >= cfg.max_total_coupons {
            return;
        }
        let remaining = (cfg.max_total_coupons - used) as f64;
        let max_b = self.data.benefits().iter().fold(0.0f64, |a, &b| a.max(b));
        let optimistic =
            (value.benefit + remaining * max_b) / value.total_cost().max(f64::MIN_POSITIVE);
        if value.total_cost() > 0.0 && optimistic <= best.1.rate {
            return;
        }
        let node = self.support[idx];
        let cap = cfg
            .max_coupons_per_node
            .min(self.graph.out_degree(node) as u32)
            .min(cfg.max_total_coupons - used);
        for k in 0..=cap {
            dep.coupons[node.index()] = k;
            let child = if k == 0 {
                value
            } else {
                s3crm_core::objective::evaluate(self.graph, self.data, dep)
            };
            self.allocate(idx + 1, used + k, child, dep, best);
        }
        dep.coupons[node.index()] = 0;
    }
}

/// The nodes reachable from `sources` (sources included), ascending: the
/// reachability pass the baselines' coupon strategies used before they
/// walked [`osn_graph::traversal::bfs_order`].
pub fn reachable_set_reference(graph: &CsrGraph, sources: &[NodeId]) -> Vec<NodeId> {
    let dist = bfs_hops(graph, sources);
    dist.iter()
        .enumerate()
        .filter(|(_, &d)| d != osn_graph::traversal::UNREACHED)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

/// The strategy's unbudgeted coupon vector: every node reachable from the
/// seeds gets its allotment (`|N(v)|`, or `min(k, |N(v)|)`), everyone
/// else 0.
pub fn strategy_coupons_reference(
    strategy: CouponStrategy,
    graph: &CsrGraph,
    seeds: &[NodeId],
) -> Vec<u32> {
    let mut coupons = vec![0u32; graph.node_count()];
    for v in reachable_set_reference(graph, seeds) {
        let deg = graph.out_degree(v) as u32;
        coupons[v.index()] = match strategy {
            CouponStrategy::Unlimited => deg,
            CouponStrategy::Limited(k) => k.min(deg),
        };
    }
    coupons
}

/// The strategy's budgeted coupon vector as it was computed before
/// `CouponStrategy::deploy`: the unbudgeted allotments funded in the coupon
/// spread's BFS order (`spread_levels` under the full allotment) while
/// they fit `binv − Cseed`, then trimmed from the back until the exact
/// cost fits.
pub fn strategy_coupons_budgeted_reference(
    strategy: CouponStrategy,
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    binv: f64,
) -> Vec<u32> {
    let n = graph.node_count();
    let mut ledger = Ledger::new(graph, data, seeds, &vec![0; n]);
    let seed_cost = ledger.seed_cost();
    let mut remaining = binv - seed_cost;
    if remaining <= 0.0 {
        return vec![0; n];
    }
    let full = strategy_coupons_reference(strategy, graph, seeds);
    let (_, order) = spread_levels(graph, seeds, &full);
    for &v in &order {
        let k = full[v.index()];
        if k == 0 {
            continue;
        }
        ledger.add_coupons(v, k);
        let local = ledger.holder(v).expect("just funded").local_cost;
        if local <= remaining {
            remaining -= local;
        } else {
            ledger.remove_coupons(v, k);
            break;
        }
    }
    while ledger.sc_cost() + seed_cost > binv * (1.0 + 1e-9) {
        let Some(&last) = order.iter().rev().find(|v| ledger.coupons()[v.index()] > 0) else {
            break;
        };
        ledger.remove_coupons(last, u32::MAX);
    }
    ledger.coupons().to_vec()
}

/// The seeds paired with the strategy's budgeted coupons.
fn strategy_deployment_reference(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    seeds: &[NodeId],
    strategy: CouponStrategy,
) -> Deployment {
    Deployment {
        seeds: seeds.to_vec(),
        coupons: strategy_coupons_budgeted_reference(strategy, graph, data, seeds, binv),
    }
}

/// `s3crm_baselines::im::best_feasible_prefix_on` as it was before the
/// strategy returned its ledger: every sweep prefix's deployment is
/// rebuilt and evaluated from scratch by `objective::evaluate` for its
/// feasibility, then the feasible ones are scored in one batch.
pub fn best_feasible_prefix_reference(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    strategy: CouponStrategy,
    ranking: &[NodeId],
    backend: &McBackend,
) -> Deployment {
    let mut candidates: Vec<Deployment> = Vec::new();
    for size in seed_size_sweep(graph.node_count()) {
        if size > ranking.len() {
            continue;
        }
        let dep = strategy_deployment_reference(graph, data, binv, &ranking[..size], strategy);
        if s3crm_core::objective::evaluate(graph, data, &dep).within_budget(binv) {
            candidates.push(dep);
        }
    }
    if candidates.is_empty() {
        return Deployment::empty(graph.node_count());
    }
    let unit = NodeData::uniform(graph.node_count(), 1.0, 0.0, 0.0);
    let ev = backend.evaluator(graph, &unit);
    let batch: Vec<DeploymentRef<'_>> = candidates.iter().map(DeploymentRef::from).collect();
    let influences = ev.simulate_batch(&batch);
    let mut best = 0;
    for (i, stats) in influences.iter().enumerate().skip(1) {
        if stats.mean_activated > influences[best].mean_activated {
            best = i;
        }
    }
    candidates.swap_remove(best)
}

/// `s3crm_baselines::pm::pm_with_strategy_on` as it was before the
/// strategy returned its ledger, serially: every trial deployment is
/// rebuilt and evaluated from scratch by `objective::evaluate`.
pub fn pm_with_strategy_reference(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    strategy: CouponStrategy,
) -> Deployment {
    let pool = top_out_degree(graph, CANDIDATE_POOL);
    let mut seeds: Vec<NodeId> = Vec::new();
    let (mut current_benefit, mut current_seed_cost) = (0.0, 0.0);
    while seeds.len() < MAX_SEEDS {
        let mut best: Option<(f64, NodeId, f64)> = None;
        for &cand in &pool {
            if seeds.contains(&cand) {
                continue;
            }
            let mut trial_seeds = seeds.clone();
            trial_seeds.push(cand);
            let dep = strategy_deployment_reference(graph, data, binv, &trial_seeds, strategy);
            let value = s3crm_core::objective::evaluate(graph, data, &dep);
            if !value.within_budget(binv) {
                continue;
            }
            let gain = (value.benefit - value.seed_cost) - (current_benefit - current_seed_cost);
            if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, cand, value.benefit));
            }
        }
        let Some((_, cand, benefit)) = best else {
            break;
        };
        seeds.push(cand);
        current_benefit = benefit;
        current_seed_cost += data.seed_cost(cand);
    }
    if seeds.is_empty() {
        return Deployment::empty(graph.node_count());
    }
    strategy_deployment_reference(graph, data, binv, &seeds, strategy)
}

/// `s3crm_baselines::random_seeds::random_deployment` as it was before the
/// strategy returned its ledger: each added seed's deployment is rebuilt
/// and evaluated from scratch, and the kept seeds' deployment is rebuilt
/// once more at the end.
pub fn random_deployment_reference<R: rand::Rng>(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    strategy: CouponStrategy,
    rng: &mut R,
) -> Deployment {
    use rand::seq::SliceRandom;
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(rng);
    let mut seeds: Vec<NodeId> = Vec::new();
    for v in order {
        if data.seed_cost(v) > binv {
            continue;
        }
        seeds.push(v);
        let dep = strategy_deployment_reference(graph, data, binv, &seeds, strategy);
        if !s3crm_core::objective::evaluate(graph, data, &dep).within_budget(binv) {
            seeds.pop();
            break;
        }
    }
    strategy_deployment_reference(graph, data, binv, &seeds, strategy)
}
