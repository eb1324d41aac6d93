//! The full S3CA pipeline: ID → GPI → SCM.

use crate::deployment::Deployment;
use crate::gpi::identify_guaranteed_paths;
use crate::id_phase::{investment_deployment_on, ExploreTracker};
use crate::objective::{self, ObjectiveValue};
use crate::pivot::PivotList;
use crate::scm::{sc_maneuver, ScmStats};
use osn_graph::{CsrGraph, NodeData};
use osn_propagation::{DeploymentRef, SpreadEngine};
use osn_sketch::{SketchEstimator, SketchIndex, SketchParams};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which estimation backend drives the ID phase's greedy loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EstimatorBackend {
    /// The reference path: the exact incremental [`SpreadEngine`] drives
    /// every greedy move, and the budget-milestone snapshots are re-ranked
    /// by Monte-Carlo benefit (the paper's line 24). Bit-identical to the
    /// pre-seam pipeline.
    #[default]
    Mc,
    /// Reverse-reachability sketches (`osn-sketch`): one index build up
    /// front, then every greedy probe is a postings-list walk. Costs stay
    /// exact; the benefit side carries the index's (ε, δ) error, so the
    /// final objective is re-evaluated analytically before returning.
    Sketch,
}

/// Tunables of the algorithm. The defaults run the full three-phase
/// pipeline; the phase switches serve the phase ablation (`repro ablation`)
/// and the ID-only variant.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct S3caConfig {
    /// Run Guaranteed-Path Identification (phase 2).
    pub enable_gpi: bool,
    /// Run SC Maneuver (phase 3; requires GPI).
    pub enable_scm: bool,
    /// Safety cap on greedy ID moves.
    pub max_id_iterations: usize,
    /// Cap on guaranteed paths examined by SCM.
    pub max_scm_paths: usize,
    /// Worlds used to re-rank the ID phase's budget-milestone snapshots by
    /// Monte-Carlo benefit (Alg. 1 line 24 picks `D*` from the candidate
    /// list under the paper's MC-estimated rate). 0 disables the re-ranking
    /// and keeps the analytic argmax — the `ablation_evaluator` setting.
    pub snapshot_worlds: usize,
    /// Seed for the snapshot-selection world sample (and the sketch index
    /// when the sketch backend is selected).
    pub rng_seed: u64,
    /// Estimation backend of the ID phase.
    pub estimator: EstimatorBackend,
    /// Additive benefit-error target of the sketch index (ε of its
    /// Hoeffding guarantee). Only read when `estimator` is
    /// [`EstimatorBackend::Sketch`].
    pub sketch_epsilon: f64,
    /// Failure probability of that guarantee (δ). Sketch backend only.
    pub sketch_delta: f64,
}

impl Default for S3caConfig {
    fn default() -> Self {
        S3caConfig {
            enable_gpi: true,
            enable_scm: true,
            max_id_iterations: 200_000,
            max_scm_paths: 256,
            snapshot_worlds: 64,
            rng_seed: 0x53CA,
            estimator: EstimatorBackend::Mc,
            sketch_epsilon: SketchParams::default().epsilon,
            sketch_delta: SketchParams::default().delta,
        }
    }
}

impl S3caConfig {
    /// ID phase only — the ablation baseline quantifying what GPI + SCM buy.
    pub fn id_only() -> Self {
        S3caConfig {
            enable_gpi: false,
            enable_scm: false,
            ..Self::default()
        }
    }

    /// The sketch-index parameters this configuration implies — the one
    /// place they are derived, so a caller-built index matches the one
    /// [`s3ca`] would build.
    pub fn sketch_params(&self) -> SketchParams {
        SketchParams {
            seed: self.rng_seed,
            epsilon: self.sketch_epsilon,
            delta: self.sketch_delta,
            ..SketchParams::default()
        }
    }
}

/// Runtime/exploration instrumentation (Fig. 9, Table IV).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Telemetry {
    /// Fraction of nodes whose adjacency the algorithm expanded — Fig. 9's
    /// explored ratio.
    pub explored_ratio: f64,
    /// Wall-clock microseconds per phase.
    pub id_micros: u64,
    pub gpi_micros: u64,
    pub scm_micros: u64,
    /// Greedy moves in the ID phase.
    pub id_iterations: usize,
    /// Guaranteed paths identified.
    pub gp_count: usize,
    /// Coupons moved by committed maneuvers.
    pub scm_coupons_moved: u64,
    /// Complete from-scratch spread-engine builds across all phases.
    pub eval_full_rebuilds: u64,
    /// O(deg) incremental holder-DP extensions (the broaden fast path).
    pub eval_incremental_updates: u64,
    /// Lazy-greedy heap candidate re-scores in the ID phase (the
    /// exhaustive-rescan reference would pay one per candidate per
    /// iteration).
    pub eval_lazy_rescores: u64,
    /// Resident bytes of the snapshot-selection world cache, i.e. its lane
    /// blocks (0 when the MC re-ranking was skipped) — the world-cache
    /// memory telemetry.
    pub world_cache_bytes: u64,
    /// Mean live-edge density of the sampled worlds.
    pub world_live_density: f64,
    /// Wall-clock microseconds spent sampling the world cache.
    pub world_sampling_micros: u64,
    /// World×candidate cascades the snapshot-selection evaluator ran on the
    /// bit-parallel lane kernel (0 when MC re-ranking was skipped).
    pub lane_kernel_worlds: u64,
}

impl Telemetry {
    /// Total wall-clock microseconds.
    pub fn total_micros(&self) -> u64 {
        self.id_micros + self.gpi_micros + self.scm_micros
    }
}

/// Output of a full S3CA run.
#[derive(Clone, Debug)]
pub struct S3caResult {
    /// The final deployment `D*`.
    pub deployment: Deployment,
    /// Analytic objective of `D*`.
    pub objective: ObjectiveValue,
    pub telemetry: Telemetry,
}

/// Run S3CA on an instance under budget `binv`.
pub fn s3ca(graph: &CsrGraph, data: &NodeData, binv: f64, config: &S3caConfig) -> S3caResult {
    s3ca_with_resident(graph, data, binv, config, None, None, None)
}

/// As [`s3ca`], with an optional caller-owned snapshot backend and no
/// resident sketch index or pivot list; see [`s3ca_with_resident`]. The
/// benchmark's traced replay calls it.
pub fn s3ca_with_snapshot_backend(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    config: &S3caConfig,
    snapshot_backend: Option<&osn_propagation::McBackend>,
) -> S3caResult {
    s3ca_with_resident(graph, data, binv, config, snapshot_backend, None, None)
}

/// As [`s3ca`], on caller-owned resident structures. A resident server
/// keeps them across campaigns and passes them in, so concurrent campaigns
/// share them zero-copy; each `None` builds a fresh one exactly as [`s3ca`]
/// does, and results are bit-identical either way.
///
/// * `snapshot_backend` — the Monte-Carlo backend of the snapshot
///   re-ranking (line 24), sampled with `config.snapshot_worlds` worlds and
///   `config.rng_seed`.
/// * `sketch_index` — the ID phase's index under
///   [`EstimatorBackend::Sketch`], built over `graph`/`data` with
///   [`S3caConfig::sketch_params`]. Ignored by the other backends.
/// * `pivots` — the ID phase's pivot sources (Alg. 1 lines 1–9), built
///   over `graph`/`data` by [`PivotList::build`]. It does not depend on
///   the budget or the config, so one list serves every campaign on the
///   graph, under every backend.
///
/// # Panics
///
/// If `sketch_index` was built with other parameters, or it or `pivots`
/// over a graph of another size: a mismatched structure would silently
/// change the result.
pub fn s3ca_with_resident(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    config: &S3caConfig,
    snapshot_backend: Option<&osn_propagation::McBackend>,
    sketch_index: Option<&SketchIndex>,
    pivots: Option<&PivotList>,
) -> S3caResult {
    let n = graph.node_count();
    let mut explored = ExploreTracker::new(n);
    let mut telemetry = Telemetry::default();

    // Phase 1 — Investment Deployment, under the configured backend.
    let t0 = Instant::now();
    let owned_pivots;
    let pivots = match pivots {
        Some(list) => list,
        None => {
            owned_pivots = PivotList::build(graph, data);
            &owned_pivots
        }
    };
    let id = match config.estimator {
        EstimatorBackend::Mc => investment_deployment_on(
            graph,
            pivots,
            binv,
            &mut explored,
            config.max_id_iterations,
            |seeds, coupons| SpreadEngine::new(graph, data, seeds, coupons),
        ),
        EstimatorBackend::Sketch => {
            let params = config.sketch_params();
            let owned;
            let index = match sketch_index {
                Some(index) => {
                    assert!(
                        *index.params() == params && index.node_count() == n,
                        "sketch index built for {:?} over {} nodes, campaign needs {params:?} \
                         over {n}",
                        index.params(),
                        index.node_count(),
                    );
                    index
                }
                None => {
                    owned = SketchIndex::build(graph, data, &params);
                    &owned
                }
            };
            investment_deployment_on(
                graph,
                pivots,
                binv,
                &mut explored,
                config.max_id_iterations,
                |seeds, coupons| SketchEstimator::new(graph, data, index, seeds, coupons),
            )
        }
    };
    telemetry.id_micros = t0.elapsed().as_micros() as u64;
    telemetry.id_iterations = id.iterations;
    let mut eval = id.eval_counters;
    telemetry.eval_lazy_rescores = id.lazy_rescores;

    let mut deployment = id.deployment;
    let mut value = id.objective;

    // Line 24: pick D* among the candidate deployments by the paper's
    // Monte-Carlo-estimated redemption rate. The analytic evaluator that
    // drives the greedy loop is exact on forests but underestimates deep
    // spreads on cyclic graphs; the MC re-ranking corrects the final choice
    // at negligible cost: all feasible snapshots go to the evaluator as ONE
    // batch, so a single pass over the world cache scores the whole
    // candidate list instead of per-snapshot serial evaluations — and each
    // snapshot carries the analytic objective the incremental engine
    // computed when it was live, so nothing is re-evaluated here.
    if config.snapshot_worlds > 0 && id.snapshots.len() > 1 {
        let t_sel = Instant::now();
        let owned;
        let backend = match snapshot_backend {
            Some(shared) => shared,
            None => {
                owned = osn_propagation::McBackend::sample(
                    graph,
                    config.snapshot_worlds,
                    config.rng_seed,
                );
                &owned
            }
        };
        telemetry.world_cache_bytes = backend.cache().resident_bytes();
        telemetry.world_live_density = backend.cache().live_density();
        telemetry.world_sampling_micros = backend.cache().sampling_micros();
        let ev = backend.evaluator(graph, data);
        let feasible: Vec<(&Deployment, ObjectiveValue)> = id
            .snapshots
            .iter()
            .filter_map(|snap| {
                snap.objective
                    .within_budget(binv)
                    .then_some((&snap.deployment, snap.objective))
            })
            .collect();
        let batch: Vec<DeploymentRef<'_>> = feasible
            .iter()
            .map(|&(snap, _)| DeploymentRef::from(snap))
            .collect();
        let scored: Vec<(f64, f64, &Deployment, ObjectiveValue)> = ev
            .simulate_batch(&batch)
            .into_iter()
            .zip(feasible)
            .map(|(stats, (snap, analytic))| {
                let cost = analytic.total_cost();
                let rate = if cost > 0.0 {
                    stats.expected_benefit / cost
                } else {
                    0.0
                };
                (rate, cost, snap, analytic)
            })
            .collect();
        let best_rate = scored.iter().fold(0.0f64, |a, &(r, ..)| a.max(r));
        // Within the MC estimation tolerance (Lemma 2's ε) rates are
        // indistinguishable; prefer the largest investment among the
        // near-best snapshots so the deployment keeps growing with the
        // budget (the paper's "total cost approximately equals Binv").
        // 2% keeps exact small-instance optima (Fig. 1's 3.1 vs 2.99 gap
        // is 3.5%) while still merging genuinely flat trajectories.
        if let Some(&(_, _, snap, analytic)) = scored
            .iter()
            .filter(|&&(r, ..)| r >= best_rate * 0.98)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        {
            deployment = snap.clone();
            value = analytic;
        }
        telemetry.lane_kernel_worlds = (batch.len() * backend.cache().len()) as u64;
        telemetry.id_micros += t_sel.elapsed().as_micros() as u64;
    }

    // Sketch-backed outcomes carry the index's *estimated* benefit in their
    // objectives (costs are exact in every backend, so budget filtering
    // above was sound). Downstream phases and the returned objective are
    // analytic, so re-evaluate the chosen deployment exactly once here.
    if config.estimator == EstimatorBackend::Sketch {
        value = objective::evaluate(graph, data, &deployment);
    }

    if config.enable_gpi && !deployment.seeds.is_empty() {
        // Phase 2 — Guaranteed Paths Identification.
        let t1 = Instant::now();
        let forests = identify_guaranteed_paths(graph, data, &deployment, binv, &mut explored);
        telemetry.gpi_micros = t1.elapsed().as_micros() as u64;
        telemetry.gp_count = forests.iter().map(|f| f.paths.len()).sum();

        if config.enable_scm {
            // Phase 3 — SC Maneuver.
            let t2 = Instant::now();
            let (after, stats): (ObjectiveValue, ScmStats) = sc_maneuver(
                graph,
                data,
                binv,
                &mut deployment,
                &forests,
                config.max_scm_paths,
            );
            telemetry.scm_micros = t2.elapsed().as_micros() as u64;
            telemetry.scm_coupons_moved = stats.coupons_moved;
            eval = eval.merged(&stats.eval);
            value = after;
        }
    }

    telemetry.explored_ratio = explored.ratio();
    telemetry.eval_full_rebuilds = eval.full_rebuilds;
    telemetry.eval_incremental_updates = eval.incremental_updates;

    // The objective always reflects the returned deployment.
    debug_assert!({
        let check = objective::evaluate(graph, data, &deployment);
        (check.rate - value.rate).abs() < 1e-9
    });

    S3caResult {
        deployment,
        objective: value,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::{GraphBuilder, NodeId};

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
    fn full_pipeline_beats_or_matches_id_only() {
        let (g, d) = showcase();
        let full = s3ca(&g, &d, 4.0, &S3caConfig::default());
        let id_only = s3ca(&g, &d, 4.0, &S3caConfig::id_only());
        assert!(full.objective.rate >= id_only.objective.rate - 1e-12);
        assert!(full.objective.within_budget(4.0));
    }

    #[test]
    fn finds_the_high_benefit_route() {
        let (g, d) = showcase();
        let r = s3ca(&g, &d, 4.0, &S3caConfig::default());
        // The benefit-50 user sits behind v3; any good deployment funds it.
        assert!(r.deployment.coupons[3] >= 1 || r.deployment.coupons[0] >= 1);
        assert!(r.objective.rate > 1.0, "rate {}", r.objective.rate);
    }

    #[test]
    fn telemetry_is_populated() {
        let (g, d) = showcase();
        let r = s3ca(&g, &d, 4.0, &S3caConfig::default());
        assert!(r.telemetry.explored_ratio > 0.0 && r.telemetry.explored_ratio <= 1.0);
        assert!(r.telemetry.id_iterations >= 1);
        assert!(r.telemetry.gp_count > 0);
    }

    #[test]
    fn zero_budget_returns_empty() {
        let (g, d) = showcase();
        let r = s3ca(&g, &d, 0.0, &S3caConfig::default());
        assert!(r.deployment.seeds.is_empty());
        assert_eq!(r.objective.rate, 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, d) = showcase();
        let a = s3ca(&g, &d, 4.0, &S3caConfig::default());
        let b = s3ca(&g, &d, 4.0, &S3caConfig::default());
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn sketch_backend_runs_the_full_pipeline() {
        let (g, d) = showcase();
        let cfg = S3caConfig {
            estimator: EstimatorBackend::Sketch,
            ..S3caConfig::default()
        };
        let r = s3ca(&g, &d, 4.0, &cfg);
        assert!(r.objective.within_budget(4.0));
        // The returned objective is always the analytic value of the
        // returned deployment, whatever backend drove the greedy loop.
        let check = objective::evaluate(&g, &d, &r.deployment);
        assert!((check.rate - r.objective.rate).abs() < 1e-9);
        // On this small forest-like instance the sketch-guided choice must
        // stay competitive with the reference path.
        let reference = s3ca(&g, &d, 4.0, &S3caConfig::default());
        assert!(
            r.objective.rate >= 0.5 * reference.objective.rate,
            "sketch rate {} vs reference {}",
            r.objective.rate,
            reference.objective.rate
        );
    }

    #[test]
    fn sketch_backend_is_deterministic() {
        let (g, d) = showcase();
        let cfg = S3caConfig {
            estimator: EstimatorBackend::Sketch,
            ..S3caConfig::default()
        };
        let a = s3ca(&g, &d, 4.0, &cfg);
        let b = s3ca(&g, &d, 4.0, &cfg);
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.objective, b.objective);
    }

    /// A caller-built index at the config's own parameters and one
    /// caller-built pivot list give the same deployment as the structures
    /// `s3ca` builds itself, at every budget and under both estimators.
    #[test]
    fn resident_sketch_index_matches_a_fresh_build() {
        let (g, d) = showcase();
        let cfg = S3caConfig {
            estimator: EstimatorBackend::Sketch,
            ..S3caConfig::default()
        };
        let index = SketchIndex::build(&g, &d, &cfg.sketch_params());
        let pivots = PivotList::build(&g, &d);
        for cfg in [cfg, S3caConfig::default()] {
            for binv in [1.0, 4.0, 8.0] {
                let fresh = s3ca(&g, &d, binv, &cfg);
                let resident =
                    s3ca_with_resident(&g, &d, binv, &cfg, None, Some(&index), Some(&pivots));
                assert_eq!(fresh.deployment, resident.deployment, "binv {binv}");
                assert_eq!(fresh.objective, resident.objective, "binv {binv}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sketch index built for")]
    fn a_mismatched_sketch_index_is_refused() {
        let (g, d) = showcase();
        let cfg = S3caConfig {
            estimator: EstimatorBackend::Sketch,
            ..S3caConfig::default()
        };
        let other = S3caConfig {
            sketch_epsilon: 0.2,
            ..cfg
        };
        let index = SketchIndex::build(&g, &d, &other.sketch_params());
        s3ca_with_resident(&g, &d, 4.0, &cfg, None, Some(&index), None);
    }

    #[test]
    #[should_panic(expected = "pivot list built over 2 nodes")]
    fn a_mismatched_pivot_list_is_refused() {
        let (g, d) = showcase();
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let small = b.build().unwrap();
        let pivots = PivotList::build(&small, &NodeData::uniform(2, 1.0, 1.0, 1.0));
        s3ca_with_resident(
            &g,
            &d,
            4.0,
            &S3caConfig::default(),
            None,
            None,
            Some(&pivots),
        );
    }

    #[test]
    fn seeds_hold_valid_ids() {
        let (g, d) = showcase();
        let r = s3ca(&g, &d, 4.0, &S3caConfig::default());
        for &s in &r.deployment.seeds {
            assert!(s.index() < g.node_count());
            assert!(s != NodeId(4) || d.seed_cost(s) <= 4.0);
        }
    }
}
