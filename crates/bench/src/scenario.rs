//! Algorithm dispatch shared by every experiment, plus the scenario sweep
//! grid (budget × strategy × weight-model cross products).

use crate::effort::Effort;
use crate::table::{num, Table};
use osn_gen::attrs::standard_workload;
use osn_gen::powerlaw_cluster::powerlaw_cluster;
use osn_gen::seeded_rng;
use osn_gen::weights::{assign_weights, WeightModel};
use osn_graph::{CsrGraph, NodeData};
use osn_propagation::{McBackend, RedemptionReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s3crm_baselines::im::{im_with_strategy, ImConfig};
use s3crm_baselines::im_s::im_s;
use s3crm_baselines::pm::pm_with_strategy;
use s3crm_baselines::random_seeds::random_deployment;
use s3crm_baselines::strategy::CouponStrategy;
use s3crm_core::{s3ca, Deployment, Telemetry};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Every algorithm the harness can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's contribution (all three phases).
    S3ca,
    /// Ablation: ID phase only.
    S3caIdOnly,
    /// Influence maximization + unlimited coupon strategy.
    ImU,
    /// Influence maximization + limited (Dropbox, k = 32) strategy.
    ImL,
    /// Profit maximization + unlimited strategy.
    PmU,
    /// Profit maximization + limited strategy.
    PmL,
    /// The two-stage shortest-path heuristic.
    ImS,
    /// Random feasible deployment (sanity floor; not in the paper).
    Random,
}

impl Algorithm {
    /// The baseline set the paper's figures compare (Fig. 6 ordering).
    pub const PAPER_SET: [Algorithm; 6] = [
        Algorithm::ImU,
        Algorithm::ImL,
        Algorithm::PmU,
        Algorithm::PmL,
        Algorithm::ImS,
        Algorithm::S3ca,
    ];

    /// The five algorithms of Table III.
    pub const TABLE3_SET: [Algorithm; 5] = [
        Algorithm::ImU,
        Algorithm::ImL,
        Algorithm::PmU,
        Algorithm::PmL,
        Algorithm::S3ca,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::S3ca => "S3CA",
            Algorithm::S3caIdOnly => "S3CA-ID",
            Algorithm::ImU => "IM-U",
            Algorithm::ImL => "IM-L",
            Algorithm::PmU => "PM-U",
            Algorithm::PmL => "PM-L",
            Algorithm::ImS => "IM-S",
            Algorithm::Random => "Random",
        }
    }
}

/// One algorithm execution: deployment, wall time, optional telemetry.
#[derive(Clone, Debug)]
pub struct AlgoRun {
    pub algorithm: Algorithm,
    pub deployment: Deployment,
    pub wall: Duration,
    /// Populated for S3CA variants.
    pub telemetry: Option<Telemetry>,
}

/// Execute `algorithm` on the instance with the given limited-strategy cap.
pub fn run_algorithm(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    algorithm: Algorithm,
    limited_cap: u32,
    effort: &Effort,
) -> AlgoRun {
    let im_cfg = ImConfig {
        worlds: effort.im_worlds,
        rng_seed: effort.seed ^ 0xD1CE,
    };
    let start = Instant::now();
    let (deployment, telemetry) = match algorithm {
        Algorithm::S3ca => {
            let r = s3ca(graph, data, binv, &effort.s3ca_config());
            (r.deployment, Some(r.telemetry))
        }
        Algorithm::S3caIdOnly => {
            let r = s3ca(graph, data, binv, &effort.s3ca_id_only());
            (r.deployment, Some(r.telemetry))
        }
        Algorithm::ImU => (
            im_with_strategy(graph, data, binv, CouponStrategy::Unlimited, &im_cfg),
            None,
        ),
        Algorithm::ImL => (
            im_with_strategy(
                graph,
                data,
                binv,
                CouponStrategy::Limited(limited_cap),
                &im_cfg,
            ),
            None,
        ),
        Algorithm::PmU => (
            pm_with_strategy(graph, data, binv, CouponStrategy::Unlimited),
            None,
        ),
        Algorithm::PmL => (
            pm_with_strategy(graph, data, binv, CouponStrategy::Limited(limited_cap)),
            None,
        ),
        Algorithm::ImS => (im_s(graph, data, binv, &im_cfg), None),
        Algorithm::Random => {
            let mut rng = SmallRng::seed_from_u64(effort.seed ^ 0xA11CE);
            (
                random_deployment(graph, data, binv, CouponStrategy::Unlimited, &mut rng),
                None,
            )
        }
    };
    AlgoRun {
        algorithm,
        deployment,
        wall: start.elapsed(),
        telemetry,
    }
}

/// The scenario-sweep grid: every `(budget multiplier, algorithm,
/// weight model)` combination becomes one cell with its own CSV (the
/// ROADMAP's "scenario sweeps" open item). Cells share one synthetic
/// instance per weight model and one evaluation world cache per instance,
/// so cross-cell comparisons stay tight.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Multipliers on the instance's base budget.
    pub budget_multipliers: Vec<f64>,
    /// Algorithms (the "strategy" axis — each pairs a selector with a
    /// coupon strategy).
    pub algorithms: Vec<Algorithm>,
    /// Influence-probability models.
    pub weight_models: Vec<WeightModel>,
}

impl SweepGrid {
    /// The default extension grid: 3 budgets × 3 strategies × the paper's
    /// three weight models — 27 cells, small enough for CI's smoke run.
    pub fn extension_default() -> SweepGrid {
        SweepGrid {
            budget_multipliers: vec![0.5, 1.0, 2.0],
            algorithms: vec![Algorithm::S3ca, Algorithm::ImU, Algorithm::PmL],
            weight_models: vec![
                WeightModel::InverseInDegree,
                WeightModel::Uniform(0.1),
                WeightModel::trivalency_default(),
            ],
        }
    }
}

/// Stable file-name label for a weight model.
pub fn weight_model_label(model: WeightModel) -> &'static str {
    match model {
        WeightModel::InverseInDegree => "invdeg",
        WeightModel::Uniform(_) => "uniform",
        WeightModel::Trivalency(_) => "trivalency",
    }
}

/// One evaluated sweep cell: the CSV name stem and its single-row table.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// File-name stem, e.g. `sweep_invdeg_s3ca_b1` (budget multipliers
    /// render via `f64`'s `Display`, so `1.0` prints as `1`).
    pub name: String,
    pub table: Table,
}

/// Build one synthetic sweep instance under the given weight model (the
/// Fig. 9 power-law-cluster topology with the Sec. VI-A workload).
pub fn sweep_instance(n: usize, model: WeightModel, seed: u64) -> (CsrGraph, NodeData, f64) {
    let mut rng = seeded_rng(seed);
    let topo = powerlaw_cluster(n, 8, 0.6, &mut rng);
    let mut builder = topo.into_directed(1.0, &mut rng).expect("conversion");
    assign_weights(&mut builder, model, &mut rng);
    let graph = builder.build().expect("build");
    let data = standard_workload(&graph, 10.0, 2.0, 1.0, 10.0, &mut rng).expect("workload");
    // Same calibration as the dataset profiles: ~25 average seed costs, so
    // even the baselines that favor expensive high-degree seeds can afford
    // a deployment in every cell at any sweep scale.
    let base_budget = 25.0 * data.total_seed_cost() / n as f64;
    (graph, data, base_budget)
}

/// Run the cross-product sweep: one cell per `(weight model, algorithm,
/// budget multiplier)`, each a one-row table of Monte-Carlo metrics.
pub fn run_sweep(n: usize, grid: &SweepGrid, effort: &Effort) -> Vec<SweepCell> {
    let mut cells: Vec<SweepCell> = Vec::new();
    // `weight_model_label` collapses a variant's parameters, so a grid
    // with e.g. two Uniform(p) entries would collide on file names and one
    // CSV would silently overwrite the other; disambiguate repeats.
    let unique_name = |cells: &[SweepCell], base: String| -> String {
        let mut name = base.clone();
        let mut suffix = 2usize;
        while cells.iter().any(|c| c.name == name) {
            name = format!("{base}_{suffix}");
            suffix += 1;
        }
        name
    };
    for &model in &grid.weight_models {
        let (graph, data, base_budget) = sweep_instance(n, model, effort.seed);
        let backend = McBackend::sample(&graph, effort.eval_worlds, effort.seed ^ 0x5EE9);
        for &algo in &grid.algorithms {
            for &mult in &grid.budget_multipliers {
                let binv = base_budget * mult;
                let run = run_algorithm(
                    &graph,
                    &data,
                    binv,
                    algo,
                    CouponStrategy::DROPBOX_CAP,
                    effort,
                );
                let report = RedemptionReport::compute(
                    &graph,
                    &data,
                    &run.deployment.seeds,
                    &run.deployment.coupons,
                    &backend,
                );
                let mut table = Table::new(
                    format!(
                        "Sweep cell: {} on {} weights, Binv = {}",
                        algo.label(),
                        weight_model_label(model),
                        num(binv)
                    ),
                    &[
                        "weights",
                        "algorithm",
                        "Binv",
                        "redemption_rate",
                        "benefit",
                        "total_cost",
                        "seeds",
                        "coupons",
                        "wall_ms",
                    ],
                );
                table.push_row(vec![
                    weight_model_label(model).into(),
                    algo.label().into(),
                    num(binv),
                    num(report.redemption_rate),
                    num(report.expected_benefit),
                    num(report.total_cost),
                    run.deployment.seeds.len().to_string(),
                    run.deployment.total_coupons().to_string(),
                    num(run.wall.as_secs_f64() * 1e3),
                ]);
                let name = unique_name(
                    &cells,
                    format!(
                        "sweep_{}_{}_b{mult}",
                        weight_model_label(model),
                        algo.label().to_lowercase().replace('-', ""),
                    ),
                );
                cells.push(SweepCell { name, table });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_gen::DatasetProfile;

    #[test]
    fn sweep_covers_the_cross_product() {
        let grid = SweepGrid {
            budget_multipliers: vec![0.5, 1.0],
            algorithms: vec![Algorithm::S3ca, Algorithm::ImU],
            weight_models: vec![WeightModel::InverseInDegree, WeightModel::Uniform(0.1)],
        };
        let effort = Effort::micro();
        let cells = run_sweep(120, &grid, &effort);
        assert_eq!(cells.len(), 8, "2 budgets × 2 algorithms × 2 models");
        // Every cell name is unique and every table has exactly one row.
        let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "cell names collide");
        for cell in &cells {
            assert_eq!(cell.table.rows.len(), 1);
            assert_eq!(cell.table.rows[0].len(), cell.table.headers.len());
        }
    }

    #[test]
    fn duplicate_weight_model_variants_get_distinct_cell_names() {
        let grid = SweepGrid {
            budget_multipliers: vec![1.0],
            algorithms: vec![Algorithm::ImU],
            weight_models: vec![WeightModel::Uniform(0.05), WeightModel::Uniform(0.2)],
        };
        let cells = run_sweep(80, &grid, &Effort::micro());
        assert_eq!(cells.len(), 2);
        assert_ne!(cells[0].name, cells[1].name, "colliding CSV names");
        assert_eq!(cells[1].name, format!("{}_2", cells[0].name));
    }

    #[test]
    fn weight_model_labels_are_stable() {
        assert_eq!(weight_model_label(WeightModel::InverseInDegree), "invdeg");
        assert_eq!(weight_model_label(WeightModel::Uniform(0.3)), "uniform");
        assert_eq!(
            weight_model_label(WeightModel::trivalency_default()),
            "trivalency"
        );
    }

    #[test]
    fn labels_match_the_paper() {
        let labels: Vec<&str> = Algorithm::PAPER_SET.iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["IM-U", "IM-L", "PM-U", "PM-L", "IM-S", "S3CA"]);
    }

    #[test]
    fn every_algorithm_runs_and_respects_budget() {
        let inst = DatasetProfile::Facebook.generate(0.02, 7).unwrap(); // 80 nodes
        let effort = Effort::micro();
        for algo in [
            Algorithm::S3ca,
            Algorithm::S3caIdOnly,
            Algorithm::ImU,
            Algorithm::ImL,
            Algorithm::PmU,
            Algorithm::PmL,
            Algorithm::ImS,
            Algorithm::Random,
        ] {
            let run = run_algorithm(
                &inst.graph,
                &inst.data,
                inst.budget,
                algo,
                CouponStrategy::DROPBOX_CAP,
                &effort,
            );
            let v = s3crm_core::objective::evaluate(&inst.graph, &inst.data, &run.deployment);
            assert!(
                v.within_budget(inst.budget),
                "{} exceeded budget: {} > {}",
                algo.label(),
                v.total_cost(),
                inst.budget
            );
        }
    }
}
