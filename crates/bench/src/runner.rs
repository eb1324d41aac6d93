//! Instance-level experiment runner: execute a set of algorithms, evaluate
//! each deployment with the shared Monte-Carlo world cache, and collect the
//! per-row metrics the figures report.

use crate::effort::Effort;
use crate::scenario::{run_algorithm, AlgoRun, Algorithm};
use osn_graph::{CsrGraph, NodeData};
use osn_propagation::{DeploymentRef, McBackend, RedemptionReport};
use s3crm_core::Telemetry;

/// One algorithm's evaluated result on one instance.
#[derive(Clone, Debug)]
pub struct Row {
    pub algorithm: Algorithm,
    pub report: RedemptionReport,
    pub wall_ms: f64,
    pub telemetry: Option<Telemetry>,
}

/// Salt XORed into the run seed for the final evaluation's world cache. It
/// keeps evaluation worlds independent of the worlds the IM baselines
/// optimize on (no self-grading). `osn-serve` scores campaigns with it too,
/// so a served campaign and a `repro` run of the same spec are evaluated on
/// the same worlds.
pub const EVAL_SALT: u64 = 0x0E7A_15A1;

/// Run `algorithms` on the instance and evaluate every deployment on one
/// shared world cache (shared randomness keeps comparisons tight). The
/// algorithms run (and are timed) one at a time; their deployments are then
/// scored together in one batched pass over the cache.
pub fn evaluate_all(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    algorithms: &[Algorithm],
    limited_cap: u32,
    effort: &Effort,
) -> Vec<Row> {
    let backend = McBackend::sample(graph, effort.eval_worlds, effort.seed ^ EVAL_SALT);
    let runs: Vec<AlgoRun> = algorithms
        .iter()
        .map(|&algo| run_algorithm(graph, data, binv, algo, limited_cap, effort))
        .collect();
    let batch: Vec<DeploymentRef<'_>> = runs
        .iter()
        .map(|run| DeploymentRef::from(&run.deployment))
        .collect();
    let reports = RedemptionReport::compute_batch(graph, data, &batch, &backend);
    runs.into_iter()
        .zip(reports)
        .map(|(run, report)| Row {
            algorithm: run.algorithm,
            report,
            wall_ms: run.wall.as_secs_f64() * 1e3,
            telemetry: run.telemetry,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_gen::DatasetProfile;
    use s3crm_baselines::strategy::CouponStrategy;

    #[test]
    fn rows_cover_requested_algorithms() {
        let inst = DatasetProfile::Facebook.generate(0.02, 3).unwrap();
        let rows = evaluate_all(
            &inst.graph,
            &inst.data,
            inst.budget,
            &[Algorithm::S3ca, Algorithm::ImU],
            CouponStrategy::DROPBOX_CAP,
            &Effort::micro(),
        );
        assert_eq!(rows.len(), 2);
        assert!(rows[0].telemetry.is_some());
        assert!(rows[1].telemetry.is_none());
        for r in &rows {
            assert!(r.report.total_cost <= inst.budget * 1.001);
            assert!(r.wall_ms >= 0.0);
        }
    }
}
