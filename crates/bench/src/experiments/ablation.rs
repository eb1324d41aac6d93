//! Extension experiments: ablations of S3CA's design choices. Not in the
//! paper, but they quantify the claims its design sections make.
//!
//! * **Phase ablation** — ID only vs the full ID+GPI+SCM pipeline: what the
//!   guaranteed-path maneuvering actually buys (the paper's Example 3
//!   claims up to 380% on a toy).
//! * **Evaluator ablation** — the analytic spread evaluator vs Monte-Carlo
//!   at several world counts: the `(1−ε)` accuracy/latency trade-off behind
//!   Lemma 2.

use crate::effort::Effort;
use crate::table::{num, Table};
use osn_gen::DatasetProfile;
use osn_propagation::{BenefitEstimator, McBackend, SpreadEngine};
use s3crm_core::s3ca;
use std::time::Instant;

/// Phase ablation across budget factors.
pub fn phase_ablation(profile: DatasetProfile, effort: &Effort) -> Table {
    let inst = crate::dataset::profile_instance(profile, effort);
    let mut table = Table::new(
        format!("Ablation: S3CA phases [{}]", profile.name()),
        &[
            "Binv",
            "ID-only rate",
            "full rate",
            "gain%",
            "ID ms",
            "GPI+SCM ms",
        ],
    );
    for factor in [0.6, 1.0, 1.4] {
        let binv = inst.budget * factor;
        let id_only = s3ca(&inst.graph, &inst.data, binv, &effort.s3ca_id_only());
        let full = s3ca(&inst.graph, &inst.data, binv, &effort.s3ca_config());
        let gain = if id_only.objective.rate > 0.0 {
            (full.objective.rate / id_only.objective.rate - 1.0) * 100.0
        } else {
            0.0
        };
        table.push_row(vec![
            num(binv),
            num(id_only.objective.rate),
            num(full.objective.rate),
            num(gain),
            num(full.telemetry.id_micros as f64 / 1e3),
            num((full.telemetry.gpi_micros + full.telemetry.scm_micros) as f64 / 1e3),
        ]);
    }
    table
}

/// Evaluator ablation: benefit estimates and latency of the analytic
/// evaluator vs Monte-Carlo at increasing world counts, on the S3CA
/// deployment for the instance.
pub fn evaluator_ablation(profile: DatasetProfile, effort: &Effort) -> Table {
    let inst = crate::dataset::profile_instance(profile, effort);
    let dep = s3ca(&inst.graph, &inst.data, inst.budget, &effort.s3ca_config()).deployment;

    let mut table = Table::new(
        format!("Ablation: benefit evaluator [{}]", profile.name()),
        &["evaluator", "benefit", "rel.err%", "time_us"],
    );

    // Reference: the largest Monte-Carlo estimate.
    let ref_backend = McBackend::sample(&inst.graph, effort.eval_worlds * 4, effort.seed ^ 0xBEEF);
    let reference = ref_backend
        .evaluator(&inst.graph, &inst.data)
        .simulate(&dep.seeds, &dep.coupons)
        .expected_benefit;

    let t0 = Instant::now();
    let analytic =
        SpreadEngine::new(&inst.graph, &inst.data, &dep.seeds, &dep.coupons).expected_benefit();
    let analytic_us = t0.elapsed().as_micros() as f64;
    table.push_row(vec![
        "analytic".into(),
        num(analytic),
        num((analytic / reference - 1.0).abs() * 100.0),
        num(analytic_us),
    ]);

    for worlds in [16, 64, 256] {
        let backend = McBackend::sample(&inst.graph, worlds, effort.seed ^ 0xAB);
        let ev = backend.evaluator(&inst.graph, &inst.data);
        let t1 = Instant::now();
        let est = ev.simulate(&dep.seeds, &dep.coupons).expected_benefit;
        let us = t1.elapsed().as_micros() as f64;
        table.push_row(vec![
            format!("MC-{worlds}"),
            num(est),
            num((est / reference - 1.0).abs() * 100.0),
            num(us),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_ablation_never_reports_regression() {
        let effort = Effort {
            graph_scale: 0.04,
            eval_worlds: 16,
            im_worlds: 8,
            seed: 9,
            ..Effort::micro()
        };
        let t = phase_ablation(DatasetProfile::Facebook, &effort);
        for row in &t.rows {
            let gain: f64 = row[3].parse().unwrap_or(0.0);
            assert!(gain >= -1e-6, "SCM must not reduce the rate: {row:?}");
        }
    }
}
