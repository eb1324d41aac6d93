//! Extension experiments beyond the paper's evaluation.
//!
//! * **RIS vs CELF** — the paper cites reverse-greedy sampling [15] as the
//!   scalable alternative to forward Monte-Carlo greedy [2] for the IM
//!   substrate; this table compares the two ranking stages on quality
//!   (redemption rate of the resulting IM-U deployment) and latency.
//! * **LT vs coupon-IC** — footnote 5 argues the linear-threshold model
//!   cannot express social coupons; this table quantifies how differently
//!   the two models rate identical seed sets, which is why the substrate
//!   matters.
//! * **Scenario sweep** — the budget × strategy × weight-model
//!   cross-product grid of [`crate::scenario::SweepGrid`], one CSV per
//!   cell (the ROADMAP's "scenario sweeps" open item).

use crate::effort::Effort;
use crate::scenario::{run_sweep, SweepCell, SweepGrid};
use crate::table::{num, Table};
use osn_gen::DatasetProfile;
use osn_graph::NodeId;
use osn_propagation::linear_threshold::lt_influence;
use osn_propagation::{McBackend, RedemptionReport};
use s3crm_baselines::im::{best_feasible_prefix, greedy_seed_ranking};
use s3crm_baselines::ris::{ris_seed_ranking, RisConfig};
use s3crm_baselines::strategy::CouponStrategy;
use std::time::Instant;

/// CELF-greedy vs RIS ranking on one profile.
pub fn ris_vs_celf(profile: DatasetProfile, effort: &Effort) -> Table {
    let inst = crate::dataset::profile_instance(profile, effort);
    let eval = McBackend::sample(&inst.graph, effort.eval_worlds, effort.seed ^ 0xC0DE);
    let mut table = Table::new(
        format!(
            "Extension: IM ranking stage, CELF vs RIS [{}]",
            profile.name()
        ),
        &["ranking", "time_ms", "seeds", "redemption_rate", "benefit"],
    );

    let celf_backend = McBackend::sample(&inst.graph, effort.im_worlds, effort.seed ^ 0xD1CE);
    let t0 = Instant::now();
    let celf = greedy_seed_ranking(&inst.graph, celf_backend.cache(), 256, 64);
    let celf_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let ris: Vec<NodeId> = ris_seed_ranking(
        &inst.graph,
        &RisConfig {
            rr_sets: 20_000,
            rng_seed: effort.seed ^ 0x515,
        },
        64,
    )
    .into_iter()
    .map(|(v, _)| v)
    .collect();
    let ris_ms = t1.elapsed().as_secs_f64() * 1e3;

    for (name, ranking, ms) in [("CELF", celf, celf_ms), ("RIS", ris, ris_ms)] {
        let dep = best_feasible_prefix(
            &inst.graph,
            &inst.data,
            inst.budget,
            CouponStrategy::Unlimited,
            &ranking,
            &celf_backend,
        );
        let report =
            RedemptionReport::compute(&inst.graph, &inst.data, &dep.seeds, &dep.coupons, &eval);
        table.push_row(vec![
            name.into(),
            num(ms),
            dep.seeds.len().to_string(),
            num(report.redemption_rate),
            num(report.expected_benefit),
        ]);
    }
    table
}

/// LT vs coupon-constrained IC influence of the same seed sets.
pub fn lt_vs_coupon_ic(profile: DatasetProfile, effort: &Effort) -> Table {
    let inst = crate::dataset::profile_instance(profile, effort);
    let eval = McBackend::sample(&inst.graph, effort.eval_worlds, effort.seed ^ 0x17);
    let mut table = Table::new(
        format!("Extension: LT vs coupon-IC activation [{}]", profile.name()),
        &["seeds", "coupon_cap", "ic_activated", "lt_activated"],
    );
    // Top-degree seed sets of growing size.
    let mut by_degree: Vec<NodeId> = inst.graph.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(inst.graph.out_degree(v)));
    for size in [1usize, 4, 16] {
        let seeds: Vec<NodeId> = by_degree.iter().copied().take(size).collect();
        for cap in [1u32, 4] {
            let coupons: Vec<u32> = inst
                .graph
                .nodes()
                .map(|v| (inst.graph.out_degree(v) as u32).min(cap))
                .collect();
            let report =
                RedemptionReport::compute(&inst.graph, &inst.data, &seeds, &coupons, &eval);
            let lt = lt_influence(&inst.graph, &seeds, 200, effort.seed ^ 0x99);
            table.push_row(vec![
                size.to_string(),
                cap.to_string(),
                num(report.avg_activated),
                num(lt),
            ]);
        }
    }
    table
}

/// The default scenario sweep at the effort's scale: 27 cells over
/// budgets × strategies × weight models, each destined for its own CSV.
pub fn scenario_sweep(effort: &Effort) -> Vec<SweepCell> {
    let n = ((400.0 * effort.graph_scale).round() as usize).max(60);
    run_sweep(n, &SweepGrid::extension_default(), effort)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            graph_scale: 0.04,
            eval_worlds: 16,
            im_worlds: 8,
            seed: 4,
            ..Effort::micro()
        }
    }

    #[test]
    fn ris_vs_celf_produces_two_rows() {
        let t = ris_vs_celf(DatasetProfile::Facebook, &tiny());
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "CELF");
        assert_eq!(t.rows[1][0], "RIS");
    }

    #[test]
    fn lt_table_covers_the_sweep() {
        let t = lt_vs_coupon_ic(DatasetProfile::Facebook, &tiny());
        assert_eq!(t.rows.len(), 6);
        // The coupon cap must matter for IC: cap 4 activates at least as
        // much as cap 1 for the same seed count.
        let ic_cap1: f64 = t.rows[0][2].parse().unwrap();
        let ic_cap4: f64 = t.rows[1][2].parse().unwrap();
        assert!(ic_cap4 >= ic_cap1 - 1e-9);
    }
}
