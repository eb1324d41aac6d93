//! Fig. 6 — investment efficiency.
//!
//! * (a)/(b): redemption rate and total benefit vs investment budget
//!   (paper: Douban);
//! * (c)/(d): redemption rate vs λ (paper: Douban and Facebook);
//! * (e)/(f): running time per algorithm at two budget levels.
//!
//! Expected shape (paper): S3CA attains the highest redemption rate and
//! total benefit everywhere; its rate sustains as `Binv` grows while total
//! benefit rises; IM-S trails every other algorithm on both metrics and
//! improves with λ.

use crate::effort::Effort;
use crate::runner::evaluate_all;
use crate::scenario::Algorithm;
use crate::table::{num, Table};
use osn_gen::attrs::calibrate_lambda;
use osn_gen::DatasetProfile;
use osn_graph::{CsrGraph, NodeData};
use s3crm_baselines::strategy::CouponStrategy;

/// The budget sweep, as multiples of the profile's Table II default.
pub const BUDGET_FACTORS: [f64; 5] = [0.6, 0.8, 1.0, 1.2, 1.4];
/// The λ sweep.
pub const LAMBDAS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// The Fig. 6(a)/(b) sweep body over any instance: every paper algorithm
/// at [`BUDGET_FACTORS`] multiples of `budget`, reporting redemption rate
/// and total benefit. Shared with the `repro --data` dataset sweep
/// ([`super::dataset`]) so the two can never drift apart.
pub fn rate_and_benefit_sweep(
    graph: &CsrGraph,
    data: &NodeData,
    budget: f64,
    rate_title: String,
    benefit_title: String,
    effort: &Effort,
) -> (Table, Table) {
    let mut rate = Table::new(rate_title, &headers_with("Binv"));
    let mut benefit = Table::new(benefit_title, &headers_with("Binv"));
    for factor in BUDGET_FACTORS {
        let binv = budget * factor;
        let rows = evaluate_all(
            graph,
            data,
            binv,
            &Algorithm::PAPER_SET,
            CouponStrategy::DROPBOX_CAP,
            effort,
        );
        rate.push_row(row_of(num(binv), &rows, |r| r.report.redemption_rate));
        benefit.push_row(row_of(num(binv), &rows, |r| r.report.expected_benefit));
    }
    (rate, benefit)
}

/// Redemption rate and total benefit vs `Binv` — Fig. 6(a)(b).
pub fn rate_and_benefit_vs_budget(profile: DatasetProfile, effort: &Effort) -> (Table, Table) {
    let inst = crate::dataset::profile_instance(profile, effort);
    rate_and_benefit_sweep(
        &inst.graph,
        &inst.data,
        inst.budget,
        format!("Fig 6(a): redemption rate vs Binv [{}]", profile.name()),
        format!("Fig 6(b): total benefit vs Binv [{}]", profile.name()),
        effort,
    )
}

/// Redemption rate vs λ — Fig. 6(c)(d).
pub fn rate_vs_lambda(profile: DatasetProfile, effort: &Effort) -> Table {
    let base = crate::dataset::profile_instance(profile, effort);
    let mut table = Table::new(
        format!("Fig 6(c/d): redemption rate vs lambda [{}]", profile.name()),
        &headers_with("lambda"),
    );
    for lambda in LAMBDAS {
        let mut data = base.data.clone();
        calibrate_lambda(&mut data, lambda);
        let rows = evaluate_all(
            &base.graph,
            &data,
            base.budget,
            &Algorithm::PAPER_SET,
            CouponStrategy::DROPBOX_CAP,
            effort,
        );
        table.push_row(row_of(num(lambda), &rows, |r| r.report.redemption_rate));
    }
    table
}

/// Running time per algorithm at a budget factor — Fig. 6(e)(f).
pub fn running_time(profile: DatasetProfile, budget_factor: f64, effort: &Effort) -> Table {
    let inst = crate::dataset::profile_instance(profile, effort);
    let mut table = Table::new(
        format!(
            "Fig 6(e/f): running time (ms) at {:.1}x default Binv [{}]",
            budget_factor,
            profile.name()
        ),
        &headers_with("Binv"),
    );
    let binv = inst.budget * budget_factor;
    let rows = evaluate_all(
        &inst.graph,
        &inst.data,
        binv,
        &Algorithm::PAPER_SET,
        CouponStrategy::DROPBOX_CAP,
        effort,
    );
    table.push_row(row_of(num(binv), &rows, |r| r.wall_ms));
    table
}

fn headers_with(x: &str) -> Vec<&str> {
    let mut h = vec![x];
    h.extend(Algorithm::PAPER_SET.iter().map(|a| a.label()));
    h
}

fn row_of(
    x: String,
    rows: &[crate::runner::Row],
    metric: impl Fn(&crate::runner::Row) -> f64,
) -> Vec<String> {
    let mut cells = vec![x];
    cells.extend(rows.iter().map(|r| num(metric(r))));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            graph_scale: 0.05, // 200-node Facebook
            eval_worlds: 32,
            im_worlds: 8,
            seed: 11,
            ..Effort::micro()
        }
    }

    #[test]
    fn budget_sweep_produces_full_tables() {
        let (rate, benefit) = rate_and_benefit_vs_budget(DatasetProfile::Facebook, &tiny());
        assert_eq!(rate.rows.len(), BUDGET_FACTORS.len());
        assert_eq!(benefit.rows.len(), BUDGET_FACTORS.len());
        assert_eq!(rate.headers.len(), 1 + Algorithm::PAPER_SET.len());
    }

    #[test]
    fn lambda_sweep_produces_full_table() {
        let t = rate_vs_lambda(DatasetProfile::Facebook, &tiny());
        assert_eq!(t.rows.len(), LAMBDAS.len());
    }
}
