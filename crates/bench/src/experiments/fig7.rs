//! Fig. 7 — seed–SC rate (`Cseed / Csc`) under swept `Binv`, λ, and κ.
//!
//! Expected shape (paper): S3CA *raises* its seed share as the budget or λ
//! grows (more budget → more influential sources; higher benefit per SC
//! dollar → seeds pay off), but *lowers* it as κ grows (seeds get
//! expensive → shift investment into coupons) — whereas every baseline
//! moves its seed share mechanically upward with κ and barely reacts to
//! `Binv` or λ.

use crate::effort::Effort;
use crate::runner::evaluate_all;
use crate::scenario::Algorithm;
use crate::table::{num, Table};
use osn_gen::attrs::{calibrate_kappa, calibrate_lambda};
use osn_gen::DatasetProfile;
use s3crm_baselines::strategy::CouponStrategy;

/// κ sweep of Fig. 7(e)(f).
pub const KAPPAS: [f64; 4] = [5.0, 10.0, 20.0, 40.0];

/// Seed–SC rate vs budget — Fig. 7(a)(b).
pub fn seed_sc_vs_budget(profile: DatasetProfile, effort: &Effort) -> Table {
    let inst = crate::dataset::profile_instance(profile, effort);
    let mut table = Table::new(
        format!("Fig 7(a/b): seed-SC rate vs Binv [{}]", profile.name()),
        &headers_with("Binv"),
    );
    for factor in super::fig6::BUDGET_FACTORS {
        let binv = inst.budget * factor;
        let rows = evaluate_all(
            &inst.graph,
            &inst.data,
            binv,
            &Algorithm::PAPER_SET,
            CouponStrategy::DROPBOX_CAP,
            effort,
        );
        table.push_row(row_of(num(binv), &rows));
    }
    table
}

/// Seed–SC rate vs λ — Fig. 7(c)(d).
pub fn seed_sc_vs_lambda(profile: DatasetProfile, effort: &Effort) -> Table {
    let base = crate::dataset::profile_instance(profile, effort);
    let mut table = Table::new(
        format!("Fig 7(c/d): seed-SC rate vs lambda [{}]", profile.name()),
        &headers_with("lambda"),
    );
    for lambda in super::fig6::LAMBDAS {
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
        table.push_row(row_of(num(lambda), &rows));
    }
    table
}

/// Seed–SC rate vs κ — Fig. 7(e)(f).
pub fn seed_sc_vs_kappa(profile: DatasetProfile, effort: &Effort) -> Table {
    let base = crate::dataset::profile_instance(profile, effort);
    let mut table = Table::new(
        format!("Fig 7(e/f): seed-SC rate vs kappa [{}]", profile.name()),
        &headers_with("kappa"),
    );
    for kappa in KAPPAS {
        let mut data = base.data.clone();
        calibrate_kappa(&mut data, kappa);
        let rows = evaluate_all(
            &base.graph,
            &data,
            base.budget,
            &Algorithm::PAPER_SET,
            CouponStrategy::DROPBOX_CAP,
            effort,
        );
        table.push_row(row_of(num(kappa), &rows));
    }
    table
}

fn headers_with(x: &str) -> Vec<&str> {
    let mut h = vec![x];
    h.extend(Algorithm::PAPER_SET.iter().map(|a| a.label()));
    h
}

fn row_of(x: String, rows: &[crate::runner::Row]) -> Vec<String> {
    let mut cells = vec![x];
    cells.extend(rows.iter().map(|r| num(r.report.seed_sc_rate)));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kappa_sweep_has_all_rows() {
        let effort = Effort {
            graph_scale: 0.05,
            eval_worlds: 16,
            im_worlds: 8,
            seed: 5,
            ..Effort::micro()
        };
        let t = seed_sc_vs_kappa(DatasetProfile::Facebook, &effort);
        assert_eq!(t.rows.len(), KAPPAS.len());
        assert_eq!(t.headers[0], "kappa");
    }
}
