//! Fig. 8 — the Sec. VI-C case study with real coupon policies.
//!
//! Airbnb (SC cost 50, allocation 100) and Booking.com (SC cost 100 via
//! Hotels.com, allocation 10) policies on a Facebook-shaped network; user
//! adoption follows the 85/10/5 model of \[30\] (scaling incoming influence),
//! benefits follow the gross-margin setting of \[31\]:
//! `b = c_sc / (1 − margin/100)`.
//!
//! Expected shape (paper): redemption rate rises with the gross margin for
//! every algorithm; S3CA leads at every margin; Booking.com's tighter
//! allocation out-redeems Airbnb's generous one (fewer unredeemed coupons).

use crate::effort::Effort;
use crate::runner::evaluate_all;
use crate::scenario::Algorithm;
use crate::table::{num, Table};
use osn_gen::adoption::{
    adoption_probabilities, apply_adoption, gross_margin_benefits, CouponPolicy, AIRBNB, BOOKING,
};
use osn_gen::{seeded_rng, DatasetProfile};
use osn_graph::NodeData;

/// The gross-margin sweep (percent).
pub const MARGINS: [f64; 4] = [20.0, 40.0, 60.0, 80.0];

/// Algorithms in the case study (paper Fig. 8 shows IM/PM variants + S3CA).
pub const CASE_SET: [Algorithm; 5] = [
    Algorithm::ImU,
    Algorithm::ImL,
    Algorithm::PmU,
    Algorithm::PmL,
    Algorithm::S3ca,
];

/// Run the case study for one policy; returns (redemption-rate table,
/// seed–SC-rate table) over the margin sweep — Fig. 8(a)(b) for Airbnb,
/// (c)(d) for Booking.com.
pub fn case_study(policy: CouponPolicy, effort: &Effort) -> (Table, Table) {
    let profile = DatasetProfile::Facebook;
    let base = crate::dataset::profile_instance(profile, effort);
    let n = base.graph.node_count();

    // Uniform policy SC costs; adoption probabilities derived from them.
    let sc_costs = vec![policy.sc_cost; n];
    let mut rng = seeded_rng(effort.seed ^ 0xCA5E);
    let adoption = adoption_probabilities(&sc_costs, &mut rng);
    let graph = apply_adoption(&base.graph, &adoption).expect("adoption reweighting");

    let mut rate = Table::new(
        format!("Fig 8: redemption rate vs gross margin [{}]", policy.name),
        &headers_with("margin%"),
    );
    let mut seed_sc = Table::new(
        format!("Fig 8: seed-SC rate vs gross margin [{}]", policy.name),
        &headers_with("margin%"),
    );
    // Budget scales with the policy's coupon price so a meaningful number
    // of coupons stays affordable at every margin.
    let binv = policy.sc_cost * (n as f64) * 0.05;

    for margin in MARGINS {
        let benefits = gross_margin_benefits(&sc_costs, margin);
        let data = NodeData::new(benefits, base.data.seed_costs().to_vec(), sc_costs.clone())
            .expect("case-study attributes");
        let rows = evaluate_all(&graph, &data, binv, &CASE_SET, policy.allocation, effort);
        let mut rate_cells = vec![num(margin)];
        let mut ssc_cells = vec![num(margin)];
        for r in &rows {
            rate_cells.push(num(r.report.redemption_rate));
            ssc_cells.push(num(r.report.seed_sc_rate));
        }
        rate.push_row(rate_cells);
        seed_sc.push_row(ssc_cells);
    }
    (rate, seed_sc)
}

/// Both policies of the paper.
pub fn policies() -> [CouponPolicy; 2] {
    [AIRBNB, BOOKING]
}

fn headers_with(x: &str) -> Vec<&str> {
    let mut h = vec![x];
    h.extend(CASE_SET.iter().map(|a| a.label()));
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_produces_margin_rows() {
        let effort = Effort {
            graph_scale: 0.04,
            eval_worlds: 16,
            im_worlds: 8,
            seed: 2,
            ..Effort::micro()
        };
        let (rate, ssc) = case_study(AIRBNB, &effort);
        assert_eq!(rate.rows.len(), MARGINS.len());
        assert_eq!(ssc.rows.len(), MARGINS.len());
        assert_eq!(rate.headers.len(), 1 + CASE_SET.len());
    }
}
