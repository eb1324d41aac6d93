//! Table III — average farthest hop from the seed set.
//!
//! Expected shape (paper): S3CA spreads 2–3.6 hops deep on every dataset;
//! the -L baselines sit at ≈ 1 hop (seeds' immediate friends) and the -U
//! baselines below 2.

use crate::effort::Effort;
use crate::runner::evaluate_all;
use crate::scenario::Algorithm;
use crate::table::{num, Table};
use osn_gen::DatasetProfile;

/// Build the hop table over the given profiles.
pub fn farthest_hops(profiles: &[DatasetProfile], effort: &Effort) -> Table {
    let mut headers: Vec<&str> = vec!["Dataset"];
    headers.extend(Algorithm::TABLE3_SET.iter().map(|a| a.label()));
    let mut table = Table::new("Table III: average farthest hops from seeds", &headers);
    for &profile in profiles {
        let inst = crate::dataset::profile_instance(profile, effort);
        let rows = evaluate_all(
            &inst.graph,
            &inst.data,
            inst.budget,
            &Algorithm::TABLE3_SET,
            s3crm_baselines::CouponStrategy::DROPBOX_CAP,
            effort,
        );
        let mut cells = vec![profile.name().to_string()];
        cells.extend(rows.iter().map(|r| num(r.report.avg_farthest_hop)));
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_per_profile() {
        let effort = Effort {
            graph_scale: 0.04,
            eval_worlds: 16,
            im_worlds: 8,
            seed: 13,
            ..Effort::micro()
        };
        let t = farthest_hops(&[DatasetProfile::Facebook], &effort);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], "Facebook");
    }
}
