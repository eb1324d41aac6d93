//! Table IV — S3CA running time vs investment budget, per dataset.
//!
//! Expected shape (paper): running time grows roughly linearly with `Binv`
//! and depends far more on the budget than on the network size.

use crate::effort::Effort;
use crate::table::{num, Table};
use osn_gen::DatasetProfile;
use s3crm_core::s3ca;

/// Budget factors matching the paper's five-point sweeps
/// (e.g. Facebook 6K..14K around the 10K default).
const BUDGET_FACTORS: [f64; 5] = [0.6, 0.8, 1.0, 1.2, 1.4];

/// Build the runtime table for the given profiles.
pub fn running_time(profiles: &[DatasetProfile], effort: &Effort) -> Table {
    let mut table = Table::new(
        "Table IV: average running time of S3CA (ms)",
        &["Dataset", "0.6x", "0.8x", "1.0x", "1.2x", "1.4x"],
    );
    for &profile in profiles {
        let inst = crate::dataset::profile_instance(profile, effort);
        let mut cells = vec![profile.name().to_string()];
        for factor in BUDGET_FACTORS {
            let result = s3ca(
                &inst.graph,
                &inst.data,
                inst.budget * factor,
                &effort.s3ca_config(),
            );
            cells.push(num(result.telemetry.total_micros() as f64 / 1e3));
        }
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_five_budget_columns() {
        let effort = Effort {
            graph_scale: 0.03,
            eval_worlds: 8,
            im_worlds: 8,
            seed: 3,
            ..Effort::micro()
        };
        let t = running_time(&[DatasetProfile::Facebook], &effort);
        assert_eq!(t.headers.len(), 6);
        assert_eq!(t.rows[0].len(), 6);
    }
}
