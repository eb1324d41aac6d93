//! Fig. 9 — scalability on synthetic Facebook-like networks.
//!
//! Power-law-cluster graphs (the PPGG substitute) of growing size under a
//! fixed budget, then a budget sweep at fixed size.
//!
//! Expected shape (paper): running time grows with network size but the
//! *explored ratio falls* (S3CA stops exploring once the budget is spent);
//! both running time and explored ratio grow with the budget.

use crate::effort::Effort;
use crate::table::{num, Table};
use osn_gen::attrs::standard_workload;
use osn_gen::powerlaw_cluster::powerlaw_cluster;
use osn_gen::seeded_rng;
use osn_gen::weights::{assign_weights, WeightModel};
use osn_graph::{CsrGraph, NodeData};
use s3crm_core::s3ca;

/// Build one synthetic scalability instance.
fn synthetic_instance(n: usize, seed: u64) -> (CsrGraph, NodeData) {
    let mut rng = seeded_rng(seed);
    let topo = powerlaw_cluster(n, 8, 0.6, &mut rng);
    let mut builder = topo.into_directed(1.0, &mut rng).expect("conversion");
    assign_weights(&mut builder, WeightModel::InverseInDegree, &mut rng);
    let graph = builder.build().expect("build");
    let data = standard_workload(&graph, 10.0, 2.0, 1.0, 10.0, &mut rng).expect("workload");
    (graph, data)
}

/// Running time and explored ratio vs network size — Fig. 9(a)(b).
pub fn vs_network_size(sizes: &[usize], binv: f64, effort: &Effort) -> Table {
    let mut table = Table::new(
        format!(
            "Fig 9(a/b): S3CA scalability vs network size (Binv = {})",
            num(binv)
        ),
        &[
            "nodes",
            "edges",
            "time_ms",
            "explored_ratio",
            "eval_full_rebuilds",
            "eval_incremental_updates",
            "eval_lazy_rescores",
            "world_cache_bytes",
            "world_live_density",
            "world_sampling_us",
            "lane_kernel_worlds",
        ],
    );
    for &n in sizes {
        let (graph, data) = synthetic_instance(n, effort.seed);
        let result = s3ca(&graph, &data, binv, &effort.s3ca_config());
        table.push_row(vec![
            n.to_string(),
            graph.edge_count().to_string(),
            num(result.telemetry.total_micros() as f64 / 1e3),
            num(result.telemetry.explored_ratio),
            result.telemetry.eval_full_rebuilds.to_string(),
            result.telemetry.eval_incremental_updates.to_string(),
            result.telemetry.eval_lazy_rescores.to_string(),
            result.telemetry.world_cache_bytes.to_string(),
            num(result.telemetry.world_live_density),
            result.telemetry.world_sampling_micros.to_string(),
            result.telemetry.lane_kernel_worlds.to_string(),
        ]);
    }
    table
}

/// Running time and explored ratio vs budget — Fig. 9(c)(d).
pub fn vs_budget(n: usize, budgets: &[f64], effort: &Effort) -> Table {
    let (graph, data) = synthetic_instance(n, effort.seed);
    let mut table = Table::new(
        format!("Fig 9(c/d): S3CA scalability vs Binv ({n} nodes)"),
        &[
            "Binv",
            "time_ms",
            "explored_ratio",
            "eval_full_rebuilds",
            "eval_incremental_updates",
            "eval_lazy_rescores",
            "world_cache_bytes",
            "world_live_density",
            "world_sampling_us",
            "lane_kernel_worlds",
        ],
    );
    for &binv in budgets {
        let result = s3ca(&graph, &data, binv, &effort.s3ca_config());
        table.push_row(vec![
            num(binv),
            num(result.telemetry.total_micros() as f64 / 1e3),
            num(result.telemetry.explored_ratio),
            result.telemetry.eval_full_rebuilds.to_string(),
            result.telemetry.eval_incremental_updates.to_string(),
            result.telemetry.eval_lazy_rescores.to_string(),
            result.telemetry.world_cache_bytes.to_string(),
            num(result.telemetry.world_live_density),
            result.telemetry.world_sampling_micros.to_string(),
            result.telemetry.lane_kernel_worlds.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explored_ratio_falls_with_size_under_fixed_budget() {
        let effort = Effort::micro();
        let t = vs_network_size(&[300, 1200], 300.0, &effort);
        assert_eq!(t.rows.len(), 2);
        let small: f64 = t.rows[0][3].parse().unwrap();
        let large: f64 = t.rows[1][3].parse().unwrap();
        assert!(
            large <= small + 1e-9,
            "explored ratio should not grow with n: {small} -> {large}"
        );
    }

    #[test]
    fn explored_ratio_grows_with_budget() {
        let effort = Effort::micro();
        let t = vs_budget(400, &[50.0, 800.0], &effort);
        let lo: f64 = t.rows[0][2].parse().unwrap();
        let hi: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            hi >= lo,
            "explored ratio should grow with budget: {lo} -> {hi}"
        );
        // The lane-cascade counter rides at the end of the row.
        let lane: u64 = t.rows[1][9].parse().unwrap();
        assert!(lane > 0, "snapshot selection must report lane cascades");
    }
}
