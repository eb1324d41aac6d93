//! Quickstart: build a small social network, run S3CA, inspect the result.
//!
//! ```text
//! cargo run -p s3crm-examples --example quickstart
//! ```

use osn_graph::{GraphBuilder, NodeData};
use osn_propagation::{McBackend, RedemptionReport};
use s3crm_core::{s3ca, S3caConfig};

fn main() {
    // 1. A hand-built network: probabilities are per-edge influence odds.
    //    (This is the paper's Fig. 1 comparison example.)
    let mut builder = GraphBuilder::new(5);
    for (u, v, p) in [
        (0u32, 3u32, 0.55), // v1 -> v4
        (0, 1, 0.5),        // v1 -> v2
        (1, 0, 0.36),       // v2 -> v1
        (1, 2, 0.2),        // v2 -> v3
        (2, 3, 0.7),        // v3 -> v4
        (2, 1, 0.5),        // v3 -> v2
        (3, 4, 0.9),        // v4 -> v5
    ] {
        builder.add_edge(u, v, p).expect("valid edge");
    }
    let graph = builder.build().expect("valid graph");

    // 2. Per-user attributes: benefit, seed cost, coupon cost.
    let data = NodeData::new(
        vec![3.0, 3.0, 3.0, 3.0, 6.0],
        vec![1.0, 1.54, 1.5, 100.0, 100.0],
        vec![1.0; 5],
    )
    .expect("valid attributes");

    // 3. Run S3CA under the investment budget.
    let budget = 3.5;
    let result = s3ca(&graph, &data, budget, &S3caConfig::default());

    println!("S3CA deployment under budget {budget}:");
    println!("  seeds: {:?}", result.deployment.seeds);
    for v in graph.nodes() {
        let k = result.deployment.coupons[v.index()];
        if k > 0 {
            println!("  {v}: {k} social coupon(s)");
        }
    }
    println!(
        "  analytic: benefit {:.3}, cost {:.3}, redemption rate {:.3}",
        result.objective.benefit,
        result.objective.total_cost(),
        result.objective.rate
    );

    // 4. Verify with Monte-Carlo simulation (10 000 sampled worlds).
    let backend = McBackend::sample(&graph, 10_000, 7);
    let report = RedemptionReport::compute(
        &graph,
        &data,
        &result.deployment.seeds,
        &result.deployment.coupons,
        &backend,
    );
    println!(
        "  simulated: benefit {:.3}, redemption rate {:.3}, avg farthest hop {:.2}",
        report.expected_benefit, report.redemption_rate, report.avg_farthest_hop
    );
    println!(
        "\nThe paper's optimum for this instance is rate 8.295 / 2.675 = {:.3} — \
         seed v0 with coupons on v0 and v3.",
        8.295 / 2.675
    );
}
