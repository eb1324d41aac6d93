//! Dropbox-style referral campaign on a Facebook-shaped network.
//!
//! Dropbox caps each user at 32 referral rewards (16 GB at 500 MB each) —
//! the paper's *limited coupon strategy*. This example compares how a
//! budgeted campaign performs when the seeds are chosen by classical
//! influence maximization (IM-L), profit maximization (PM-L), or S3CA's
//! joint seed + coupon optimization.
//!
//! ```text
//! cargo run --release -p s3crm-examples --example dropbox_campaign
//! ```

use osn_gen::DatasetProfile;
use osn_propagation::{McBackend, RedemptionReport};
use s3crm_baselines::im::{im_with_strategy, ImConfig};
use s3crm_baselines::pm::pm_with_strategy;
use s3crm_baselines::strategy::CouponStrategy;
use s3crm_core::{s3ca, S3caConfig};

fn main() {
    // Facebook-shaped synthetic network at 1/4 scale: 1 000 users.
    let inst = DatasetProfile::Facebook
        .generate(0.25, 2024)
        .expect("generation");
    let (graph, data, budget) = (&inst.graph, &inst.data, inst.budget);
    println!(
        "Network: {} users, {} relationships; campaign budget {budget}",
        graph.node_count(),
        graph.edge_count()
    );

    let dropbox = CouponStrategy::DROPBOX; // Limited(32)
    let backend = McBackend::sample(graph, 500, 99);
    let im_cfg = ImConfig::default();

    let mut results: Vec<(&str, s3crm_core::Deployment)> = Vec::new();
    results.push((
        "IM-L ",
        im_with_strategy(graph, data, budget, dropbox, &im_cfg),
    ));
    results.push(("PM-L ", pm_with_strategy(graph, data, budget, dropbox)));
    let s3 = s3ca(graph, data, budget, &S3caConfig::default());
    results.push(("S3CA ", s3.deployment));

    println!(
        "\n{:<6} {:>8} {:>10} {:>10} {:>8} {:>7} {:>9}",
        "algo", "seeds", "benefit", "cost", "rate", "hops", "activated"
    );
    for (name, dep) in &results {
        let r = RedemptionReport::compute(graph, data, &dep.seeds, &dep.coupons, &backend);
        println!(
            "{:<6} {:>8} {:>10.1} {:>10.1} {:>8.3} {:>7.2} {:>9.1}",
            name,
            dep.seeds.len(),
            r.expected_benefit,
            r.total_cost,
            r.redemption_rate,
            r.avg_farthest_hop,
            r.avg_activated
        );
    }
    println!(
        "\nS3CA chooses both *which* users seed the campaign and *how many* \
         referral slots each influenced user gets, instead of the uniform 32."
    );
}
