//! The engine-walking OPT search returns the rebuild-per-child search's
//! deployment and objective, bit for bit.
//!
//! `exhaustive_opt` walks one `SpreadEngine` per seed set, one coupon per
//! branch-and-bound step and a retrieval on backtrack. The oracle is the
//! search it replaced ([`exhaustive_opt_reference`]), which evaluates every
//! child deployment from scratch. Both run on Fig. 10-shaped instances:
//! 150-node power-law-cluster networks with gross-margin benefits, built
//! with the generator calls of `fig10.rs`'s `small_instance`, at several
//! margins and seeds.

use osn_gen::adoption::gross_margin_benefits;
use osn_gen::powerlaw_cluster::powerlaw_cluster;
use osn_gen::seeded_rng;
use osn_gen::weights::{assign_weights, WeightModel};
use osn_graph::{CsrGraph, NodeData};
use s3crm_baselines::opt::{exhaustive_opt, OptConfig};
use s3crm_core::ObjectiveValue;
use s3crm_tests::exhaustive_opt_reference;

/// Fig. 10's 150-node instance at `margin` (percent) and generator `seed`.
fn fig10_instance(margin: f64, seed: u64) -> (CsrGraph, NodeData) {
    let mut rng = seeded_rng(seed);
    let topo = powerlaw_cluster(150, 3, 0.9, &mut rng);
    let mut builder = topo.into_directed(1.0, &mut rng).expect("conversion");
    assign_weights(&mut builder, WeightModel::InverseInDegree, &mut rng);
    let graph = builder.build().expect("build");
    let n = graph.node_count();
    let sc_costs = vec![1.0; n];
    let benefits = gross_margin_benefits(&sc_costs, margin);
    let data = NodeData::new(benefits, vec![3.0; n], sc_costs).expect("attributes");
    (graph, data)
}

/// Every field of an objective, as bits.
fn bits(v: &ObjectiveValue) -> [u64; 4] {
    [v.benefit, v.seed_cost, v.sc_cost, v.rate].map(f64::to_bits)
}

#[test]
fn walked_opt_equals_rebuild_per_child_search() {
    let cfg = OptConfig::default();
    // Fig. 10's budget of 12, and tight budgets where the budget prune
    // binds.
    let cases = [
        (20.0, 42, 12.0),
        (40.0, 43, 12.0),
        (60.0, 44, 6.0),
        (80.0, 45, 5.0),
        (40.0, 46, 4.0),
    ];
    for (margin, seed, binv) in cases {
        let (graph, data) = fig10_instance(margin, seed);
        let (dep, value) = exhaustive_opt(&graph, &data, binv, &cfg);
        let (ref_dep, ref_value) = exhaustive_opt_reference(&graph, &data, binv, &cfg);
        let at = format!("margin {margin}, seed {seed}, budget {binv}");
        assert_eq!(dep, ref_dep, "{at}: deployment");
        assert_eq!(bits(&value), bits(&ref_value), "{at}: objective");
        assert!(!dep.seeds.is_empty(), "{at}: a seed is affordable");
    }
}
