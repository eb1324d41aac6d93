//! Small-instance optimality checks (the Sec. VI-D validation): the
//! Theorem 2 guarantee `S3CA ≥ OPT · (1 − e^{−1/(b0·c0)} − ε)` must hold
//! empirically on every instance the exact solver can handle, whichever
//! estimator drives the ID phase.

use osn_gen::powerlaw_cluster::powerlaw_cluster;
use osn_gen::seeded_rng;
use osn_gen::weights::{assign_weights, WeightModel};
use osn_graph::{CsrGraph, NodeData};
use s3crm_baselines::opt::{exhaustive_opt, OptConfig};
use s3crm_core::bounds::{approximation_ratio, worst_case_bound};
use s3crm_core::{s3ca, EstimatorBackend, S3caConfig};

fn small_instance(n: usize, seed: u64) -> (CsrGraph, NodeData) {
    let mut rng = seeded_rng(seed);
    let topo = powerlaw_cluster(n, 2, 0.8, &mut rng);
    let mut builder = topo.into_directed(1.0, &mut rng).unwrap();
    assign_weights(&mut builder, WeightModel::InverseInDegree, &mut rng);
    let graph = builder.build().unwrap();
    // Uniform attributes keep b0 = c0 = 1 → the strongest (1 − 1/e − ε)
    // form of the bound.
    let data = NodeData::uniform(graph.node_count(), 2.0, 2.0, 2.0);
    (graph, data)
}

/// Both ID-phase estimators: the analytic engine and the sketch.
const BACKENDS: [EstimatorBackend; 2] = [EstimatorBackend::Mc, EstimatorBackend::Sketch];

fn config(estimator: EstimatorBackend) -> S3caConfig {
    S3caConfig {
        estimator,
        ..S3caConfig::default()
    }
}

#[test]
fn approximation_bound_holds_on_uniform_instances() {
    let epsilon = 0.05;
    for seed in 0..6u64 {
        let (graph, data) = small_instance(40, seed);
        let binv = 8.0;
        let (_, opt) = exhaustive_opt(&graph, &data, binv, &OptConfig::default());
        let bound = worst_case_bound(opt.rate, &data, epsilon);
        for estimator in BACKENDS {
            let greedy = s3ca(&graph, &data, binv, &config(estimator));
            assert!(
                greedy.objective.rate + 1e-9 >= bound,
                "seed {seed}, {estimator:?}: S3CA {} < bound {} (OPT {})",
                greedy.objective.rate,
                bound,
                opt.rate
            );
            // And OPT really dominates.
            assert!(opt.rate + 1e-9 >= greedy.objective.rate);
        }
    }
}

#[test]
fn bound_holds_with_heterogeneous_attributes() {
    use rand::Rng;
    let epsilon = 0.05;
    for seed in 0..4u64 {
        let (graph, _) = small_instance(30, seed + 100);
        let n = graph.node_count();
        let mut rng = seeded_rng(seed ^ 0xA77);
        let benefits: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..4.0)).collect();
        let seed_costs: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..4.0)).collect();
        let sc_costs: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..4.0)).collect();
        let data = NodeData::new(benefits, seed_costs, sc_costs).unwrap();
        let ratio = approximation_ratio(&data, epsilon);
        assert!(ratio > 0.0 && ratio < 1.0);

        let binv = 10.0;
        let (_, opt) = exhaustive_opt(&graph, &data, binv, &OptConfig::default());
        for estimator in BACKENDS {
            let greedy = s3ca(&graph, &data, binv, &config(estimator));
            assert!(
                greedy.objective.rate + 1e-9 >= opt.rate * ratio,
                "seed {seed}, {estimator:?}: S3CA {} < {} = OPT {} x ratio {ratio}",
                greedy.objective.rate,
                opt.rate * ratio,
                opt.rate
            );
        }
    }
}

#[test]
fn s3ca_is_often_optimal_on_tiny_instances() {
    // Not a guarantee, but the paper's Fig. 10(a) shows S3CA hugging OPT;
    // expect optimality (within 2%) on a majority of tiny instances.
    let mut close = [0; BACKENDS.len()];
    let trials = 8;
    for seed in 0..trials as u64 {
        let (graph, data) = small_instance(25, seed + 500);
        let binv = 6.0;
        let (_, opt) = exhaustive_opt(&graph, &data, binv, &OptConfig::default());
        for (hits, estimator) in close.iter_mut().zip(BACKENDS) {
            let greedy = s3ca(&graph, &data, binv, &config(estimator));
            if greedy.objective.rate >= opt.rate * 0.98 {
                *hits += 1;
            }
        }
    }
    for (hits, estimator) in close.into_iter().zip(BACKENDS) {
        assert!(
            hits * 2 >= trials,
            "{estimator:?}: S3CA within 2% of OPT on only {hits}/{trials} instances"
        );
    }
}
