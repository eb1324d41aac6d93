//! The seed-only baselines that read the strategy's funded ledger return
//! the deployments of the path that rebuilt and re-evaluated it.
//!
//! IM's prefix sweep, PM's greedy and the Random floor test each candidate's
//! budget on the two costs of [`CouponStrategy::deploy`]'s ledger, and PM
//! builds its benefit engine over that ledger. The oracles in
//! `tests/common.rs` are the functions they replaced: the strategy's coupon
//! vector from an ascending reachable set and a `spread_levels` funding
//! order, paired with the seeds and evaluated from scratch by
//! `objective::evaluate`. Both run under the Unlimited, Limited(2) and
//! Limited(0) strategies on the Fig. 1 fixture and two scaled Facebook
//! profiles, over budget ladders that include budgets the seeds alone use
//! up.

use osn_gen::fixtures::fig1;
use osn_gen::DatasetProfile;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_pool::ThreadPool;
use osn_propagation::McBackend;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s3crm_baselines::common::{top_out_degree, CANDIDATE_POOL, MAX_SEEDS};
use s3crm_baselines::im::{best_feasible_prefix_on, greedy_seed_ranking_on};
use s3crm_baselines::pm::pm_with_strategy_on;
use s3crm_baselines::random_seeds::random_deployment;
use s3crm_baselines::strategy::CouponStrategy;
use s3crm_core::Deployment;
use s3crm_tests::{
    best_feasible_prefix_reference, pm_with_strategy_reference, random_deployment_reference,
};

const STRATEGIES: [CouponStrategy; 3] = [
    CouponStrategy::Unlimited,
    CouponStrategy::Limited(2),
    CouponStrategy::Limited(0),
];

/// The instances and their default budgets.
fn instances() -> Vec<(&'static str, CsrGraph, NodeData, f64)> {
    let f = fig1();
    let mut out = vec![("fig1", f.graph, f.data, f.budget)];
    for seed in [11, 12] {
        let inst = DatasetProfile::Facebook.generate(0.02, seed).unwrap();
        out.push(("facebook", inst.graph, inst.data, inst.budget));
    }
    out
}

/// Budgets below every seed cost, exactly one listed seed's cost (nothing
/// left for coupons after it) and multiples of the default.
fn ladder(data: &NodeData, seed_costs_of: &[NodeId], default: f64) -> Vec<f64> {
    let min = seed_costs_of
        .iter()
        .map(|&v| data.seed_cost(v))
        .fold(f64::INFINITY, f64::min);
    let mut out = vec![0.5 * min, min, data.seed_cost(seed_costs_of[0])];
    out.extend([0.25, 0.5, 1.0, 2.0, 4.0].map(|x| x * default));
    out
}

/// Whether a strategy that funds coupons left `dep` with seeds and no
/// coupon: its seeds used up the budget.
fn seeds_only(strategy: CouponStrategy, dep: &Deployment) -> bool {
    strategy != CouponStrategy::Limited(0)
        && !dep.seeds.is_empty()
        && dep.coupons.iter().all(|&k| k == 0)
}

#[test]
fn im_prefix_sweep_equals_rebuild_path() {
    let pools = [ThreadPool::new(1), ThreadPool::new(2)];
    let mut seeds_only_cases = 0;
    for (name, graph, data, default) in instances() {
        let backend = McBackend::sample(&graph, 16, 5);
        let ranking = greedy_seed_ranking_on(
            &graph,
            backend.cache(),
            CANDIDATE_POOL,
            MAX_SEEDS,
            &pools[0],
        );
        for binv in ladder(&data, &ranking, default) {
            for strategy in STRATEGIES {
                let want = best_feasible_prefix_reference(
                    &graph, &data, binv, strategy, &ranking, &backend,
                );
                seeds_only_cases += usize::from(seeds_only(strategy, &want));
                for pool in &pools {
                    let got = best_feasible_prefix_on(
                        &graph, &data, binv, strategy, &ranking, &backend, pool,
                    );
                    assert_eq!(got, want, "{name}, budget {binv}, {strategy:?}");
                }
            }
        }
    }
    assert!(
        seeds_only_cases > 0,
        "no budget was used up by the seeds alone"
    );
}

#[test]
fn pm_greedy_equals_rebuild_path() {
    let pools = [ThreadPool::new(1), ThreadPool::new(2)];
    let mut seeds_only_cases = 0;
    for (name, graph, data, default) in instances() {
        let candidates = top_out_degree(&graph, CANDIDATE_POOL);
        for binv in ladder(&data, &candidates, default) {
            for strategy in STRATEGIES {
                let want = pm_with_strategy_reference(&graph, &data, binv, strategy);
                seeds_only_cases += usize::from(seeds_only(strategy, &want));
                for pool in &pools {
                    let got = pm_with_strategy_on(&graph, &data, binv, strategy, pool);
                    assert_eq!(got, want, "{name}, budget {binv}, {strategy:?}");
                }
            }
        }
    }
    assert!(
        seeds_only_cases > 0,
        "no budget was used up by the seeds alone"
    );
}

#[test]
fn random_deployment_equals_rebuild_path() {
    let mut seeds_only_cases = 0;
    for (name, graph, data, default) in instances() {
        let nodes: Vec<NodeId> = graph.nodes().collect();
        for binv in ladder(&data, &nodes, default) {
            for strategy in STRATEGIES {
                for rng_seed in 0..4u64 {
                    let want = random_deployment_reference(
                        &graph,
                        &data,
                        binv,
                        strategy,
                        &mut SmallRng::seed_from_u64(rng_seed),
                    );
                    seeds_only_cases += usize::from(seeds_only(strategy, &want));
                    let got = random_deployment(
                        &graph,
                        &data,
                        binv,
                        strategy,
                        &mut SmallRng::seed_from_u64(rng_seed),
                    );
                    assert_eq!(
                        got, want,
                        "{name}, budget {binv}, {strategy:?}, rng {rng_seed}"
                    );
                }
            }
        }
    }
    assert!(
        seeds_only_cases > 0,
        "no budget was used up by the seeds alone"
    );
}
