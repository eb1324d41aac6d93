//! Random-deployment floor.
//!
//! Not a paper baseline, but a useful sanity reference: any algorithm worth
//! reporting should clear it. Picks uniformly random affordable seeds and
//! pairs them with a coupon strategy under the budget.

use crate::common::deployment_with_strategy;
use crate::strategy::CouponStrategy;
use osn_graph::{CsrGraph, NodeData, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use s3crm_core::deployment::Deployment;
use s3crm_core::objective;

/// Random feasible deployment: shuffle users, greedily keep seeds while the
/// strategy-paired deployment stays within budget.
pub fn random_deployment<R: Rng>(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    strategy: CouponStrategy,
    rng: &mut R,
) -> Deployment {
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(rng);
    let mut seeds: Vec<NodeId> = Vec::new();
    for v in order {
        if data.seed_cost(v) > binv {
            continue;
        }
        seeds.push(v);
        let dep = deployment_with_strategy(graph, data, binv, &seeds, strategy);
        if !objective::evaluate(graph, data, &dep).within_budget(binv) {
            seeds.pop();
            // One miss is not proof that nothing further fits, but random
            // baselines do not need to squeeze the budget; stop here.
            break;
        }
    }
    deployment_with_strategy(graph, data, binv, &seeds, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn instance() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(6);
        for u in 0..5u32 {
            b.add_edge(u, u + 1, 0.5).unwrap();
        }
        (b.build().unwrap(), NodeData::uniform(6, 1.0, 1.0, 0.5))
    }

    #[test]
    fn always_within_budget() {
        let (g, d) = instance();
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let dep = random_deployment(&g, &d, 3.0, CouponStrategy::Unlimited, &mut rng);
            assert!(objective::evaluate(&g, &d, &dep).within_budget(3.0));
        }
    }

    #[test]
    fn deterministic_per_rng_seed() {
        let (g, d) = instance();
        let a = random_deployment(
            &g,
            &d,
            3.0,
            CouponStrategy::Unlimited,
            &mut SmallRng::seed_from_u64(7),
        );
        let b = random_deployment(
            &g,
            &d,
            3.0,
            CouponStrategy::Unlimited,
            &mut SmallRng::seed_from_u64(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_budget_is_empty() {
        let (g, d) = instance();
        let dep = random_deployment(
            &g,
            &d,
            0.0,
            CouponStrategy::Unlimited,
            &mut SmallRng::seed_from_u64(1),
        );
        assert!(dep.seeds.is_empty());
    }
}
