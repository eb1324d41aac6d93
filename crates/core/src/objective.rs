//! The S3CRM objective, evaluated analytically.
//!
//! One [`ObjectiveValue`] is the `(B, Cseed, Csc, rate)` tuple the greedy
//! phases compare. Final experiment reports use the Monte-Carlo
//! [`RedemptionReport`](osn_propagation::RedemptionReport) instead; the
//! analytic value is what drives the algorithm, matching the paper's worked
//! examples exactly on forests. Every analytic value comes from one
//! arithmetic, [`value_from_estimator`], over a maintained estimator or —
//! for a one-shot [`evaluate`] — a freshly built
//! [`SpreadEngine`].

use crate::deployment::Deployment;
use osn_graph::{CsrGraph, NodeData};
use osn_propagation::cost::redemption_rate;
use osn_propagation::SpreadEngine;
use serde::{Deserialize, Serialize};

/// Analytic evaluation of a deployment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveValue {
    /// Expected benefit `B(S, K(I))`.
    pub benefit: f64,
    /// `Cseed(S)`.
    pub seed_cost: f64,
    /// `Csc(K(I))`.
    pub sc_cost: f64,
    /// The redemption rate `B / (Cseed + Csc)` (0 when the cost is 0).
    pub rate: f64,
}

impl ObjectiveValue {
    /// Total cost `Cseed + Csc`.
    pub fn total_cost(&self) -> f64 {
        self.seed_cost + self.sc_cost
    }

    /// Whether the deployment fits budget `binv` ([`fits_budget`]).
    pub fn within_budget(&self, binv: f64) -> bool {
        fits_budget(self.total_cost(), binv)
    }
}

/// Whether a total cost fits budget `binv`, with a small tolerance for
/// floating-point accumulation.
pub fn fits_budget(total_cost: f64, binv: f64) -> bool {
    total_cost <= binv * (1.0 + 1e-9) + 1e-12
}

/// Evaluate a deployment's objective analytically, on a freshly built
/// [`SpreadEngine`].
pub fn evaluate(graph: &CsrGraph, data: &NodeData, dep: &Deployment) -> ObjectiveValue {
    value_from_estimator(&SpreadEngine::new(graph, data, &dep.seeds, &dep.coupons))
}

/// Objective of any maintained [`BenefitEstimator`](osn_propagation::BenefitEstimator):
/// the costs are exact by the estimator contract, the benefit carries the
/// backend's estimation error. One arithmetic for every backend, so
/// swapping backends changes the benefit estimate only, never how the rate
/// is assembled. On the exact [`SpreadEngine`] it is bit-identical to
/// [`evaluate`] of the engine's deployment: a maintained engine is
/// bit-identical to a freshly built one.
pub fn value_from_estimator<E: osn_propagation::BenefitEstimator + ?Sized>(
    est: &E,
) -> ObjectiveValue {
    let benefit = est.expected_benefit();
    let seed = est.ledger().seed_cost();
    let sc = est.ledger().sc_cost();
    ObjectiveValue {
        benefit,
        seed_cost: seed,
        sc_cost: sc,
        rate: redemption_rate(benefit, seed + sc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::{GraphBuilder, NodeId};

    /// Fig. 1 fixture (duplicated from `osn_gen::fixtures` to keep the dev
    /// graph local).
    fn fig1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3, 0.55).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 0, 0.36).unwrap();
        b.add_edge(1, 2, 0.2).unwrap();
        b.add_edge(2, 3, 0.7).unwrap();
        b.add_edge(2, 1, 0.5).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        let d = NodeData::new(
            vec![3.0, 3.0, 3.0, 3.0, 6.0],
            vec![1.0, 1.54, 1.5, 100.0, 100.0],
            vec![1.0; 5],
        )
        .unwrap();
        (b.build().unwrap(), d)
    }

    #[test]
    fn fig1_case3_objective_is_the_paper_optimum() {
        let (g, d) = fig1();
        let mut dep = Deployment::empty(5);
        dep.add_seed(NodeId(0));
        dep.add_coupons(&g, NodeId(0), 1);
        dep.add_coupons(&g, NodeId(3), 1);
        let v = evaluate(&g, &d, &dep);
        assert!((v.benefit - 8.295).abs() < 1e-9, "benefit {}", v.benefit);
        assert!((v.total_cost() - 2.675).abs() < 1e-9);
        assert!((v.rate - 8.295 / 2.675).abs() < 1e-9);
        assert!(v.within_budget(3.5));
        assert!(!v.within_budget(2.0));
    }

    #[test]
    fn empty_deployment_is_all_zero() {
        let (g, d) = fig1();
        let v = evaluate(&g, &d, &Deployment::empty(5));
        assert_eq!(v, ObjectiveValue::default());
    }
}
