//! Common benefit-evaluator interface.
//!
//! Two implementations back the Lemma 2 estimation story:
//! [`AnalyticEvaluator`] (closed form; exact on forests) and
//! [`MonteCarloEvaluator`](crate::monte_carlo::MonteCarloEvaluator)
//! (`(1−ε)`-accurate sampling over a world cache). `repro ablation`
//! (its `ablation_evaluator` table) measures the trade-off between them.
//!
//! Both expose a **batched** entry point, [`BenefitEvaluator::simulate_batch`]:
//! greedy loops submit whole candidate lists instead of serial per-candidate
//! calls, letting the Monte-Carlo implementation serve every candidate from
//! one pass over its world cache. The contract is exact: element `i` of the
//! batch result is bit-identical to evaluating `batch[i]` alone.

use crate::monte_carlo::SimulationStats;
use crate::spread::SpreadState;
use osn_graph::{CsrGraph, NodeData, NodeId};

/// A borrowed candidate deployment — the unit of batched evaluation. The
/// greedy loops own many trial `(seeds, coupons)` pairs; this view lets them
/// submit a batch without cloning either vector.
#[derive(Clone, Copy, Debug)]
pub struct DeploymentRef<'a> {
    /// Seed set `S`.
    pub seeds: &'a [NodeId],
    /// Per-node coupon counts `k_i`, indexed by node id.
    pub coupons: &'a [u32],
}

/// Anything that can estimate the expected benefit `B(S, K(I))`.
pub trait BenefitEvaluator {
    /// Expected total benefit of the deployment.
    fn expected_benefit(&self, seeds: &[NodeId], coupons: &[u32]) -> f64;

    /// Per-node activation probability estimates.
    fn activation_probabilities(&self, seeds: &[NodeId], coupons: &[u32]) -> Vec<f64>;

    /// Full simulation statistics of one deployment. The default assembles
    /// benefit and activation mass from the two required methods and sets
    /// [`SimulationStats::cascade`] to `None`: hop and redeemed-cost
    /// averages exist only for evaluators that actually run per-world
    /// cascades (the Monte-Carlo implementation overrides this with real
    /// data). The `Option` is the contract — an implementation without
    /// per-world data must **not** fabricate zeros, and a consumer that
    /// feeds cascade columns (e.g. Table III hop reports) must handle the
    /// `None` case explicitly.
    fn simulate(&self, seeds: &[NodeId], coupons: &[u32]) -> SimulationStats {
        SimulationStats {
            expected_benefit: self.expected_benefit(seeds, coupons),
            mean_activated: self.activation_probabilities(seeds, coupons).iter().sum(),
            cascade: None,
        }
    }

    /// Evaluate many candidates at once: element `i` must be bit-identical
    /// to `self.simulate(batch[i].seeds, batch[i].coupons)`. The default is
    /// the serial per-candidate loop; implementations override it to share
    /// work across candidates (the Monte-Carlo evaluator makes one pass
    /// over its world cache serve the whole batch).
    fn simulate_batch(&self, batch: &[DeploymentRef<'_>]) -> Vec<SimulationStats> {
        batch
            .iter()
            .map(|d| self.simulate(d.seeds, d.coupons))
            .collect()
    }
}

/// Closed-form evaluator (see [`spread`](crate::spread)).
pub struct AnalyticEvaluator<'a> {
    graph: &'a CsrGraph,
    data: &'a NodeData,
}

impl<'a> AnalyticEvaluator<'a> {
    /// Evaluator over a fixed instance.
    pub fn new(graph: &'a CsrGraph, data: &'a NodeData) -> Self {
        AnalyticEvaluator { graph, data }
    }
}

impl BenefitEvaluator for AnalyticEvaluator<'_> {
    fn expected_benefit(&self, seeds: &[NodeId], coupons: &[u32]) -> f64 {
        SpreadState::evaluate(self.graph, self.data, seeds, coupons).expected_benefit
    }

    fn activation_probabilities(&self, seeds: &[NodeId], coupons: &[u32]) -> Vec<f64> {
        SpreadState::evaluate(self.graph, self.data, seeds, coupons).active_prob
    }

    fn simulate(&self, seeds: &[NodeId], coupons: &[u32]) -> SimulationStats {
        // One SpreadState evaluation serves both statistics. No cascade is
        // run, so no cascade averages exist (see the trait contract).
        let state = SpreadState::evaluate(self.graph, self.data, seeds, coupons);
        SimulationStats {
            expected_benefit: state.expected_benefit,
            mean_activated: state.active_prob.iter().sum(),
            cascade: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    #[test]
    fn analytic_evaluator_on_singleton() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(2, 2.0, 1.0, 1.0);
        let ev = AnalyticEvaluator::new(&g, &d);
        // No coupons: only the seed's benefit.
        assert_eq!(ev.expected_benefit(&[NodeId(0)], &[0, 0]), 2.0);
        // One coupon: + 0.5 · 2.
        assert_eq!(ev.expected_benefit(&[NodeId(0)], &[1, 0]), 3.0);
        let p = ev.activation_probabilities(&[NodeId(0)], &[1, 0]);
        assert_eq!(p, vec![1.0, 0.5]);
    }

    #[test]
    fn analytic_batch_matches_per_candidate() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.25).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let ev = AnalyticEvaluator::new(&g, &d);
        let seeds = [NodeId(0)];
        let ks: [[u32; 3]; 3] = [[0, 0, 0], [1, 0, 0], [1, 1, 0]];
        let batch: Vec<DeploymentRef<'_>> = ks
            .iter()
            .map(|k| DeploymentRef {
                seeds: &seeds,
                coupons: k,
            })
            .collect();
        let stats = ev.simulate_batch(&batch);
        for (s, k) in stats.iter().zip(ks.iter()) {
            let lone = ev.simulate(&seeds, k);
            assert_eq!(
                s.expected_benefit.to_bits(),
                lone.expected_benefit.to_bits()
            );
            assert_eq!(s.mean_activated.to_bits(), lone.mean_activated.to_bits());
        }
        assert_eq!(stats[2].expected_benefit, 1.0 + 0.5 + 0.5 * 0.25);
    }
}
