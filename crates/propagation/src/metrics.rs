//! Reported metrics of Sec. VI.
//!
//! One [`RedemptionReport`] bundles everything a single experiment row
//! needs: redemption rate (the objective), total benefit, total cost and its
//! seed/SC split (the "seed-SC rate" of Fig. 7), and the average farthest
//! hop (Table III).

use crate::cost::{expected_sc_cost, redemption_rate, seed_cost};
use crate::evaluator::DeploymentRef;
use crate::monte_carlo::{McBackend, SimulationStats};
use osn_graph::{CsrGraph, NodeData, NodeId};
use serde::{Deserialize, Serialize};

/// Full evaluation of one deployment, as reported in the paper's figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RedemptionReport {
    /// Monte-Carlo estimate of `B(S, K(I))`.
    pub expected_benefit: f64,
    /// `Cseed(S)`.
    pub seed_cost: f64,
    /// `Csc(K(I))` (Table I allocation cost).
    pub sc_cost: f64,
    /// `Cseed + Csc`.
    pub total_cost: f64,
    /// The objective (1a): benefit over total cost.
    pub redemption_rate: f64,
    /// `Cseed / Csc` — Fig. 7's "seed-SC rate". `f64::INFINITY` when no
    /// coupons are allocated (the degenerate all-seed deployments of IM-L
    /// style baselines report large values here, as in the paper).
    pub seed_sc_rate: f64,
    /// Mean farthest hop from the seed set (Table III).
    pub avg_farthest_hop: f64,
    /// Mean activated user count.
    pub avg_activated: f64,
}

impl RedemptionReport {
    /// Evaluate `(seeds, coupons)` with Monte-Carlo benefit/hop estimates
    /// over `backend`'s worlds and the analytic Table-I cost model.
    pub fn compute(
        graph: &CsrGraph,
        data: &NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
        backend: &McBackend,
    ) -> Self {
        let stats = backend.evaluator(graph, data).simulate(seeds, coupons);
        Self::from_stats(graph, data, seeds, coupons, stats)
    }

    /// Evaluate many deployments with **one pass over the world cache**
    /// (see [`MonteCarloEvaluator::simulate_batch`](crate::MonteCarloEvaluator::simulate_batch));
    /// element `i` is bit-identical to `compute(…, batch[i], …)`.
    pub fn compute_batch(
        graph: &CsrGraph,
        data: &NodeData,
        batch: &[DeploymentRef<'_>],
        backend: &McBackend,
    ) -> Vec<Self> {
        backend
            .evaluator(graph, data)
            .simulate_batch(batch)
            .into_iter()
            .zip(batch)
            .map(|(stats, dep)| Self::from_stats(graph, data, dep.seeds, dep.coupons, stats))
            .collect()
    }

    /// Assemble a report from already-simulated statistics plus the
    /// analytic Table-I cost model.
    pub fn from_stats(
        graph: &CsrGraph,
        data: &NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
        stats: SimulationStats,
    ) -> Self {
        RedemptionReport {
            avg_farthest_hop: stats.mean_farthest_hop,
            avg_activated: stats.mean_activated,
            ..Self::from_parts(graph, data, seeds, coupons, stats.expected_benefit)
        }
    }

    /// Build a report from a pre-computed benefit estimate (used when the
    /// caller already evaluated the deployment analytically).
    pub fn from_parts(
        graph: &CsrGraph,
        data: &NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
        expected_benefit: f64,
    ) -> Self {
        let sc = expected_sc_cost(graph, data, seeds, coupons);
        let seed = seed_cost(data, seeds);
        let total = seed + sc;
        RedemptionReport {
            expected_benefit,
            seed_cost: seed,
            sc_cost: sc,
            total_cost: total,
            redemption_rate: redemption_rate(expected_benefit, total),
            seed_sc_rate: if sc > 0.0 { seed / sc } else { f64::INFINITY },
            avg_farthest_hop: 0.0,
            avg_activated: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn instance() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        (b.build().unwrap(), NodeData::uniform(3, 2.0, 3.0, 1.0))
    }

    #[test]
    fn report_assembles_costs_and_rate() {
        let (g, d) = instance();
        let backend = McBackend::sample(&g, 2000, 9);
        let r = RedemptionReport::compute(&g, &d, &[NodeId(0)], &[1, 1, 0], &backend);
        // Costs are analytic: seed 3, sc = 1·1.0 + 1·0.5 = 1.5.
        assert!((r.seed_cost - 3.0).abs() < 1e-12);
        assert!((r.sc_cost - 1.5).abs() < 1e-12);
        assert!((r.total_cost - 4.5).abs() < 1e-12);
        // Benefit ≈ 2 + 2 + 0.5·2 = 5.
        assert!((r.expected_benefit - 5.0).abs() < 0.15);
        assert!((r.redemption_rate - 5.0 / 4.5).abs() < 0.05);
        assert!((r.seed_sc_rate - 2.0).abs() < 1e-12);
        assert!(r.avg_farthest_hop >= 1.0);
    }

    #[test]
    fn no_coupons_gives_infinite_seed_sc_rate() {
        let (g, d) = instance();
        let backend = McBackend::sample(&g, 10, 2);
        let r = RedemptionReport::compute(&g, &d, &[NodeId(0)], &[0; 3], &backend);
        assert!(r.seed_sc_rate.is_infinite());
        assert_eq!(r.sc_cost, 0.0);
        assert_eq!(r.avg_farthest_hop, 0.0);
    }

    #[test]
    fn compute_batch_matches_lone_compute() {
        let (g, d) = instance();
        let backend = McBackend::sample(&g, 256, 6);
        let seeds = [NodeId(0)];
        let ks: [[u32; 3]; 3] = [[0, 0, 0], [1, 0, 0], [1, 1, 0]];
        let batch: Vec<DeploymentRef<'_>> = ks
            .iter()
            .map(|k| DeploymentRef {
                seeds: &seeds,
                coupons: k,
            })
            .collect();
        let reports = RedemptionReport::compute_batch(&g, &d, &batch, &backend);
        assert_eq!(reports.len(), 3);
        for (report, k) in reports.iter().zip(ks.iter()) {
            let lone = RedemptionReport::compute(&g, &d, &seeds, k, &backend);
            assert_eq!(report, &lone);
            assert_eq!(
                report.expected_benefit.to_bits(),
                lone.expected_benefit.to_bits()
            );
        }
    }

    #[test]
    fn from_parts_skips_simulation() {
        let (g, d) = instance();
        let r = RedemptionReport::from_parts(&g, &d, &[NodeId(0)], &[1, 0, 0], 4.0);
        assert_eq!(r.expected_benefit, 4.0);
        assert!((r.redemption_rate - 1.0).abs() < 1e-12);
    }
}
