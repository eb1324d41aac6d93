//! Workload attribute models (Sec. VI-A experiment setup).
//!
//! * benefit: "randomly generated by a normal distribution N(µ, σ)" \[17\];
//! * seed cost: "proportional to the number of her friends (out-degree)";
//! * SC cost: uniform, "following the real coupon strategies from Dropbox
//!   and Hotels.com";
//! * λ = Σ benefit / Σ SC-cost and κ = Σ seed-cost / Σ benefit are controlled
//!   by rescaling (defaults λ = 1, κ = 10).

use osn_graph::{CsrGraph, GraphError, NodeData};
use rand::Rng;

/// Sample `n` benefits from N(µ, σ), clamped to a small positive floor (the
/// Theorem 2 constant `b0 = max b / min b` requires positive benefits, and
/// with the paper's settings — e.g. N(10, 2) — negative draws are a
/// ~3e-7 tail event anyway).
pub fn normal_benefits<R: Rng>(n: usize, mu: f64, sigma: f64, rng: &mut R) -> Vec<f64> {
    let floor = (mu * 1e-3).max(1e-6);
    (0..n)
        .map(|_| (mu + sigma * standard_normal(rng)).max(floor))
        .collect()
}

/// One standard-normal draw via the Box–Muller transform (implemented here
/// because the offline dependency set deliberately excludes `rand_distr`).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to keep ln finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Seed costs proportional to out-degree (unit slope; rescaled by
/// [`calibrate_kappa`]). Nodes with no friends get a small positive cost so
/// every node remains a valid — if unattractive — seed candidate.
pub fn degree_proportional_seed_costs(graph: &CsrGraph) -> Vec<f64> {
    graph
        .nodes()
        .map(|v| (graph.out_degree(v) as f64).max(0.5))
        .collect()
}

/// Uniform SC cost for every user.
pub fn uniform_sc_costs(n: usize, cost: f64) -> Vec<f64> {
    vec![cost; n]
}

/// Rescale SC costs so that `λ = Σ benefit / Σ sc_cost` equals `lambda`.
pub fn calibrate_lambda(data: &mut NodeData, lambda: f64) {
    assert!(lambda > 0.0, "λ must be positive");
    let total_b = data.total_benefit();
    let total_sc = data.total_sc_cost();
    if total_b <= 0.0 || total_sc <= 0.0 {
        return;
    }
    let scale = total_b / (lambda * total_sc);
    for c in data.sc_cost_mut() {
        *c *= scale;
    }
}

/// Rescale seed costs so that `κ = Σ seed_cost / Σ benefit` equals `kappa`.
pub fn calibrate_kappa(data: &mut NodeData, kappa: f64) {
    assert!(kappa > 0.0, "κ must be positive");
    let total_b = data.total_benefit();
    let total_seed = data.total_seed_cost();
    if total_b <= 0.0 || total_seed <= 0.0 {
        return;
    }
    let scale = kappa * total_b / total_seed;
    for c in data.seed_cost_mut() {
        *c *= scale;
    }
}

/// The full Sec. VI-A workload: normal benefits, degree-proportional seed
/// costs, uniform SC costs, calibrated to the requested λ and κ.
pub fn standard_workload<R: Rng>(
    graph: &CsrGraph,
    mu: f64,
    sigma: f64,
    lambda: f64,
    kappa: f64,
    rng: &mut R,
) -> Result<NodeData, GraphError> {
    let n = graph.node_count();
    let benefit = normal_benefits(n, mu, sigma, rng);
    let seed_cost = degree_proportional_seed_costs(graph);
    let sc_cost = uniform_sc_costs(n, 1.0);
    let mut data = NodeData::new(benefit, seed_cost, sc_cost)?;
    calibrate_lambda(&mut data, lambda);
    calibrate_kappa(&mut data, kappa);
    Ok(data)
}

/// Realized λ of a workload.
pub fn lambda_of(data: &NodeData) -> f64 {
    data.total_benefit() / data.total_sc_cost()
}

/// Realized κ of a workload.
pub fn kappa_of(data: &NodeData) -> f64 {
    data.total_seed_cost() / data.total_benefit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use osn_graph::GraphBuilder;

    fn small_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn normal_benefits_center_on_mu() {
        let b = normal_benefits(20_000, 10.0, 2.0, &mut seeded_rng(51));
        let mean = b.iter().sum::<f64>() / b.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean} too far from 10");
        let var = b.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / b.len() as f64;
        assert!((var.sqrt() - 2.0).abs() < 0.1);
        assert!(b.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn seed_costs_track_out_degree() {
        let g = small_graph();
        let c = degree_proportional_seed_costs(&g);
        assert_eq!(c, vec![2.0, 1.0, 0.5, 0.5]);
    }

    #[test]
    fn lambda_calibration_is_exact() {
        let g = small_graph();
        let mut d = standard_workload(&g, 10.0, 2.0, 1.0, 10.0, &mut seeded_rng(1)).unwrap();
        assert!((lambda_of(&d) - 1.0).abs() < 1e-9);
        assert!((kappa_of(&d) - 10.0).abs() < 1e-9);
        calibrate_lambda(&mut d, 4.0);
        assert!((lambda_of(&d) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn kappa_calibration_is_exact() {
        let g = small_graph();
        let mut d = standard_workload(&g, 20.0, 4.0, 2.0, 5.0, &mut seeded_rng(2)).unwrap();
        calibrate_kappa(&mut d, 40.0);
        assert!((kappa_of(&d) - 40.0).abs() < 1e-9);
        // κ recalibration must not disturb λ.
        assert!((lambda_of(&d) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let g = small_graph();
        let a = standard_workload(&g, 10.0, 2.0, 1.0, 10.0, &mut seeded_rng(3)).unwrap();
        let b = standard_workload(&g, 10.0, 2.0, 1.0, 10.0, &mut seeded_rng(3)).unwrap();
        assert_eq!(a, b);
    }
}
