//! Case-study models of Sec. VI-C.
//!
//! * The **adoption model** \[30\] "quantifies the probability of users
//!   adopting a coupon": 85% / 10% / 5% of users get adoption weight
//!   `∛c_sc`, `c_sc`, `c_sc²` respectively, each normalized by
//!   `∛c_sc + c_sc + c_sc²`. The resulting per-user adoption probability
//!   scales the influence probability of the user's incoming edges.
//! * The **gross margin** benefit setting \[31\]:
//!   `margin = (b(v) − c_sc(v)) / b(v) · 100%`, so
//!   `b(v) = c_sc(v) / (1 − margin/100)`.

use osn_graph::{CsrGraph, GraphBuilder, GraphError};
use rand::Rng;

/// The three adoption tiers of the model in \[30\].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdoptionTier {
    /// 85% of users: weight `∛c`.
    CubeRoot,
    /// 10% of users: weight `c`.
    Linear,
    /// 5% of users: weight `c²`.
    Square,
}

/// Sample a tier with the paper's 85/10/5 split.
pub fn sample_tier<R: Rng>(rng: &mut R) -> AdoptionTier {
    let x: f64 = rng.gen();
    if x < 0.85 {
        AdoptionTier::CubeRoot
    } else if x < 0.95 {
        AdoptionTier::Linear
    } else {
        AdoptionTier::Square
    }
}

/// The adoption probability of a user in `tier` with coupon cost `c`.
pub fn adoption_probability(tier: AdoptionTier, c: f64) -> f64 {
    assert!(c > 0.0, "adoption model needs a positive coupon cost");
    let cube = c.cbrt();
    let norm = cube + c + c * c;
    let w = match tier {
        AdoptionTier::CubeRoot => cube,
        AdoptionTier::Linear => c,
        AdoptionTier::Square => c * c,
    };
    w / norm
}

/// Per-user adoption probabilities for the whole network.
pub fn adoption_probabilities<R: Rng>(sc_costs: &[f64], rng: &mut R) -> Vec<f64> {
    sc_costs
        .iter()
        .map(|&c| adoption_probability(sample_tier(rng), c))
        .collect()
}

/// Apply the adoption model to a graph: every edge `u -> v` has its influence
/// probability multiplied by `adoption[v]` (a coupon only influences `v` if
/// `v` would adopt it). Returns a rebuilt graph.
pub fn apply_adoption(graph: &CsrGraph, adoption: &[f64]) -> Result<CsrGraph, GraphError> {
    assert_eq!(adoption.len(), graph.node_count());
    let mut b = GraphBuilder::with_capacity(graph.node_count(), graph.edge_count());
    for u in graph.nodes() {
        for (v, p) in graph.ranked_out(u) {
            b.add_edge(u.0, v.0, p * adoption[v.index()])?;
        }
    }
    b.build()
}

/// Benefits from a gross margin percentage: `b = c / (1 − margin/100)`.
///
/// # Panics
/// Panics unless `margin_pct ∈ [0, 100)`.
pub fn gross_margin_benefits(sc_costs: &[f64], margin_pct: f64) -> Vec<f64> {
    assert!(
        (0.0..100.0).contains(&margin_pct),
        "gross margin must lie in [0, 100)"
    );
    let denom = 1.0 - margin_pct / 100.0;
    sc_costs.iter().map(|&c| c / denom).collect()
}

/// Real coupon policies referenced in Sec. VI-C.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CouponPolicy {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Coupon cost `c_sc` for every user.
    pub sc_cost: f64,
    /// SC allocation cap per user (the paper's "SC allocations are 100 and
    /// 10 according to Airbnb and Booking.com").
    pub allocation: u32,
}

/// Airbnb policy: SC cost 50, up to 100 coupons per user.
pub const AIRBNB: CouponPolicy = CouponPolicy {
    name: "Airbnb",
    sc_cost: 50.0,
    allocation: 100,
};

/// Booking.com policy (SC cost from Hotels.com): cost 100, up to 10 coupons.
pub const BOOKING: CouponPolicy = CouponPolicy {
    name: "Booking.com",
    sc_cost: 100.0,
    allocation: 10,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use osn_graph::{GraphBuilder, NodeId};

    #[test]
    fn tier_probabilities_normalize() {
        for c in [0.5, 1.0, 50.0, 100.0] {
            let total: f64 = [
                AdoptionTier::CubeRoot,
                AdoptionTier::Linear,
                AdoptionTier::Square,
            ]
            .iter()
            .map(|&t| adoption_probability(t, c))
            .sum();
            assert!((total - 1.0).abs() < 1e-12, "tiers must sum to 1 at c={c}");
        }
    }

    #[test]
    fn expensive_coupons_are_rarely_adopted_by_majority() {
        // For c = 50 the cube-root tier (85% of users) adopts with a small
        // probability — this is the paper's "more SCs are not redeemed"
        // effect for Airbnb's generous allocation.
        let p = adoption_probability(AdoptionTier::CubeRoot, 50.0);
        assert!(
            p < 0.01,
            "cube-root adoption at c=50 should be tiny, got {p}"
        );
        let p2 = adoption_probability(AdoptionTier::Square, 50.0);
        assert!(p2 > 0.9);
    }

    #[test]
    fn tier_split_is_85_10_5() {
        let mut rng = seeded_rng(61);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            match sample_tier(&mut rng) {
                AdoptionTier::CubeRoot => counts[0] += 1,
                AdoptionTier::Linear => counts[1] += 1,
                AdoptionTier::Square => counts[2] += 1,
            }
        }
        assert!((counts[0] as f64 / 1e5 - 0.85).abs() < 0.01);
        assert!((counts[1] as f64 / 1e5 - 0.10).abs() < 0.01);
        assert!((counts[2] as f64 / 1e5 - 0.05).abs() < 0.01);
    }

    #[test]
    fn apply_adoption_scales_incoming_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.8).unwrap();
        let g = b.build().unwrap();
        let g2 = apply_adoption(&g, &[1.0, 0.5]).unwrap();
        assert_eq!(g2.edge_prob(NodeId(0), NodeId(1)), Some(0.4));
    }

    #[test]
    fn gross_margin_inverts_to_requested_margin() {
        let b = gross_margin_benefits(&[50.0, 100.0], 60.0);
        for (bi, ci) in b.iter().zip([50.0, 100.0]) {
            let margin = (bi - ci) / bi * 100.0;
            assert!((margin - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "gross margin")]
    fn gross_margin_rejects_100_percent() {
        gross_margin_benefits(&[1.0], 100.0);
    }

    #[test]
    fn policies_match_the_paper() {
        assert_eq!(AIRBNB.sc_cost, 50.0);
        assert_eq!(AIRBNB.allocation, 100);
        assert_eq!(BOOKING.sc_cost, 100.0);
        assert_eq!(BOOKING.allocation, 10);
    }
}
