//! Per-node attributes of the S3CRM instance.
//!
//! Struct-of-arrays storage for the three per-user quantities of the problem
//! definition (paper Table I): benefit `b(v_i)`, seed cost `c_seed(v_i)`, and
//! social-coupon cost `c_sc(v_i)`.

use crate::error::GraphError;
use crate::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Benefit and cost attributes for every node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeData {
    benefit: Vec<f64>,
    seed_cost: Vec<f64>,
    sc_cost: Vec<f64>,
}

impl NodeData {
    /// Build from explicit attribute arrays; all three must have length `n`
    /// and contain only finite, non-negative values.
    pub fn new(
        benefit: Vec<f64>,
        seed_cost: Vec<f64>,
        sc_cost: Vec<f64>,
    ) -> Result<Self, GraphError> {
        let n = benefit.len();
        for (name, arr) in [("seed_cost", &seed_cost), ("sc_cost", &sc_cost)] {
            if arr.len() != n {
                return Err(GraphError::AttributeLengthMismatch {
                    expected: n,
                    got: arr.len(),
                });
            }
            let _ = name;
        }
        for (name, arr) in [
            ("benefit", &benefit),
            ("seed_cost", &seed_cost),
            ("sc_cost", &sc_cost),
        ] {
            if let Some((i, &v)) = arr
                .iter()
                .enumerate()
                .find(|(_, v)| !v.is_finite() || **v < 0.0)
            {
                return Err(GraphError::InvalidAttribute {
                    node: i as u32,
                    name,
                    value: v,
                });
            }
        }
        Ok(NodeData {
            benefit,
            seed_cost,
            sc_cost,
        })
    }

    /// Uniform attributes: the setting of many worked examples in the paper
    /// (e.g. Example 1 uses `b = c_sc = 1` for every user).
    pub fn uniform(n: usize, benefit: f64, seed_cost: f64, sc_cost: f64) -> Self {
        NodeData {
            benefit: vec![benefit; n],
            seed_cost: vec![seed_cost; n],
            sc_cost: vec![sc_cost; n],
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.benefit.len()
    }

    /// True when covering zero nodes.
    pub fn is_empty(&self) -> bool {
        self.benefit.is_empty()
    }

    /// `b(v)` — the benefit obtained when `v` is activated.
    #[inline]
    pub fn benefit(&self, v: NodeId) -> f64 {
        self.benefit[v.index()]
    }

    /// `c_seed(v)` — the cost of directly activating `v` as a seed.
    #[inline]
    pub fn seed_cost(&self, v: NodeId) -> f64 {
        self.seed_cost[v.index()]
    }

    /// `c_sc(v)` — the coupon cost paid when `v` redeems a social coupon.
    #[inline]
    pub fn sc_cost(&self, v: NodeId) -> f64 {
        self.sc_cost[v.index()]
    }

    /// Mutable seed costs.
    pub fn seed_cost_mut(&mut self) -> &mut [f64] {
        &mut self.seed_cost
    }

    /// Mutable coupon costs.
    pub fn sc_cost_mut(&mut self) -> &mut [f64] {
        &mut self.sc_cost
    }

    /// Raw benefit slice.
    pub fn benefits(&self) -> &[f64] {
        &self.benefit
    }

    /// Raw seed-cost slice.
    pub fn seed_costs(&self) -> &[f64] {
        &self.seed_cost
    }

    /// Raw coupon-cost slice.
    pub fn sc_costs(&self) -> &[f64] {
        &self.sc_cost
    }

    /// `Σ_v b(v)` — numerator of the paper's λ ratio.
    pub fn total_benefit(&self) -> f64 {
        self.benefit.iter().sum()
    }

    /// `Σ_v c_seed(v)` — numerator of the paper's κ ratio.
    pub fn total_seed_cost(&self) -> f64 {
        self.seed_cost.iter().sum()
    }

    /// `Σ_v c_sc(v)` — denominator of the paper's λ ratio.
    pub fn total_sc_cost(&self) -> f64 {
        self.sc_cost.iter().sum()
    }

    /// `b0 = max b(v) / min b(v)` over nodes with positive benefit — the
    /// benefit-spread constant in the Theorem 2 approximation ratio.
    pub fn benefit_spread(&self) -> f64 {
        spread(&self.benefit)
    }

    /// `c0 = max cost / min cost` over all (seed ∪ coupon) costs — the
    /// cost-spread constant in the Theorem 2 approximation ratio.
    pub fn cost_spread(&self) -> f64 {
        let all: Vec<f64> = self
            .seed_cost
            .iter()
            .chain(self.sc_cost.iter())
            .copied()
            .collect();
        spread(&all)
    }
}

/// max/min over the strictly positive entries; 1.0 when fewer than one
/// positive entry exists (the bound degenerates gracefully).
fn spread(values: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    for &v in values {
        if v > 0.0 {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if max == 0.0 || !min.is_finite() {
        1.0
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_accessors() {
        let d = NodeData::uniform(3, 3.0, 1.0, 0.5);
        assert_eq!(d.len(), 3);
        assert_eq!(d.benefit(NodeId(2)), 3.0);
        assert_eq!(d.seed_cost(NodeId(0)), 1.0);
        assert_eq!(d.sc_cost(NodeId(1)), 0.5);
        assert_eq!(d.total_benefit(), 9.0);
        assert_eq!(d.total_seed_cost(), 3.0);
        assert_eq!(d.total_sc_cost(), 1.5);
    }

    #[test]
    fn new_rejects_mismatched_lengths() {
        let r = NodeData::new(vec![1.0, 2.0], vec![1.0], vec![1.0, 1.0]);
        assert!(matches!(
            r,
            Err(GraphError::AttributeLengthMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn new_rejects_negative_or_nan() {
        assert!(NodeData::new(vec![-1.0], vec![1.0], vec![1.0]).is_err());
        assert!(NodeData::new(vec![1.0], vec![f64::NAN], vec![1.0]).is_err());
        assert!(NodeData::new(vec![1.0], vec![1.0], vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn spreads_match_theorem_2_constants() {
        let d = NodeData::new(
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 2.0],
            vec![1.0, 1.0, 8.0],
        )
        .unwrap();
        assert_eq!(d.benefit_spread(), 4.0);
        // costs span {2,2,2} ∪ {1,1,8} -> max 8 / min 1.
        assert_eq!(d.cost_spread(), 8.0);
    }

    #[test]
    fn spread_ignores_zero_entries() {
        let d = NodeData::new(vec![0.0, 2.0, 4.0], vec![1.0; 3], vec![1.0; 3]).unwrap();
        assert_eq!(d.benefit_spread(), 2.0);
    }

    #[test]
    fn spread_degenerates_to_one() {
        let d = NodeData::uniform(2, 0.0, 0.0, 0.0);
        assert_eq!(d.benefit_spread(), 1.0);
        assert_eq!(d.cost_spread(), 1.0);
    }

    #[test]
    fn calibration_mutators() {
        let mut d = NodeData::uniform(2, 1.0, 1.0, 1.0);
        for c in d.sc_cost_mut() {
            *c *= 3.0;
        }
        assert_eq!(d.total_sc_cost(), 6.0);
    }
}
