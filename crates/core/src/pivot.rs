//! Pivot-source list (Alg. 1, lines 1–9).
//!
//! The ID phase needs, for every user, the value of delegating that user as
//! a fresh influence source. Lines 2–8 of Alg. 1 visit each user at most
//! twice — once evaluating its marginal redemption as a bare seed
//! (`γ_i = 1`), once evaluating one extra coupon (`K_i ← 1`) — and push the
//! resulting *seed package* into a queue `Q` prioritized by redemption rate.
//! Since benefits are positive, the coupon step's MR is positive whenever
//! the user has any friend, so the fixed point is: every budget-feasible
//! user enters `Q` with one coupon if it has out-edges (none otherwise),
//! ranked by the package's standalone redemption rate.
//!
//! Only the feasibility filter `cost ≤ Binv` depends on the budget, so that
//! closed form is computed once per graph: [`PivotList::build`] evaluates
//! every user's bundled package and, for users with out-edges, its
//! bare-seed fallback in one `O(Σ deg)` pass, and ranks them best rate
//! first. A campaign walks the list with a [`PivotCursor`], which applies
//! the budget filter: it yields a user's bundled package if it fits `Binv`,
//! else the bare seed if the seed cost alone fits (Alg. 1 line 5 checks
//! the bundled form only; we degrade gracefully to the bare seed). Each
//! user yields at most one package and the order is total (rate
//! descending, then node id ascending), so the cursor yields exactly the
//! pop sequence of a per-campaign max-heap of the feasible packages,
//! without ranking anything per campaign.

use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::cost::redemption_rate;
use osn_propagation::spread::standalone_package;
use std::cmp::Ordering;

/// A candidate seed with its initial coupon allotment, evaluated in
/// isolation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeedPackage {
    pub node: NodeId,
    /// Coupons bundled with the seed (0 or 1, per Alg. 1 lines 7–8).
    pub coupons: u32,
    /// Standalone expected benefit of the package.
    pub benefit: f64,
    /// Standalone total cost (`c_seed` + expected SC cost).
    pub cost: f64,
    /// `benefit / cost` — the queue priority.
    pub rate: f64,
}

impl Eq for SeedPackage {}

impl Ord for SeedPackage {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on rate; node id tie-break keeps pops deterministic.
        self.rate
            .partial_cmp(&other.rate)
            .expect("rates are finite")
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for SeedPackage {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One package of a [`PivotList`]: a [`SeedPackage`] without its rate,
/// which the cursor recomputes bit-identically from benefit and cost.
#[derive(Debug)]
struct Ranked {
    node: NodeId,
    coupons: u32,
    benefit: f64,
    cost: f64,
    /// For a bare-seed fallback, the cost of its node's bundled package,
    /// which takes precedence whenever it fits. NaN for a bundled package:
    /// no budget shadows it.
    shadow: f64,
}

impl Ranked {
    /// User `v`'s standalone package with `coupons` bundled; a bare seed folds
    /// `standalone_package(.., 0)`'s `0.0 ×` terms, same bits, sans `q` vector.
    fn evaluate(graph: &CsrGraph, data: &NodeData, v: NodeId, coupons: u32, shadow: f64) -> Self {
        let (benefit, cost) = match coupons {
            0 => graph
                .ranked_out(v)
                .fold((data.benefit(v), data.seed_cost(v)), |(b, c), (t, _)| {
                    (b + 0.0 * data.benefit(t), c + 0.0 * data.sc_cost(t))
                }),
            k => standalone_package(graph, data, v, k),
        };
        Ranked {
            node: v,
            coupons,
            benefit,
            cost,
            shadow,
        }
    }

    /// Whether this is the package its node contributes under `binv`. A
    /// fallback's cost is its seed cost plus zero-weighted terms, so it
    /// fits exactly when the seed cost does.
    fn yields_at(&self, binv: f64) -> bool {
        self.cost <= binv && (self.shadow.is_nan() || self.shadow > binv)
    }

    /// The package's rate with `-0.0` read as `0.0`. Rates are never NaN,
    /// so `total_cmp` on it orders as [`SeedPackage`]'s `partial_cmp` on
    /// rates, and faster.
    fn rank_rate(&self) -> f64 {
        redemption_rate(self.benefit, self.cost) + 0.0
    }

    fn package(&self) -> SeedPackage {
        SeedPackage {
            node: self.node,
            coupons: self.coupons,
            benefit: self.benefit,
            cost: self.cost,
            rate: redemption_rate(self.benefit, self.cost),
        }
    }
}

/// Every user's seed packages, best rate first, for any budget: built once
/// per `(graph, node data)` and shared read-only by every campaign on them.
#[derive(Debug)]
pub struct PivotList {
    ranked: Vec<Ranked>,
    nodes: usize,
}

impl PivotList {
    /// Evaluate and rank every user's bundled package and, for users with
    /// out-edges, its bare-seed fallback.
    pub fn build(graph: &CsrGraph, data: &NodeData) -> Self {
        let fallbacks = graph.nodes().filter(|&v| graph.out_degree(v) > 0).count();
        let mut ranked = Vec::with_capacity(graph.node_count() + fallbacks);
        for v in graph.nodes() {
            let coupons = u32::from(graph.out_degree(v) > 0);
            let bundled = Ranked::evaluate(graph, data, v, coupons, f64::NAN);
            if coupons == 1 {
                ranked.push(Ranked::evaluate(graph, data, v, 0, bundled.cost));
            }
            ranked.push(bundled);
        }
        // The max-heap's pop order: rate descending, then node ascending. A
        // fallback and its bundled package may tie, but no budget yields
        // both.
        ranked.sort_unstable_by(|a, b| {
            b.rank_rate()
                .total_cmp(&a.rank_rate())
                .then(a.node.cmp(&b.node))
        });
        PivotList {
            ranked,
            nodes: graph.node_count(),
        }
    }

    /// Node count of the graph the list was built over.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Heap bytes of the ranked packages (32 per package, at most two per
    /// node).
    pub fn resident_bytes(&self) -> usize {
        self.ranked.len() * std::mem::size_of::<Ranked>()
    }

    /// The budget-feasible packages under `binv`, best rate first.
    pub fn cursor(&self, binv: f64) -> PivotCursor<'_> {
        PivotCursor {
            rest: self.ranked.iter(),
            binv,
        }
    }
}

/// One campaign's walk over a [`PivotList`]: yields each user's
/// budget-feasible package, best rate first.
#[derive(Debug)]
pub struct PivotCursor<'a> {
    rest: std::slice::Iter<'a, Ranked>,
    binv: f64,
}

impl Iterator for PivotCursor<'_> {
    type Item = SeedPackage;

    fn next(&mut self) -> Option<SeedPackage> {
        let binv = self.binv;
        self.rest.find(|r| r.yields_at(binv)).map(Ranked::package)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn fixture() -> (CsrGraph, NodeData) {
        // v0 cheap seed with a strong friend; v1 expensive seed; v2 leaf.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.9).unwrap();
        b.add_edge(1, 2, 0.9).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::new(vec![1.0, 1.0, 4.0], vec![0.5, 3.0, 0.5], vec![1.0; 3]).unwrap();
        (g, d)
    }

    #[test]
    fn queue_orders_by_standalone_rate() {
        let (g, d) = fixture();
        let list = PivotList::build(&g, &d);
        assert_eq!(list.cursor(100.0).count(), 3);
        let mut q = list.cursor(100.0);
        // Rates: v2 (leaf) 4/0.5 = 8; v0 (1 + 0.9·4)/(0.5 + 0.9) ≈ 3.29;
        // v1 4.6/3.9 ≈ 1.18.
        let first = q.next().unwrap();
        assert_eq!(first.node, NodeId(2));
        assert!((first.rate - 8.0).abs() < 1e-9);
        let second = q.next().unwrap();
        assert_eq!(second.node, NodeId(0));
        assert_eq!(second.coupons, 1);
        assert!((second.rate - 4.6 / 1.4).abs() < 1e-9);
        assert_eq!(q.next().unwrap().node, NodeId(1));
        assert!(q.next().is_none());
    }

    #[test]
    fn leaf_package_has_no_coupons() {
        let (g, d) = fixture();
        let list = PivotList::build(&g, &d);
        let pkg = list.cursor(100.0).find(|p| p.node == NodeId(2)).unwrap();
        assert_eq!(pkg.coupons, 0);
        assert_eq!(pkg.benefit, 4.0);
        assert_eq!(pkg.cost, 0.5);
    }

    #[test]
    fn budget_filters_candidates() {
        let (g, d) = fixture();
        // Budget 1.0: v1 (seed cost 3) is out entirely; v0's bundled cost
        // 1.4 exceeds 1.0 so it degrades to the bare seed.
        let nodes: Vec<(NodeId, u32)> = PivotList::build(&g, &d)
            .cursor(1.0)
            .map(|p| (p.node, p.coupons))
            .collect();
        assert!(!nodes.iter().any(|&(n, _)| n == NodeId(1)));
        assert!(nodes.contains(&(NodeId(0), 0)));
        assert!(nodes.contains(&(NodeId(2), 0)));
    }

    #[test]
    fn leaf_beats_everyone_by_pure_rate() {
        let (g, d) = fixture();
        let list = PivotList::build(&g, &d);
        let package = |v| list.cursor(100.0).find(|p| p.node == v).unwrap();
        assert!(package(NodeId(2)).rate > package(NodeId(0)).rate);
        assert_eq!(list.cursor(100.0).next().unwrap().node, NodeId(2));
    }
}
