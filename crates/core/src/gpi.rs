//! Phase 2 — Guaranteed Paths Identification (Alg. 2).
//!
//! For each seed `s` of `D*`, a DFS visits descendants **highest influence
//! probability first**. Visiting `v_i` at depth `l_i` forms the candidate
//! guaranteed path
//!
//! ```text
//! g(s, v_i) = {v_i} ∪ {v_j ∈ U^l̂_s | l̂ ≤ l_i}
//! ```
//!
//! where `U^l̂_s` is the set of already-visited nodes at depth `l̂`
//! ("visited siblings of v_i and v_i's ascendants"). Its *guaranteed cost*
//! is the raw coupon cost of every member (each member could receive a
//! coupon, so no edge in the path is dependent — the "guaranteed" property).
//! The visit succeeds only while that cost fits the seed's remaining budget
//! `Binv − c_seed(s)`; on failure the DFS abandons `v_i`'s children *and*
//! its unvisited lower-probability siblings, resuming at the parent's next
//! sibling — exactly Alg. 2's backtrack rule.
//!
//! GPs are stored compactly: `paths[i]` holds only the guaranteed cost and
//! benefit of the path ending at `visits[i]`, which already records the
//! endpoint, its level and its DFS parent. The member set of `g(s, v_i)`
//! is reconstructed on demand as "all earlier visits at depth ≤ `l_i`",
//! so a forest stores O(visits) words, not a member list per path.
//!
//! A path's cost and benefit are prefixes over per-level sums: the sum of
//! levels `0..=l_i` plus the endpoint's own value. Each prefix is a
//! left fold kept per level behind a validity watermark: a visit at level
//! `l` adds to `level[l]` and lowers the watermark to `l`; a query at
//! level `l` extends the folds from the watermark through level
//! `min(l, len - 1)`, each one the previous fold plus that level's sum,
//! starting from the identity of `f64`'s `Sum`. Those are the additions
//! `level.iter().take(l + 1).sum()` makes, in the same order, so every
//! cost and benefit is bit-identical to re-summing the levels at each
//! visit (`crates/core/tests/gpi_oracle.rs` pins this against the
//! re-summing DFS). The DFS moves at most one level deeper per visit, so
//! a query extends at most two folds past the watermark (a unit test
//! counts them) and GPI is amortized O(1) per visited node instead of
//! O(depth).

use crate::deployment::Deployment;
use crate::id_phase::ExploreTracker;
use osn_graph::{CsrGraph, NodeData, NodeId};

/// One DFS visit record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Visit {
    pub node: NodeId,
    /// DFS depth (the paper's level `l`); the seed sits at 0.
    pub level: u32,
    /// Visit index of the DFS parent (`None` for the seed).
    pub parent: Option<usize>,
}

/// One guaranteed path `g(s, v_i)`; aligned 1:1 with the visit sequence,
/// whose entry at the same index is the endpoint's visit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuaranteedPath {
    /// Guaranteed cost `c_{s,v_i}` (raw `Σ c_sc` over members).
    pub cost: f64,
    /// Guaranteed benefit `b_{s,v_i}` (`Σ b` over members).
    pub benefit: f64,
}

/// All guaranteed paths rooted at one seed.
#[derive(Clone, Debug)]
pub struct GpForest {
    pub seed: NodeId,
    /// Visit sequence in DFS order.
    pub visits: Vec<Visit>,
    /// `paths[i]` is the GP whose endpoint is `visits[i]`.
    pub paths: Vec<GuaranteedPath>,
}

impl GpForest {
    /// Member nodes of `g(s, v_i)` for the path ending at `visit_index`:
    /// every earlier visit at depth ≤ the endpoint's, plus the endpoint.
    pub fn members(&self, visit_index: usize) -> Vec<NodeId> {
        let level = self.visits[visit_index].level;
        self.visits[..=visit_index]
            .iter()
            .filter(|v| v.level <= level)
            .map(|v| v.node)
            .collect()
    }

    /// The GP's coupon allocation `K̂`: each member's count of member
    /// children (Alg. 2: "K_j is set to the number of visited children").
    /// Returned as `(node, K̂_j)` pairs for members with `K̂_j > 0`.
    pub fn allocation(&self, visit_index: usize) -> Vec<(NodeId, u32)> {
        let level = self.visits[visit_index].level;
        let visits = &self.visits[..=visit_index];
        // A member's parent is an earlier, shallower visit, so a member too:
        // only members get counts.
        let mut counts = vec![0u32; visits.len()];
        for v in visits.iter().filter(|v| v.level <= level) {
            if let Some(p) = v.parent {
                counts[p] += 1;
            }
        }
        visits
            .iter()
            .zip(counts)
            .filter(|&(_, k)| k > 0)
            .map(|(v, k)| (v.node, k))
            .collect()
    }

    /// Walk the DFS parent chain from the endpoint's parent upward, yielding
    /// visit indices (used by SCM's "nearest possibly activated ascendant").
    pub fn ascendants(&self, visit_index: usize) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.visits[visit_index].parent;
        std::iter::from_fn(move || {
            let here = cur?;
            cur = self.visits[here].parent;
            Some(here)
        })
    }
}

/// Run GPI for every seed of the deployment.
pub fn identify_guaranteed_paths(
    graph: &CsrGraph,
    data: &NodeData,
    dep: &Deployment,
    binv: f64,
    explored: &mut ExploreTracker,
) -> Vec<GpForest> {
    let mut scratch = GpiScratch::new(graph.node_count());
    dep.seeds
        .iter()
        .map(|&s| {
            let budget = binv - data.seed_cost(s);
            forest_for_seed(graph, data, s, budget, explored, &mut scratch)
        })
        .collect()
}

/// Per-level sums over visited nodes, queried as prefixes.
///
/// `prefix(l)` is the left fold `identity + level[0] + … + level[k-1]`
/// with `k = min(l + 1, len)` and `identity` the start value of `f64`'s
/// `Sum` — the additions `level.iter().take(l + 1).sum()` performs, in
/// the same order, so the result carries the same bits. The folds are
/// cached in `pre`, valid up to the watermark `valid`; `add(l, ·)` changes
/// `level[l]` and so lowers the watermark to `l`.
#[derive(Debug)]
struct LevelSums {
    level: Vec<f64>,
    /// `pre[j]` is the fold of `level[..j]`, for `j <= valid`.
    pre: Vec<f64>,
    valid: usize,
    /// Largest number of `pre` entries one `prefix` call computed.
    #[cfg(test)]
    max_extension: usize,
}

impl LevelSums {
    fn new() -> Self {
        LevelSums {
            level: Vec::new(),
            pre: vec![std::iter::empty::<f64>().sum()],
            valid: 0,
            #[cfg(test)]
            max_extension: 0,
        }
    }

    fn clear(&mut self) {
        self.level.clear();
        self.pre.truncate(1);
        self.valid = 0;
    }

    /// Make level `l` exist, zero-filled (new entries leave `pre` valid).
    fn open(&mut self, l: usize) {
        if self.level.len() <= l {
            self.level.resize(l + 1, 0.0);
            self.pre.resize(l + 2, 0.0);
        }
    }

    fn add(&mut self, l: usize, x: f64) {
        self.open(l);
        self.level[l] += x;
        self.valid = self.valid.min(l);
    }

    fn prefix(&mut self, l: usize) -> f64 {
        let k = (l + 1).min(self.level.len());
        #[cfg(test)]
        {
            self.max_extension = self.max_extension.max(k.saturating_sub(self.valid));
        }
        while self.valid < k {
            let j = self.valid;
            self.pre[j + 1] = self.pre[j] + self.level[j];
            self.valid += 1;
        }
        self.pre[k]
    }
}

/// Buffers shared by every seed's DFS in one [`identify_guaranteed_paths`]
/// call: a node is visited in the current forest iff its stamp equals
/// `generation`, so starting a forest costs no O(|V|) reset.
struct GpiScratch {
    stamp: Vec<u32>,
    generation: u32,
    csc: LevelSums,
    benefit: LevelSums,
}

impl GpiScratch {
    fn new(n: usize) -> Self {
        GpiScratch {
            stamp: vec![0; n],
            generation: 0,
            csc: LevelSums::new(),
            benefit: LevelSums::new(),
        }
    }

    /// Start a fresh forest: no node visited, no level sums. One call per
    /// seed, and seeds are distinct `u32` node ids, so the stamp cannot
    /// wrap.
    fn next_forest(&mut self) {
        self.generation += 1;
        self.csc.clear();
        self.benefit.clear();
    }

    fn visited(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.generation
    }
}

fn forest_for_seed(
    graph: &CsrGraph,
    data: &NodeData,
    seed: NodeId,
    budget: f64,
    explored: &mut ExploreTracker,
    scratch: &mut GpiScratch,
) -> GpForest {
    let mut visits: Vec<Visit> = Vec::new();
    let mut paths: Vec<GuaranteedPath> = Vec::new();
    scratch.next_forest();

    // Stack frames: (node, level, parent visit index). Children are pushed
    // in ascending probability so the highest-probability child pops first.
    let mut stack: Vec<(NodeId, u32, Option<usize>)> = vec![(seed, 0, None)];
    while let Some((node, level, parent)) = stack.pop() {
        if scratch.visited(node) {
            continue;
        }
        let l = level as usize;
        // Guaranteed cost of g(s, node): all visited nodes at depth ≤ level
        // plus node itself. The seed's own c_sc is excluded — it is directly
        // activated and never receives a coupon (this is also what makes the
        // paper's SCM precondition `c_{s,v_i} ≤ Csc(K(I*))` satisfiable:
        // Example 3 compares 2.66 < 2.84 on coupon costs alone).
        let own_csc = if level == 0 { 0.0 } else { data.sc_cost(node) };
        let cost = scratch.csc.prefix(l) + own_csc;
        if cost > budget {
            // Abandon node, its children, and its unvisited siblings:
            // entries at depth ≥ level on top of the stack are exactly the
            // remaining lower-probability siblings.
            while stack.last().is_some_and(|&(_, sl, _)| sl >= level) {
                stack.pop();
            }
            continue;
        }
        scratch.stamp[node.index()] = scratch.generation;
        explored.mark(node);
        // As the fold this replaces: the benefit prefix reads levels
        // `0..=l` once level `l` exists, the cost prefix above only the
        // levels that existed before this visit.
        scratch.benefit.open(l);
        let benefit = scratch.benefit.prefix(l) + data.benefit(node);
        scratch.csc.add(l, own_csc);
        scratch.benefit.add(l, data.benefit(node));

        let visit_index = visits.len();
        visits.push(Visit {
            node,
            level,
            parent,
        });
        paths.push(GuaranteedPath { cost, benefit });

        // Highest-probability child must pop first → push in reverse rank
        // order (ascending probability).
        for &child in graph.out_targets(node).iter().rev() {
            if !scratch.visited(child) {
                stack.push((child, level + 1, Some(visit_index)));
            }
        }
    }

    GpForest {
        seed,
        visits,
        paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    /// Two-level tree with distinct probabilities (Example 1 shape).
    fn tree() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(1, 4, 0.4).unwrap();
        b.add_edge(2, 5, 0.8).unwrap();
        b.add_edge(2, 6, 0.7).unwrap();
        let mut sc = vec![100.0; 7];
        sc[0] = 0.0;
        (
            b.build().unwrap(),
            NodeData::new(vec![1.0; 7], sc, vec![1.0; 7]).unwrap(),
        )
    }

    fn run(budget: f64) -> GpForest {
        let (g, d) = tree();
        let mut dep = Deployment::empty(7);
        dep.add_seed(NodeId(0));
        let mut tracker = ExploreTracker::new(7);
        identify_guaranteed_paths(&g, &d, &dep, budget, &mut tracker)
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn dfs_visits_highest_probability_first() {
        let f = run(100.0);
        let order: Vec<NodeId> = f.visits.iter().map(|v| v.node).collect();
        // From v0: v1 (0.6) before v2 (0.4); under v1: v3 (0.5) then v4.
        assert_eq!(
            order,
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
                NodeId(4),
                NodeId(2),
                NodeId(5),
                NodeId(6)
            ]
        );
    }

    #[test]
    fn member_sets_follow_the_paper_definition() {
        let f = run(100.0);
        // g(s, v4): visits before it at level ≤ 2 are v0, v1, v3.
        let idx = f.visits.iter().position(|v| v.node == NodeId(4)).unwrap();
        assert_eq!(
            f.members(idx),
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]
        );
        // g(s, v2): levels ≤ 1 → {v0, v1, v2}; the level-2 leaves v3, v4
        // are excluded even though visited earlier.
        let idx2 = f.visits.iter().position(|v| v.node == NodeId(2)).unwrap();
        assert_eq!(f.members(idx2), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn guaranteed_cost_counts_all_members() {
        let f = run(100.0);
        let idx = f.visits.iter().position(|v| v.node == NodeId(4)).unwrap();
        // Members {v0, v1, v3, v4}: c_sc = 0 + 1 + 1 + 1.
        assert!((f.paths[idx].cost - 3.0).abs() < 1e-12);
        assert!((f.paths[idx].benefit - 4.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_counts_member_children() {
        let f = run(100.0);
        let idx = f.visits.iter().position(|v| v.node == NodeId(4)).unwrap();
        let alloc = f.allocation(idx);
        // v0 → 1 member child (v1); v1 → 2 (v3, v4).
        assert_eq!(alloc, vec![(NodeId(0), 1), (NodeId(1), 2)]);
    }

    #[test]
    fn budget_prunes_siblings_and_descendants() {
        // Budget 2.5: v0 (cost 0), v1 (1), v3 (2) pass; v4 would cost 3 —
        // rejected, pruning the rest of level 2. The DFS resumes at v2
        // (level 1): levels ≤ 1 sum to 1, so its path costs 2 and passes;
        // its children then cost 4 and are rejected.
        let f = run(2.5);
        let order: Vec<NodeId> = f.visits.iter().map(|v| v.node).collect();
        assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)]);
    }

    #[test]
    fn sibling_pruning_skips_lower_probability_branches() {
        // Make the first child's subtree exhaust the budget; the DFS must
        // not descend into the second child's subtree after the failure at
        // the same level.
        let f = run(1.5); // {v0 (0), v1 (1)} ok; v3 costs 2.5 > 1.5 → prune
        let order: Vec<NodeId> = f.visits.iter().map(|v| v.node).collect();
        // After pruning v3 (level 2) and sibling v4, DFS resumes at v2
        // (level 1, cost 0+1+1 = 2 > 1.5 → rejected as well).
        assert_eq!(order, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn ascendants_walk_to_seed() {
        let f = run(100.0);
        let idx = f.visits.iter().position(|v| v.node == NodeId(4)).unwrap();
        let chain: Vec<NodeId> = f.ascendants(idx).map(|i| f.visits[i].node).collect();
        assert_eq!(chain, vec![NodeId(1), NodeId(0)]);
    }

    /// Largest number of prefix entries one cost or benefit query computed
    /// during the seed-0 DFS, and the number of visits.
    fn max_extension(g: &CsrGraph, d: &NodeData, budget: f64) -> (usize, usize) {
        let n = g.node_count();
        let mut scratch = GpiScratch::new(n);
        let mut tracker = ExploreTracker::new(n);
        let f = forest_for_seed(g, d, NodeId(0), budget, &mut tracker, &mut scratch);
        let ext = scratch.csc.max_extension.max(scratch.benefit.max_extension);
        (ext, f.visits.len())
    }

    #[test]
    fn extension_count_sees_a_cold_prefix() {
        let mut sums = LevelSums::new();
        for l in 0..10 {
            sums.add(l, 0.1);
        }
        let folded: f64 = [0.1; 10].iter().sum();
        assert_eq!(sums.prefix(9).to_bits(), folded.to_bits());
        assert_eq!(sums.max_extension, 10);
    }

    #[test]
    fn prefix_queries_extend_at_most_two_levels() {
        // A 2,000-node chain, walked to the end and cut short by the budget.
        let n = 2_000;
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 - 1 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let chain = b.build().unwrap();
        let d = NodeData::uniform(n, 1.0, 0.0, 0.3);
        for budget in [1e9, 150.0] {
            let (ext, visits) = max_extension(&chain, &d, budget);
            assert_eq!(visits == n, budget > 1e6, "pruning fires iff tight");
            assert!((1..=2).contains(&ext), "chain, budget {budget}: {ext}");
        }

        // A wide tree: 40 children under the root, 40 under each child.
        let (fan, n) = (40u32, 1 + 40 + 40 * 40);
        let mut b = GraphBuilder::new(n);
        for c in 1..=fan {
            b.add_edge(0, c, 0.9 - 0.01 * f64::from(c)).unwrap();
            for j in 0..fan {
                let leaf = fan + 1 + (c - 1) * fan + j;
                b.add_edge(c, leaf, 0.9 - 0.01 * f64::from(j)).unwrap();
            }
        }
        let tree = b.build().unwrap();
        let d = NodeData::uniform(n, 1.0, 0.0, 0.3);
        for budget in [1e9, 100.0] {
            let (ext, visits) = max_extension(&tree, &d, budget);
            assert_eq!(visits == n, budget > 1e6, "pruning fires iff tight");
            assert!((1..=2).contains(&ext), "tree, budget {budget}: {ext}");
        }
    }

    #[test]
    fn one_forest_per_seed() {
        let (g, d) = tree();
        let mut dep = Deployment::empty(7);
        dep.add_seed(NodeId(0));
        dep.add_seed(NodeId(2));
        let mut tracker = ExploreTracker::new(7);
        let forests = identify_guaranteed_paths(&g, &d, &dep, 100.0, &mut tracker);
        assert_eq!(forests.len(), 2);
        assert_eq!(forests[1].seed, NodeId(2));
        assert_eq!(forests[1].visits[0].level, 0);
    }
}
