//! Immutable compressed-sparse-row graph with probability-ranked adjacency.
//!
//! The coupon-constrained cascade of Sec. III attempts out-neighbors in
//! descending influence-probability order, so out-edges are stored pre-sorted
//! that way: the *rank* of an out-edge (the paper's `j` in `E[k_i, c_sc(v_j)]`)
//! is simply its index within the node's CSR slice.

use crate::ids::NodeId;

/// Immutable directed weighted graph in CSR form.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder), or
/// through the `.oscg` reader ([`crate::shard`]), which decodes a file
/// straight into these arrays. Equality is by contents.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    n: u32,
    /// Forward adjacency offsets, length `n + 1` (`u64` to match the on-disk
    /// section layout; edge ids still fit `u32`, which `build` asserts).
    offsets: Vec<u64>,
    /// Edge targets, grouped by source, sorted by descending probability.
    targets: Vec<NodeId>,
    /// Influence probability of each forward edge (parallel to `targets`).
    probs: Vec<f64>,
    /// Reverse adjacency offsets, length `n + 1`.
    in_offsets: Vec<u64>,
    /// Edge sources, grouped by target (ascending source id).
    in_sources: Vec<NodeId>,
    /// Influence probability of each reverse edge (parallel to
    /// `in_sources`) — needed by reverse-reachable sampling and the
    /// linear-threshold comparison model.
    in_probs: Vec<f64>,
}

impl CsrGraph {
    /// Build from deduplicated `(u, v, p)` triples sorted by `(u, v)`.
    /// Internal: used by `GraphBuilder::build`.
    pub(crate) fn from_dedup_edges(n: u32, mut edges: Vec<(u32, u32, f64)>) -> Self {
        let m = edges.len();
        assert!(m <= u32::MAX as usize, "edge count exceeds u32 range");

        // Sort within each source by descending probability, target id as a
        // deterministic tie-break. A single global sort keeps this one pass.
        edges.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(b.2.partial_cmp(&a.2).expect("probabilities are finite"))
                .then(a.1.cmp(&b.1))
        });

        let mut offsets = vec![0u64; n as usize + 1];
        for &(u, _, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }

        let mut targets = Vec::with_capacity(m);
        let mut probs = Vec::with_capacity(m);
        for &(_, v, p) in &edges {
            targets.push(NodeId(v));
            probs.push(p);
        }

        // Reverse adjacency via counting sort on targets.
        let mut in_offsets = vec![0u64; n as usize + 1];
        for &(_, v, _) in &edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![NodeId(0); m];
        let mut in_probs = vec![0.0f64; m];
        for &(u, v, p) in &edges {
            let slot = cursor[v as usize] as usize;
            in_sources[slot] = NodeId(u);
            in_probs[slot] = p;
            cursor[v as usize] += 1;
        }

        CsrGraph {
            n,
            offsets,
            targets,
            probs,
            in_offsets,
            in_sources,
            in_probs,
        }
    }

    /// Assemble from pre-validated arrays (the binary loader's entry
    /// point — see [`crate::shard`], which checks every structural
    /// invariant before calling this).
    pub(crate) fn from_arrays(
        n: u32,
        offsets: Vec<u64>,
        targets: Vec<NodeId>,
        probs: Vec<f64>,
        in_offsets: Vec<u64>,
        in_sources: Vec<NodeId>,
        in_probs: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), n as usize + 1);
        debug_assert_eq!(in_offsets.len(), n as usize + 1);
        debug_assert_eq!(targets.len(), probs.len());
        debug_assert_eq!(in_sources.len(), in_probs.len());
        CsrGraph {
            n,
            offsets,
            targets,
            probs,
            in_offsets,
            in_sources,
            in_probs,
        }
    }

    /// Flat reverse-adjacency sources (grouped by target) — the reverse
    /// counterpart of [`edge_targets_flat`](Self::edge_targets_flat), used
    /// by the binary writer.
    pub(crate) fn in_sources_flat(&self) -> &[NodeId] {
        &self.in_sources
    }

    /// Flat reverse-adjacency probabilities (parallel to
    /// [`in_sources_flat`](Self::in_sources_flat)).
    pub(crate) fn in_probs_flat(&self) -> &[f64] {
        &self.in_probs
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of (deduplicated) directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Bytes held by the forward and reverse CSR sections.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.offsets)
            + std::mem::size_of_val(&*self.targets)
            + std::mem::size_of_val(&*self.probs)
            + std::mem::size_of_val(&*self.in_offsets)
            + std::mem::size_of_val(&*self.in_sources)
            + std::mem::size_of_val(&*self.in_probs)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId)
    }

    /// Out-degree of `v` — the paper's `|N(v_i)|`, the ceiling on `k_i`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    #[inline]
    fn out_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// Out-neighbors of `v` in **descending probability order**, with their
    /// probabilities. The iteration index is the paper's rank `j` (0-based).
    #[inline]
    pub fn ranked_out(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let r = self.out_range(v);
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.probs[r].iter().copied())
    }

    /// Targets of `v`'s out-edges in rank order.
    #[inline]
    pub fn out_targets(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.out_range(v)]
    }

    /// Probabilities of `v`'s out-edges in rank order.
    #[inline]
    pub fn out_probs(&self, v: NodeId) -> &[f64] {
        &self.probs[self.out_range(v)]
    }

    /// Global edge-index range of `v`'s out-edges; a stable edge id usable to
    /// index per-edge side arrays (e.g. live-edge bitsets in Monte-Carlo
    /// world sampling). Edge ids fit `u32` (asserted at build/load time).
    #[inline]
    pub fn out_edge_ids(&self, v: NodeId) -> std::ops::Range<u32> {
        self.offsets[v.index()] as u32..self.offsets[v.index() + 1] as u32
    }

    /// Sources of edges pointing at `v`.
    #[inline]
    pub fn in_sources(&self, v: NodeId) -> &[NodeId] {
        let r = self.in_offsets[v.index()] as usize..self.in_offsets[v.index() + 1] as usize;
        &self.in_sources[r]
    }

    /// Probabilities of the edges pointing at `v` (parallel to
    /// [`in_sources`](Self::in_sources)).
    #[inline]
    pub fn in_probs(&self, v: NodeId) -> &[f64] {
        let r = self.in_offsets[v.index()] as usize..self.in_offsets[v.index() + 1] as usize;
        &self.in_probs[r]
    }

    /// In-neighbors of `v` with their edge probabilities.
    #[inline]
    pub fn ranked_in(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.in_sources(v)
            .iter()
            .copied()
            .zip(self.in_probs(v).iter().copied())
    }

    /// The probability of edge `u -> v`, if present.
    pub fn edge_prob(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.ranked_out(u).find(|&(t, _)| t == v).map(|(_, p)| p)
    }

    /// Rank (0-based position in the descending-probability order) of the
    /// edge `u -> v`, if present.
    pub fn edge_rank(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.out_targets(u).iter().position(|&t| t == v)
    }

    /// All edge probabilities, indexed by the stable edge id of
    /// [`out_edge_ids`](Self::out_edge_ids). Used by Monte-Carlo world
    /// sampling to flip every edge coin in one flat pass.
    #[inline]
    pub fn edge_probs_flat(&self) -> &[f64] {
        &self.probs
    }

    /// Flat forward adjacency offsets (length `n + 1`): node `v`'s out-edge
    /// ids are `offsets[v]..offsets[v + 1]`. Exposed so per-world
    /// live-adjacency indexing can walk all nodes in one pass without a
    /// per-node accessor call.
    #[inline]
    pub fn out_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// All edge targets, indexed by stable edge id (parallel to
    /// [`edge_probs_flat`](Self::edge_probs_flat)).
    #[inline]
    pub fn edge_targets_flat(&self) -> &[NodeId] {
        &self.targets
    }

    /// Flat reverse adjacency offsets (length `n + 1`): the reverse slots of
    /// target `v` are `in_offsets[v]..in_offsets[v + 1]` into
    /// [`in_sources`](Self::in_sources) and [`in_edge_ids`](Self::in_edge_ids).
    #[inline]
    pub fn in_offsets(&self) -> &[u64] {
        &self.in_offsets
    }

    /// The **forward edge id** of every reverse-adjacency slot: element `s`
    /// of the returned vector is the stable edge id (the index into
    /// [`edge_probs_flat`](Self::edge_probs_flat) and per-world live-edge
    /// bitsets) of the edge whose reverse entry sits at slot `s` of the flat
    /// reverse arrays. Reverse-reachability sampling needs this to test a
    /// reverse-walked edge's liveness in a forward-sampled world, and to
    /// recover the edge's rank (`eid - out_edge_ids(src).start`) for the
    /// coupon-demand gate. One `O(n + m)` cursor pass; call once and reuse.
    pub fn in_edge_ids(&self) -> Vec<u32> {
        let mut cursor: Vec<u64> = self.in_offsets[..self.n as usize].to_vec();
        let mut ids = vec![0u32; self.edge_count()];
        // Ascending-source forward traversal fills each target's reverse
        // slots in the same ascending-source order the counting sort used,
        // so slot `s` receives exactly the edge recorded in
        // `in_sources[s]`/`in_probs[s]`.
        for u in self.nodes() {
            for eid in self.out_edge_ids(u) {
                let v = self.targets[eid as usize];
                let slot = cursor[v.index()] as usize;
                debug_assert_eq!(self.in_sources[slot], u, "reverse slot order mismatch");
                ids[slot] = eid;
                cursor[v.index()] += 1;
            }
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1 (0.9), 0 -> 2 (0.4), 1 -> 3 (0.5), 2 -> 3 (0.8)
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(2, 3, 0.8).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        // Offsets (n + 1 u64s), targets (u32 ids) and probabilities, twice.
        assert_eq!(g.resident_bytes(), 2 * (5 * 8 + 4 * 4 + 4 * 8));
    }

    #[test]
    fn ranked_out_is_descending_probability() {
        let g = diamond();
        let probs: Vec<f64> = g.out_probs(NodeId(0)).to_vec();
        assert_eq!(probs, vec![0.9, 0.4]);
        assert_eq!(g.out_targets(NodeId(0)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn rank_ties_break_by_target_id() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3, 0.5).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.out_targets(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn reverse_adjacency_matches_forward() {
        let g = diamond();
        assert_eq!(g.in_sources(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_sources(NodeId(0)), &[] as &[NodeId]);
    }

    #[test]
    fn edge_prob_and_rank_lookup() {
        let g = diamond();
        assert_eq!(g.edge_prob(NodeId(0), NodeId(2)), Some(0.4));
        assert_eq!(g.edge_prob(NodeId(0), NodeId(3)), None);
        assert_eq!(g.edge_rank(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(g.edge_rank(NodeId(0), NodeId(2)), Some(1));
    }

    #[test]
    fn edge_ids_are_stable_and_contiguous() {
        let g = diamond();
        let r0 = g.out_edge_ids(NodeId(0));
        let r1 = g.out_edge_ids(NodeId(1));
        assert_eq!(r0, 0..2);
        assert_eq!(r1, 2..3);
    }

    #[test]
    fn in_edge_ids_map_reverse_slots_to_forward_ids() {
        let g = diamond();
        let ids = g.in_edge_ids();
        assert_eq!(ids.len(), g.edge_count());
        // Every reverse slot's edge id must point back at an edge whose
        // target is the slot's owner and whose source/prob match.
        for v in g.nodes() {
            let lo = g.in_offsets()[v.index()] as usize;
            for (slot, (src, p)) in g.ranked_in(v).enumerate() {
                let eid = ids[lo + slot] as usize;
                assert_eq!(g.edge_targets_flat()[eid], v);
                assert_eq!(g.edge_probs_flat()[eid], p);
                let r = g.out_edge_ids(src);
                assert!(r.contains(&(eid as u32)), "edge id outside source range");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let g = GraphBuilder::new(3).build().unwrap();
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
        }
    }
}
