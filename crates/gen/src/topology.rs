//! Undirected topology scaffold shared by the generators.
//!
//! Generators produce an undirected edge set; [`UndirectedTopology`] converts
//! it into the directed [`GraphBuilder`] form the
//! propagation model needs. Social datasets differ in *reciprocity* (Facebook
//! friendships are mutual; Epinions trust mostly is not), so conversion takes
//! a reciprocity parameter: each undirected edge becomes two directed edges
//! with probability `reciprocity`, otherwise a single directed edge with a
//! random orientation.

use osn_graph::{GraphBuilder, GraphError};
use rand::Rng;

/// An undirected simple graph as produced by the generators.
#[derive(Clone, Debug, Default)]
pub struct UndirectedTopology {
    /// Number of nodes (ids `0..n`).
    pub n: usize,
    /// Undirected edges as unordered pairs with `u < v`.
    pub edges: Vec<(u32, u32)>,
}

impl UndirectedTopology {
    /// Create an empty topology over `n` nodes.
    pub fn new(n: usize) -> Self {
        UndirectedTopology {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Push an edge, normalizing to `u < v`. Ignores self-loops.
    pub fn push(&mut self, u: u32, v: u32) {
        use std::cmp::Ordering::*;
        match u.cmp(&v) {
            Less => self.edges.push((u, v)),
            Greater => self.edges.push((v, u)),
            Equal => {}
        }
    }

    /// Sort and deduplicate the edge set.
    pub fn dedup(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Convert to a directed [`GraphBuilder`] (probabilities all 0, to be
    /// assigned by a weight model).
    ///
    /// Every undirected edge becomes two directed edges with probability
    /// `reciprocity`, otherwise one edge in a uniformly random direction.
    pub fn into_directed<R: Rng>(
        self,
        reciprocity: f64,
        rng: &mut R,
    ) -> Result<GraphBuilder, GraphError> {
        assert!(
            (0.0..=1.0).contains(&reciprocity),
            "reciprocity must lie in [0, 1]"
        );
        let expected = (self.edges.len() as f64 * (1.0 + reciprocity)) as usize;
        let mut b = GraphBuilder::with_capacity(self.n, expected);
        for (u, v) in self.edges {
            if reciprocity >= 1.0 || rng.gen_bool(reciprocity) {
                b.add_edge(u, v, 0.0)?;
                b.add_edge(v, u, 0.0)?;
            } else if rng.gen_bool(0.5) {
                b.add_edge(u, v, 0.0)?;
            } else {
                b.add_edge(v, u, 0.0)?;
            }
        }
        Ok(b)
    }

    /// Degree of every node in the undirected view.
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn push_normalizes_and_drops_self_loops() {
        let mut t = UndirectedTopology::new(3);
        t.push(2, 1);
        t.push(1, 1);
        t.push(0, 2);
        assert_eq!(t.edges, vec![(1, 2), (0, 2)]);
        t.dedup();
        assert_eq!(t.edges, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn full_reciprocity_doubles_edges() {
        let mut t = UndirectedTopology::new(4);
        t.push(0, 1);
        t.push(1, 2);
        let b = t.into_directed(1.0, &mut seeded_rng(1)).unwrap();
        assert_eq!(b.edge_count(), 4);
    }

    #[test]
    fn zero_reciprocity_keeps_edge_count() {
        let mut t = UndirectedTopology::new(4);
        for u in 0..3u32 {
            t.push(u, u + 1);
        }
        let b = t.into_directed(0.0, &mut seeded_rng(7)).unwrap();
        assert_eq!(b.edge_count(), 3);
    }

    #[test]
    fn degrees_count_both_endpoints() {
        let mut t = UndirectedTopology::new(3);
        t.push(0, 1);
        t.push(0, 2);
        assert_eq!(t.degrees(), vec![2, 1, 1]);
    }
}
