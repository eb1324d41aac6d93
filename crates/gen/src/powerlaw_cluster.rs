//! Holme–Kim power-law-cluster model — the PPGG substitute.
//!
//! Sec. VI-D of the paper generates evaluation graphs with PPGG \[32\],
//! parameterized by a clustering coefficient (0.6394) and a power-law
//! exponent (η = 1.7 / 2.5). PPGG itself is not available; the Holme–Kim
//! model controls exactly those two structural quantities: preferential
//! attachment yields the power law, and a *triad formation* step (connect to
//! a neighbor of the previously attached node) yields tunable clustering.

use crate::topology::UndirectedTopology;
use rand::Rng;
use std::collections::HashSet;

/// Holme–Kim model: like Barabási–Albert with attachment count `m`, but each
/// link after a node's first is, with probability `triad_prob`, a triad
/// formation step closing a triangle with the previous attachment target.
///
/// `triad_prob = 0` degenerates to plain BA; `triad_prob` close to 1 gives
/// clustering comparable to the paper's PPGG setting (≈ 0.64).
///
/// # Panics
/// Panics if `n <= m`, `m == 0`, or `triad_prob ∉ [0, 1]`.
pub fn powerlaw_cluster<R: Rng>(
    n: usize,
    m: usize,
    triad_prob: f64,
    rng: &mut R,
) -> UndirectedTopology {
    assert!(m >= 1, "attachment count m must be positive");
    assert!(n > m, "need more nodes than the attachment count");
    assert!(
        (0.0..=1.0).contains(&triad_prob),
        "triad_prob must lie in [0, 1]"
    );
    let mut topo = UndirectedTopology::new(n);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * m * n);
    // Adjacency sets for the triad step and duplicate suppression.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];

    let connect = |topo: &mut UndirectedTopology,
                   endpoints: &mut Vec<u32>,
                   adj: &mut Vec<Vec<u32>>,
                   u: u32,
                   v: u32| {
        topo.push(u, v);
        endpoints.push(u);
        endpoints.push(v);
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    };

    // Seed clique on m + 1 nodes.
    for u in 0..=(m as u32) {
        for v in (u + 1)..=(m as u32) {
            connect(&mut topo, &mut endpoints, &mut adj, u, v);
        }
    }

    let mut linked: HashSet<u32> = HashSet::with_capacity(m);
    for new in (m as u32 + 1)..(n as u32) {
        linked.clear();
        // First link: always preferential attachment.
        let mut prev = loop {
            let pick = endpoints[rng.gen_range(0..endpoints.len())];
            if pick != new {
                break pick;
            }
        };
        connect(&mut topo, &mut endpoints, &mut adj, new, prev);
        linked.insert(prev);

        while linked.len() < m {
            let target = if rng.gen_bool(triad_prob) {
                // Triad formation: a random neighbor of the previous target.
                let nbrs = &adj[prev as usize];
                let cand = nbrs[rng.gen_range(0..nbrs.len())];
                if cand != new && !linked.contains(&cand) {
                    Some(cand)
                } else {
                    None // fall through to PA below
                }
            } else {
                None
            };
            let target = match target {
                Some(t) => t,
                None => {
                    // Preferential attachment fallback.
                    let mut t;
                    loop {
                        t = endpoints[rng.gen_range(0..endpoints.len())];
                        if t != new && !linked.contains(&t) {
                            break;
                        }
                    }
                    t
                }
            };
            connect(&mut topo, &mut endpoints, &mut adj, new, target);
            linked.insert(target);
            prev = target;
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use osn_graph::stats::clustering_coefficient;

    fn build(n: usize, m: usize, p: f64, seed: u64) -> osn_graph::CsrGraph {
        let t = powerlaw_cluster(n, m, p, &mut seeded_rng(seed));
        t.into_directed(1.0, &mut seeded_rng(seed ^ 1))
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn edge_count_matches_ba_formula() {
        let (n, m) = (150, 3);
        let t = powerlaw_cluster(n, m, 0.7, &mut seeded_rng(11));
        let expected = m * (m + 1) / 2 + (n - m - 1) * m;
        assert_eq!(t.edge_count(), expected);
    }

    #[test]
    fn triads_raise_clustering() {
        let low = clustering_coefficient(&build(400, 3, 0.0, 21));
        let high = clustering_coefficient(&build(400, 3, 0.95, 21));
        assert!(
            high > low + 0.05,
            "triad formation should raise clustering: {high} vs {low}"
        );
    }

    #[test]
    fn high_triad_prob_reaches_ppgg_like_clustering() {
        // The paper's PPGG uses clustering 0.6394 on 150-node graphs.
        let c = clustering_coefficient(&build(150, 6, 0.97, 33));
        assert!(c > 0.3, "clustering {c} too low for the PPGG regime");
    }

    #[test]
    fn no_duplicate_edges() {
        let t = powerlaw_cluster(500, 4, 0.8, &mut seeded_rng(13));
        let before = t.edge_count();
        let mut t2 = t;
        t2.dedup();
        assert_eq!(t2.edge_count(), before);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = powerlaw_cluster(120, 2, 0.5, &mut seeded_rng(17));
        let b = powerlaw_cluster(120, 2, 0.5, &mut seeded_rng(17));
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let t = powerlaw_cluster(2000, 2, 0.6, &mut seeded_rng(19));
        let deg = t.degrees();
        let max = *deg.iter().max().unwrap() as f64;
        let mean = deg.iter().map(|&d| d as f64).sum::<f64>() / deg.len() as f64;
        assert!(max > 8.0 * mean);
    }
}
