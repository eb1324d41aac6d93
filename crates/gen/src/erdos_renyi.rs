//! Erdős–Rényi random graphs.
//!
//! Used as a structural control in tests: the S3CRM algorithms must behave
//! sensibly on graphs with no degree heterogeneity at all.

use crate::topology::UndirectedTopology;
use rand::Rng;
use std::collections::HashSet;

/// G(n, m): exactly `m` distinct undirected edges drawn uniformly at random.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges `n(n-1)/2`.
pub fn gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> UndirectedTopology {
    let max = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max, "requested {m} edges but only {max} are possible");
    let mut topo = UndirectedTopology::new(n);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m);
    while seen.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            topo.push(key.0, key.1);
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn gnm_produces_exact_edge_count() {
        let t = gnm(50, 100, &mut seeded_rng(3));
        assert_eq!(t.edge_count(), 100);
        let mut t2 = t.clone();
        t2.dedup();
        assert_eq!(t2.edge_count(), 100, "edges must be distinct");
    }

    #[test]
    fn gnm_is_deterministic_per_seed() {
        let a = gnm(30, 40, &mut seeded_rng(9));
        let b = gnm(30, 40, &mut seeded_rng(9));
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn gnm_full_graph() {
        let t = gnm(5, 10, &mut seeded_rng(1));
        assert_eq!(t.edge_count(), 10);
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn gnm_rejects_impossible_edge_count() {
        gnm(3, 4, &mut seeded_rng(1));
    }
}
