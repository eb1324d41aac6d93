//! Property-based tests of the generators: every generator must produce a
//! valid simple topology, deterministically per seed.

use osn_gen::erdos_renyi::gnm;
use osn_gen::powerlaw_cluster::powerlaw_cluster;
use osn_gen::seeded_rng;
use proptest::prelude::*;

fn is_simple(topo: &osn_gen::UndirectedTopology) -> bool {
    let mut t = topo.clone();
    let before = t.edge_count();
    t.dedup();
    before == t.edge_count() && t.edges.iter().all(|&(u, v)| u != v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gnm_is_simple_with_exact_count(n in 4usize..60, seed in 0u64..500) {
        let max = n * (n - 1) / 2;
        let m = max / 2;
        let t = gnm(n, m, &mut seeded_rng(seed));
        prop_assert_eq!(t.edge_count(), m);
        prop_assert!(is_simple(&t));
        prop_assert!(t.edges.iter().all(|&(u, v)| (u as usize) < n && (v as usize) < n));
    }

    #[test]
    fn holme_kim_is_simple(n in 6usize..80, m in 1usize..4, p in 0.0f64..=1.0, seed in 0u64..500) {
        prop_assume!(n > m + 1);
        let t = powerlaw_cluster(n, m, p, &mut seeded_rng(seed));
        prop_assert!(is_simple(&t));
    }

    #[test]
    fn determinism(n in 6usize..40, seed in 0u64..200) {
        let a = powerlaw_cluster(n, 2, 0.5, &mut seeded_rng(seed));
        let b = powerlaw_cluster(n, 2, 0.5, &mut seeded_rng(seed));
        prop_assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn directed_conversion_bounds_edge_count(n in 6usize..40, rec in 0.0f64..=1.0, seed in 0u64..200) {
        let t = gnm(n, n, &mut seeded_rng(seed));
        let und = t.edge_count();
        let builder = t.into_directed(rec, &mut seeded_rng(seed ^ 2)).unwrap();
        prop_assert!(builder.edge_count() >= und);
        prop_assert!(builder.edge_count() <= 2 * und);
    }
}
