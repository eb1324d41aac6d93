//! Property-based tests of the propagation engine's core invariants.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_pool::ThreadPool;
use osn_propagation::rank::redemption_probs;
use osn_propagation::spread::SpreadState;
use osn_propagation::world::WorldCache;
use osn_propagation::{
    expected_sc_cost, reference_simulate_batch, BenefitEstimator, DeltaScratch, DeploymentRef,
    Ledger, McBackend, SimulationStats, SpreadEngine,
};
use proptest::prelude::*;

/// The four statistics as raw bits: equality is bit identity (it tells
/// `0.0` from `-0.0`).
fn bits(s: &SimulationStats) -> [u64; 4] {
    [
        s.expected_benefit.to_bits(),
        s.mean_activated.to_bits(),
        s.mean_redeemed_sc_cost.to_bits(),
        s.mean_farthest_hop.to_bits(),
    ]
}

fn tree_strategy() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    // A random out-tree over ≤ 20 nodes: parent of node i is drawn from
    // 0..i, making cycles impossible.
    proptest::collection::vec(0.0f64..=1.0f64, 1..20).prop_perturb(|probs, mut rng| {
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let child = (i + 1) as u32;
                let parent = rng.gen_range(0..=i as u32);
                (parent, child, p)
            })
            .collect()
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> osn_graph::CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, p) in edges {
        b.add_edge(u, v, p).unwrap();
    }
    b.build().unwrap()
}

/// Node count of the random-digraph strategy below.
const DG_N: usize = 12;

/// Random directed graph over [`DG_N`] nodes — cycles, cross- and
/// back-edges all allowed (the engine must track the fixpoint path, not
/// just forests). Self-loops are dropped; duplicate pairs collapse
/// last-wins in the builder.
fn digraph_strategy() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0u32..DG_N as u32, 0u32..DG_N as u32, 0.0f64..=1.0), 1..40)
}

fn build_digraph(edges: &[(u32, u32, f64)]) -> CsrGraph {
    let mut b = GraphBuilder::new(DG_N);
    for &(u, v, p) in edges {
        if u != v {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build().unwrap()
}

/// A random greedy-move script: `(op, node, amount)` triples applied to
/// the engine and to a mirrored `(seeds, coupons)` pair.
fn moves_strategy() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..4, 0u32..DG_N as u32, 1u32..3), 1..12)
}

/// Assert every engine field equals a from-scratch evaluation, bit for bit,
/// and that the seam's candidacy test is the activation array's `> 0`.
fn assert_engine_is_fresh(engine: &SpreadEngine<'_>, graph: &CsrGraph, data: &NodeData) {
    let ledger = engine.ledger();
    let fresh = SpreadState::evaluate(graph, data, ledger.seeds(), ledger.coupons());
    assert_eq!(engine.order(), &fresh.order[..], "spread order diverged");
    for i in 0..graph.node_count() {
        assert_eq!(
            engine.active_prob()[i].to_bits(),
            fresh.active_prob[i].to_bits(),
            "active_prob[{i}] diverged"
        );
        assert_eq!(
            engine.is_active(NodeId(i as u32)),
            fresh.active_prob[i] > 0.0,
            "is_active({i})"
        );
        assert_eq!(
            engine.subtree_gain()[i].to_bits(),
            fresh.subtree_gain[i].to_bits(),
            "subtree_gain[{i}] diverged"
        );
    }
    assert_eq!(
        engine.expected_benefit().to_bits(),
        fresh.expected_benefit.to_bits(),
        "expected_benefit diverged"
    );
    let sc = expected_sc_cost(graph, data, ledger.seeds(), ledger.coupons());
    assert_eq!(ledger.sc_cost().to_bits(), sc.to_bits(), "sc_cost diverged");
    let seed = osn_propagation::seed_cost(data, ledger.seeds());
    assert_eq!(
        ledger.seed_cost().to_bits(),
        seed.to_bits(),
        "seed_cost diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rank_dp_is_a_coherent_distribution(probs in proptest::collection::vec(0.0f64..=1.0, 0..10), k in 0u32..8) {
        let q = redemption_probs(&probs, k);
        // Monotone nonincreasing availability: q_j / p_j (when p_j > 0) is
        // the availability factor and can only shrink with rank.
        let mut last_avail = 1.0f64;
        for (&qj, &pj) in q.iter().zip(probs.iter()) {
            if pj > 1e-12 {
                let avail = qj / pj;
                prop_assert!(avail <= last_avail + 1e-9, "availability rose with rank");
                last_avail = avail;
            }
        }
    }

    #[test]
    fn analytic_equals_monte_carlo_on_trees(edges in tree_strategy(), k_cap in 1u32..3) {
        let n = edges.len() + 1;
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let coupons: Vec<u32> = (0..n)
            .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(k_cap))
            .collect();
        let exact = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons).expected_benefit();
        let mc = McBackend::sample(&g, 6000, 7)
            .evaluator(&g, &d)
            .simulate(&[NodeId(0)], &coupons)
            .expected_benefit;
        // 6000 worlds: ~4 standard errors of slack on a ≤ 20-benefit sum.
        prop_assert!((exact - mc).abs() < 0.30, "exact {exact} vs MC {mc}");
    }

    #[test]
    fn sc_cost_is_monotone_in_k(edges in tree_strategy()) {
        let n = edges.len() + 1;
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let mut last = 0.0f64;
        for k in 0..4u32 {
            let coupons: Vec<u32> = (0..n)
                .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(k))
                .collect();
            let c = Ledger::new(&g, &d, &[NodeId(0)], &coupons).sc_cost();
            prop_assert!(c >= last - 1e-9, "cost decreased when k rose");
            last = c;
        }
    }

    #[test]
    fn world_cache_respects_edge_probabilities(p in 0.05f64..0.95) {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, p).unwrap();
        let g = b.build().unwrap();
        let cache = WorldCache::sample(&g, 8000, 3);
        let live = (0..cache.len())
            .filter(|&w| {
                let mut live = false;
                cache.world(w).for_live_out(NodeId(0), |_| {
                    live = true;
                    false
                });
                live
            })
            .count();
        let freq = live as f64 / cache.len() as f64;
        prop_assert!((freq - p).abs() < 0.05, "live frequency {freq} vs p {p}");
    }

    /// Statistical equivalence of the skip sampler and the retained dense
    /// per-edge Bernoulli reference: on random graphs with heterogeneous
    /// probabilities, every edge's live frequency must agree within tight
    /// binomial bounds (each estimate has σ = √(p(1−p)/R); the difference
    /// of the two independent estimates gets a 5·√2·σ corridor).
    #[test]
    fn skip_sampled_frequencies_match_dense_reference(
        edges in digraph_strategy(),
        seed in 0u64..32,
    ) {
        let g = build_digraph(&edges);
        let m = g.edge_count();
        let r = 3000usize;
        let freq = |cache: &WorldCache| -> Vec<f64> {
            let mut counts = vec![0u32; m];
            for w in 0..cache.len() {
                for e in cache.live_edge_ids(&g, w) {
                    counts[e as usize] += 1;
                }
            }
            counts.iter().map(|&c| c as f64 / r as f64).collect()
        };
        let skip = freq(&WorldCache::sample(&g, r, seed));
        let dense = freq(&WorldCache::sample_dense_reference(&g, r, seed ^ 0xD0_0D));
        for (e, &p) in g.edge_probs_flat().iter().enumerate() {
            let sigma = (p * (1.0 - p) / r as f64).sqrt();
            let bound = 5.0 * std::f64::consts::SQRT_2 * sigma + 1e-9;
            prop_assert!(
                (skip[e] - dense[e]).abs() <= bound,
                "edge {} (p = {}): skip {} vs dense {} exceeds {}",
                e, p, skip[e], dense[e], bound
            );
            // And each sampler individually tracks p.
            prop_assert!((skip[e] - p).abs() <= 5.0 * sigma + 1e-9);
        }
    }

    #[test]
    fn batched_evaluation_equals_per_candidate_exactly(edges in tree_strategy(), seed in 0u64..64) {
        // The batch contract is bitwise, not approximate: element i of
        // `simulate_batch` must equal a lone `simulate` of candidate i at
        // every pool size. Candidates deliberately share nothing (different
        // seed sets AND different coupon vectors).
        let n = edges.len() + 1;
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let degree_cap = |cap: u32| -> Vec<u32> {
            (0..n).map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(cap)).collect()
        };
        let ks = [degree_cap(0), degree_cap(1), degree_cap(3)];
        let seed_sets: [&[NodeId]; 3] = [
            &[NodeId(0)],
            &[NodeId(0), NodeId((n as u32 - 1).min(1))],
            &[],
        ];
        let batch: Vec<DeploymentRef<'_>> = ks
            .iter()
            .zip(seed_sets)
            .map(|(k, seeds)| DeploymentRef { seeds, coupons: k })
            .collect();
        // 48 worlds = 2 parts (one full, one ragged).
        let serial_pool = ThreadPool::new(1);
        let backend =
            McBackend::from_cache(WorldCache::sample_with_pool(&g, 48, seed, &serial_pool));
        let serial = backend.evaluator_on(&g, &d, &serial_pool);
        for threads in [1usize, 2] {
            let pool = ThreadPool::new(threads);
            let batched = backend.evaluator_on(&g, &d, &pool).simulate_batch(&batch);
            prop_assert_eq!(batched.len(), batch.len());
            for (i, (got, dep)) in batched.iter().zip(batch.iter()).enumerate() {
                let want = serial.simulate(dep.seeds, dep.coupons);
                prop_assert_eq!(
                    bits(got),
                    bits(&want),
                    "candidate {}, {} workers", i, threads
                );
            }
        }
    }

    /// The lane-kernel contract: the bit-parallel 64-worlds-per-sweep
    /// evaluator equals the scalar kernel folded serially in parts
    /// ([`reference_simulate_batch`]) bit for bit — on random cyclic
    /// digraphs, at pool sizes 1, 2 and `default_parallelism`, across world
    /// counts covering empty caches, single worlds, ragged sub-64 tails,
    /// exact blocks, and multi-block caches (edgeless worlds arise
    /// naturally from the random probabilities).
    #[test]
    fn lane_kernel_matches_scalar_bitwise(
        edges in digraph_strategy(),
        seed in 0u64..64,
        worlds_idx in 0usize..7,
    ) {
        let worlds = [0usize, 1, 33, 48, 64, 80, 130][worlds_idx];
        let g = build_digraph(&edges);
        let d = NodeData::uniform(DG_N, 1.0, 1.0, 1.0);
        let degree_cap = |cap: u32| -> Vec<u32> {
            (0..DG_N).map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(cap)).collect()
        };
        let ks = [degree_cap(1), degree_cap(2), degree_cap(0)];
        let seed_sets: [&[NodeId]; 3] = [&[NodeId(0)], &[NodeId(3), NodeId(0)], &[]];
        let batch: Vec<DeploymentRef<'_>> = ks
            .iter()
            .zip(seed_sets)
            .map(|(k, seeds)| DeploymentRef { seeds, coupons: k })
            .collect();
        let cache = WorldCache::sample_with_pool(&g, worlds, seed, &ThreadPool::new(1));
        let backend = McBackend::from_cache(cache);
        let want = reference_simulate_batch(&g, &d, backend.cache(), &batch);
        for threads in [1usize, 2, osn_pool::default_parallelism()] {
            let pool = ThreadPool::new(threads);
            let got = backend.evaluator_on(&g, &d, &pool).simulate_batch(&batch);
            prop_assert_eq!(got.len(), want.len());
            for (i, (l, s)) in got.iter().zip(want.iter()).enumerate() {
                prop_assert_eq!(
                    bits(l),
                    bits(s),
                    "candidate {}, {} workers, {} worlds", i, threads, worlds
                );
                // An empty cache yields all zeros from both folds.
                if worlds == 0 {
                    prop_assert_eq!(*l, SimulationStats::default());
                }
            }
        }
    }

    #[test]
    fn marginal_gains_are_non_negative_on_monotone_instances(edges in tree_strategy(), seed in 0u64..64) {
        // With uniform unit benefits the instance is monotone: on a fixed
        // world, granting a coupon (or adding a seed) can only grow the
        // activated set. Per-world benefits are small integers and the
        // world count is a power of two, so all arithmetic below is exact —
        // the assertion is `>=` with zero tolerance.
        let n = edges.len() + 1;
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let backend = McBackend::sample(&g, 64, seed);
        let ev = backend.evaluator(&g, &d);
        let base: Vec<u32> = (0..n)
            .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(1))
            .collect();
        let seeds = [NodeId(0)];
        let current = ev.simulate(&seeds, &base).expected_benefit;
        // Coupon marginals, batched: one probe per node with headroom.
        let probes: Vec<Vec<u32>> = (0..n)
            .filter(|&v| base[v] < g.out_degree(NodeId(v as u32)) as u32)
            .map(|v| {
                let mut k = base.clone();
                k[v] += 1;
                k
            })
            .collect();
        let batch: Vec<DeploymentRef<'_>> = probes
            .iter()
            .map(|k| DeploymentRef { seeds: &seeds, coupons: k })
            .collect();
        for (i, stats) in ev.simulate_batch(&batch).iter().enumerate() {
            prop_assert!(
                stats.expected_benefit >= current,
                "coupon probe {} lost benefit: {} < {}",
                i, stats.expected_benefit, current
            );
        }
        // Seed marginal: adding a second seed never hurts either.
        let two_seeds = [NodeId(0), NodeId((n / 2) as u32)];
        let with_seed = ev.simulate(&two_seeds, &base).expected_benefit;
        prop_assert!(
            with_seed >= current,
            "extra seed lost benefit: {with_seed} < {current}"
        );
    }

    /// The tentpole contract: after ANY random move sequence — coupon
    /// grants, seed packages, coupon retrievals, on cyclic graphs — the
    /// incrementally maintained engine equals a from-scratch evaluation
    /// (and a from-scratch `rebuild()`) bit for bit.
    #[test]
    fn engine_equals_rebuild_after_any_move_sequence(
        edges in digraph_strategy(),
        moves in moves_strategy(),
    ) {
        let g = build_digraph(&edges);
        let d = NodeData::uniform(DG_N, 1.0, 1.0, 1.0);
        let mut seeds = vec![NodeId(0)];
        let mut coupons = vec![0u32; DG_N];
        coupons[0] = (g.out_degree(NodeId(0)) as u32).min(1);
        let mut engine = SpreadEngine::new(&g, &d, &seeds, &coupons);
        assert_engine_is_fresh(&engine, &g, &d);
        for &(op, node, amount) in &moves {
            let v = NodeId(node);
            match op {
                0 => {
                    // Mirror Deployment::add_coupons' capping.
                    let cap = g.out_degree(v) as u32;
                    let cur = coupons[v.index()];
                    let add = amount.min(cap.saturating_sub(cur));
                    coupons[v.index()] = cur + add;
                    let (added, _) = engine.add_coupons(v, amount);
                    prop_assert_eq!(added, add, "cap mismatch on coupon grant");
                }
                1 => {
                    if !seeds.contains(&v) {
                        seeds.push(v);
                    }
                    let cap = g.out_degree(v) as u32;
                    let cur = coupons[v.index()];
                    coupons[v.index()] = cur + amount.min(cap.saturating_sub(cur));
                    engine.add_seed_package(v, amount);
                }
                2 => {
                    let take = amount.min(coupons[v.index()]);
                    coupons[v.index()] -= take;
                    let (removed, _) = engine.remove_coupons(v, amount);
                    prop_assert_eq!(removed, take, "cap mismatch on retrieval");
                }
                _ => {
                    // Marginal probes must never perturb the state.
                    let mut scratch = DeltaScratch::default();
                    let _ = engine.coupon_add_delta(v, &mut scratch);
                    let _ = engine.coupon_removal_delta(v, &mut scratch);
                }
            }
            prop_assert_eq!(engine.ledger().seeds(), &seeds[..]);
            prop_assert_eq!(engine.ledger().coupons(), &coupons[..]);
            assert_engine_is_fresh(&engine, &g, &d);
        }
        // The escape hatch is a bitwise no-op on a maintained engine.
        let before = engine.clone();
        engine.rebuild();
        assert_engine_is_fresh(&engine, &g, &d);
        prop_assert_eq!(before.order(), engine.order());
        prop_assert_eq!(
            before.expected_benefit().to_bits(),
            engine.expected_benefit().to_bits()
        );
    }

    /// Every committed move's change report is exact: `probs_changed` and
    /// `gains_changed` are precisely the ascending list of nodes whose
    /// activation probability / subtree gain bits changed, found here by a
    /// full scan. The state checks above cannot see an under-reported
    /// delta — only the lazy-greedy heap would, by serving a stale marginal.
    #[test]
    fn engine_change_report_is_exact(
        edges in digraph_strategy(),
        moves in moves_strategy(),
    ) {
        let g = build_digraph(&edges);
        let d = NodeData::uniform(DG_N, 1.0, 1.0, 1.0);
        let mut coupons = vec![0u32; DG_N];
        coupons[0] = (g.out_degree(NodeId(0)) as u32).min(1);
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons);
        let changed = |before: &[f64], after: &[f64]| -> Vec<NodeId> {
            (0..DG_N)
                .filter(|&i| before[i].to_bits() != after[i].to_bits())
                .map(|i| NodeId(i as u32))
                .collect()
        };
        for &(op, node, amount) in &moves {
            let v = NodeId(node);
            let prev_prob = engine.active_prob().to_vec();
            let prev_gain = engine.subtree_gain().to_vec();
            let delta = match op {
                0 => engine.add_coupons(v, amount).1,
                1 => engine.add_seed_package(v, amount),
                2 => engine.remove_coupons(v, amount).1,
                _ => engine.rebuild(),
            };
            prop_assert_eq!(
                &delta.probs_changed,
                &changed(&prev_prob, engine.active_prob()),
                "probs_changed after op {} on node {}", op, node
            );
            prop_assert_eq!(
                &delta.gains_changed,
                &changed(&prev_gain, engine.subtree_gain()),
                "gains_changed after op {} on node {}", op, node
            );
        }
    }

    /// O(deg) engine probes equal the O(deg·k) `SpreadState` deltas bit for
    /// bit — on cyclic graphs, for holders and fresh candidates alike.
    #[test]
    fn engine_probes_match_spread_state_deltas(edges in digraph_strategy(), k_cap in 0u32..3) {
        let g = build_digraph(&edges);
        let d = NodeData::uniform(DG_N, 1.0, 1.0, 1.0);
        let coupons: Vec<u32> = (0..DG_N)
            .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(k_cap))
            .collect();
        let engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons);
        let state = SpreadState::evaluate(&g, &d, &[NodeId(0)], &coupons);
        let mut scratch = DeltaScratch::default();
        for i in 0..DG_N {
            let v = NodeId(i as u32);
            let (db_e, dc_e) = engine.coupon_add_delta(v, &mut scratch);
            let (db_s, dc_s) = state.coupon_delta(&g, &d, v, 1);
            prop_assert_eq!(db_e.to_bits(), db_s.to_bits(), "add ΔB at node {}", i);
            prop_assert_eq!(dc_e.to_bits(), dc_s.to_bits(), "add ΔC at node {}", i);
            let (rb_e, rc_e) = engine.coupon_removal_delta(v, &mut scratch);
            let (rb_s, rc_s) = state.coupon_removal_delta(&g, &d, v);
            prop_assert_eq!(rb_e.to_bits(), rb_s.to_bits(), "removal ΔB at node {}", i);
            prop_assert_eq!(rc_e.to_bits(), rc_s.to_bits(), "removal ΔC at node {}", i);
        }
    }

    #[test]
    fn coupon_deltas_match_full_reevaluation_on_trees(edges in tree_strategy()) {
        let n = edges.len() + 1;
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let mut coupons = vec![0u32; n];
        coupons[0] = g.out_degree(NodeId(0)).min(1) as u32;
        let state = SpreadState::evaluate(&g, &d, &[NodeId(0)], &coupons);
        for cand in 0..n.min(6) {
            let v = NodeId(cand as u32);
            if coupons[cand] >= g.out_degree(v) as u32 {
                continue;
            }
            let (db, _) = state.coupon_delta(&g, &d, v, 1);
            let mut probe = coupons.clone();
            probe[cand] += 1;
            let full = SpreadState::evaluate(&g, &d, &[NodeId(0)], &probe).expected_benefit;
            prop_assert!(
                (full - state.expected_benefit - db).abs() < 1e-9,
                "first-order delta diverged from re-evaluation on a tree"
            );
        }
    }
}
