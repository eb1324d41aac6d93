//! Shared helpers for the cross-crate integration tests.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_propagation::SimulationStats;
use s3crm_core::Deployment;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A per-test scratch directory that removes itself (and everything in it)
/// when dropped — including on assertion failure, which a trailing
/// `std::fs::remove_file(..).ok()` after the asserts never reaches.
///
/// Directories live under [`std::env::temp_dir`] and embed the process id
/// plus a process-wide counter, so parallel test binaries and parallel
/// tests within one binary never collide.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory tagged `tag` (used in the directory name to
    /// make leftovers attributable if a crash outruns `Drop`).
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("s3crm-test-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory (not created).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Assemble a deployment from a seed list and sparse `(node, k)` pairs.
pub fn deployment(n: usize, seeds: &[u32], coupons: &[(u32, u32)]) -> Deployment {
    let mut dep = Deployment::empty(n);
    for &s in seeds {
        dep.add_seed(NodeId(s));
    }
    for &(v, k) in coupons {
        dep.coupons[v as usize] = k;
    }
    dep
}

/// Analytic `(benefit, total_cost, rate)` of a deployment.
pub fn analytic(graph: &CsrGraph, data: &NodeData, dep: &Deployment) -> (f64, f64, f64) {
    let v = s3crm_core::objective::evaluate(graph, data, dep);
    (v.benefit, v.total_cost(), v.rate)
}

/// A random out-tree rooted at node 0 with per-level branching and distinct
/// edge probabilities (the analytic evaluator is exact on trees, making
/// them the reference instances for evaluator cross-validation).
pub fn random_tree(depth: usize, branching: usize, seed: u64) -> CsrGraph {
    use rand::Rng;
    let mut rng = osn_gen::seeded_rng(seed);
    let mut b = GraphBuilder::new(1000);
    let mut next_id = 1u32;
    let mut frontier = vec![0u32];
    for _ in 0..depth {
        let mut new_frontier = Vec::new();
        for &u in &frontier {
            for _ in 0..branching {
                if next_id as usize >= 1000 {
                    break;
                }
                let p: f64 = rng.gen_range(0.05..0.95);
                b.add_edge(u, next_id, p).unwrap();
                new_frontier.push(next_id);
                next_id += 1;
            }
        }
        frontier = new_frontier;
    }
    b.build().unwrap()
}

/// Uniform unit-value node data sized to `graph` (benefit, seed cost, and
/// SC cost all 1.0) — the workload most consistency tests share.
pub fn unit_data(graph: &CsrGraph) -> NodeData {
    NodeData::uniform(graph.node_count(), 1.0, 1.0, 1.0)
}

/// Field-by-field bit equality of [`SimulationStats`] — stricter than
/// `PartialEq` (distinguishes `0.0` from `-0.0` and would catch
/// NaN-compared-equal regressions). The single source of the bit-identity
/// assertion the determinism and consistency suites are built around.
pub fn assert_stats_bit_identical(a: &SimulationStats, b: &SimulationStats, what: &str) {
    assert_eq!(
        a.expected_benefit.to_bits(),
        b.expected_benefit.to_bits(),
        "{what}: expected_benefit {} vs {}",
        a.expected_benefit,
        b.expected_benefit
    );
    assert_eq!(
        a.mean_activated.to_bits(),
        b.mean_activated.to_bits(),
        "{what}: mean_activated"
    );
    assert_eq!(
        a.mean_redeemed_sc_cost.to_bits(),
        b.mean_redeemed_sc_cost.to_bits(),
        "{what}: mean_redeemed_sc_cost"
    );
    assert_eq!(
        a.mean_farthest_hop.to_bits(),
        b.mean_farthest_hop.to_bits(),
        "{what}: mean_farthest_hop"
    );
}

/// The coupon allocation most consistency tests use on trees: `k = 2` at
/// the root, one coupon on each node id in `1..extra`.
pub fn root_heavy_coupons(n: usize, extra: usize) -> Vec<u32> {
    let mut k = vec![0u32; n];
    if n > 0 {
        k[0] = 2;
    }
    for kv in k.iter_mut().take(extra.min(n)).skip(1) {
        *kv = 1;
    }
    k
}
