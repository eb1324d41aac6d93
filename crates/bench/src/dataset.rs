//! Instance sourcing for the harness: generated Table II profiles and
//! user-supplied datasets loaded from plain-text SNAP edge lists or binary
//! `.oscg` files.
//!
//! This is the single choke point every experiment goes through to obtain a
//! [`GeneratedInstance`], which is what lets `repro --data PATH` substitute
//! a real network for the synthetic profiles without touching any
//! experiment code.

use crate::effort::Effort;
use osn_gen::attrs::standard_workload;
use osn_gen::profiles::GeneratedInstance;
use osn_gen::weights::{assign_weights, WeightModel};
use osn_gen::{seeded_rng, DatasetProfile};
use osn_graph::shard::{write_sharded_oscg_atomic, ShardPlan};
use osn_graph::{binary, io, CsrGraph, GraphError, NodeData};
use std::path::Path;

/// Salt mixed into `effort.seed` for synthesized dataset workloads, so they
/// are independent of the evaluation-world streams.
const WORKLOAD_SALT: u64 = 0x0DA7_A5E7;

/// Workload defaults for datasets that carry no attributes (the Sec. VI-A
/// Facebook setting: benefits N(10, 2), λ = 1, κ = 10).
const DEFAULT_MU: f64 = 10.0;
const DEFAULT_SIGMA: f64 = 2.0;
const DEFAULT_LAMBDA: f64 = 1.0;
const DEFAULT_KAPPA: f64 = 10.0;

/// Generate a profile instance at the effort's scale and seed. Generation
/// is deterministic, so every call with the same profile and effort yields
/// the same instance.
pub fn profile_instance(profile: DatasetProfile, effort: &Effort) -> GeneratedInstance {
    profile
        .generate(effort.profile_scale(profile), effort.seed)
        .expect("profile generation")
}

/// A user-supplied dataset loaded from disk, shaped like a generated
/// instance so the runner consumes both identically.
#[derive(Clone, Debug)]
pub struct LoadedDataset {
    /// File stem, used in table titles and CSV names.
    pub name: String,
    pub graph: CsrGraph,
    pub data: NodeData,
    /// The instance budget: the file's own (binary workload block) or the
    /// synthesized default.
    pub budget: f64,
}

/// Read just the graph from `path`, auto-detecting the format.
///
/// * `.oscg` magic → the binary loader; a workload block, if present,
///   rides along.
/// * anything else → SNAP-style text edge list. When **no** line carries an
///   explicit probability column, edges get the paper's default
///   `P(e(i,j)) = 1 / in-degree(v_j)` weights; if *any* line carries one,
///   the file's probabilities are kept as-is — explicit zeros included (a
///   deliberately dead edge stays dead).
///
/// The text path and `repro convert` share this exact policy, which is what
/// makes the text-vs-binary CSV drift check in CI meaningful.
pub fn load_graph(path: &Path) -> Result<(CsrGraph, Option<binary::Workload>), GraphError> {
    if binary::sniff_is_oscg(path)? {
        let file = binary::load_oscg(path)?;
        return Ok((file.graph, file.workload));
    }
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let list = io::read_edge_list(reader)?;
    let weightless = !list.has_explicit_probs;
    let mut builder = list.into_builder(0)?;
    if weightless {
        // InverseInDegree draws nothing from the RNG; the seed is irrelevant.
        assign_weights(
            &mut builder,
            WeightModel::InverseInDegree,
            &mut seeded_rng(0),
        );
    }
    Ok((builder.build()?, None))
}

/// Load a full dataset instance from `path`.
///
/// Graphs without a stored workload get the deterministic Sec. VI-A
/// default workload seeded from `effort.seed`, and a budget of 25 average
/// seed costs (the same floor the synthetic profiles use) — so the same
/// file and seed always produce the identical instance, whichever format
/// the graph came in.
pub fn load_dataset(path: &Path, effort: &Effort) -> Result<LoadedDataset, GraphError> {
    let (graph, stored) = load_graph(path)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("dataset")
        .to_string();
    instance_from_parts(name, graph, stored, effort)
}

/// Shape an already-loaded graph (plus its optional stored workload) into a
/// [`LoadedDataset`], synthesizing the deterministic default workload where
/// the file carries none — the exact policy of [`load_dataset`], exposed
/// for callers that open the file themselves (e.g. through
/// [`osn_graph::ShardedOscg`] to time the open on its own).
pub fn instance_from_parts(
    name: String,
    graph: CsrGraph,
    stored: Option<binary::Workload>,
    effort: &Effort,
) -> Result<LoadedDataset, GraphError> {
    let (data, budget) = match stored {
        Some(w) => (w.data, w.budget),
        None => {
            let mut rng = seeded_rng(effort.seed ^ WORKLOAD_SALT);
            let data = standard_workload(
                &graph,
                DEFAULT_MU,
                DEFAULT_SIGMA,
                DEFAULT_LAMBDA,
                DEFAULT_KAPPA,
                &mut rng,
            )?;
            let n = graph.node_count().max(1);
            let budget = 25.0 * data.total_seed_cost() / n as f64;
            (data, budget)
        }
    };
    Ok(LoadedDataset {
        name,
        graph,
        data,
        budget,
    })
}

/// `repro convert`: re-encode `input` (text or binary, same auto-detection
/// and weight policy as [`load_graph`]) as an `.oscg` file at `output`,
/// split into (up to) `shards` incident-edge-balanced shards; plain
/// `repro convert` writes one. A workload block on a binary input is
/// preserved. Returns the shard count actually written (a balanced plan
/// never produces empty shards, so tiny graphs may get fewer than
/// requested).
///
/// The write is atomic ([`write_sharded_oscg_atomic`]): an interrupted
/// convert never leaves a truncated `.oscg` behind, and re-converting over
/// a file another process is reading replaces the directory entry instead
/// of truncating the file under the reader.
pub fn convert_sharded(input: &Path, output: &Path, shards: usize) -> Result<usize, GraphError> {
    let (graph, workload) = load_graph(input)?;
    let plan = ShardPlan::balanced(graph.out_offsets(), graph.in_offsets(), shards);
    write_sharded_oscg_atomic(
        output,
        &graph,
        workload.as_ref().map(|w| (&w.data, w.budget)),
        &plan,
    )?;
    Ok(plan.shard_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::NodeId;
    use s3crm_tests::TempDir;

    #[test]
    fn text_without_probabilities_gets_inverse_in_degree() {
        let dir = TempDir::new("weightless");
        let path = dir.file("graph.txt");
        std::fs::write(&path, "# snap\n0 1\n2 1\n1 0\n").unwrap();
        let (g, w) = load_graph(&path).unwrap();
        assert!(w.is_none());
        // Node 1 has in-degree 2 -> both incoming edges carry 1/2.
        assert_eq!(g.edge_prob(NodeId(0), NodeId(1)), Some(0.5));
        assert_eq!(g.edge_prob(NodeId(1), NodeId(0)), Some(1.0));
    }

    #[test]
    fn text_with_probabilities_keeps_them() {
        let dir = TempDir::new("weighted");
        let path = dir.file("graph.txt");
        std::fs::write(&path, "0 1 0.3\n1 2 0\n").unwrap();
        let (g, _) = load_graph(&path).unwrap();
        assert_eq!(g.edge_prob(NodeId(0), NodeId(1)), Some(0.3));
        // Explicit zeros are kept once any line carries a probability.
        assert_eq!(g.edge_prob(NodeId(1), NodeId(2)), Some(0.0));
    }

    #[test]
    fn all_explicit_zeros_stay_dead() {
        // Every line carries an explicit 0: a deliberately dead network
        // must NOT be silently reweighted to 1/in-degree.
        let dir = TempDir::new("deadnet");
        let path = dir.file("graph.txt");
        std::fs::write(&path, "0 1 0.0\n1 2 0\n2 0 0.0\n").unwrap();
        let (g, _) = load_graph(&path).unwrap();
        for u in g.nodes() {
            for (_, p) in g.ranked_out(u) {
                assert_eq!(p, 0.0, "explicit zero was overwritten");
            }
        }
    }

    #[test]
    fn convert_then_load_matches_text_load() {
        let dir = TempDir::new("convert");
        let text = dir.file("src.txt");
        let bin = dir.file("dst.oscg");
        std::fs::write(&text, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        assert_eq!(convert_sharded(&text, &bin, 1).unwrap(), 1);
        let (from_text, _) = load_graph(&text).unwrap();
        let (from_bin, _) = load_graph(&bin).unwrap();
        assert_eq!(from_text, from_bin);
    }

    #[test]
    fn sharded_convert_loads_identically_to_monolithic() {
        let dir = TempDir::new("convert-sharded");
        let text = dir.file("src.txt");
        let mono = dir.file("mono.oscg");
        let sharded = dir.file("sharded.oscg");
        std::fs::write(&text, "0 1\n1 2\n2 3\n3 0\n1 3\n0 2\n").unwrap();
        convert_sharded(&text, &mono, 1).unwrap();
        let written = convert_sharded(&text, &sharded, 2).unwrap();
        assert_eq!(written, 2);
        let effort = Effort::micro();
        let a = load_dataset(&mono, &effort).unwrap();
        let b = load_dataset(&sharded, &effort).unwrap();
        // Same graph and instance either way.
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.data, b.data);
        assert_eq!(a.budget.to_bits(), b.budget.to_bits());
    }

    #[test]
    fn dataset_instance_is_deterministic_across_formats() {
        let dir = TempDir::new("determinism");
        let text = dir.file("src.txt");
        let bin = dir.file("dst.oscg");
        std::fs::write(&text, "0 1\n1 2\n2 3\n3 0\n1 3\n").unwrap();
        convert_sharded(&text, &bin, 1).unwrap();
        let effort = Effort::micro();
        let a = load_dataset(&text, &effort).unwrap();
        let b = load_dataset(&bin, &effort).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.data, b.data, "synthesized workloads must match");
        assert_eq!(a.budget.to_bits(), b.budget.to_bits());
    }

    #[test]
    fn binary_workload_overrides_synthesis() {
        let dir = TempDir::new("stored");
        let bin = dir.file("workload.oscg");
        let mut builder = osn_graph::GraphBuilder::new(2);
        builder.add_edge(0, 1, 0.5).unwrap();
        let g = builder.build().unwrap();
        let data = NodeData::uniform(2, 9.0, 3.0, 1.0);
        let file = std::fs::File::create(&bin).unwrap();
        binary::write_oscg(&g, Some((&data, 123.0)), file).unwrap();
        let ds = load_dataset(&bin, &Effort::micro()).unwrap();
        assert_eq!(ds.data, data);
        assert_eq!(ds.budget, 123.0);
    }

    #[test]
    fn profile_instance_matches_direct_generation() {
        let effort = Effort::micro();
        let via_choke = profile_instance(DatasetProfile::Facebook, &effort);
        let direct = DatasetProfile::Facebook
            .generate(effort.profile_scale(DatasetProfile::Facebook), effort.seed)
            .unwrap();
        assert_eq!(via_choke.graph, direct.graph);
        assert_eq!(via_choke.data, direct.data);
    }
}
