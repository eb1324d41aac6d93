//! Out-of-core streaming generation: Holme–Kim graphs written **directly**
//! to a sharded (v2) `.oscg` file, never materializing the full edge list
//! in memory.
//!
//! The in-memory pipeline ([`crate::powerlaw_cluster`] →
//! [`UndirectedTopology::into_directed`](crate::topology::UndirectedTopology)
//! → [`GraphBuilder`](osn_graph::GraphBuilder) → CSR → serialize) holds the
//! edge set four times over before a byte hits disk — at 100M directed
//! edges that is tens of gigabytes of peak RSS for a ~2.5 GB file. This
//! module replaces every O(E)-memory structure with an O(N)-memory or
//! disk-backed one:
//!
//! * **Preferential attachment** samples from a Fenwick tree over node
//!   degrees (O(log n) per draw) instead of the O(E) endpoints multiset.
//! * **Triad formation** picks from a fixed-size per-node **neighbor
//!   reservoir** (Algorithm R) instead of full adjacency lists. A
//!   reservoir is a uniform sample of the node's neighbors, so the
//!   marginal triad-target distribution is unchanged; only graphs whose
//!   hubs exceed the reservoir size see a (slight, unbiased) difference
//!   from the exact model.
//! * **Directed edges** stream to a temp spill file as `(src, tgt)` pairs
//!   the moment they are decided; only the O(N) degree arrays stay
//!   resident.
//! * A second pass **scatters** the spill into per-shard bucket files
//!   (forward buckets by source shard, reverse buckets by target shard),
//!   and each shard is then sorted, weighted (`P(e) = 1/in-degree`, the
//!   paper's default), and appended through
//!   [`osn_graph::shard::ShardedWriter`] — so peak memory is one shard's
//!   edges, not the graph's.
//!
//! The output is a complete, checksummed, validated v2 `.oscg` (with an
//! optional Sec. VI-A workload block) that loads through
//! [`osn_graph::ShardedOscg`] like any other file. Peak memory is bounded
//! in `tests/stream_rss.rs`.

use crate::attrs::{calibrate_kappa, calibrate_lambda, normal_benefits};
use crate::seeded_rng;
use osn_graph::shard::{ShardPlan, ShardedWriter};
use osn_graph::{GraphError, NodeData};
use rand::Rng;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Sec. VI-A workload parameters for a streamed instance.
#[derive(Clone, Copy, Debug)]
pub struct StreamWorkload {
    /// Benefit distribution mean (Table II µ).
    pub mu: f64,
    /// Benefit distribution std-dev (Table II σ).
    pub sigma: f64,
    /// Target λ = Σ benefit / Σ SC-cost.
    pub lambda: f64,
    /// Target κ = Σ seed-cost / Σ benefit.
    pub kappa: f64,
    /// Investment budget stored in the file.
    pub budget: f64,
}

impl Default for StreamWorkload {
    fn default() -> Self {
        StreamWorkload {
            mu: 10.0,
            sigma: 2.0,
            lambda: 1.0,
            kappa: 10.0,
            budget: 10_000.0,
        }
    }
}

/// Configuration of one streamed generation run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Node count.
    pub n: usize,
    /// Holme–Kim attachment count (links per new node).
    pub m: usize,
    /// Triad-formation probability.
    pub triad_prob: f64,
    /// Fraction of undirected edges emitted in both directions.
    pub reciprocity: f64,
    /// Neighbors kept per node for triad formation (Algorithm R sample).
    pub reservoir: usize,
    /// Requested shard count (clamped to the node count; ≥ 1).
    pub shards: usize,
    /// Workload block to embed, if any.
    pub workload: Option<StreamWorkload>,
    /// RNG seed; every byte of the output is a function of the config.
    pub seed: u64,
}

impl StreamConfig {
    /// A config with the module defaults (reservoir 8, 4 shards, standard
    /// workload).
    pub fn new(n: usize, m: usize, triad_prob: f64, seed: u64) -> Self {
        StreamConfig {
            n,
            m,
            triad_prob,
            reciprocity: 1.0,
            reservoir: 8,
            shards: 4,
            workload: Some(StreamWorkload::default()),
            seed,
        }
    }
}

/// What a streamed run produced.
#[derive(Clone, Copy, Debug)]
pub struct StreamedStats {
    /// Node count.
    pub nodes: u64,
    /// Undirected edges generated.
    pub undirected_edges: u64,
    /// Directed edges written.
    pub directed_edges: u64,
    /// Shards in the written file (after clamping).
    pub shards: usize,
    /// Final file size in bytes.
    pub file_bytes: u64,
}

/// Fenwick (binary indexed) tree over per-node degree weights — the O(N)
/// replacement for the endpoints multiset: sampling a node with
/// probability ∝ degree is an O(log n) prefix-sum descent.
struct Fenwick {
    tree: Vec<u64>,
    /// Highest power of two ≤ len, for the descent.
    top: usize,
    total: u64,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        // Highest power of two ≤ n (0 when the tree is empty).
        let top = if n == 0 {
            0
        } else {
            1usize << (usize::BITS - 1 - n.leading_zeros())
        };
        Fenwick {
            tree: vec![0; n + 1],
            top,
            total: 0,
        }
    }

    fn add(&mut self, i: usize, delta: u64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
        self.total += delta;
    }

    /// The index `i` with `prefix(i) <= x < prefix(i + 1)` — i.e. a
    /// degree-proportional draw when `x` is uniform in `[0, total)`.
    fn sample(&self, mut x: u64) -> u32 {
        let mut pos = 0usize;
        let mut mask = self.top;
        while mask > 0 {
            let next = pos + mask;
            if next < self.tree.len() && self.tree[next] <= x {
                x -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        pos as u32
    }
}

/// Fixed-width per-node neighbor reservoirs (Algorithm R): slot storage is
/// one flat `n × width` array, and each node's slots hold a uniform sample
/// of the neighbors offered to it so far.
struct Reservoirs {
    slots: Vec<u32>,
    seen: Vec<u32>,
    width: usize,
}

impl Reservoirs {
    fn new(n: usize, width: usize) -> Self {
        Reservoirs {
            slots: vec![0; n * width],
            seen: vec![0; n],
            width,
        }
    }

    fn offer<R: Rng>(&mut self, node: u32, neighbor: u32, rng: &mut R) {
        let seen = self.seen[node as usize] as usize;
        let base = node as usize * self.width;
        if seen < self.width {
            self.slots[base + seen] = neighbor;
        } else {
            let j = rng.gen_range(0..=seen);
            if j < self.width {
                self.slots[base + j] = neighbor;
            }
        }
        self.seen[node as usize] += 1;
    }

    fn pick<R: Rng>(&self, node: u32, rng: &mut R) -> Option<u32> {
        let count = (self.seen[node as usize] as usize).min(self.width);
        if count == 0 {
            return None;
        }
        Some(self.slots[node as usize * self.width + rng.gen_range(0..count)])
    }
}

/// Best-effort temp-file cleanup on every exit path.
struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    fn track(&mut self, p: PathBuf) -> PathBuf {
        self.0.push(p.clone());
        p
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            std::fs::remove_file(p).ok();
        }
    }
}

fn corrupt(detail: String) -> GraphError {
    GraphError::CorruptSection {
        section: "stream",
        detail,
    }
}

/// Generate a Holme–Kim power-law-cluster graph of `cfg.n` nodes and
/// stream it to `path` as a sharded (v2) `.oscg`, holding O(N + E/shards)
/// memory instead of O(E). See the module docs for the pipeline.
///
/// Influence probabilities follow the paper's weighted-cascade default
/// `P(e(i,j)) = 1/in-degree(v_j)`; the workload block (if configured) is
/// the standard Sec. VI-A model with seed costs proportional to
/// out-degree. The output is deterministic per config: same config, same
/// bytes.
pub fn stream_powerlaw_cluster_oscg(
    path: &Path,
    cfg: &StreamConfig,
) -> Result<StreamedStats, GraphError> {
    assert!(cfg.m >= 1, "attachment count m must be positive");
    assert!(cfg.n > cfg.m, "need more nodes than the attachment count");
    assert!(
        (0.0..=1.0).contains(&cfg.triad_prob),
        "triad_prob must lie in [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.reciprocity),
        "reciprocity must lie in [0, 1]"
    );
    assert!(cfg.reservoir >= 1, "reservoir width must be positive");
    assert!(cfg.shards >= 1, "shard count must be positive");
    assert!(cfg.n <= u32::MAX as usize, "node count exceeds u32 space");

    let n = cfg.n;
    let pid = std::process::id();
    let stem = path.file_name().and_then(|s| s.to_str()).unwrap_or("graph");
    let dir = path.parent().unwrap_or(Path::new("."));
    let mut temps = TempFiles(Vec::new());

    // ---- Pass 1: generate topology, spilling directed edges to disk ----
    let spill_path = temps.track(dir.join(format!("{stem}.edges.{pid}.tmp")));
    let mut rng = seeded_rng(cfg.seed);
    let mut out_deg = vec![0u32; n];
    let mut in_deg = vec![0u32; n];
    let mut undirected = 0u64;
    let mut directed = 0u64;
    {
        let mut spill = BufWriter::with_capacity(1 << 20, File::create(&spill_path)?);
        let mut degrees = Fenwick::new(n);
        let mut reservoirs = Reservoirs::new(n, cfg.reservoir);
        // Emit one undirected edge: orient it, spill, count degrees.
        let mut emit = |u: u32,
                        v: u32,
                        degrees: &mut Fenwick,
                        reservoirs: &mut Reservoirs,
                        rng: &mut rand::rngs::SmallRng|
         -> std::io::Result<()> {
            debug_assert_ne!(u, v);
            degrees.add(u as usize, 1);
            degrees.add(v as usize, 1);
            reservoirs.offer(u, v, rng);
            reservoirs.offer(v, u, rng);
            undirected += 1;
            let both = cfg.reciprocity >= 1.0 || rng.gen_bool(cfg.reciprocity);
            let (mut a, mut b) = (u, v);
            if !both && rng.gen_bool(0.5) {
                std::mem::swap(&mut a, &mut b);
            }
            let pairs: &[(u32, u32)] = if both { &[(u, v), (v, u)] } else { &[(a, b)] };
            for &(s, t) in pairs {
                spill.write_all(&s.to_le_bytes())?;
                spill.write_all(&t.to_le_bytes())?;
                out_deg[s as usize] += 1;
                in_deg[t as usize] += 1;
                directed += 1;
            }
            Ok(())
        };

        // Seed clique on m + 1 nodes.
        for u in 0..=(cfg.m as u32) {
            for v in (u + 1)..=(cfg.m as u32) {
                emit(u, v, &mut degrees, &mut reservoirs, &mut rng)?;
            }
        }

        let mut linked: std::collections::HashSet<u32> =
            std::collections::HashSet::with_capacity(cfg.m);
        for new in (cfg.m as u32 + 1)..(n as u32) {
            linked.clear();
            // First link: always preferential attachment.
            let mut prev = loop {
                let pick = degrees.sample(rng.gen_range(0..degrees.total));
                if pick != new {
                    break pick;
                }
            };
            emit(new, prev, &mut degrees, &mut reservoirs, &mut rng)?;
            linked.insert(prev);

            while linked.len() < cfg.m {
                let target = if rng.gen_bool(cfg.triad_prob) {
                    // Triad formation: a sampled neighbor of the previous
                    // target; fall through to PA when it collides.
                    match reservoirs.pick(prev, &mut rng) {
                        Some(c) if c != new && !linked.contains(&c) => Some(c),
                        _ => None,
                    }
                } else {
                    None
                };
                let target = match target {
                    Some(t) => t,
                    None => loop {
                        let t = degrees.sample(rng.gen_range(0..degrees.total));
                        if t != new && !linked.contains(&t) {
                            break t;
                        }
                    },
                };
                emit(new, target, &mut degrees, &mut reservoirs, &mut rng)?;
                linked.insert(target);
                prev = target;
            }
        }
        spill.flush()?;
    }
    if directed > u32::MAX as u64 {
        return Err(corrupt(format!(
            "{directed} directed edges exceed the .oscg u32 edge space"
        )));
    }

    // ---- Plan shards by forward + reverse edge mass ----
    let prefix = |deg: &[u32]| {
        let mut off = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        off.push(0);
        for &d in deg {
            acc += d as u64;
            off.push(acc);
        }
        off
    };
    let fwd_off = prefix(&out_deg);
    let rev_off = prefix(&in_deg);
    let plan = ShardPlan::balanced(&fwd_off, &rev_off, cfg.shards);
    let shards = plan.shard_count();

    // ---- Pass 2: scatter the spill into per-shard bucket files ----
    let mut fwd_paths = Vec::with_capacity(shards);
    let mut rev_paths = Vec::with_capacity(shards);
    {
        let mut fwd_buckets = Vec::with_capacity(shards);
        let mut rev_buckets = Vec::with_capacity(shards);
        for s in 0..shards {
            let fp = temps.track(dir.join(format!("{stem}.fwd{s}.{pid}.tmp")));
            let rp = temps.track(dir.join(format!("{stem}.rev{s}.{pid}.tmp")));
            fwd_buckets.push(BufWriter::with_capacity(1 << 16, File::create(&fp)?));
            rev_buckets.push(BufWriter::with_capacity(1 << 16, File::create(&rp)?));
            fwd_paths.push(fp);
            rev_paths.push(rp);
        }
        let mut spill = BufReader::with_capacity(1 << 20, File::open(&spill_path)?);
        let mut rec = [0u8; 8];
        for _ in 0..directed {
            spill.read_exact(&mut rec)?;
            let src = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            let tgt = u32::from_le_bytes(rec[4..8].try_into().unwrap());
            fwd_buckets[plan.shard_of(src)].write_all(&rec)?;
            rev_buckets[plan.shard_of(tgt)].write_all(&rec)?;
        }
        for b in fwd_buckets.iter_mut().chain(rev_buckets.iter_mut()) {
            b.flush()?;
        }
    }

    // ---- Pass 3: build each shard's local CSR and stream it out ----
    let tmp_out = temps.track(dir.join(format!("{stem}.out.{pid}.tmp")));
    let mut writer = ShardedWriter::new(File::create(&tmp_out)?, n as u64, directed, shards)?;
    let read_pairs = |p: &Path| -> Result<Vec<(u32, u32)>, GraphError> {
        let bytes = std::fs::read(p)?;
        if bytes.len() % 8 != 0 {
            return Err(corrupt(format!("torn bucket file {}", p.display())));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u32::from_le_bytes(c[4..8].try_into().unwrap()),
                )
            })
            .collect())
    };
    let prob_of = |tgt: u32| 1.0 / in_deg[tgt as usize] as f64;
    for s in 0..shards {
        let range = plan.node_range(s);
        let ln = range.len();

        // Forward: rank order is descending probability = ascending target
        // in-degree; ties break by ascending target id for determinism.
        let mut fwd = read_pairs(&fwd_paths[s])?;
        fwd.sort_unstable_by_key(|&(src, tgt)| (src, in_deg[tgt as usize], tgt));
        let mut fwd_offsets = Vec::with_capacity(ln + 1);
        let mut targets = Vec::with_capacity(fwd.len());
        let mut probs = Vec::with_capacity(fwd.len());
        fwd_offsets.push(0u64);
        let mut cursor = 0usize;
        for v in range.clone() {
            while cursor < fwd.len() && fwd[cursor].0 == v {
                targets.push(fwd[cursor].1);
                probs.push(prob_of(fwd[cursor].1));
                cursor += 1;
            }
            fwd_offsets.push(targets.len() as u64);
        }
        if cursor != fwd.len() {
            return Err(corrupt(format!("forward bucket {s} holds foreign sources")));
        }
        drop(fwd);

        // Reverse: sources ascending per target.
        let mut rev = read_pairs(&rev_paths[s])?;
        rev.sort_unstable_by_key(|&(src, tgt)| (tgt, src));
        let mut rev_offsets = Vec::with_capacity(ln + 1);
        let mut sources = Vec::with_capacity(rev.len());
        let mut rev_probs = Vec::with_capacity(rev.len());
        rev_offsets.push(0u64);
        let mut cursor = 0usize;
        for v in range.clone() {
            while cursor < rev.len() && rev[cursor].1 == v {
                sources.push(rev[cursor].0);
                rev_probs.push(prob_of(v));
                cursor += 1;
            }
            rev_offsets.push(sources.len() as u64);
        }
        if cursor != rev.len() {
            return Err(corrupt(format!("reverse bucket {s} holds foreign targets")));
        }
        drop(rev);

        writer.write_shard(
            &fwd_offsets,
            &targets,
            &probs,
            &rev_offsets,
            &sources,
            &rev_probs,
        )?;
        // Buckets are consumed; free the disk as we go.
        std::fs::remove_file(&fwd_paths[s]).ok();
        std::fs::remove_file(&rev_paths[s]).ok();
    }

    // ---- Workload + finish ----
    let workload = match cfg.workload {
        Some(w) => {
            let benefit = normal_benefits(n, w.mu, w.sigma, &mut rng);
            let seed_cost: Vec<f64> = out_deg.iter().map(|&d| (d as f64).max(0.5)).collect();
            let sc_cost = vec![1.0; n];
            let mut data = NodeData::new(benefit, seed_cost, sc_cost)?;
            calibrate_lambda(&mut data, w.lambda);
            calibrate_kappa(&mut data, w.kappa);
            Some((data, w.budget))
        }
        None => None,
    };
    let file = writer.finish(workload.as_ref().map(|(d, b)| (d, *b)))?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp_out, path)?;
    // The rename consumed the output temp; drop it from the cleanup list
    // so a later failure cannot delete the finished file.
    temps.0.retain(|p| p != &tmp_out);

    let file_bytes = std::fs::metadata(path)?.len();
    Ok(StreamedStats {
        nodes: n as u64,
        undirected_edges: undirected,
        directed_edges: directed,
        shards,
        file_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::binary;
    use osn_graph::ShardedOscg;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("osn-stream-{}-{tag}.oscg", std::process::id()))
    }

    #[test]
    fn streamed_file_loads_and_validates() {
        let path = temp_path("loads");
        let cfg = StreamConfig::new(300, 3, 0.6, 42);
        let stats = stream_powerlaw_cluster_oscg(&path, &cfg).unwrap();
        assert_eq!(stats.nodes, 300);
        assert_eq!(stats.shards, 4);
        // Edge budget matches the Holme–Kim formula (reciprocity 1 doubles).
        let undirected = 3 * 4 / 2 + (300 - 3 - 1) * 3;
        assert_eq!(stats.undirected_edges, undirected as u64);
        assert_eq!(stats.directed_edges, 2 * undirected as u64);

        // Full v1-equivalent load path (validates every section + plan).
        let file = binary::load_oscg(&path).unwrap();
        assert_eq!(file.graph.node_count(), 300);
        assert_eq!(file.graph.edge_count() as u64, stats.directed_edges);
        let w = file.workload.expect("workload block");
        assert_eq!(w.data.len(), 300);
        assert!((w.budget - 10_000.0).abs() < 1e-9);
        // Weighted-cascade probabilities.
        let g = &file.graph;
        for u in g.nodes().take(40) {
            for (v, p) in g.ranked_out(u) {
                assert!((p - 1.0 / g.in_degree(v) as f64).abs() < 1e-12);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_is_deterministic_per_config() {
        let (pa, pb) = (temp_path("det-a"), temp_path("det-b"));
        let cfg = StreamConfig::new(200, 2, 0.4, 7);
        stream_powerlaw_cluster_oscg(&pa, &cfg).unwrap();
        stream_powerlaw_cluster_oscg(&pb, &cfg).unwrap();
        let (a, b) = (std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        assert_eq!(a, b, "same config must produce identical bytes");
        let cfg2 = StreamConfig::new(200, 2, 0.4, 8);
        stream_powerlaw_cluster_oscg(&pb, &cfg2).unwrap();
        assert_ne!(a, std::fs::read(&pb).unwrap(), "seed must matter");
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn sharded_open_sees_the_shard_table() {
        let path = temp_path("table");
        let mut cfg = StreamConfig::new(500, 3, 0.5, 11);
        cfg.shards = 7;
        cfg.workload = None;
        let stats = stream_powerlaw_cluster_oscg(&path, &cfg).unwrap();
        assert_eq!(stats.shards, 7);
        let sharded = ShardedOscg::open(&path).unwrap();
        assert_eq!(sharded.shard_count(), 7);
        assert_eq!(sharded.node_count(), 500);
        assert_eq!(sharded.edge_count(), stats.directed_edges as usize);
        assert!(sharded.workload().is_none());
        // Converting to a monolithic in-memory graph revalidates the
        // transpose bijection end to end.
        let file = sharded.to_oscg_file().unwrap();
        assert_eq!(file.graph.edge_count() as u64, stats.directed_edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_reciprocity_keeps_degree_accounting() {
        let path = temp_path("recip");
        let mut cfg = StreamConfig::new(250, 3, 0.5, 13);
        cfg.reciprocity = 0.4;
        let stats = stream_powerlaw_cluster_oscg(&path, &cfg).unwrap();
        assert!(stats.directed_edges < 2 * stats.undirected_edges);
        assert!(stats.directed_edges >= stats.undirected_edges);
        let file = binary::load_oscg(&path).unwrap();
        assert_eq!(file.graph.edge_count() as u64, stats.directed_edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heavy_tail_survives_the_reservoir_approximation() {
        let path = temp_path("tail");
        let mut cfg = StreamConfig::new(2000, 2, 0.6, 19);
        cfg.workload = None;
        stream_powerlaw_cluster_oscg(&path, &cfg).unwrap();
        let g = binary::load_oscg(&path).unwrap().graph;
        let max = g.nodes().map(|v| g.out_degree(v)).max().unwrap() as f64;
        let mean = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            max > 8.0 * mean,
            "streamed degree distribution lost its tail: max {max}, mean {mean}"
        );
        std::fs::remove_file(&path).ok();
    }
}
