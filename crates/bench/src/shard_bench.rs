//! The `shard_cascade` trajectory benchmark: the out-of-core proof run
//! behind the sharded `.oscg` format.
//!
//! One process does the whole pipeline so the kernel's `VmHWM` covers every
//! phase: stream-generate a power-law-cluster graph **directly** into a
//! sharded v2 `.oscg` file (`osn_gen::stream` — the full edge list never
//! exists in memory), open it with an LRU shard-residency budget
//! ([`osn_graph::ShardedOscg`]), and run a degree-ranked budgeted
//! investment-deployment (ID) pass evaluated with the scalar cascade kernel
//! ([`osn_propagation::reach::world_cascade`], paging shards through the
//! LRU) over deterministically hash-sampled worlds. The headline number is
//! `peak_rss / file_bytes`: the acceptance bar for the out-of-core path is
//! that it stays **well below 1** even when the graph dwarfs the residency
//! budget.
//!
//! Every phase is deterministic in `seed` (generation, world coins, and the
//! degree-greedy deployment all derive from it), so a point is reproducible
//! bit-for-bit — modulo the wall-clock and RSS columns, which is why the
//! trajectory file keeps them in separate fields.

use osn_gen::stream::{stream_powerlaw_cluster_oscg, StreamConfig};
use osn_graph::{NodeId, ShardedOscg};
use osn_propagation::reach::{world_cascade, CascadeScratch};
use osn_propagation::WorldRef;
use std::path::{Path, PathBuf};

/// Knobs of one `bench shard_cascade` run.
#[derive(Clone, Debug)]
pub struct ShardBenchConfig {
    /// Node count of the generated graph.
    pub nodes: usize,
    /// Holme–Kim attachment count (≈ undirected edges per new node; the
    /// directed edge count is about `2 · nodes · edges_per_node`).
    pub edges_per_node: usize,
    /// Shard count of the generated file.
    pub shards: usize,
    /// LRU shard-residency budget, in MiB.
    pub resident_mb: usize,
    /// Hash-sampled worlds the deployment is evaluated on.
    pub worlds: usize,
    /// Coupons allocated per funded node.
    pub coupons_per_node: u32,
    /// Cap on the seed set (the budget usually binds first on big runs).
    pub seeds_cap: usize,
    /// Master seed for generation, world coins, and the deployment.
    pub seed: u64,
    /// Where the generated `.oscg` lands.
    pub file: PathBuf,
    /// Keep the generated file instead of removing it at the end.
    pub keep: bool,
}

impl Default for ShardBenchConfig {
    fn default() -> Self {
        ShardBenchConfig {
            nodes: 50_000,
            edges_per_node: 8,
            shards: 8,
            resident_mb: 64,
            worlds: 4,
            coupons_per_node: 3,
            seeds_cap: 64,
            seed: 42,
            file: PathBuf::from("shard_cascade.oscg"),
            keep: false,
        }
    }
}

/// One measured `shard_cascade` trajectory point.
#[derive(Clone, Debug)]
pub struct ShardBenchPoint {
    pub nodes: u64,
    pub directed_edges: u64,
    pub shards: usize,
    pub file_bytes: u64,
    pub resident_budget_bytes: u64,
    pub worlds: usize,
    pub seeds: usize,
    pub funded_nodes: usize,
    pub budget: f64,
    pub mean_benefit: f64,
    pub mean_activated: f64,
    pub gen_secs: f64,
    pub open_secs: f64,
    pub id_secs: f64,
    /// `VmHWM` right after generation finished (the generator's own peak).
    pub gen_peak_rss_bytes: u64,
    /// `VmHWM` at the end of the run (peak across all phases).
    pub peak_rss_bytes: u64,
    /// `peak_rss_bytes / file_bytes` — the out-of-core headline.
    pub rss_to_file_ratio: f64,
    pub shard_loads: u64,
    pub shard_evictions: u64,
    pub max_resident_shards: usize,
}

impl ShardBenchPoint {
    /// The point as one JSON object (hand-rolled: the trajectory file is
    /// consumed by humans and plotting scripts, not by serde).
    pub fn to_json(&self, unix_secs: u64) -> String {
        format!(
            "{{\"bench\": \"shard_cascade\", \"unix_secs\": {}, \"nodes\": {}, \
             \"directed_edges\": {}, \"shards\": {}, \"file_bytes\": {}, \
             \"resident_budget_bytes\": {}, \"worlds\": {}, \"seeds\": {}, \
             \"funded_nodes\": {}, \"budget\": {}, \"mean_benefit\": {}, \
             \"mean_activated\": {}, \"gen_secs\": {:.3}, \"open_secs\": {:.3}, \
             \"id_secs\": {:.3}, \"gen_peak_rss_bytes\": {}, \"peak_rss_bytes\": {}, \
             \"rss_to_file_ratio\": {:.4}, \"shard_loads\": {}, \
             \"shard_evictions\": {}, \"max_resident_shards\": {}}}",
            unix_secs,
            self.nodes,
            self.directed_edges,
            self.shards,
            self.file_bytes,
            self.resident_budget_bytes,
            self.worlds,
            self.seeds,
            self.funded_nodes,
            self.budget,
            self.mean_benefit,
            self.mean_activated,
            self.gen_secs,
            self.open_secs,
            self.id_secs,
            self.gen_peak_rss_bytes,
            self.peak_rss_bytes,
            self.rss_to_file_ratio,
            self.shard_loads,
            self.shard_evictions,
            self.max_resident_shards,
        )
    }
}

/// The process's peak resident set (`VmHWM`) in bytes, from
/// `/proc/self/status`. `None` where procfs is unavailable — callers
/// report 0 and say so rather than failing the run.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Append one JSON object to a `BENCH_*.json` trajectory file, keeping the
/// file a valid JSON array. A missing or empty file starts a new array;
/// an existing array gets the point appended before the closing bracket.
pub fn append_trajectory_point(path: &Path, json: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim();
    let body = trimmed
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .map(|s| s.trim().trim_end_matches(','))
        .unwrap_or("");
    let mut out = String::from("[\n");
    if !body.is_empty() {
        out.push_str(body);
        out.push_str(",\n");
    }
    out.push_str(json);
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

/// SplitMix64 — the per-edge coin hash. Counter-based (no sequential RNG
/// state), so world `w`'s coin for edge `e` is a pure function of
/// `(seed, w, e)`: independent of shard count, scan order, and residency.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The world-`w` coin for global edge `e`: uniform in `[0, 1)`.
#[inline]
fn edge_coin(seed: u64, w: usize, e: u64) -> f64 {
    let h = splitmix64(seed ^ (w as u64).wrapping_mul(0xd6e8_feb8_6659_fd93) ^ e);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Run the benchmark. Returns the measured point; the generated file is
/// removed afterwards unless `cfg.keep` is set.
pub fn run(cfg: &ShardBenchConfig) -> Result<ShardBenchPoint, String> {
    let t0 = std::time::Instant::now();
    let mut gen_cfg = StreamConfig::new(cfg.nodes, cfg.edges_per_node, 0.3, cfg.seed);
    gen_cfg.shards = cfg.shards;
    let stats = stream_powerlaw_cluster_oscg(&cfg.file, &gen_cfg)
        .map_err(|e| format!("streamed generation failed: {e}"))?;
    let gen_secs = t0.elapsed().as_secs_f64();
    let gen_peak_rss_bytes = peak_rss_bytes().unwrap_or(0);

    let result = run_id_phase(cfg, &stats, gen_secs, gen_peak_rss_bytes);
    if !cfg.keep {
        std::fs::remove_file(&cfg.file).ok();
    }
    result
}

fn run_id_phase(
    cfg: &ShardBenchConfig,
    stats: &osn_gen::stream::StreamedStats,
    gen_secs: f64,
    gen_peak_rss_bytes: u64,
) -> Result<ShardBenchPoint, String> {
    let budget_bytes = cfg.resident_mb.max(1) * (1 << 20);
    let t1 = std::time::Instant::now();
    let sharded = ShardedOscg::open_with_budget(&cfg.file, Some(budget_bytes))
        .map_err(|e| format!("open failed: {e}"))?;
    let open_secs = t1.elapsed().as_secs_f64();
    let workload = sharded
        .workload()
        .ok_or("streamed file carries no workload")?
        .clone();
    let n = sharded.node_count();
    let m = sharded.edge_count() as u64;

    let t2 = std::time::Instant::now();
    // Degree scan, shard at a time through the LRU: keep the top
    // `seeds_cap` nodes by (out-degree desc, id asc) as the candidate pool.
    let mut candidates: Vec<(u64, u32)> = Vec::new(); // (degree, node)
    let mut max_resident = 0usize;
    for s in 0..sharded.shard_count() {
        let shard = sharded.shard(s);
        for lv in 0..shard.node_count() {
            let deg = shard.offsets[lv + 1] - shard.offsets[lv];
            let v = shard.node_start + lv as u32;
            if candidates.len() < cfg.seeds_cap.max(1) {
                candidates.push((deg, v));
                if candidates.len() == cfg.seeds_cap.max(1) {
                    candidates.sort_unstable_by_key(|&(d, v)| (std::cmp::Reverse(d), v));
                }
            } else if deg > candidates.last().unwrap().0 {
                candidates.pop();
                let at = candidates.partition_point(|&(d, cv)| {
                    (std::cmp::Reverse(d), cv) < (std::cmp::Reverse(deg), v)
                });
                candidates.insert(at, (deg, v));
            }
        }
        max_resident = max_resident.max(sharded.residency_stats().0);
    }
    candidates.sort_unstable_by_key(|&(d, v)| (std::cmp::Reverse(d), v));

    // Budgeted investment deployment: seed the highest-degree candidates
    // until half the budget is spent on seed costs, then fund coupons down
    // the same ranking until the budget is exhausted. A deliberate
    // degree-greedy stand-in for the full S3CA ID phase — the benchmark
    // measures the out-of-core execution path, not selection quality.
    let budget = workload.budget;
    let data = &workload.data;
    let mut seeds: Vec<NodeId> = Vec::new();
    let mut coupons = vec![0u32; n];
    let mut spent = 0.0f64;
    for &(_, v) in &candidates {
        let c = data.seed_cost(NodeId(v));
        if spent + c > budget * 0.5 || seeds.len() >= cfg.seeds_cap.max(1) {
            break;
        }
        seeds.push(NodeId(v));
        spent += c;
    }
    if seeds.is_empty() {
        if let Some(&(_, v)) = candidates.first() {
            seeds.push(NodeId(v));
        }
    }
    let mut funded = 0usize;
    for &(_, v) in &candidates {
        let c = data.sc_cost(NodeId(v)) * cfg.coupons_per_node as f64;
        if spent + c > budget {
            break;
        }
        coupons[v as usize] = cfg.coupons_per_node;
        spent += c;
        funded += 1;
    }

    // Evaluate the deployment over hash-sampled worlds with the scalar
    // kernel, shard by shard. Live edges are collected per world by scanning each
    // shard's probability slice (ascending global edge id by construction),
    // so the evaluation reads the file exactly the way the residency budget
    // meters it.
    let mut scratch = CascadeScratch::new(n);
    let mut live: Vec<u32> = Vec::new();
    let mut total_benefit = 0.0f64;
    let mut total_activated = 0usize;
    for w in 0..cfg.worlds.max(1) {
        live.clear();
        for s in 0..sharded.shard_count() {
            let shard = sharded.shard(s);
            let base = shard.fwd_edge_start;
            for (i, &p) in shard.probs.iter().enumerate() {
                let e = base + i as u64;
                if edge_coin(cfg.seed, w, e) < p {
                    live.push(e as u32);
                }
            }
            max_resident = max_resident.max(sharded.residency_stats().0);
        }
        let outcome = world_cascade(
            &sharded,
            data,
            &seeds,
            &coupons,
            WorldRef(&live),
            &mut scratch,
        );
        total_benefit += outcome.benefit;
        total_activated += outcome.activated;
    }
    let worlds = cfg.worlds.max(1);
    let id_secs = t2.elapsed().as_secs_f64();
    let (_, _, loads, evictions) = sharded.residency_stats();
    let peak = peak_rss_bytes().unwrap_or(0);
    Ok(ShardBenchPoint {
        nodes: n as u64,
        directed_edges: m,
        shards: sharded.shard_count(),
        file_bytes: stats.file_bytes,
        resident_budget_bytes: budget_bytes as u64,
        worlds,
        seeds: seeds.len(),
        funded_nodes: funded,
        budget,
        mean_benefit: total_benefit / worlds as f64,
        mean_activated: total_activated as f64 / worlds as f64,
        gen_secs,
        open_secs,
        id_secs,
        gen_peak_rss_bytes,
        peak_rss_bytes: peak,
        rss_to_file_ratio: peak as f64 / stats.file_bytes.max(1) as f64,
        shard_loads: loads,
        shard_evictions: evictions,
        max_resident_shards: max_resident,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3crm_tests::TempDir;

    fn small_cfg(dir: &TempDir, tag: &str) -> ShardBenchConfig {
        ShardBenchConfig {
            nodes: 600,
            edges_per_node: 3,
            shards: 3,
            resident_mb: 1,
            worlds: 2,
            seeds_cap: 8,
            file: dir.file(&format!("{tag}.oscg")),
            ..ShardBenchConfig::default()
        }
    }

    #[test]
    fn bench_runs_and_measures() {
        let dir = TempDir::new("shard-bench");
        let cfg = small_cfg(&dir, "run");
        let p = run(&cfg).expect("bench run");
        assert_eq!(p.nodes, 600);
        assert_eq!(p.shards, 3);
        assert!(p.directed_edges > 0 && p.file_bytes > 0);
        assert!(p.seeds >= 1 && p.funded_nodes >= 1);
        assert!(p.mean_benefit > 0.0 && p.mean_activated >= p.seeds as f64);
        assert!(p.shard_loads >= 3, "every shard is read at least once");
        // The generated file is removed unless `keep` is set.
        assert!(!cfg.file.exists());
        // VmHWM is monotone across phases.
        assert!(p.peak_rss_bytes >= p.gen_peak_rss_bytes);
    }

    #[test]
    fn deployment_and_estimates_are_deterministic() {
        let dir = TempDir::new("shard-bench-det");
        let a = run(&small_cfg(&dir, "a")).expect("first run");
        let b = run(&small_cfg(&dir, "b")).expect("second run");
        assert_eq!(a.mean_benefit.to_bits(), b.mean_benefit.to_bits());
        assert_eq!(a.mean_activated.to_bits(), b.mean_activated.to_bits());
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.funded_nodes, b.funded_nodes);
        assert_eq!(a.directed_edges, b.directed_edges);
    }

    #[test]
    fn trajectory_file_stays_a_json_array() {
        let dir = TempDir::new("shard-bench-json");
        let path = dir.file("BENCH_TRAJECTORY.json");
        append_trajectory_point(&path, "{\"bench\": \"a\"}").unwrap();
        append_trajectory_point(&path, "{\"bench\": \"b\"}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let trimmed = text.trim();
        assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{text}");
        assert_eq!(text.matches("\"bench\"").count(), 2, "{text}");
        // Appending to a hand-emptied array restarts cleanly.
        std::fs::write(&path, "[]\n").unwrap();
        append_trajectory_point(&path, "{\"bench\": \"c\"}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"bench\"").count(), 1, "{text}");
    }

    #[test]
    fn edge_coins_are_stable_functions_of_seed_world_edge() {
        assert_eq!(
            edge_coin(7, 3, 1234).to_bits(),
            edge_coin(7, 3, 1234).to_bits()
        );
        assert_ne!(
            edge_coin(7, 3, 1234).to_bits(),
            edge_coin(7, 4, 1234).to_bits()
        );
        for w in 0..4 {
            for e in 0..64u64 {
                let c = edge_coin(1, w, e);
                assert!((0.0..1.0).contains(&c));
            }
        }
    }
}
