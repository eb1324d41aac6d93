//! A Monte-Carlo world cache is held once: sampling a 1024-world cache and
//! folding a deployment over it grows the process peak resident set by
//! less than the cache's own bytes plus a per-thread sampling allowance.
//! The allowance is what one sampling task holds besides the block it
//! builds — the `m`-word lane-mask buffer and the `m`-bit bitmap,
//! `8.125·m` bytes, rounded up to `9·m` for allocator slack — plus one
//! fold's `O(n)` lane scratch (under 32 bytes per node), for each of the
//! pool's workers and the calling thread. A second copy of the worlds, in
//! any format, does not fit under that bound.
//!
//! This file holds exactly one test, so the test binary's peak (`VmHWM`)
//! measures that test alone. Where procfs is absent the test says so and
//! passes without measuring.

use osn_graph::{GraphBuilder, NodeData, NodeId};
use osn_pool::ThreadPool;
use osn_propagation::world::WorldCache;
use osn_propagation::McBackend;

/// A `/proc/self/status` field in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn world_cache_peak_rss_is_one_copy_of_the_worlds() {
    if status_bytes("VmHWM:").is_none() {
        eprintln!("no VmHWM in /proc/self/status; peak RSS not measured");
        return;
    }
    // 20k nodes, 10 out-edges each at p = 0.05: every 64-world block
    // keeps most edges, so the 16 blocks dwarf the allowance.
    let n = 20_000u32;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        for k in 1..=10u32 {
            b.add_edge(u, (u + k * 97) % n, 0.05).unwrap();
        }
    }
    let g = b.build().unwrap();
    let d = NodeData::uniform(n as usize, 1.0, 1.0, 1.0);
    let (n, m) = (g.node_count() as u64, g.edge_count() as u64);

    let pool = ThreadPool::new(2);
    let before = status_bytes("VmRSS:").unwrap();
    let backend = McBackend::from_cache(WorldCache::sample_with_pool(&g, 1024, 7, &pool));
    let coupons = vec![2u32; n as usize];
    let stats = backend
        .evaluator_on(&g, &d, &pool)
        .simulate(&[NodeId(0), NodeId(5_000)], &coupons);
    let peak = status_bytes("VmHWM:").unwrap();
    assert!(stats.mean_activated >= 2.0);

    let cache = backend.cache().resident_bytes();
    let threads = pool.num_threads() as u64 + 1;
    let allowance = threads * (9 * m + 32 * n);
    let growth = peak.saturating_sub(before);
    assert!(
        growth < cache + allowance,
        "peak grew {growth} bytes: over the {cache}-byte cache plus the \
         {allowance}-byte allowance for {threads} threads"
    );
}
