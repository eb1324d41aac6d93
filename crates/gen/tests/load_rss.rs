//! Loading a `.oscg` file decodes it straight into the graph's arrays: the
//! process peak resident set stays under 1.5 times the file size, so the
//! file's bytes and the decoded graph are never both resident.
//!
//! This file holds exactly one test, so the test binary's peak (`VmHWM`)
//! measures that test alone. Where procfs is absent the test says so and
//! passes without measuring.

use osn_gen::stream::{stream_powerlaw_cluster_oscg, StreamConfig};
use osn_graph::binary;

/// The process's peak resident set in bytes, from `/proc/self/status`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn loading_peak_rss_is_under_one_and_a_half_files() {
    if peak_rss_bytes().is_none() {
        eprintln!("no VmHWM in /proc/self/status; peak RSS not measured");
        return;
    }
    let dir = std::env::temp_dir().join(format!("osn-load-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("streamed.oscg");
    let mut cfg = StreamConfig::new(60_000, 8, 0.3, 42);
    cfg.shards = 8;
    let stats = stream_powerlaw_cluster_oscg(&path, &cfg);
    let loaded = binary::load_oscg(&path);
    std::fs::remove_dir_all(&dir).ok();
    let stats = stats.expect("streamed generation");
    let file = loaded.expect("load");
    let peak = peak_rss_bytes().unwrap();
    assert_eq!(file.graph.edge_count() as u64, stats.directed_edges);
    let graph_bytes = file.graph.resident_bytes() as u64;
    assert!(
        peak * 2 < stats.file_bytes * 3,
        "peak RSS {peak} bytes is not under 1.5x the {}-byte file \
         (decoded graph {graph_bytes} bytes)",
        stats.file_bytes
    );
}
