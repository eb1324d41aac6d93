//! Streamed generation never holds the graph in memory: the process peak
//! resident set stays well under the size of the file it writes.
//!
//! This file holds exactly one test, so the test binary's peak (`VmHWM`)
//! measures that test alone. Where procfs is absent the test says so and
//! passes without measuring.

use osn_gen::stream::{stream_powerlaw_cluster_oscg, StreamConfig};

/// The process's peak resident set in bytes, from `/proc/self/status`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn streamed_generation_peak_rss_is_under_half_the_file() {
    if peak_rss_bytes().is_none() {
        eprintln!("no VmHWM in /proc/self/status; peak RSS not measured");
        return;
    }
    let dir = std::env::temp_dir().join(format!("osn-stream-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = StreamConfig::new(60_000, 8, 0.3, 42);
    cfg.shards = 8;
    let stats = stream_powerlaw_cluster_oscg(&dir.join("streamed.oscg"), &cfg);
    std::fs::remove_dir_all(&dir).ok();
    let stats = stats.expect("streamed generation");
    let peak = peak_rss_bytes().unwrap();
    assert_eq!(stats.shards, 8);
    assert!(
        peak < stats.file_bytes / 2,
        "peak RSS {peak} bytes is not under half the {}-byte file",
        stats.file_bytes
    );
}
