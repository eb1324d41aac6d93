//! The `.oscg` binary format test battery: property-based round trips
//! (text → binary → load → `CsrGraph` equality across legacy v1, one-shard
//! and multi-shard v2 files), a streaming-decode suite that feeds the
//! reader a few bytes per `read`, and a corrupt-input suite pinning that
//! malformed files — in either version — yield typed [`GraphError`]s, never
//! panics, never out-of-bounds reads.

use osn_graph::binary::{self, from_bytes, load_oscg, sniff_is_oscg, to_bytes, write_oscg};
use osn_graph::shard::{checksum, sharded_to_bytes, VERSION_SHARDED};
use osn_graph::{CsrGraph, GraphBuilder, GraphError, NodeData, NodeId, ShardPlan, ShardedOscg};
use proptest::prelude::*;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique throw-away path; removed by `TempFile::drop`.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        let unique = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        TempFile(std::env::temp_dir().join(format!(
            "osn-binary-io-{}-{}-{}.oscg",
            std::process::id(),
            tag,
            unique
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (1usize..24).prop_flat_map(|n| {
        // Self-loops, duplicates, and 0-weight edges are all in-distribution:
        // the text pipeline must drop/collapse them and the binary round trip
        // must agree with the result.
        let edge = (0..n as u32, 0..n as u32, 0.0f64..=1.0f64);
        (Just(n), proptest::collection::vec(edge, 0..80))
    })
}

/// The text ingestion pipeline: edge lines → `EdgeList` → builder → CSR.
fn graph_from_text(text: &str, n_hint: usize) -> CsrGraph {
    osn_graph::io::read_edge_list(text.as_bytes())
        .expect("text parse")
        .into_builder(n_hint)
        .expect("builder")
        .build()
        .expect("build")
}

fn text_of(edges: &[(u32, u32, f64)]) -> String {
    let mut s = String::from("# generated by binary_io tests\n");
    for (u, v, p) in edges {
        s.push_str(&format!("{u} {v} {p}\n"));
    }
    s
}

/// Bit-level equality of graph contents (stricter than `PartialEq` for the
/// probability sections).
fn assert_graphs_bit_identical(a: &CsrGraph, b: &CsrGraph, what: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{what}: node counts");
    assert_eq!(a.edge_count(), b.edge_count(), "{what}: edge counts");
    assert_eq!(
        a.edge_targets_flat(),
        b.edge_targets_flat(),
        "{what}: targets"
    );
    let (pa, pb) = (a.edge_probs_flat(), b.edge_probs_flat());
    for (i, (x, y)) in pa.iter().zip(pb.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: prob {i} not bit-equal");
    }
    for v in a.nodes() {
        assert_eq!(a.in_sources(v), b.in_sources(v), "{what}: in_sources {v}");
        for (x, y) in a.in_probs(v).zip(b.in_probs(v)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: in_prob at {v}");
        }
    }
}

/// Legacy v1 bytes of a graph, from its one-shard v2 bytes: drop the shard
/// count and table, stamp version 1, and re-stamp the header checksum over
/// everything after the header. v1 is otherwise byte-identical.
fn legacy_v1(one_shard: &[u8]) -> Vec<u8> {
    assert_eq!(
        u64::from_le_bytes(one_shard[32..40].try_into().unwrap()),
        1,
        "legacy frames come from one-shard files"
    );
    let mut v1 = [&one_shard[..32], &one_shard[32 + 8 + 48..]].concat();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    let sum = checksum(&v1[32..]);
    v1[24..32].copy_from_slice(&sum.to_le_bytes());
    v1
}

/// Serialize as legacy v1, one-shard v2 and 3-shard v2 bytes; reload each
/// through every read path (owned bytes, file load) and assert bit-identical
/// contents.
fn roundtrip_all_paths(g: &CsrGraph, tag: &str) {
    let one_shard = to_bytes(g, None).expect("serialize");
    let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 3);
    let multi = sharded_to_bytes(g, None, &plan).expect("serialize sharded");
    for (form, bytes) in [
        ("v1", legacy_v1(&one_shard)),
        ("v2", one_shard.clone()),
        ("v2x3", multi),
    ] {
        let tag = format!("{tag}/{form}");
        let owned = from_bytes(&bytes).expect("from_bytes");
        assert_graphs_bit_identical(&owned.graph, g, &format!("{tag}/from_bytes"));

        let tmp = TempFile::new("roundtrip");
        std::fs::write(&tmp.0, &bytes).expect("write temp file");
        assert!(sniff_is_oscg(&tmp.0).expect("sniff"));
        let loaded = load_oscg(&tmp.0).expect("load_oscg");
        assert_graphs_bit_identical(&loaded.graph, g, &format!("{tag}/load_oscg"));
        // A clone of a loaded graph compares equal.
        let clone = loaded.graph.clone();
        assert_graphs_bit_identical(&clone, g, &format!("{tag}/clone"));
    }
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// text → CSR → {v1, v2, 3-shard v2} → {bytes, file} → CSR equality for
    /// arbitrary graphs including self-loops, duplicates, and 0-weights.
    #[test]
    fn text_to_binary_to_mmap_roundtrip((n, edges) in edges_strategy()) {
        let g = graph_from_text(&text_of(&edges), n);
        roundtrip_all_paths(&g, "prop");
    }

    /// The workload block round-trips budget and attributes bit-exactly.
    #[test]
    fn workload_roundtrip(
        (n, edges) in edges_strategy(),
        budget in 0.0f64..1e6,
        benefit in 0.1f64..100.0,
    ) {
        let g = graph_from_text(&text_of(&edges), n);
        let data = NodeData::uniform(g.node_count(), benefit, 2.0 * benefit, 1.0);
        let bytes = to_bytes(&g, Some((&data, budget))).expect("serialize");
        let back = from_bytes(&bytes).expect("parse");
        let w = back.workload.expect("workload present");
        prop_assert_eq!(w.budget.to_bits(), budget.to_bits());
        prop_assert_eq!(w.data, data);
    }
}

#[test]
fn empty_graph_roundtrips() {
    let g = GraphBuilder::new(0).build().unwrap();
    roundtrip_all_paths(&g, "empty");
}

#[test]
fn single_node_roundtrips() {
    let g = GraphBuilder::new(1).build().unwrap();
    roundtrip_all_paths(&g, "single");
    let bytes = to_bytes(&g, None).unwrap();
    assert_eq!(from_bytes(&bytes).unwrap().graph.node_count(), 1);
}

#[test]
fn self_loops_are_dropped_before_serialization() {
    // The text pipeline drops self-loops; the binary file then never
    // contains one (and the reader rejects files that do — see the corrupt
    // suite below).
    let g = graph_from_text("0 0 0.5\n0 1 0.25\n1 1 1\n", 0);
    assert_eq!(g.edge_count(), 1);
    roundtrip_all_paths(&g, "selfloop");
}

#[test]
fn duplicate_edges_collapse_last_wins_then_roundtrip() {
    let g = graph_from_text("0 1 0.2\n0 1 0.9\n1 0 0.5\n", 0);
    assert_eq!(g.edge_count(), 2);
    assert_eq!(g.edge_prob(NodeId(0), NodeId(1)), Some(0.9));
    roundtrip_all_paths(&g, "dups");
}

#[test]
fn zero_weight_edges_survive_roundtrip() {
    let g = graph_from_text("0 1 0\n1 2 0.5\n2 0 0\n", 0);
    assert_eq!(g.edge_count(), 3);
    roundtrip_all_paths(&g, "zerow");
    let bytes = to_bytes(&g, None).unwrap();
    let back = from_bytes(&bytes).unwrap().graph;
    assert_eq!(back.edge_prob(NodeId(0), NodeId(1)), Some(0.0));
}

#[test]
fn sniff_distinguishes_text_from_binary() {
    let tmp = TempFile::new("sniff-text");
    std::fs::write(&tmp.0, "# an edge list\n0 1\n").unwrap();
    assert!(!sniff_is_oscg(&tmp.0).unwrap());
    let short = TempFile::new("sniff-short");
    std::fs::write(&short.0, "OS").unwrap();
    assert!(!sniff_is_oscg(&short.0).unwrap());
}

// ---------------------------------------------------------------------------
// Corrupt inputs — typed errors, no panics
// ---------------------------------------------------------------------------

/// One serialized instance in one format version.
struct Frame {
    tag: &'static str,
    bytes: Vec<u8>,
    /// Byte offset of the (single) shard payload: 32 in v1, after the
    /// 8-byte shard count and one 48-byte table row in v2.
    payload: usize,
}

/// `g` (plus an optional workload) as legacy v1 bytes and as one-shard v2
/// bytes — the corrupt-input cases run against both at the same offsets
/// relative to `payload`.
fn frames(g: &CsrGraph, workload: Option<(&NodeData, f64)>) -> [Frame; 2] {
    let v2 = to_bytes(g, workload).unwrap();
    [
        Frame {
            tag: "v1",
            bytes: legacy_v1(&v2),
            payload: 32,
        },
        Frame {
            tag: "v2",
            bytes: v2,
            payload: 32 + 8 + 48,
        },
    ]
}

/// The diamond instance with a workload block, in both versions.
fn sample_frames() -> [Frame; 2] {
    let g = graph_from_text("0 1 0.9\n0 2 0.4\n1 3 0.5\n2 3 0.8\n", 0);
    let data = NodeData::uniform(4, 1.0, 2.0, 0.5);
    frames(&g, Some((&data, 7.5)))
}

/// Re-stamp every checksum after tampering, so the tampering reaches the
/// structural validators instead of a checksum gate: the v1 header checksum
/// over everything after the header, or each v2 shard checksum and then the
/// v2 header checksum.
fn fix_checksum(bytes: &mut [u8]) {
    if u16::from_le_bytes([bytes[4], bytes[5]]) == 1 {
        let sum = checksum(&bytes[32..]);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
        return;
    }
    let (_, table_end, workload_start) = v2_landmarks(bytes);
    let row = |s: usize| 40 + 48 * s;
    let byte_off = |b: &[u8], s: usize| {
        u64::from_le_bytes(b[row(s) + 32..row(s) + 40].try_into().unwrap()) as usize
    };
    let shards = (table_end - 40) / 48;
    for s in 0..shards {
        let end = if s + 1 < shards {
            byte_off(bytes, s + 1)
        } else {
            workload_start
        };
        let sum = checksum(&bytes[byte_off(bytes, s)..end]);
        bytes[row(s) + 40..row(s) + 48].copy_from_slice(&sum.to_le_bytes());
    }
    fix_v2_checksum(bytes);
}

/// Corrupt files must fail identically on the owned-bytes and file paths.
fn assert_both_paths_reject(bytes: &[u8], tag: &str, check: impl Fn(&GraphError)) {
    let err = from_bytes(bytes).expect_err(tag);
    check(&err);
    let tmp = TempFile::new("reject");
    std::fs::write(&tmp.0, bytes).unwrap();
    let err = load_oscg(&tmp.0)
        .map(|_| ())
        .expect_err(&format!("{tag} via load_oscg"));
    check(&err);
}

#[test]
fn truncated_header_is_typed() {
    for f in sample_frames() {
        for cut in [0usize, 1, 4, 10, 31] {
            match from_bytes(&f.bytes[..cut]) {
                Err(GraphError::Truncated { needed, got }) => {
                    assert_eq!(needed, 32);
                    assert_eq!(got, cut as u64);
                }
                other => panic!("{} cut at {cut}: expected Truncated, got {other:?}", f.tag),
            }
        }
    }
}

#[test]
fn truncated_payload_is_typed() {
    for f in sample_frames() {
        let cut = f.bytes.len() - 8;
        assert_both_paths_reject(&f.bytes[..cut], f.tag, |e| {
            assert!(
                matches!(e, GraphError::Truncated { .. }),
                "expected Truncated, got {e:?}"
            )
        });
    }
}

/// A reader that hands out at most 7 bytes per `read`, so section
/// boundaries and checksum words straddle read calls.
struct SevenBytes(std::io::Cursor<Vec<u8>>);

impl Read for SevenBytes {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let k = buf.len().min(7);
        self.0.read(&mut buf[..k])
    }
}

impl Seek for SevenBytes {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.0.seek(pos)
    }
}

/// A 40-node graph with an odd edge count (padded `u32` sections).
fn small_streaming_graph() -> CsrGraph {
    let mut text = String::new();
    for u in 0..40u32 {
        for step in [1, 7, 13] {
            let v = (u * step + 3) % 40;
            let p = f64::from((u * 13 + v * 7) % 10 + 1) / 10.0;
            text.push_str(&format!("{u} {v} {p}\n"));
        }
    }
    text.push_str("0 39 0.05\n");
    let g = graph_from_text(&text, 40);
    assert_eq!(g.edge_count() % 2, 1, "odd edge count exercises padding");
    g
}

/// A graph whose edge sections span several of the reader's 64 KiB chunks,
/// even split three ways.
fn large_streaming_graph() -> CsrGraph {
    let n = 8000u32;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        for step in [1, 7, 13, 101] {
            let v = (u * step + 3) % n;
            if v != u {
                let p = f64::from((u * 13 + v * 7) % 10 + 1) / 10.0;
                b.add_edge(u, v, p).unwrap();
            }
        }
    }
    let g = b.build().unwrap();
    assert!(
        8 * g.edge_count() / 3 > 1 << 16,
        "sections must span chunks"
    );
    g
}

/// `g` as v1, one-shard v2 and 3-shard v2 bytes, each with and without a
/// workload block.
fn streaming_frames(g: &CsrGraph) -> Vec<(String, Vec<u8>)> {
    let data = NodeData::uniform(g.node_count(), 1.5, 2.5, 0.5);
    let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 3);
    assert_eq!(plan.shard_count(), 3);
    let mut frames = Vec::new();
    for (w, workload) in [("plain", None), ("workload", Some((&data, 4.25)))] {
        let one = to_bytes(g, workload).unwrap();
        frames.push((format!("v1/{w}"), legacy_v1(&one)));
        frames.push((format!("v2/{w}"), one));
        frames.push((
            format!("v2x3/{w}"),
            sharded_to_bytes(g, workload, &plan).unwrap(),
        ));
    }
    frames
}

#[test]
fn streaming_decode_across_read_boundaries_is_bit_identical() {
    for g in [small_streaming_graph(), large_streaming_graph()] {
        for (tag, bytes) in streaming_frames(&g) {
            let tag = format!("{} nodes/{tag}", g.node_count());
            let whole = from_bytes(&bytes).expect(&tag);
            let streamed = ShardedOscg::from_reader(SevenBytes(std::io::Cursor::new(bytes)))
                .and_then(ShardedOscg::to_oscg_file)
                .expect(&tag);
            assert_graphs_bit_identical(&whole.graph, &g, &tag);
            assert_graphs_bit_identical(&streamed.graph, &whole.graph, &tag);
            match (streamed.workload, whole.workload) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.budget.to_bits(), b.budget.to_bits(), "{tag}: budget");
                    assert_eq!(a.data, b.data, "{tag}: attributes");
                }
                _ => panic!("{tag}: workload presence differs"),
            }
        }
    }
}

#[test]
fn streaming_cuts_fail_like_from_bytes() {
    for (tag, bytes) in streaming_frames(&small_streaming_graph()) {
        for cut in (0..bytes.len()).step_by(97) {
            let want = from_bytes(&bytes[..cut]).expect_err(&tag);
            let got =
                ShardedOscg::from_reader(SevenBytes(std::io::Cursor::new(bytes[..cut].to_vec())))
                    .expect_err(&tag);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{tag} cut at {cut}"
            );
        }
    }
}

#[test]
fn trailing_bytes_are_typed() {
    for mut f in sample_frames() {
        f.bytes.extend_from_slice(&[0u8; 16]);
        assert_both_paths_reject(&f.bytes, f.tag, |e| {
            assert!(
                matches!(
                    e,
                    GraphError::CorruptSection {
                        section: "payload",
                        ..
                    }
                ),
                "expected CorruptSection(payload), got {e:?}"
            )
        });
    }
}

#[test]
fn wrong_magic_is_typed() {
    for mut f in sample_frames() {
        f.bytes[0..4].copy_from_slice(b"PNG\0");
        assert_both_paths_reject(&f.bytes, f.tag, |e| {
            assert!(
                matches!(e, GraphError::BadMagic { got } if got == b"PNG\0"),
                "expected BadMagic, got {e:?}"
            )
        });
    }
}

#[test]
fn unsupported_version_is_typed() {
    for mut f in sample_frames() {
        f.bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert_both_paths_reject(&f.bytes, f.tag, |e| {
            assert!(
                matches!(e, GraphError::UnsupportedVersion { got: 99 }),
                "expected UnsupportedVersion(99), got {e:?}"
            )
        });
    }
}

#[test]
fn unknown_flags_are_typed() {
    for mut f in sample_frames() {
        f.bytes[6..8].copy_from_slice(&0x8001u16.to_le_bytes());
        let err = from_bytes(&f.bytes).expect_err("unknown flags");
        assert!(
            matches!(
                err,
                GraphError::CorruptSection {
                    section: "header",
                    ..
                }
            ),
            "{}: expected CorruptSection(header), got {err:?}",
            f.tag
        );
    }
}

#[test]
fn checksum_mismatch_is_typed() {
    for mut f in sample_frames() {
        let last = f.bytes.len() - 1;
        f.bytes[last] ^= 0xFF; // flip workload bits; header checksum now lies
        assert_both_paths_reject(&f.bytes, f.tag, |e| {
            assert!(
                matches!(e, GraphError::ChecksumMismatch { .. }),
                "expected ChecksumMismatch, got {e:?}"
            )
        });
    }
}

/// Overwrite `value` at `payload + at` in every sample frame, re-stamp the
/// checksums, and require both read paths to reject with `check`.
fn assert_patch_rejected(at: usize, value: &[u8], what: &str, check: impl Fn(&GraphError)) {
    for mut f in sample_frames() {
        let pos = f.payload + at;
        f.bytes[pos..pos + value.len()].copy_from_slice(value);
        fix_checksum(&mut f.bytes);
        assert_both_paths_reject(&f.bytes, &format!("{what} ({})", f.tag), &check);
    }
}

#[test]
fn offsets_out_of_bounds_are_typed() {
    // Patch the last forward offset (offsets[n], at payload + 8*n) to point
    // past the edge section, then re-stamp the checksum so the structural
    // validator — not the checksum gate — must catch it.
    let n = 4usize;
    assert_patch_rejected(8 * n, &1_000_000u64.to_le_bytes(), "offsets oob", |e| {
        assert!(
            matches!(
                e,
                GraphError::CorruptSection {
                    section: "offsets",
                    ..
                }
            ),
            "expected CorruptSection(offsets), got {e:?}"
        )
    });
}

#[test]
fn decreasing_offsets_are_typed() {
    // The diamond has offsets [0, 2, 3, 4, 4]; dropping offsets[2] to 1
    // makes node 1's range 2..1 — a decrease — while leaving node 0's
    // slice (and its rank order) untouched.
    assert_patch_rejected(16, &1u64.to_le_bytes(), "decreasing offsets", |e| {
        assert!(
            matches!(
                e,
                GraphError::CorruptSection {
                    section: "offsets",
                    ..
                }
            ),
            "expected CorruptSection(offsets), got {e:?}"
        )
    });
}

#[test]
fn target_out_of_range_is_typed() {
    let n = 4usize;
    let targets = 8 * (n + 1); // first u32 of the targets section
    assert_patch_rejected(targets, &77u32.to_le_bytes(), "target oob", |e| {
        assert!(
            matches!(
                e,
                GraphError::CorruptSection {
                    section: "targets",
                    ..
                }
            ),
            "expected CorruptSection(targets), got {e:?}"
        )
    });
}

#[test]
fn self_loop_in_file_is_typed() {
    // Node 0's first target becomes 0 — a self-loop the builder can never
    // produce, so it must have come from corruption or a foreign writer.
    let n = 4usize;
    let targets = 8 * (n + 1);
    assert_patch_rejected(targets, &0u32.to_le_bytes(), "self-loop", |e| {
        assert!(
            matches!(
                e,
                GraphError::CorruptSection {
                    section: "targets",
                    ..
                }
            ),
            "expected CorruptSection(targets), got {e:?}"
        )
    });
}

#[test]
fn probability_out_of_range_is_typed() {
    let n = 4usize;
    let m = 4usize;
    let probs = 8 * (n + 1) + 4 * m; // m even: no padding
    assert_patch_rejected(probs, &2.5f64.to_le_bytes(), "bad probability", |e| {
        assert!(
            matches!(e, GraphError::InvalidProbability { .. }),
            "expected InvalidProbability, got {e:?}"
        )
    });
}

#[test]
fn rank_order_violation_is_typed() {
    // Swap node 0's two probabilities (0.9, 0.4 -> 0.4, 0.9): the slice is
    // no longer in descending-probability rank order, which every
    // rank-based algorithm depends on. Payload layout: offsets u64[n+1] =
    // 40B, targets u32[m] = 16B -> probs start 56 bytes in.
    let mut swapped = 0.4f64.to_le_bytes().to_vec();
    swapped.extend_from_slice(&0.9f64.to_le_bytes());
    assert_patch_rejected(8 * 5 + 4 * 4, &swapped, "rank order", |e| {
        assert!(
            matches!(
                e,
                GraphError::CorruptSection {
                    section: "probs",
                    ..
                }
            ),
            "expected CorruptSection(probs), got {e:?}"
        )
    });
}

#[test]
fn reverse_transpose_mismatch_is_typed() {
    // Patch the first reverse probability to a valid-but-different value:
    // every per-section invariant still holds, but the reverse sections no
    // longer transpose the forward edges. Reverse probs start after the
    // forward sections and the reverse offsets/sources:
    // 40 (offsets) + 16 (targets) + 32 (probs) + 40 (in_offsets)
    // + 16 (in_sources) = 144 bytes into the payload.
    assert_patch_rejected(144, &0.123f64.to_le_bytes(), "transpose", |e| {
        assert!(
            matches!(
                e,
                GraphError::CorruptSection {
                    section: "in_sources",
                    ..
                }
            ),
            "expected CorruptSection(in_sources), got {e:?}"
        )
    });
}

#[test]
fn duplicate_parallel_edges_are_typed() {
    // A star 0 -> {1, 2, 3} with descending probabilities; retargeting the
    // last edge at node 1 yields targets [1, 2, 1] — a NON-adjacent
    // duplicate that still satisfies descending rank order, which only a
    // real per-node uniqueness check can catch. The builder can never emit
    // parallel edges, so such a file is foreign or corrupt.
    let g = graph_from_text("0 1 0.9\n0 2 0.5\n0 3 0.2\n", 0);
    for mut f in frames(&g, None) {
        // n = 4, m = 3: offsets u64[5], then targets u32[3] 40 bytes in.
        let third_target = f.payload + 40 + 8;
        f.bytes[third_target..third_target + 4].copy_from_slice(&1u32.to_le_bytes());
        fix_checksum(&mut f.bytes);
        assert_both_paths_reject(&f.bytes, f.tag, |e| {
            assert!(
                matches!(
                    e,
                    GraphError::CorruptSection {
                        section: "targets",
                        ..
                    }
                ),
                "expected CorruptSection(targets), got {e:?}"
            )
        });
    }
}

#[test]
fn header_node_count_overflow_is_typed() {
    for mut f in sample_frames() {
        f.bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = from_bytes(&f.bytes).expect_err("huge node count");
        assert!(
            matches!(
                err,
                GraphError::CorruptSection {
                    section: "header",
                    ..
                }
            ),
            "{}: expected CorruptSection(header), got {err:?}",
            f.tag
        );
    }
}

/// The one-edge instance with a workload block (n = 2), in both versions.
fn workload_frames() -> [Frame; 2] {
    let g = graph_from_text("0 1 0.5\n", 0);
    let data = NodeData::uniform(2, 1.0, 1.0, 1.0);
    frames(&g, Some((&data, 3.0)))
}

#[test]
fn corrupt_workload_budget_is_typed() {
    for mut f in workload_frames() {
        // The workload budget is the first f64 of the workload block, which
        // is the last 8 * (1 + 3n) bytes of the file.
        let n = 2usize;
        let pos = f.bytes.len() - 8 * (1 + 3 * n);
        f.bytes[pos..pos + 8].copy_from_slice(&f64::NEG_INFINITY.to_le_bytes());
        fix_checksum(&mut f.bytes);
        let err = from_bytes(&f.bytes).expect_err("bad budget");
        assert!(
            matches!(
                err,
                GraphError::CorruptSection {
                    section: "workload",
                    ..
                }
            ),
            "{}: expected CorruptSection(workload), got {err:?}",
            f.tag
        );
    }
}

#[test]
fn corrupt_workload_attribute_is_typed() {
    for mut f in workload_frames() {
        let n = 2usize;
        let benefit_pos = f.bytes.len() - 8 * (3 * n); // first benefit entry
        f.bytes[benefit_pos..benefit_pos + 8].copy_from_slice(&(-4.0f64).to_le_bytes());
        fix_checksum(&mut f.bytes);
        let err = from_bytes(&f.bytes).expect_err("negative benefit");
        assert!(
            matches!(err, GraphError::InvalidAttribute { .. }),
            "{}: expected InvalidAttribute, got {err:?}",
            f.tag
        );
    }
}

#[test]
fn random_mutations_never_panic() {
    // Fuzz-lite: single-byte mutations anywhere in the file must produce
    // Ok or a typed error — never a panic. (An Ok is possible when the
    // mutation lands in a don't-care position such as padding plus a
    // matching checksum, so only absence-of-panic is asserted.)
    for f in sample_frames() {
        let bytes = f.bytes;
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x5A;
            let _ = from_bytes(&mutated);
            // Truncations at every length, too.
            let _ = from_bytes(&bytes[..pos]);
        }
    }
}

// ---------------------------------------------------------------------------
// Partitioned (v2) files — round trip and corrupt-shard suite
// ---------------------------------------------------------------------------

/// The diamond instance from `sample_bytes`, serialized as a 2-shard v2 file.
fn sharded_sample_bytes() -> Vec<u8> {
    let g = graph_from_text("0 1 0.9\n0 2 0.4\n1 3 0.5\n2 3 0.8\n", 0);
    let data = NodeData::uniform(4, 1.0, 2.0, 0.5);
    let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 2);
    assert_eq!(
        plan.shard_count(),
        2,
        "fixture must actually be partitioned"
    );
    sharded_to_bytes(&g, Some((&data, 7.5)), &plan).unwrap()
}

/// v2 layout landmarks: `(table_start, table_end, workload_start)`. The
/// shard count sits right after the 32-byte header; the workload block, if
/// flagged, is the last `8 * (1 + 3n)` bytes.
fn v2_landmarks(bytes: &[u8]) -> (usize, usize, usize) {
    let shards = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    // Saturating arithmetic: fuzzed counts may be absurd, and the caller
    // guards against landmarks that fall outside the file.
    let table_end = shards.saturating_mul(48).saturating_add(40);
    let workload_len = if bytes[6] & 1 == 1 {
        n.saturating_mul(3).saturating_add(1).saturating_mul(8)
    } else {
        0
    };
    (32, table_end, bytes.len().saturating_sub(workload_len))
}

/// Re-stamp the v2 header checksum (which covers the shard count + table +
/// workload block, but *not* shard payloads) after tampering with the table.
/// A no-op when the tampering broke the landmark arithmetic itself (e.g. a
/// fuzzed shard count) — the reader then rejects on structure, not checksum.
fn fix_v2_checksum(bytes: &mut [u8]) {
    let (table_start, table_end, workload_start) = v2_landmarks(bytes);
    if table_end > workload_start || workload_start > bytes.len() {
        return;
    }
    let mut covered = bytes[table_start..table_end].to_vec();
    covered.extend_from_slice(&bytes[workload_start..]);
    let sum = checksum(&covered);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// Corrupt v2 files must fail identically on the owned-bytes and file paths.
fn assert_v2_rejects(bytes: &[u8], tag: &str, check: impl Fn(&GraphError)) {
    let err = ShardedOscg::from_owned_bytes(bytes.to_vec()).expect_err(tag);
    check(&err);
    let tmp = TempFile::new(tag);
    std::fs::write(&tmp.0, bytes).unwrap();
    let err = load_oscg(&tmp.0)
        .map(|_| ())
        .expect_err(&format!("{tag} via load_oscg"));
    check(&err);
}

#[test]
fn sharded_file_roundtrips_through_every_path() {
    let g = graph_from_text("0 1 0.9\n0 2 0.4\n1 3 0.5\n2 3 0.8\n", 0);
    let bytes = sharded_sample_bytes();

    let sharded = ShardedOscg::from_owned_bytes(bytes.clone()).expect("open owned");
    let file = sharded.to_oscg_file().expect("assemble");
    assert_graphs_bit_identical(&file.graph, &g, "v2/from_owned_bytes");
    let w = file.workload.expect("workload survives partitioning");
    assert_eq!(w.budget.to_bits(), 7.5f64.to_bits());

    // `load_oscg` transparently assembles v2 files into the monolithic view.
    let tmp = TempFile::new("v2-roundtrip");
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert_eq!(
        binary::sniff_oscg_version(&tmp.0).unwrap(),
        Some(VERSION_SHARDED)
    );
    let loaded = load_oscg(&tmp.0).expect("load_oscg dispatches on version");
    assert_graphs_bit_identical(&loaded.graph, &g, "v2/load_oscg");
}

#[test]
fn truncated_shard_payload_is_typed() {
    let bytes = sharded_sample_bytes();
    let (_, table_end, workload_start) = v2_landmarks(&bytes);
    // Cut mid-way through the shard payloads: the reader knows the total
    // length the table implies and must report the shortfall, not read past
    // the end.
    let cut = (table_end + workload_start) / 2;
    match ShardedOscg::from_owned_bytes(bytes[..cut].to_vec()) {
        Err(GraphError::Truncated { needed, got }) => {
            assert_eq!(needed, bytes.len() as u64);
            assert_eq!(got, cut as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn flipped_shard_payload_byte_is_typed() {
    // The header checksum does not cover shard payloads — each shard carries
    // its own. Flip one byte in every payload position and the per-shard
    // checksum gate must catch all of them.
    let bytes = sharded_sample_bytes();
    let (_, table_end, workload_start) = v2_landmarks(&bytes);
    for pos in [
        table_end,
        (table_end + workload_start) / 2,
        workload_start - 1,
    ] {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xFF;
        assert_v2_rejects(&mutated, "flipped shard payload", |e| {
            assert!(
                matches!(e, GraphError::ChecksumMismatch { .. }),
                "flip at {pos}: expected ChecksumMismatch, got {e:?}"
            )
        });
    }
}

#[test]
fn out_of_order_shard_table_is_typed() {
    // Swap the two table entries (and re-stamp the header checksum so the
    // structural validator, not the checksum gate, must catch it): shard 0
    // now claims a nonzero node_start, violating contiguous ascending order.
    let mut bytes = sharded_sample_bytes();
    let (e0, e1) = (40, 40 + 48);
    let first: [u8; 48] = bytes[e0..e0 + 48].try_into().unwrap();
    let second: [u8; 48] = bytes[e1..e1 + 48].try_into().unwrap();
    bytes[e0..e0 + 48].copy_from_slice(&second);
    bytes[e1..e1 + 48].copy_from_slice(&first);
    fix_v2_checksum(&mut bytes);
    assert_v2_rejects(&bytes, "out-of-order table", |e| {
        assert!(
            matches!(
                e,
                GraphError::CorruptSection {
                    section: "shard_table",
                    ..
                }
            ),
            "expected CorruptSection(shard_table), got {e:?}"
        )
    });
}

#[test]
fn shard_count_out_of_range_is_typed() {
    for count in [0u64, u64::MAX] {
        let mut bytes = sharded_sample_bytes();
        bytes[32..40].copy_from_slice(&count.to_le_bytes());
        let err = ShardedOscg::from_owned_bytes(bytes).expect_err("bad shard count");
        assert!(
            matches!(
                err,
                GraphError::CorruptSection {
                    section: "shard_table",
                    ..
                } | GraphError::Truncated { .. }
            ),
            "count {count}: expected shard_table/Truncated, got {err:?}"
        );
    }
}

#[test]
fn shard_header_and_table_mutations_never_panic() {
    // Mutation-fuzz the v2 header + shard table (checksum re-stamped so the
    // mutation reaches the structural validators) and, separately, every
    // byte of the whole file with the stored checksum left stale. Outcomes
    // must be Ok or a typed error — never a panic or out-of-bounds read.
    let bytes = sharded_sample_bytes();
    let (_, table_end, _) = v2_landmarks(&bytes);
    for pos in 0..table_end {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x5A;
        if pos >= 32 {
            fix_v2_checksum(&mut mutated);
        }
        let _ = ShardedOscg::from_owned_bytes(mutated);
    }
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x5A;
        let _ = ShardedOscg::from_owned_bytes(mutated);
        let _ = ShardedOscg::from_owned_bytes(bytes[..pos].to_vec());
    }
}

#[test]
fn write_oscg_streams_identical_bytes() {
    let g = graph_from_text("0 1 0.5\n1 2 0.25\n", 0);
    let direct = to_bytes(&g, None).unwrap();
    let mut streamed = Vec::new();
    write_oscg(&g, None, &mut streamed).unwrap();
    assert_eq!(direct, streamed);
}
