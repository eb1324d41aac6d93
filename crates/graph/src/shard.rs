//! `.oscg` — the binary CSR graph format: its one layout, reader and writer.
//!
//! Plain-text edge lists ([`crate::io`]) cost an O(E) tokenize-and-sort on
//! every run; for the paper's larger graphs (Google+ 13.7M edges, Douban
//! 86M) that parse dominates experiment setup. `.oscg` stores the *built*
//! CSR — both adjacency directions, pre-sorted — so loading is a memory map
//! plus one O(N + M) structural validation pass with no parsing or sorting.
//! On little-endian Unix targets the sections are used in place (zero-copy,
//! [`Section::Mapped`]); elsewhere the reader falls back to owned copies
//! with identical results.
//!
//! The **node space is split into contiguous shards** — boundaries chosen
//! so each shard carries roughly the same number of incident edges, which
//! under the builder's arbitrary node ids is the degree-balanced
//! ("degree-ordered") partition — and each shard's forward and reverse CSR
//! slices are an independently checksummed, independently loadable
//! payload. A shard can be mapped, validated, and dropped without ever
//! touching its neighbors, which is what lets graphs larger than RAM stream
//! through the existing [`MappedFile`]/[`Section`] machinery under an LRU
//! residency budget. A whole in-memory graph is the one-shard case
//! ([`crate::binary::to_bytes`]).
//!
//! # Layout (version 2, all integers little-endian)
//!
//! ```text
//! offset  size      field
//! 0x00    4         magic b"OSCG"
//! 0x04    2         format version (= 2)
//! 0x06    2         flags (bit 0: workload block present)
//! 0x08    8         n — node count
//! 0x10    8         m — edge count
//! 0x18    8         checksum — FNV-1a-64 over shard table + workload block
//! 0x20    8         shard count S
//!         S x 48    shard table, ascending node ranges:
//!           u64       node_start
//!           u64       node_end
//!           u64       fwd_edge_start — global edge id of the first local edge
//!           u64       rev_edge_start — global reverse slot of the first local slot
//!           u64       byte_off — absolute offset of the shard payload
//!           u64       checksum — FNV-1a-64 over the shard payload
//!         ...       shard payloads, contiguous and 8-aligned; per shard:
//!           u64[ln+1]          forward offsets, rebased (offsets[0] = 0)
//!           u32[lm] (+pad 8)   forward targets, rank-sorted per source
//!           f64[lm]            forward probabilities
//!           u64[ln+1]          reverse offsets, rebased
//!           u32[lrm] (+pad 8)  reverse sources, grouped by target
//!           f64[lrm]           reverse probabilities
//!         ...       workload block (iff flag bit 0):
//!           f64                budget Binv
//!           f64[n]             benefit b(v)
//!           f64[n]             seed cost c_seed(v)
//!           f64[n]             SC cost c_sc(v)
//! ```
//!
//! `ln`, `lm`, `lrm` (shard node/forward-edge/reverse-slot counts) are
//! derived from the table: consecutive `node_start`/`*_edge_start` values
//! must be contiguous and the payloads gap-free, so a reordered, truncated,
//! or overlapping table is rejected before any payload is trusted. The
//! header checksum covers the table (and workload); each payload is covered
//! by its own shard checksum, verified once when the file is opened,
//! together with the per-edge invariants (monotone offsets, ids `< n`, no
//! self-loops, probabilities in `[0, 1]`, rank order, no duplicate edges).
//! A corrupt or adversarial file yields a typed [`GraphError`] — never a
//! panic or out-of-bounds read.
//!
//! Global edge ids are preserved: shard `s` owns forward edge ids
//! `fwd_edge_start .. fwd_edge_start + lm`, exactly the ids of the
//! assembled in-memory graph — so per-edge side arrays (Monte-Carlo
//! live-edge worlds, probability buckets) index identically into a shard
//! and the whole graph.
//!
//! # Legacy version 1
//!
//! Version 1 is read, never written. A version-1 file is a one-shard
//! version-2 file without the shard count and table: the payload starts
//! right after the 32-byte header, and the header checksum covers
//! everything after the header (payload and workload block). The reader
//! synthesizes the one-entry table (nodes `0..n`, edges `0..m`, payload at
//! byte 32), after which both versions share every check and decoder.

use crate::binary::{OscgFile, Workload};
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::node_data::NodeData;
use crate::storage::{MappedFile, Section};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The four magic bytes opening every `.oscg` file.
pub(crate) const MAGIC: [u8; 4] = *b"OSCG";
/// Fixed header size in bytes.
const HEADER_LEN: usize = 32;
/// Format version of the partitioned layout — the only one written.
pub const VERSION_SHARDED: u16 = 2;
/// The legacy monolithic layout, read as a one-shard frame.
const VERSION_LEGACY: u16 = 1;

const FLAG_WORKLOAD: u16 = 1;
/// Bytes per shard-table entry (6 × u64).
const TABLE_ENTRY_LEN: usize = 48;
/// Upper bound on the shard count a reader will accept — far above any real
/// partition, low enough that a corrupt count cannot drive a huge allocation.
const MAX_SHARDS: u64 = 1 << 20;

/// Word-wise FNV-1a-64, the format checksum. Hashing 8 bytes per round
/// keeps verification a small fraction of a text parse while still catching
/// the bit flips and truncations that matter for cached experiment inputs.
///
/// Incremental, so streamed sections hash without buffering: every update
/// but the last must be whole 8-byte words, which every section satisfies
/// by construction (u32 sections are padded to 8); a ragged final tail is
/// zero-padded.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.0 ^= u64::from_le_bytes(c.try_into().unwrap());
            self.0 = self.0.wrapping_mul(PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.0 ^= u64::from_le_bytes(tail);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

/// The format checksum (word-wise FNV-1a-64) over one byte slice, tail
/// zero-padded to 8 bytes.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    hash.update(bytes);
    hash.0
}

// ---------------------------------------------------------------------------
// Shard plan
// ---------------------------------------------------------------------------

/// Contiguous partition of the node space `0..n` into shards.
///
/// `starts` has one entry per shard plus a terminal sentinel `n`; shard `s`
/// owns nodes `starts[s]..starts[s + 1]`. Shards are non-empty (except for
/// the degenerate `n = 0` single-shard plan).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    starts: Vec<u32>,
}

impl ShardPlan {
    /// Build a plan from explicit boundaries. `starts` must begin with 0,
    /// end with `n`, and increase strictly in between (non-decreasing when
    /// `n = 0`).
    pub fn from_starts(starts: Vec<u32>) -> Result<Self, GraphError> {
        let bad = |detail: String| GraphError::CorruptSection {
            section: "shard_table",
            detail,
        };
        if starts.len() < 2 {
            return Err(bad(format!(
                "shard plan needs at least one shard, got {} boundaries",
                starts.len()
            )));
        }
        if starts[0] != 0 {
            return Err(bad(format!(
                "first shard starts at {}, expected 0",
                starts[0]
            )));
        }
        let n = *starts.last().unwrap();
        for w in starts.windows(2) {
            if w[0] > w[1] || (w[0] == w[1] && n != 0) {
                return Err(bad(format!(
                    "shard boundaries are not strictly increasing: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        Ok(ShardPlan { starts })
    }

    /// The single-shard plan over `0..n` (the monolithic schedule).
    pub fn single(n: u32) -> Self {
        ShardPlan { starts: vec![0, n] }
    }

    /// Degree-balanced plan: split `0..n` into (up to) `shards` contiguous
    /// ranges of roughly equal incident-edge mass, using the forward and
    /// reverse offset arrays as the cumulative degree distribution. Shards
    /// never end up empty, so graphs smaller than the requested count get
    /// fewer shards.
    pub fn balanced(offsets: &[u64], in_offsets: &[u64], shards: usize) -> Self {
        let n = (offsets.len() - 1) as u32;
        let shards = shards.max(1).min((n as usize).max(1));
        if n == 0 {
            return ShardPlan::single(0);
        }
        // Cumulative incident-edge mass per boundary (fwd + rev degrees).
        let mass: Vec<u64> = offsets.iter().zip(in_offsets).map(|(a, b)| a + b).collect();
        let total = mass[n as usize];
        let mut starts = Vec::with_capacity(shards + 1);
        starts.push(0u32);
        for s in 1..shards {
            // Smallest boundary whose cumulative incident-edge mass reaches
            // the s-th equal split; clamped so every shard keeps ≥ 1 node.
            let want = total * s as u64 / shards as u64;
            let b = mass.partition_point(|&x| x < want) as u32;
            let min = starts.last().unwrap() + 1;
            let max = n - (shards - s) as u32;
            starts.push(b.clamp(min, max));
        }
        starts.push(n);
        ShardPlan { starts }
    }

    /// Plan whose shards each hold at most `budget_bytes` of on-disk payload
    /// (forward + reverse slices), single-node shards excepted.
    pub fn by_payload_bytes(offsets: &[u64], in_offsets: &[u64], budget_bytes: u64) -> Self {
        let n = (offsets.len() - 1) as u32;
        if n == 0 {
            return ShardPlan::single(0);
        }
        let mut starts = vec![0u32];
        let mut a = 0u32;
        while a < n {
            let mut b = a + 1;
            while b < n {
                let bytes = shard_payload_len(
                    (b + 1 - a) as u64,
                    offsets[b as usize + 1] - offsets[a as usize],
                    in_offsets[b as usize + 1] - in_offsets[a as usize],
                );
                if bytes > budget_bytes {
                    break;
                }
                b += 1;
            }
            starts.push(b);
            a = b;
        }
        ShardPlan { starts }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total node count covered by the plan.
    #[inline]
    pub fn node_count(&self) -> u32 {
        *self.starts.last().unwrap()
    }

    /// The boundary array (`shard_count + 1` entries, first 0, last `n`).
    #[inline]
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Node range of shard `s`.
    #[inline]
    pub fn node_range(&self, s: usize) -> std::ops::Range<u32> {
        self.starts[s]..self.starts[s + 1]
    }

    /// The shard owning node `v`.
    #[inline]
    pub fn shard_of(&self, v: u32) -> usize {
        debug_assert!(v < self.node_count());
        self.starts.partition_point(|&b| b <= v) - 1
    }
}

/// On-disk byte length of one shard payload with `ln` nodes, `lm` forward
/// edges, and `lrm` reverse slots.
pub fn shard_payload_len(ln: u64, lm: u64, lrm: u64) -> u64 {
    let pad = |c: u64| 4 * c + if c % 2 == 1 { 4 } else { 0 };
    8 * (ln + 1) + pad(lm) + 8 * lm + 8 * (ln + 1) + pad(lrm) + 8 * lrm
}

fn workload_len(n: u64, present: bool) -> u64 {
    if present {
        8 + 3 * 8 * n
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct TableEntry {
    node_start: u64,
    node_end: u64,
    fwd_edge_start: u64,
    rev_edge_start: u64,
    byte_off: u64,
    checksum: u64,
}

impl TableEntry {
    fn to_bytes(self) -> [u8; TABLE_ENTRY_LEN] {
        let mut out = [0u8; TABLE_ENTRY_LEN];
        for (i, v) in [
            self.node_start,
            self.node_end,
            self.fwd_edge_start,
            self.rev_edge_start,
            self.byte_off,
            self.checksum,
        ]
        .into_iter()
        .enumerate()
        {
            out[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
        }
        out
    }
}

/// Streaming writer for partitioned `.oscg` files.
///
/// Shards are appended in ascending node order with
/// [`write_shard`](Self::write_shard) — each call streams one shard's
/// sections straight to the underlying writer (hashing them on the fly), so
/// the full graph never has to exist in memory. [`finish`](Self::finish)
/// appends the optional workload block and back-patches the header and
/// shard table. The writer target must be seekable (a file or an in-memory
/// cursor).
pub struct ShardedWriter<W: Write + Seek> {
    out: W,
    n: u64,
    m: u64,
    expected_shards: usize,
    table: Vec<TableEntry>,
    next_node: u64,
    next_fwd: u64,
    next_rev: u64,
    cursor: u64,
    table_len: u64,
}

impl<W: Write + Seek> ShardedWriter<W> {
    /// Start a v2 file for a graph of `n` nodes and `m` edges split into
    /// `shards` shards. Space for the header and table is reserved up front.
    pub fn new(mut out: W, n: u64, m: u64, shards: usize) -> Result<Self, GraphError> {
        if n > u32::MAX as u64 || m > u32::MAX as u64 {
            return Err(GraphError::CorruptSection {
                section: "header",
                detail: format!("graph of {n} nodes / {m} edges exceeds u32 id range"),
            });
        }
        let table_len = 8 + (shards * TABLE_ENTRY_LEN) as u64;
        let reserved = HEADER_LEN as u64 + table_len;
        out.seek(SeekFrom::Start(reserved))?;
        Ok(ShardedWriter {
            out,
            n,
            m,
            expected_shards: shards,
            table: Vec::with_capacity(shards),
            next_node: 0,
            next_fwd: 0,
            next_rev: 0,
            cursor: reserved,
            table_len,
        })
    }

    /// Append the next shard. `fwd_offsets`/`rev_offsets` are the shard's
    /// rebased offset arrays (first entry 0, length `node count + 1`);
    /// `targets`/`probs` and `sources`/`rev_probs` the matching edge
    /// sections. Shards must arrive in ascending node order and jointly
    /// cover the node space exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn write_shard(
        &mut self,
        fwd_offsets: &[u64],
        targets: &[u32],
        probs: &[f64],
        rev_offsets: &[u64],
        sources: &[u32],
        rev_probs: &[f64],
    ) -> Result<(), GraphError> {
        assert!(self.table.len() < self.expected_shards, "too many shards");
        assert_eq!(fwd_offsets.len(), rev_offsets.len());
        assert!(!fwd_offsets.is_empty() && fwd_offsets[0] == 0 && rev_offsets[0] == 0);
        let ln = (fwd_offsets.len() - 1) as u64;
        let lm = *fwd_offsets.last().unwrap();
        let lrm = *rev_offsets.last().unwrap();
        assert_eq!(targets.len() as u64, lm);
        assert_eq!(probs.len() as u64, lm);
        assert_eq!(sources.len() as u64, lrm);
        assert_eq!(rev_probs.len() as u64, lrm);

        let mut hash = Fnv::new();
        let mut buf = Vec::with_capacity(1 << 16);
        write_u64s(&mut self.out, fwd_offsets, &mut buf, &mut hash)?;
        write_padded_u32s(&mut self.out, targets, &mut buf, &mut hash)?;
        write_f64s(&mut self.out, probs, &mut buf, &mut hash)?;
        write_u64s(&mut self.out, rev_offsets, &mut buf, &mut hash)?;
        write_padded_u32s(&mut self.out, sources, &mut buf, &mut hash)?;
        write_f64s(&mut self.out, rev_probs, &mut buf, &mut hash)?;

        let len = shard_payload_len(ln, lm, lrm);
        self.table.push(TableEntry {
            node_start: self.next_node,
            node_end: self.next_node + ln,
            fwd_edge_start: self.next_fwd,
            rev_edge_start: self.next_rev,
            byte_off: self.cursor,
            checksum: hash.0,
        });
        self.next_node += ln;
        self.next_fwd += lm;
        self.next_rev += lrm;
        self.cursor += len;
        Ok(())
    }

    /// Append the optional workload block, then back-patch the header and
    /// shard table. Consumes the writer; the underlying target is flushed.
    pub fn finish(mut self, workload: Option<(&NodeData, f64)>) -> Result<W, GraphError> {
        assert_eq!(
            self.table.len(),
            self.expected_shards,
            "shard count mismatch: promised {}, wrote {}",
            self.expected_shards,
            self.table.len()
        );
        if self.next_node != self.n || self.next_fwd != self.m || self.next_rev != self.m {
            return Err(GraphError::CorruptSection {
                section: "shard_table",
                detail: format!(
                    "shards cover {} nodes / {} fwd / {} rev, expected {} / {m} / {m}",
                    self.next_node,
                    self.next_fwd,
                    self.next_rev,
                    self.n,
                    m = self.m
                ),
            });
        }
        let mut workload_bytes = Vec::new();
        if let Some((data, budget)) = workload {
            if data.len() as u64 != self.n {
                return Err(GraphError::AttributeLengthMismatch {
                    expected: self.n as usize,
                    got: data.len(),
                });
            }
            if !budget.is_finite() || budget < 0.0 {
                return Err(GraphError::InvalidAttribute {
                    node: 0,
                    name: "budget",
                    value: budget,
                });
            }
            workload_bytes.extend_from_slice(&budget.to_le_bytes());
            for arr in [data.benefits(), data.seed_costs(), data.sc_costs()] {
                for v in arr {
                    workload_bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            self.out.write_all(&workload_bytes)?;
        }

        let mut table_bytes = Vec::with_capacity(self.table_len as usize);
        table_bytes.extend_from_slice(&(self.table.len() as u64).to_le_bytes());
        for e in &self.table {
            table_bytes.extend_from_slice(&e.to_bytes());
        }
        debug_assert_eq!(table_bytes.len() as u64, self.table_len);
        let mut hash = Fnv::new();
        hash.update(&table_bytes);
        hash.update(&workload_bytes);

        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION_SHARDED.to_le_bytes());
        let flags: u16 = if workload.is_some() { FLAG_WORKLOAD } else { 0 };
        header.extend_from_slice(&flags.to_le_bytes());
        header.extend_from_slice(&self.n.to_le_bytes());
        header.extend_from_slice(&self.m.to_le_bytes());
        header.extend_from_slice(&hash.0.to_le_bytes());

        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header)?;
        self.out.write_all(&table_bytes)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

fn write_u64s<W: Write>(
    out: &mut W,
    values: &[u64],
    buf: &mut Vec<u8>,
    hash: &mut Fnv,
) -> Result<(), GraphError> {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= (1 << 16) {
            hash.update(buf);
            out.write_all(buf)?;
            buf.clear();
        }
    }
    hash.update(buf);
    out.write_all(buf)?;
    buf.clear();
    Ok(())
}

fn write_padded_u32s<W: Write>(
    out: &mut W,
    values: &[u32],
    buf: &mut Vec<u8>,
    hash: &mut Fnv,
) -> Result<(), GraphError> {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
        // Flush only on whole 8-byte words — the incremental FNV is
        // word-wise over the section's byte stream.
        if buf.len() >= (1 << 16) && buf.len().is_multiple_of(8) {
            hash.update(buf);
            out.write_all(buf)?;
            buf.clear();
        }
    }
    if values.len() % 2 == 1 {
        buf.extend_from_slice(&[0u8; 4]);
    }
    hash.update(buf);
    out.write_all(buf)?;
    buf.clear();
    Ok(())
}

fn write_f64s<W: Write>(
    out: &mut W,
    values: &[f64],
    buf: &mut Vec<u8>,
    hash: &mut Fnv,
) -> Result<(), GraphError> {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= (1 << 16) {
            hash.update(buf);
            out.write_all(buf)?;
            buf.clear();
        }
    }
    hash.update(buf);
    out.write_all(buf)?;
    buf.clear();
    Ok(())
}

/// Stream an in-memory graph as a partitioned file under `plan` into `out`
/// (returned flushed).
fn write_sharded<W: Write + Seek>(
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
    plan: &ShardPlan,
    out: W,
) -> Result<W, GraphError> {
    assert_eq!(plan.node_count() as usize, graph.node_count());
    let mut w = ShardedWriter::new(
        out,
        graph.node_count() as u64,
        graph.edge_count() as u64,
        plan.shard_count(),
    )?;
    let offsets = graph.out_offsets();
    let in_offsets = graph.in_offsets();
    let ids = |ids: &[NodeId]| -> Vec<u32> { ids.iter().map(|v| v.0).collect() };
    for s in 0..plan.shard_count() {
        let r = plan.node_range(s);
        let (a, b) = (r.start as usize, r.end as usize);
        let fwd: Vec<u64> = offsets[a..=b].iter().map(|o| o - offsets[a]).collect();
        let rev: Vec<u64> = in_offsets[a..=b]
            .iter()
            .map(|o| o - in_offsets[a])
            .collect();
        let fwd_edges = offsets[a] as usize..offsets[b] as usize;
        let rev_slots = in_offsets[a] as usize..in_offsets[b] as usize;
        w.write_shard(
            &fwd,
            &ids(&graph.edge_targets_flat()[fwd_edges.clone()]),
            &graph.edge_probs_flat()[fwd_edges],
            &rev,
            &ids(&graph.in_sources_flat()[rev_slots.clone()]),
            &graph.in_probs_flat()[rev_slots],
        )?;
    }
    w.finish(workload)
}

/// Serialize an in-memory graph as a partitioned v2 file under `plan`.
pub fn sharded_to_bytes(
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
    plan: &ShardPlan,
) -> Result<Vec<u8>, GraphError> {
    Ok(write_sharded(graph, workload, plan, std::io::Cursor::new(Vec::new()))?.into_inner())
}

/// Write a partitioned `.oscg` file **atomically**: stream it to a unique
/// temp file in the destination directory, then rename over `path`.
///
/// An interrupted write never leaves a truncated file at `path`, replacing
/// an existing file swaps the directory entry rather than truncating pages
/// under a live map of the old contents, and the temp name is unique per
/// process *and* per call so concurrent writers (threads or processes)
/// never interleave into one temp file. The profile cache and
/// `repro convert` both write through here.
pub fn write_sharded_oscg_atomic(
    path: &Path,
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
    plan: &ShardPlan,
) -> Result<(), GraphError> {
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| -> Result<(), GraphError> {
        let file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        // `finish` flushes explicitly: BufWriter's Drop swallows flush
        // errors, and a short write (e.g. ENOSPC) must fail the write, not
        // get renamed into place as a truncated file.
        write_sharded(graph, workload, plan, file)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Storage behind an open sharded file: a zero-copy memory map on mappable
/// platforms, the file's owned bytes otherwise.
#[derive(Clone, Debug)]
enum Backing {
    Mapped(Arc<MappedFile>),
    Owned(Arc<Vec<u8>>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(m) => m.bytes(),
            Backing::Owned(v) => v,
        }
    }

    /// Drop resident pages of a byte window (mapped backing only).
    fn release(&self, offset: usize, len: usize) {
        if let Backing::Mapped(m) = self {
            m.advise_dont_need(offset, len);
        }
    }

    fn section<T: crate::storage::Pod>(
        &self,
        offset: usize,
        len: usize,
        name: &'static str,
    ) -> Result<Section<T>, GraphError> {
        match self {
            Backing::Mapped(m) => Section::map(Arc::clone(m), offset, len, name),
            Backing::Owned(bytes) => {
                let size = std::mem::size_of::<T>();
                let end = offset.saturating_add(len.saturating_mul(size));
                if end > bytes.len() {
                    return Err(GraphError::CorruptSection {
                        section: name,
                        detail: "section window is out of bounds".into(),
                    });
                }
                // Owned backing: copy the window into an owned, properly
                // aligned vector (alignment of the source is irrelevant).
                let raw = &bytes[offset..end];
                let mut out: Vec<T> = Vec::with_capacity(len);
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        raw.as_ptr(),
                        out.as_mut_ptr() as *mut u8,
                        raw.len(),
                    );
                    out.set_len(len);
                }
                Ok(Section::Owned(out))
            }
        }
    }
}

/// One parsed shard-table row with its derived sizes.
#[derive(Clone, Copy, Debug)]
pub struct ShardInfo {
    /// First node of the shard.
    pub node_start: u32,
    /// One past the last node of the shard.
    pub node_end: u32,
    /// Global edge id of the shard's first forward edge.
    pub fwd_edge_start: u64,
    /// Forward edges in the shard.
    pub fwd_edges: u64,
    /// Global reverse slot of the shard's first reverse entry.
    pub rev_edge_start: u64,
    /// Reverse slots in the shard.
    pub rev_edges: u64,
    /// Absolute file offset of the shard payload.
    pub byte_off: u64,
    /// Payload length in bytes.
    pub byte_len: u64,
    /// Stored FNV-1a-64 checksum of the payload.
    pub checksum: u64,
}

/// One resident shard: the shard's CSR slices as typed sections (windows
/// into the map, or owned copies on non-mappable platforms).
#[derive(Debug)]
pub struct ShardCsr {
    /// First node of the shard.
    pub node_start: u32,
    /// One past the last node.
    pub node_end: u32,
    /// Global edge id of `targets[0]`.
    pub fwd_edge_start: u64,
    /// Global reverse slot of `in_sources[0]`.
    pub rev_edge_start: u64,
    /// Rebased forward offsets (`node_end - node_start + 1` entries).
    pub offsets: Section<u64>,
    /// Forward targets (global node ids), rank-sorted per source.
    pub targets: Section<NodeId>,
    /// Forward probabilities.
    pub probs: Section<f64>,
    /// Rebased reverse offsets.
    pub in_offsets: Section<u64>,
    /// Reverse sources (global node ids), grouped by local target.
    pub in_sources: Section<NodeId>,
    /// Reverse probabilities.
    pub in_probs: Section<f64>,
    /// On-disk payload size (the residency accounting unit).
    pub payload_bytes: usize,
}

impl ShardCsr {
    /// Number of nodes in the shard.
    #[inline]
    pub fn node_count(&self) -> usize {
        (self.node_end - self.node_start) as usize
    }

    /// Global out-edge id range and local section index of node `v`
    /// (which must belong to this shard).
    #[inline]
    pub fn fwd_row(&self, v: NodeId) -> (std::ops::Range<u32>, usize) {
        let lv = (v.0 - self.node_start) as usize;
        let lo = self.offsets[lv];
        let hi = self.offsets[lv + 1];
        let base = self.fwd_edge_start;
        (((base + lo) as u32)..((base + hi) as u32), lo as usize)
    }
}

struct Residency {
    budget: Option<usize>,
    resident: HashMap<usize, Arc<ShardCsr>>,
    /// LRU order: least-recently-used shard at the front.
    order: VecDeque<usize>,
    resident_bytes: usize,
    loads: u64,
    evictions: u64,
}

/// An open `.oscg` file: the shard table plus an LRU of
/// resident shards under a byte budget.
///
/// Opening validates the header, the table, and every shard (checksum and
/// per-shard structural invariants), so later [`shard`](Self::shard) calls
/// are infallible section constructions. Eviction drops a shard's sections
/// and releases its mapped pages, so the process's resident set tracks the
/// budget rather than the file size.
pub struct ShardedOscg {
    backing: Backing,
    n: u32,
    m: u64,
    table: Vec<ShardInfo>,
    plan: Arc<ShardPlan>,
    workload: Option<Workload>,
    file_len: u64,
    residency: Mutex<Residency>,
}

impl std::fmt::Debug for ShardedOscg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedOscg({} nodes, {} edges, {} shards, {} bytes)",
            self.n,
            self.m,
            self.table.len(),
            self.file_len
        )
    }
}

impl ShardedOscg {
    /// Open and fully validate an `.oscg` file (either version).
    ///
    /// `budget_bytes` is the LRU residency budget (`None` = unbounded).
    /// With a budget set, validation releases each shard's pages as it
    /// finishes, so even opening a beyond-RAM file keeps the resident set
    /// near one shard.
    pub fn open_with_budget(path: &Path, budget_bytes: Option<usize>) -> Result<Self, GraphError> {
        osn_fault::io_point("graph.shard.open")?;
        let backing = if cfg!(target_endian = "little") {
            let file = std::fs::File::open(path)?;
            match MappedFile::map(&file)? {
                Some(map) => Backing::Mapped(Arc::new(map)),
                None => Backing::Owned(Arc::new(std::fs::read(path)?)),
            }
        } else {
            Backing::Owned(Arc::new(std::fs::read(path)?))
        };
        Self::from_backing(backing, budget_bytes)
    }

    /// [`open_with_budget`](Self::open_with_budget) with no budget.
    pub fn open(path: &Path) -> Result<Self, GraphError> {
        Self::open_with_budget(path, None)
    }

    /// Open from owned bytes (the explicit-read path behind
    /// [`crate::binary::from_bytes`]).
    pub fn from_owned_bytes(bytes: Vec<u8>) -> Result<Self, GraphError> {
        Self::from_backing(Backing::Owned(Arc::new(bytes)), None)
    }

    /// The one frame parser: header, shard table (synthesized for a legacy
    /// v1 frame), lengths, checksums, workload, then every shard.
    fn from_backing(backing: Backing, budget_bytes: Option<usize>) -> Result<Self, GraphError> {
        let bytes = backing.bytes();
        let corrupt =
            |section: &'static str, detail: String| GraphError::CorruptSection { section, detail };
        if bytes.len() < HEADER_LEN {
            return Err(GraphError::Truncated {
                needed: HEADER_LEN as u64,
                got: bytes.len() as u64,
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(GraphError::BadMagic { got: magic });
        }
        let legacy = match u16::from_le_bytes(bytes[4..6].try_into().unwrap()) {
            VERSION_LEGACY => true,
            VERSION_SHARDED => false,
            got => return Err(GraphError::UnsupportedVersion { got }),
        };
        let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        if flags & !FLAG_WORKLOAD != 0 {
            return Err(corrupt(
                "header",
                format!("unknown flag bits {:#06x}", flags & !FLAG_WORKLOAD),
            ));
        }
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let m = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let stored_checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        // Node and edge ids are u32 throughout the workspace; a header that
        // claims more is either corrupt or a graph this build cannot represent.
        if n > u32::MAX as u64 {
            return Err(corrupt(
                "header",
                format!("node count {n} exceeds u32 range"),
            ));
        }
        if m > u32::MAX as u64 {
            return Err(corrupt(
                "header",
                format!("edge count {m} exceeds u32 range"),
            ));
        }

        let (raw, table_end) = if legacy {
            // A v1 file is one shard whose payload follows the header; its
            // checksum is verified with the header's below.
            let whole = TableEntry {
                node_start: 0,
                node_end: n,
                fwd_edge_start: 0,
                rev_edge_start: 0,
                byte_off: HEADER_LEN as u64,
                checksum: 0,
            };
            (vec![whole], HEADER_LEN)
        } else {
            Self::read_table(bytes)?
        };

        // Structurally validate the table: contiguous ascending node/edge
        // coverage, gap-free 8-aligned payloads inside the file.
        let mut table = Vec::with_capacity(raw.len());
        let mut cursor = table_end as u64;
        for (s, e) in raw.iter().enumerate() {
            let expect_node = if s == 0 { 0 } else { raw[s - 1].node_end };
            if e.node_start != expect_node {
                return Err(corrupt(
                    "shard_table",
                    format!(
                        "shard {s} starts at node {} but the previous shard ends at {expect_node} \
                         (shards must be contiguous and in ascending order)",
                        e.node_start
                    ),
                ));
            }
            if e.node_end <= e.node_start && !(n == 0 && e.node_end == 0) {
                return Err(corrupt(
                    "shard_table",
                    format!("shard {s} is empty or reversed"),
                ));
            }
            if e.node_end > n {
                return Err(corrupt(
                    "shard_table",
                    format!("shard {s} ends at node {} but n = {n}", e.node_end),
                ));
            }
            let expect_fwd = if s == 0 { 0 } else { raw[s - 1].fwd_edge_start };
            let expect_rev = if s == 0 { 0 } else { raw[s - 1].rev_edge_start };
            if s > 0 && (e.fwd_edge_start < expect_fwd || e.rev_edge_start < expect_rev) {
                return Err(corrupt(
                    "shard_table",
                    format!("shard {s} edge starts decrease"),
                ));
            }
            if s == 0 && (e.fwd_edge_start != 0 || e.rev_edge_start != 0) {
                return Err(corrupt(
                    "shard_table",
                    "first shard must start at edge 0".into(),
                ));
            }
            if e.fwd_edge_start > m || e.rev_edge_start > m {
                return Err(corrupt(
                    "shard_table",
                    format!("shard {s} edge start exceeds m"),
                ));
            }
            if e.byte_off != cursor {
                return Err(corrupt(
                    "shard_table",
                    format!(
                        "shard {s} payload at byte {} but the previous payload ends at {cursor}",
                        e.byte_off
                    ),
                ));
            }
            // Edge spans come from the *next* table entry, which has not
            // been through its own iteration yet — bound it here before any
            // length arithmetic, or a corrupt row overflows the payload
            // length computation.
            let (next_fwd, next_rev) = if s + 1 < raw.len() {
                (raw[s + 1].fwd_edge_start, raw[s + 1].rev_edge_start)
            } else {
                (m, m)
            };
            if next_fwd < e.fwd_edge_start
                || next_fwd > m
                || next_rev < e.rev_edge_start
                || next_rev > m
            {
                return Err(corrupt(
                    "shard_table",
                    format!("shard {s} edge spans are inconsistent"),
                ));
            }
            let fwd_edges = next_fwd - e.fwd_edge_start;
            let rev_edges = next_rev - e.rev_edge_start;
            let byte_len = shard_payload_len(e.node_end - e.node_start, fwd_edges, rev_edges);
            cursor = cursor
                .checked_add(byte_len)
                .ok_or_else(|| corrupt("shard_table", format!("shard {s} length overflows")))?;
            table.push(ShardInfo {
                node_start: e.node_start as u32,
                node_end: e.node_end as u32,
                fwd_edge_start: e.fwd_edge_start,
                fwd_edges,
                rev_edge_start: e.rev_edge_start,
                rev_edges,
                byte_off: e.byte_off,
                byte_len,
                checksum: e.checksum,
            });
        }
        if table.last().unwrap().node_end as u64 != n {
            return Err(corrupt(
                "shard_table",
                format!(
                    "shards cover nodes 0..{} but n = {n}",
                    table.last().unwrap().node_end
                ),
            ));
        }
        let has_workload = flags & FLAG_WORKLOAD != 0;
        let total = cursor + workload_len(n, has_workload);
        if (bytes.len() as u64) < total {
            return Err(GraphError::Truncated {
                needed: total,
                got: bytes.len() as u64,
            });
        }
        if bytes.len() as u64 > total {
            return Err(corrupt(
                "payload",
                format!(
                    "{} trailing bytes after the last section",
                    bytes.len() as u64 - total
                ),
            ));
        }

        // The v2 header checksum covers the table and the workload block;
        // shard payloads carry their own checksums, verified per shard
        // below. The v1 header checksum runs on through the payload, whose
        // prefix hash is therefore the synthesized shard's checksum.
        let mut hash = Fnv::new();
        if legacy {
            hash.update(&bytes[HEADER_LEN..cursor as usize]);
            table[0].checksum = hash.0;
        } else {
            hash.update(&bytes[HEADER_LEN..table_end]);
        }
        hash.update(&bytes[cursor as usize..total as usize]);
        if hash.0 != stored_checksum {
            return Err(GraphError::ChecksumMismatch {
                stored: stored_checksum,
                computed: hash.0,
            });
        }

        let workload = if has_workload {
            Some(decode_workload(bytes, cursor as usize, n as usize)?)
        } else {
            None
        };

        let starts: Vec<u32> = table
            .iter()
            .map(|e| e.node_start)
            .chain(std::iter::once(n as u32))
            .collect();
        let this = ShardedOscg {
            backing,
            n: n as u32,
            m,
            plan: Arc::new(ShardPlan::from_starts(starts)?),
            table,
            workload,
            file_len: total,
            residency: Mutex::new(Residency {
                budget: budget_bytes,
                resident: HashMap::new(),
                order: VecDeque::new(),
                resident_bytes: 0,
                loads: 0,
                evictions: 0,
            }),
        };
        this.validate_shards(budget_bytes.is_some(), !legacy)?;
        Ok(this)
    }

    /// Read a v2 shard count and table: the raw rows and the byte offset
    /// just past the table.
    fn read_table(bytes: &[u8]) -> Result<(Vec<TableEntry>, usize), GraphError> {
        if bytes.len() < HEADER_LEN + 8 {
            return Err(GraphError::Truncated {
                needed: (HEADER_LEN + 8) as u64,
                got: bytes.len() as u64,
            });
        }
        let shards = u64::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 8].try_into().unwrap());
        if shards == 0 || shards > MAX_SHARDS {
            return Err(GraphError::CorruptSection {
                section: "shard_table",
                detail: format!("shard count {shards} out of range"),
            });
        }
        let table_end = HEADER_LEN + 8 + shards as usize * TABLE_ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(GraphError::Truncated {
                needed: table_end as u64,
                got: bytes.len() as u64,
            });
        }
        let raw = (0..shards as usize)
            .map(|s| {
                let off = HEADER_LEN + 8 + s * TABLE_ENTRY_LEN;
                let f = |i: usize| {
                    u64::from_le_bytes(bytes[off + 8 * i..off + 8 * i + 8].try_into().unwrap())
                };
                TableEntry {
                    node_start: f(0),
                    node_end: f(1),
                    fwd_edge_start: f(2),
                    rev_edge_start: f(3),
                    byte_off: f(4),
                    checksum: f(5),
                }
            })
            .collect();
        Ok((raw, table_end))
    }

    /// Verify every shard's structural invariants and, with
    /// `verify_checksums`, its payload checksum (a legacy v1 frame's payload
    /// was already covered by the header checksum). With `release`, each
    /// shard's pages are dropped as validation moves on — the open-time
    /// resident set stays near one shard.
    fn validate_shards(&self, release: bool, verify_checksums: bool) -> Result<(), GraphError> {
        // Forward duplicate-edge detection reuses one last-ref array across
        // shards (entries are keyed by source node, which never repeats
        // across shards).
        let mut last_ref = vec![u32::MAX; self.n as usize];
        for s in 0..self.table.len() {
            let info = self.table[s];
            if verify_checksums {
                let payload = &self.backing.bytes()
                    [info.byte_off as usize..(info.byte_off + info.byte_len) as usize];
                let computed = checksum(payload);
                if computed != info.checksum {
                    return Err(GraphError::ChecksumMismatch {
                        stored: info.checksum,
                        computed,
                    });
                }
            }
            let shard = self.build_shard(s)?;
            validate_shard_sections(self.n, &shard, &info, &mut last_ref)?;
            if release {
                self.backing
                    .release(info.byte_off as usize, info.byte_len as usize);
            }
        }
        Ok(())
    }

    fn build_shard(&self, s: usize) -> Result<ShardCsr, GraphError> {
        let info = self.table[s];
        let ln = (info.node_end - info.node_start) as usize;
        let lm = info.fwd_edges as usize;
        let lrm = info.rev_edges as usize;
        let pad = |c: usize| 4 * c + if c % 2 == 1 { 4 } else { 0 };
        let base = info.byte_off as usize;
        let o_fwd = base;
        let o_tgt = o_fwd + 8 * (ln + 1);
        let o_prb = o_tgt + pad(lm);
        let o_rev = o_prb + 8 * lm;
        let o_src = o_rev + 8 * (ln + 1);
        let o_rpb = o_src + pad(lrm);
        Ok(ShardCsr {
            node_start: info.node_start,
            node_end: info.node_end,
            fwd_edge_start: info.fwd_edge_start,
            rev_edge_start: info.rev_edge_start,
            offsets: self.backing.section(o_fwd, ln + 1, "offsets")?,
            targets: self.backing.section(o_tgt, lm, "targets")?,
            probs: self.backing.section(o_prb, lm, "probs")?,
            in_offsets: self.backing.section(o_rev, ln + 1, "in_offsets")?,
            in_sources: self.backing.section(o_src, lrm, "in_sources")?,
            in_probs: self.backing.section(o_rpb, lrm, "in_probs")?,
            payload_bytes: info.byte_len as usize,
        })
    }

    /// Fetch shard `s` through the LRU, loading it on a miss and evicting
    /// least-recently-used shards past the residency budget.
    pub fn shard(&self, s: usize) -> Arc<ShardCsr> {
        let mut r = self.residency.lock().expect("shard residency lock");
        if let Some(hit) = r.resident.get(&s).cloned() {
            if r.order.back() != Some(&s) {
                if let Some(pos) = r.order.iter().position(|&x| x == s) {
                    r.order.remove(pos);
                }
                r.order.push_back(s);
            }
            return hit;
        }
        // Delay-only injection point: the LRU miss path has no error
        // channel (sections were validated at open), but a chaos run can
        // still stretch the load to surface lock-hold and deadline bugs.
        osn_fault::point("graph.shard.load");
        let shard = Arc::new(
            self.build_shard(s)
                .expect("shard sections were validated at open"),
        );
        r.loads += 1;
        r.resident_bytes += shard.payload_bytes;
        r.resident.insert(s, Arc::clone(&shard));
        r.order.push_back(s);
        if let Some(budget) = r.budget {
            while r.resident_bytes > budget && r.order.len() > 1 {
                let victim = r.order.pop_front().expect("non-empty LRU");
                if victim == s {
                    // Never evict the shard just requested.
                    r.order.push_back(victim);
                    if r.order.len() == 1 {
                        break;
                    }
                    continue;
                }
                if let Some(gone) = r.resident.remove(&victim) {
                    r.resident_bytes -= gone.payload_bytes;
                    r.evictions += 1;
                    let info = self.table[victim];
                    drop(gone);
                    self.backing
                        .release(info.byte_off as usize, info.byte_len as usize);
                }
            }
        }
        shard
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.table.len()
    }

    /// The shard table (for `repro sniff` and diagnostics).
    pub fn table(&self) -> &[ShardInfo] {
        &self.table
    }

    /// The plan implied by the table boundaries.
    pub fn plan(&self) -> &Arc<ShardPlan> {
        &self.plan
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.m as usize
    }

    /// The workload block, if present.
    pub fn workload(&self) -> Option<&Workload> {
        self.workload.as_ref()
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_len
    }

    /// Change the LRU residency budget (`None` = unbounded). Takes effect
    /// on the next load; resident shards are not proactively evicted.
    pub fn set_resident_budget(&self, budget_bytes: Option<usize>) {
        self.residency.lock().expect("shard residency lock").budget = budget_bytes;
    }

    /// `(resident shards, resident payload bytes, loads, evictions)`.
    pub fn residency_stats(&self) -> (usize, usize, u64, u64) {
        let r = self.residency.lock().expect("shard residency lock");
        (r.resident.len(), r.resident_bytes, r.loads, r.evictions)
    }

    /// Assemble the whole graph in memory, equal to the one the file was
    /// written from. A one-shard file hands its sections over as they are
    /// (its rebased offsets are the global ones), so a mapped file stays
    /// zero-copy; more shards are concatenated into owned sections. The
    /// per-edge invariants were checked shard by shard at open; only the
    /// forward/reverse transpose bijection, which no single shard can see,
    /// is checked here.
    pub fn to_oscg_file(&self) -> Result<OscgFile, GraphError> {
        let (offsets, targets, probs, in_offsets, in_sources, in_probs) = if self.table.len() == 1 {
            let s = self.build_shard(0)?;
            (
                s.offsets,
                s.targets,
                s.probs,
                s.in_offsets,
                s.in_sources,
                s.in_probs,
            )
        } else {
            let n = self.n as usize;
            let m = self.m as usize;
            let mut offsets = Vec::with_capacity(n + 1);
            let mut targets: Vec<NodeId> = Vec::with_capacity(m);
            let mut probs = Vec::with_capacity(m);
            let mut in_offsets = Vec::with_capacity(n + 1);
            let mut in_sources: Vec<NodeId> = Vec::with_capacity(m);
            let mut in_probs = Vec::with_capacity(m);
            offsets.push(0u64);
            in_offsets.push(0u64);
            for s in 0..self.table.len() {
                let shard = self.shard(s);
                offsets.extend(shard.offsets[1..].iter().map(|o| o + shard.fwd_edge_start));
                in_offsets.extend(
                    shard.in_offsets[1..]
                        .iter()
                        .map(|o| o + shard.rev_edge_start),
                );
                targets.extend_from_slice(&shard.targets);
                probs.extend_from_slice(&shard.probs);
                in_sources.extend_from_slice(&shard.in_sources);
                in_probs.extend_from_slice(&shard.in_probs);
            }
            (
                offsets.into(),
                targets.into(),
                probs.into(),
                in_offsets.into(),
                in_sources.into(),
                in_probs.into(),
            )
        };
        validate_transpose(
            self.n,
            &offsets,
            &targets,
            &probs,
            &in_offsets,
            &in_sources,
            &in_probs,
        )?;
        Ok(OscgFile {
            graph: CsrGraph::from_sections(
                self.n, offsets, targets, probs, in_offsets, in_sources, in_probs,
            ),
            workload: self.workload.clone(),
        })
    }
}

/// Decode the workload block starting at byte `off`: the budget, then the
/// three per-node attribute arrays. `NodeData` owns its arrays, so the
/// block is copied.
fn decode_workload(bytes: &[u8], off: usize, n: usize) -> Result<Workload, GraphError> {
    let budget = f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    if !budget.is_finite() || budget < 0.0 {
        return Err(GraphError::CorruptSection {
            section: "workload",
            detail: format!("budget {budget} is not a finite non-negative number"),
        });
    }
    let f64s = |at: usize| -> Vec<f64> {
        bytes[at..at + 8 * n]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    };
    // NodeData::new re-validates lengths and attribute ranges.
    let data = NodeData::new(f64s(off + 8), f64s(off + 8 + 8 * n), f64s(off + 8 + 16 * n))?;
    Ok(Workload { data, budget })
}

/// Check that the reverse sections are exactly the transpose of the forward
/// edges (same `(u, v, p)` set, reverse lists grouped by target with
/// sources ascending — the builder's counting-sort layout). Without this, a
/// checksum-valid foreign file could drive reverse-based algorithms (RIS
/// sampling, the linear-threshold comparison) on a different graph than the
/// forward cascade sees. Runs on per-shard-validated sections: offsets are
/// monotone and end at `m`, ids are `< n`.
fn validate_transpose(
    n: u32,
    offsets: &[u64],
    targets: &[NodeId],
    probs: &[f64],
    in_offsets: &[u64],
    in_sources: &[NodeId],
    in_probs: &[f64],
) -> Result<(), GraphError> {
    // Walking forward edges in ascending-source order emits each target's
    // sources in ascending order, which is exactly the canonical reverse
    // layout — so a single cursor sweep proves the bijection.
    let mut cursor: Vec<u64> = in_offsets[..n as usize].to_vec();
    for u in 0..n as usize {
        for e in offsets[u] as usize..offsets[u + 1] as usize {
            let v = targets[e].index();
            let slot = cursor[v] as usize;
            if slot >= in_offsets[v + 1] as usize
                || in_sources[slot].index() != u
                || in_probs[slot].to_bits() != probs[e].to_bits()
            {
                return Err(GraphError::CorruptSection {
                    section: "in_sources",
                    detail: format!(
                        "reverse adjacency is not the transpose of the forward \
                         edges (mismatch at forward edge {e}, v{u} -> v{v})"
                    ),
                });
            }
            cursor[v] += 1;
        }
    }
    Ok(())
}

/// Per-shard structural validation — the format's one per-edge validator:
/// monotone offsets ending at the shard's edge count, ids in range, no
/// self-loops, probabilities in `[0, 1]`; forward rows in the canonical
/// rank order (descending probability, ties by ascending target) with no
/// duplicate targets; reverse rows with ascending sources. The transpose
/// bijection is checked when the whole graph is assembled.
fn validate_shard_sections(
    n: u32,
    shard: &ShardCsr,
    info: &ShardInfo,
    last_ref: &mut [u32],
) -> Result<(), GraphError> {
    let corrupt =
        |section: &'static str, detail: String| GraphError::CorruptSection { section, detail };
    let ln = shard.node_count();
    // Plain slices: indexing a `Section` re-dispatches on its backing at
    // every access, which the per-edge loop below cannot afford.
    for (side, offsets, total, ids, probs) in [
        (
            "fwd",
            &shard.offsets[..],
            info.fwd_edges,
            &shard.targets[..],
            &shard.probs[..],
        ),
        (
            "rev",
            &shard.in_offsets[..],
            info.rev_edges,
            &shard.in_sources[..],
            &shard.in_probs[..],
        ),
    ] {
        let fwd = side == "fwd";
        let (off_name, ids_name): (&'static str, &'static str) = if fwd {
            ("offsets", "targets")
        } else {
            ("in_offsets", "in_sources")
        };
        if offsets[0] != 0 {
            return Err(corrupt(
                off_name,
                format!("shard offsets start at {}, expected 0", offsets[0]),
            ));
        }
        if offsets[ln] != total {
            return Err(corrupt(
                off_name,
                format!(
                    "shard offsets end at {}, expected the shard edge count {total}",
                    offsets[ln]
                ),
            ));
        }
        for lv in 0..ln {
            let v = info.node_start + lv as u32;
            let (lo, hi) = (offsets[lv], offsets[lv + 1]);
            if lo > hi || hi > total {
                return Err(corrupt(
                    off_name,
                    format!("shard offsets decrease or overflow at node v{v}"),
                ));
            }
            let mut prev_src = None::<u32>;
            for e in lo as usize..hi as usize {
                let other = ids[e];
                if other.0 >= n {
                    return Err(corrupt(
                        ids_name,
                        format!("edge references node v{} but n = {n}", other.0),
                    ));
                }
                if other.0 == v {
                    return Err(corrupt(ids_name, format!("self-loop on v{v}")));
                }
                let p = probs[e];
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    let (source, target) = if fwd { (v, other.0) } else { (other.0, v) };
                    return Err(GraphError::InvalidProbability { source, target, p });
                }
                if fwd {
                    if last_ref[other.index()] == v {
                        return Err(corrupt(
                            "targets",
                            format!("duplicate edge (v{v}, v{})", other.0),
                        ));
                    }
                    last_ref[other.index()] = v;
                    if e > lo as usize {
                        let (pp, pt) = (probs[e - 1], ids[e - 1].0);
                        if p > pp || (p == pp && other.0 < pt) {
                            return Err(corrupt(
                                "probs",
                                format!("out-edges of v{v} violate rank order"),
                            ));
                        }
                    }
                } else {
                    // Reverse slices group sources ascending per target (the
                    // builder's counting-sort layout).
                    if let Some(prev) = prev_src {
                        if other.0 <= prev {
                            return Err(corrupt(
                                "in_sources",
                                format!("reverse sources of v{v} are not ascending"),
                            ));
                        }
                    }
                    prev_src = Some(other.0);
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Shard-sliced forward adjacency access (the kernels' seam)
// ---------------------------------------------------------------------------

/// Forward adjacency of one shard, as the cascade kernels consume it.
///
/// Works identically over a slice of a monolithic in-memory graph (where
/// `edge_start == base == offsets[0]` and offsets are the global array's
/// window) and over a shard payload's rebased sections (where `base == 0`
/// and `edge_start` comes from the shard table). Either way,
/// [`row`](Self::row) yields **global** edge ids — the ids per-edge side
/// arrays such as Monte-Carlo live-edge worlds are indexed by.
#[derive(Clone, Copy)]
pub struct FwdSlice<'a> {
    /// First node of the shard.
    pub node_start: u32,
    /// Global edge id of `targets[0]`.
    pub edge_start: u64,
    /// Value of `offsets[0]` (0 for rebased shard payloads).
    pub base: u64,
    /// Offset window, `shard nodes + 1` entries.
    pub offsets: &'a [u64],
    /// Targets of the shard's edges, local index `offsets[lv] - base`.
    pub targets: &'a [NodeId],
}

impl FwdSlice<'_> {
    /// Global out-edge id range of `v` plus the local index of its first
    /// edge in [`targets`](Self::targets).
    #[inline]
    pub fn row(&self, v: NodeId) -> (std::ops::Range<u32>, usize) {
        let lv = (v.0 - self.node_start) as usize;
        let lo = self.offsets[lv] - self.base;
        let hi = self.offsets[lv + 1] - self.base;
        (
            ((self.edge_start + lo) as u32)..((self.edge_start + hi) as u32),
            lo as usize,
        )
    }
}

/// Shard-sliced access to a graph's forward adjacency: the seam between the
/// scalar cascade kernel and where the bytes actually live. An in-memory
/// [`CsrGraph`] is the one-shard case; an out-of-core [`ShardedOscg`] pages
/// shards through its LRU.
pub trait ForwardShards {
    /// Total node count.
    fn node_count(&self) -> usize;

    /// The shard holding `v`, and the first node past that shard. Shards
    /// are contiguous ascending node ranges.
    fn shard_span(&self, v: NodeId) -> (usize, u32);

    /// Run `f` over shard `s`'s forward slice. The slice is only valid for
    /// the duration of the call — out-of-core sources may evict the shard
    /// afterwards.
    fn with_fwd<R>(&self, s: usize, f: impl FnOnce(FwdSlice<'_>) -> R) -> R;
}

impl ForwardShards for CsrGraph {
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn shard_span(&self, _v: NodeId) -> (usize, u32) {
        (0, CsrGraph::node_count(self) as u32)
    }

    #[inline]
    fn with_fwd<R>(&self, _s: usize, f: impl FnOnce(FwdSlice<'_>) -> R) -> R {
        f(FwdSlice {
            node_start: 0,
            edge_start: 0,
            base: 0,
            offsets: self.out_offsets(),
            targets: self.edge_targets_flat(),
        })
    }
}

impl ForwardShards for ShardedOscg {
    fn node_count(&self) -> usize {
        self.n as usize
    }

    #[inline]
    fn shard_span(&self, v: NodeId) -> (usize, u32) {
        let s = self.plan.shard_of(v.0);
        (s, self.plan.node_range(s).end)
    }

    #[inline]
    fn with_fwd<R>(&self, s: usize, f: impl FnOnce(FwdSlice<'_>) -> R) -> R {
        let shard = self.shard(s);
        f(FwdSlice {
            node_start: shard.node_start,
            edge_start: shard.fwd_edge_start,
            base: 0,
            offsets: &shard.offsets,
            targets: &shard.targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn chain_graph(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 0.5).unwrap();
            if v + 2 < n {
                b.add_edge(v, v + 2, 0.25).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn plan_balanced_covers_and_orders() {
        let g = chain_graph(10);
        let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 3);
        assert_eq!(plan.shard_count(), 3);
        assert_eq!(plan.starts()[0], 0);
        assert_eq!(plan.node_count(), 10);
        for s in 0..plan.shard_count() {
            let r = plan.node_range(s);
            assert!(r.start < r.end);
            for v in r.clone() {
                assert_eq!(plan.shard_of(v), s);
            }
        }
    }

    #[test]
    fn plan_clamps_to_node_count() {
        let g = chain_graph(3);
        let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 16);
        assert!(plan.shard_count() <= 3);
        assert_eq!(plan.node_count(), 3);
    }

    #[test]
    fn plan_by_payload_bytes_respects_budget() {
        let g = chain_graph(12);
        let plan = ShardPlan::by_payload_bytes(g.out_offsets(), g.in_offsets(), 256);
        assert!(plan.shard_count() > 1);
        for s in 0..plan.shard_count() {
            let r = plan.node_range(s);
            let (a, b) = (r.start as usize, r.end as usize);
            let bytes = shard_payload_len(
                (b - a) as u64,
                g.out_offsets()[b] - g.out_offsets()[a],
                g.in_offsets()[b] - g.in_offsets()[a],
            );
            assert!(bytes <= 256 || b - a == 1, "shard {s}: {bytes} bytes");
        }
    }

    #[test]
    fn rejected_plans_are_typed() {
        assert!(ShardPlan::from_starts(vec![0]).is_err());
        assert!(ShardPlan::from_starts(vec![1, 4]).is_err());
        assert!(ShardPlan::from_starts(vec![0, 3, 3, 5]).is_err());
        assert!(ShardPlan::from_starts(vec![0, 4, 2, 5]).is_err());
        assert!(
            ShardPlan::from_starts(vec![0, 0]).is_ok(),
            "empty graph plan"
        );
    }

    #[test]
    fn sharded_roundtrip_matches_original() {
        let g = chain_graph(11);
        for shards in [1usize, 2, 3, 7] {
            let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), shards);
            let bytes = sharded_to_bytes(&g, None, &plan).unwrap();
            let opened = ShardedOscg::from_owned_bytes(bytes).unwrap();
            assert_eq!(opened.shard_count(), plan.shard_count());
            assert_eq!(opened.plan().as_ref(), &plan);
            let back = opened.to_oscg_file().unwrap();
            assert_eq!(back.graph, g, "{shards} shards");
            assert!(back.workload.is_none());
        }
    }

    #[test]
    fn sharded_roundtrip_with_workload() {
        let g = chain_graph(6);
        let data = crate::NodeData::uniform(6, 2.0, 3.0, 0.5);
        let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 2);
        let bytes = sharded_to_bytes(&g, Some((&data, 9.5)), &plan).unwrap();
        let back = ShardedOscg::from_owned_bytes(bytes)
            .unwrap()
            .to_oscg_file()
            .unwrap();
        let w = back.workload.unwrap();
        assert_eq!(w.data, data);
        assert_eq!(w.budget, 9.5);
    }

    #[test]
    fn sharded_rows_match_via_forward_shards() {
        let g = chain_graph(10);
        let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 3);
        let bytes = sharded_to_bytes(&g, None, &plan).unwrap();
        let sharded = ShardedOscg::from_owned_bytes(bytes).unwrap();
        for v in g.nodes() {
            let s = sharded.plan().shard_of(v.0);
            sharded.with_fwd(s, |slice| {
                let (ids, lo) = slice.row(v);
                assert_eq!(ids, g.out_edge_ids(v), "edge ids of v{}", v.0);
                let k = (ids.end - ids.start) as usize;
                assert_eq!(&slice.targets[lo..lo + k], g.out_targets(v));
            });
        }
    }

    #[test]
    fn lru_budget_bounds_residency() {
        let g = chain_graph(16);
        let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 4);
        let bytes = sharded_to_bytes(&g, None, &plan).unwrap();
        let sharded = ShardedOscg::from_owned_bytes(bytes).unwrap();
        let one_shard = sharded.table()[0].byte_len as usize;
        sharded.set_resident_budget(Some(2 * one_shard + one_shard / 2));
        for s in (0..4).chain(0..4) {
            let _ = sharded.shard(s);
        }
        let (resident, bytes_now, loads, evictions) = sharded.residency_stats();
        assert!(
            resident <= 3,
            "resident {resident} shards under a ~2.5-shard budget"
        );
        assert!(bytes_now <= 3 * one_shard);
        assert!(loads >= 4, "every shard loaded at least once");
        assert!(evictions > 0, "budget pressure must evict");
    }

    #[test]
    fn csr_graph_is_its_own_single_shard() {
        let g = chain_graph(9);
        for v in g.nodes() {
            assert_eq!(g.shard_span(v), (0, 9));
            g.with_fwd(0, |slice| {
                let (ids, lo) = slice.row(v);
                assert_eq!(ids, g.out_edge_ids(v), "edge ids of v{}", v.0);
                let k = (ids.end - ids.start) as usize;
                assert_eq!(&slice.targets[lo..lo + k], g.out_targets(v));
            });
        }
    }
}
