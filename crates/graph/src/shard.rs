//! `.oscg` — the binary CSR graph format: its one layout, reader and writer.
//!
//! Plain-text edge lists ([`crate::io`]) cost an O(E) tokenize-and-sort on
//! every run; for the paper's larger graphs (Google+ 13.7M edges, Douban
//! 86M) that parse dominates experiment setup. `.oscg` stores the *built*
//! CSR — both adjacency directions, pre-sorted — so loading is one
//! streaming pass that decodes each section with `from_le_bytes` straight
//! into the graph's arrays, plus O(N + M) structural validation, with no
//! parsing or sorting. Decoding by value makes the reader endian-correct on
//! any host.
//!
//! The **node space is split into contiguous shards** — boundaries chosen
//! so each shard carries roughly the same number of incident edges, which
//! under the builder's arbitrary node ids is the degree-balanced
//! ("degree-ordered") partition — and each shard's forward and reverse CSR
//! slices are an independently checksummed payload. That is what lets the
//! streaming generator ([`ShardedWriter`]) emit a graph one shard at a time
//! without ever holding it whole. Readers have one path:
//! [`ShardedOscg::open`] (a buffered file) or [`ShardedOscg::from_reader`]
//! (any `Read + Seek`) decodes and validates every shard into the in-memory
//! [`CsrGraph`] every algorithm runs on, and
//! [`ShardedOscg::to_oscg_file`] hands it over. A whole in-memory graph is
//! the one-shard case ([`crate::binary::to_bytes`]).
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
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

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

/// The one shard-count rule, shared by the writer and the reader.
fn check_shard_count(shards: u64) -> Result<(), GraphError> {
    if shards == 0 || shards > MAX_SHARDS {
        return Err(GraphError::CorruptSection {
            section: "shard_table",
            detail: format!("shard count {shards} out of range"),
        });
    }
    Ok(())
}

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
fn shard_payload_len(ln: u64, lm: u64, lrm: u64) -> u64 {
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
    /// A shard count the reader would refuse (0 or above 2^20) is rejected
    /// here with the reader's error, before a byte is written.
    pub fn new(mut out: W, n: u64, m: u64, shards: usize) -> Result<Self, GraphError> {
        if n > u32::MAX as u64 || m > u32::MAX as u64 {
            return Err(GraphError::CorruptSection {
                section: "header",
                detail: format!("graph of {n} nodes / {m} edges exceeds u32 id range"),
            });
        }
        check_shard_count(shards as u64)?;
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
    let probs = graph.edge_probs_flat();
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
        let rev_probs: Vec<f64> = graph.in_edge_ids()[rev_slots.clone()]
            .iter()
            .map(|&e| probs[e as usize])
            .collect();
        w.write_shard(
            &fwd,
            &ids(&graph.edge_targets_flat()[fwd_edges.clone()]),
            &probs[fwd_edges],
            &rev,
            &ids(&graph.in_sources_flat()[rev_slots.clone()]),
            &rev_probs,
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
/// an existing file swaps the directory entry rather than truncating a file
/// another reader may be partway through, and the temp name is unique per
/// process *and* per call so concurrent writers (threads or processes)
/// never interleave into one temp file. `repro convert` and
/// [`write_oscg_atomic`](crate::binary::write_oscg_atomic) write through
/// here.
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

/// Bytes the reader moves per `read` call: a whole number of 8-byte words,
/// so every incremental checksum update but a section's last is whole words.
const CHUNK: usize = 1 << 16;

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

/// An open, fully validated `.oscg` file: the shard table, the workload
/// block, and the decoded graph.
///
/// Opening decodes every section straight into the graph's arrays in one
/// streaming pass, and validates the header, the table, every shard
/// (checksum and per-edge invariants) and the forward/reverse transpose.
/// [`to_oscg_file`](Self::to_oscg_file) then hands the graph over.
pub struct ShardedOscg {
    graph: CsrGraph,
    table: Vec<ShardInfo>,
    workload: Option<Workload>,
    file_len: u64,
}

impl std::fmt::Debug for ShardedOscg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedOscg({} nodes, {} edges, {} shards, {} bytes)",
            self.graph.node_count(),
            self.graph.edge_count(),
            self.table.len(),
            self.file_len
        )
    }
}

impl ShardedOscg {
    /// Open and fully validate an `.oscg` file (either version).
    pub fn open(path: &Path) -> Result<Self, GraphError> {
        osn_fault::io_point("graph.shard.open")?;
        Self::from_reader(std::io::BufReader::new(std::fs::File::open(path)?))
    }

    /// [`open`](Self::open), kept for callers written against the former
    /// residency budget. Graphs are always assembled whole in memory, so
    /// the budget is ignored.
    pub fn open_with_budget(path: &Path, _budget_bytes: Option<usize>) -> Result<Self, GraphError> {
        Self::open(path)
    }

    /// Open from bytes already in memory.
    pub fn from_owned_bytes(bytes: Vec<u8>) -> Result<Self, GraphError> {
        Self::from_reader(std::io::Cursor::new(bytes))
    }

    /// The one decoder: header, shard table (synthesized for a legacy v1
    /// frame), lengths, checksums, workload, then every shard, read from
    /// `r` in 64 KiB pieces.
    ///
    /// Nothing is allocated from the header's counts until the table has
    /// been checked against the stream length, so a hostile header cannot
    /// drive a huge allocation. Beyond the final arrays the reader holds
    /// one chunk buffer and O(n) validation scratch.
    pub fn from_reader<R: Read + Seek>(mut r: R) -> Result<Self, GraphError> {
        let file_len = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(0))?;
        let corrupt =
            |section: &'static str, detail: String| GraphError::CorruptSection { section, detail };
        if file_len < HEADER_LEN as u64 {
            return Err(GraphError::Truncated {
                needed: HEADER_LEN as u64,
                got: file_len,
            });
        }
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let magic: [u8; 4] = header[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(GraphError::BadMagic { got: magic });
        }
        let legacy = match u16::from_le_bytes(header[4..6].try_into().unwrap()) {
            VERSION_LEGACY => true,
            VERSION_SHARDED => false,
            got => return Err(GraphError::UnsupportedVersion { got }),
        };
        let flags = u16::from_le_bytes(header[6..8].try_into().unwrap());
        if flags & !FLAG_WORKLOAD != 0 {
            return Err(corrupt(
                "header",
                format!("unknown flag bits {:#06x}", flags & !FLAG_WORKLOAD),
            ));
        }
        let n = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let m = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let stored_checksum = u64::from_le_bytes(header[24..32].try_into().unwrap());
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

        let (raw, table_bytes) = if legacy {
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
            (vec![whole], Vec::new())
        } else {
            read_table(&mut r, file_len)?
        };
        let table_end = (HEADER_LEN + table_bytes.len()) as u64;

        // Structurally validate the table: contiguous ascending node/edge
        // coverage, gap-free 8-aligned payloads inside the file.
        let mut table = Vec::with_capacity(raw.len());
        let mut cursor = table_end;
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
        if file_len < total {
            return Err(GraphError::Truncated {
                needed: total,
                got: file_len,
            });
        }
        if file_len > total {
            return Err(corrupt(
                "payload",
                format!("{} trailing bytes after the last section", file_len - total),
            ));
        }

        // The stream length now bounds every count, so the final arrays
        // can be sized. Checks run in one fixed order whatever the version:
        // the header checksum, the workload's values, then shard by shard
        // its checksum and per-edge invariants, then the transpose. The v2
        // header checksum covers the table and the workload block, and each
        // shard payload carries its own. The v1 header checksum runs on
        // through the payload, whose prefix hash is therefore the
        // synthesized shard's checksum.
        let mut arrays = CsrArrays::with_capacity(n as usize, m as usize);
        let mut last_ref = vec![u32::MAX; n as usize];
        let mut buf = vec![0u8; CHUNK];
        let mut hash = Fnv::new();
        let workload = if legacy {
            arrays.read_shard(&mut r, &table[0], &mut buf, &mut hash)?;
            table[0].checksum = hash.0;
            let raw = read_workload(&mut r, n as usize, has_workload, &mut buf, &mut hash)?;
            check_header(stored_checksum, &hash)?;
            let workload = raw.map(decode_workload).transpose()?;
            arrays.accept_shard(n as u32, &table[0], &mut last_ref)?;
            workload
        } else {
            hash.update(&table_bytes);
            r.seek(SeekFrom::Start(cursor))?;
            let raw = read_workload(&mut r, n as usize, has_workload, &mut buf, &mut hash)?;
            check_header(stored_checksum, &hash)?;
            let workload = raw.map(decode_workload).transpose()?;
            r.seek(SeekFrom::Start(table_end))?;
            for info in &table {
                let mut hash = Fnv::new();
                arrays.read_shard(&mut r, info, &mut buf, &mut hash)?;
                if hash.0 != info.checksum {
                    return Err(GraphError::ChecksumMismatch {
                        stored: info.checksum,
                        computed: hash.0,
                    });
                }
                arrays.accept_shard(n as u32, info, &mut last_ref)?;
            }
            workload
        };
        Ok(ShardedOscg {
            graph: arrays.into_graph(n as u32)?,
            table,
            workload,
            file_len,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.table.len()
    }

    /// The shard table (for `repro sniff` and diagnostics).
    pub fn table(&self) -> &[ShardInfo] {
        &self.table
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The workload block, if present.
    pub fn workload(&self) -> Option<&Workload> {
        self.workload.as_ref()
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_len
    }

    /// Hand over the decoded graph and workload, without a copy. Every
    /// check ran at open, so this cannot fail; the `Result` and the `to_`
    /// name stay because `perfbench/src/trace.rs` calls it as
    /// `sharded.to_oscg_file().map_err(..)`.
    #[allow(clippy::wrong_self_convention)]
    pub fn to_oscg_file(self) -> Result<OscgFile, GraphError> {
        Ok(OscgFile {
            graph: self.graph,
            workload: self.workload,
        })
    }
}

/// Read a v2 shard count and table: the raw rows, and the table's bytes
/// (shard count included) for the header checksum.
fn read_table<R: Read>(r: &mut R, file_len: u64) -> Result<(Vec<TableEntry>, Vec<u8>), GraphError> {
    if file_len < (HEADER_LEN + 8) as u64 {
        return Err(GraphError::Truncated {
            needed: (HEADER_LEN + 8) as u64,
            got: file_len,
        });
    }
    let mut count = [0u8; 8];
    r.read_exact(&mut count)?;
    let shards = u64::from_le_bytes(count);
    check_shard_count(shards)?;
    let table_len = 8 + shards as usize * TABLE_ENTRY_LEN;
    if file_len < (HEADER_LEN + table_len) as u64 {
        return Err(GraphError::Truncated {
            needed: (HEADER_LEN + table_len) as u64,
            got: file_len,
        });
    }
    let mut bytes = vec![0u8; table_len];
    bytes[..8].copy_from_slice(&count);
    r.read_exact(&mut bytes[8..])?;
    let raw = bytes[8..]
        .chunks_exact(TABLE_ENTRY_LEN)
        .map(|row| {
            let f = |i: usize| u64::from_le_bytes(row[8 * i..8 * i + 8].try_into().unwrap());
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
    Ok((raw, bytes))
}

fn check_header(stored: u64, hash: &Fnv) -> Result<(), GraphError> {
    if hash.0 != stored {
        return Err(GraphError::ChecksumMismatch {
            stored,
            computed: hash.0,
        });
    }
    Ok(())
}

/// Stream one section of `count` little-endian `N`-byte values from `r`
/// into `out`, hashing the raw bytes as they pass. On disk every section
/// fills whole 8-byte words (a `u32` section of odd count ends in 4 zero
/// bytes); the padding is hashed and dropped.
fn read_section<R: Read, T, const N: usize>(
    r: &mut R,
    count: usize,
    buf: &mut [u8],
    hash: &mut Fnv,
    out: &mut Vec<T>,
    decode: impl Fn([u8; N]) -> T,
) -> std::io::Result<()> {
    let data = count * N;
    let total = data.next_multiple_of(8);
    let mut at = 0;
    while at < total {
        let chunk = &mut buf[..(total - at).min(CHUNK)];
        r.read_exact(chunk)?;
        hash.update(chunk);
        let values = data.saturating_sub(at).min(chunk.len());
        out.extend(
            chunk[..values]
                .chunks_exact(N)
                .map(|c| decode(c.try_into().unwrap())),
        );
        at += chunk.len();
    }
    Ok(())
}

/// Read the workload block's raw values — the budget and the three
/// per-node attribute arrays — hashing the bytes as they pass. They are
/// checked by [`decode_workload`] once the header checksum holds.
fn read_workload<R: Read>(
    r: &mut R,
    n: usize,
    present: bool,
    buf: &mut [u8],
    hash: &mut Fnv,
) -> std::io::Result<Option<(f64, [Vec<f64>; 3])>> {
    if !present {
        return Ok(None);
    }
    let mut budget = [0u8; 8];
    r.read_exact(&mut budget)?;
    hash.update(&budget);
    let mut arrays: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(n));
    for arr in &mut arrays {
        read_section(r, n, buf, hash, arr, f64::from_le_bytes)?;
    }
    Ok(Some((f64::from_le_bytes(budget), arrays)))
}

/// Check the workload block's values: a finite non-negative budget, then
/// the attribute arrays through [`NodeData::new`].
fn decode_workload(
    (budget, [benefit, seed_cost, sc_cost]): (f64, [Vec<f64>; 3]),
) -> Result<Workload, GraphError> {
    if !budget.is_finite() || budget < 0.0 {
        return Err(GraphError::CorruptSection {
            section: "workload",
            detail: format!("budget {budget} is not a finite non-negative number"),
        });
    }
    // NodeData::new re-validates lengths and attribute ranges.
    let data = NodeData::new(benefit, seed_cost, sc_cost)?;
    Ok(Workload { data, budget })
}

/// The file's six CSR sections while the reader fills them, shard by
/// shard. The reverse probabilities are kept only until the transpose check
/// has proved them equal to the forward ones.
struct CsrArrays {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
    probs: Vec<f64>,
    in_offsets: Vec<u64>,
    in_sources: Vec<NodeId>,
    in_probs: Vec<f64>,
}

impl CsrArrays {
    fn with_capacity(n: usize, m: usize) -> Self {
        CsrArrays {
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(m),
            probs: Vec::with_capacity(m),
            in_offsets: Vec::with_capacity(n + 1),
            in_sources: Vec::with_capacity(m),
            in_probs: Vec::with_capacity(m),
        }
    }

    /// Append shard `info`'s payload from `r`, hashing its raw bytes into
    /// `hash`. The offsets stay as stored, rebased to the shard, until
    /// [`accept_shard`](Self::accept_shard) has checked them. The shard's
    /// first offset replaces the previous shard's last, which names the
    /// same global edge id.
    fn read_shard<R: Read>(
        &mut self,
        r: &mut R,
        info: &ShardInfo,
        buf: &mut [u8],
        hash: &mut Fnv,
    ) -> std::io::Result<()> {
        let ln = (info.node_end - info.node_start) as usize;
        let (lm, lrm) = (info.fwd_edges as usize, info.rev_edges as usize);
        let node = |b| NodeId(u32::from_le_bytes(b));
        self.offsets.truncate(info.node_start as usize);
        self.in_offsets.truncate(info.node_start as usize);
        read_section(r, ln + 1, buf, hash, &mut self.offsets, u64::from_le_bytes)?;
        read_section(r, lm, buf, hash, &mut self.targets, node)?;
        read_section(r, lm, buf, hash, &mut self.probs, f64::from_le_bytes)?;
        read_section(
            r,
            ln + 1,
            buf,
            hash,
            &mut self.in_offsets,
            u64::from_le_bytes,
        )?;
        read_section(r, lrm, buf, hash, &mut self.in_sources, node)?;
        read_section(r, lrm, buf, hash, &mut self.in_probs, f64::from_le_bytes)
    }

    /// Check the shard just read (see [`validate_shard_sections`]), then
    /// rebase its offsets to global edge ids.
    fn accept_shard(
        &mut self,
        n: u32,
        info: &ShardInfo,
        last_ref: &mut [u32],
    ) -> Result<(), GraphError> {
        let a = info.node_start as usize;
        let (f, r) = (info.fwd_edge_start as usize, info.rev_edge_start as usize);
        validate_shard_sections(
            n,
            info,
            (&self.offsets[a..], &self.targets[f..], &self.probs[f..]),
            (
                &self.in_offsets[a..],
                &self.in_sources[r..],
                &self.in_probs[r..],
            ),
            last_ref,
        )?;
        // Validated offsets lie in `0..=edges`, so the sums stay `<= m`.
        self.offsets[a..]
            .iter_mut()
            .for_each(|o| *o += info.fwd_edge_start);
        self.in_offsets[a..]
            .iter_mut()
            .for_each(|o| *o += info.rev_edge_start);
        Ok(())
    }

    /// Check the transpose, which no single shard can see, and build the
    /// graph from the arrays, the reverse probabilities replaced by each
    /// reverse slot's forward edge id.
    fn into_graph(self, n: u32) -> Result<CsrGraph, GraphError> {
        let in_edges = validate_transpose(
            n,
            &self.offsets,
            &self.targets,
            &self.probs,
            &self.in_offsets,
            &self.in_sources,
            &self.in_probs,
        )?;
        drop(self.in_probs);
        Ok(CsrGraph::from_arrays(
            n,
            self.offsets,
            self.targets,
            self.probs,
            self.in_offsets,
            self.in_sources,
            in_edges,
        ))
    }
}

/// Check that the reverse sections are exactly the transpose of the forward
/// edges (same `(u, v, p)` set, reverse lists grouped by target with
/// sources ascending — the builder's counting-sort layout). Without this, a
/// checksum-valid foreign file could drive reverse-based algorithms (RIS
/// sampling, the linear-threshold comparison) on a different graph than the
/// forward cascade sees. Runs on per-shard-validated sections: offsets are
/// monotone and end at `m`, ids are `< n`. Returns the forward edge id of
/// every reverse slot, the map the sweep proves.
fn validate_transpose(
    n: u32,
    offsets: &[u64],
    targets: &[NodeId],
    probs: &[f64],
    in_offsets: &[u64],
    in_sources: &[NodeId],
    in_probs: &[f64],
) -> Result<Vec<u32>, GraphError> {
    // Walking forward edges in ascending-source order emits each target's
    // sources in ascending order, which is exactly the canonical reverse
    // layout — so a single cursor sweep proves the bijection.
    let mut cursor: Vec<u64> = in_offsets[..n as usize].to_vec();
    let mut in_edges = vec![0u32; in_sources.len()];
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
            in_edges[slot] = e as u32;
            cursor[v] += 1;
        }
    }
    Ok(in_edges)
}

/// One side of one shard's CSR: rebased offsets, ids, probabilities.
type Side<'a> = (&'a [u64], &'a [NodeId], &'a [f64]);

/// Per-shard structural validation — the format's one per-edge validator:
/// monotone offsets ending at the shard's edge count, ids in range, no
/// self-loops, probabilities in `[0, 1]`; forward rows in the canonical
/// rank order (descending probability, ties by ascending target) with no
/// duplicate targets; reverse rows with ascending sources. The transpose
/// bijection is checked once every shard is in.
///
/// Forward duplicate-edge detection shares one `last_ref` array across
/// shards: entries are keyed by target and hold the last source seen, and
/// a source never repeats across shards.
fn validate_shard_sections(
    n: u32,
    info: &ShardInfo,
    fwd: Side,
    rev: Side,
    last_ref: &mut [u32],
) -> Result<(), GraphError> {
    let corrupt =
        |section: &'static str, detail: String| GraphError::CorruptSection { section, detail };
    let ln = (info.node_end - info.node_start) as usize;
    for (side, (offsets, ids, probs), total) in
        [("fwd", fwd, info.fwd_edges), ("rev", rev, info.rev_edges)]
    {
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
    fn sharded_roundtrip_matches_original() {
        let g = chain_graph(11);
        for shards in [1usize, 2, 3, 7] {
            let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), shards);
            let bytes = sharded_to_bytes(&g, None, &plan).unwrap();
            let opened = ShardedOscg::from_owned_bytes(bytes).unwrap();
            assert_eq!(opened.shard_count(), plan.shard_count());
            for (s, info) in opened.table().iter().enumerate() {
                assert_eq!(info.node_start..info.node_end, plan.node_range(s));
            }
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

    /// Each shard's forward span in the table is exactly the global edge-id
    /// range its rows take in the assembled graph, row for row.
    #[test]
    fn sharded_rows_match_via_forward_shards() {
        let g = chain_graph(10);
        let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), 3);
        let bytes = sharded_to_bytes(&g, None, &plan).unwrap();
        let sharded = ShardedOscg::from_owned_bytes(bytes).unwrap();
        let table = sharded.table().to_vec();
        let assembled = sharded.to_oscg_file().unwrap().graph;
        for info in &table {
            let mut next = info.fwd_edge_start as u32;
            for v in (info.node_start..info.node_end).map(NodeId) {
                let ids = assembled.out_edge_ids(v);
                assert_eq!(ids, g.out_edge_ids(v), "edge ids of v{}", v.0);
                assert_eq!(ids.start, next, "v{} row starts inside its shard", v.0);
                assert_eq!(assembled.out_targets(v), g.out_targets(v));
                next = ids.end;
            }
            assert_eq!(next as u64, info.fwd_edge_start + info.fwd_edges);
        }
    }

    #[test]
    fn writer_rejects_shard_counts_the_reader_refuses() {
        for shards in [0, MAX_SHARDS as usize + 1] {
            let err = ShardedWriter::new(std::io::Cursor::new(vec![]), 4, 0, shards)
                .err()
                .unwrap_or_else(|| panic!("{shards} shards accepted"));
            assert!(
                matches!(
                    err,
                    GraphError::CorruptSection {
                        section: "shard_table",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }
}
