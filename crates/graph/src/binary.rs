//! `.oscg` — the versioned little-endian binary CSR graph format.
//!
//! Plain-text edge lists ([`crate::io`]) cost an O(E) tokenize-and-sort on
//! every run; for the paper's larger graphs (Google+ 13.7M edges, Douban
//! 86M) that parse dominates experiment setup. `.oscg` stores the *built*
//! CSR — both adjacency directions, pre-sorted — so loading is a memory map
//! plus an O(N + M) structural validation pass with no allocation, parsing,
//! or sorting. On little-endian Unix targets the sections are used in place
//! (zero-copy, [`crate::storage::Section::Mapped`]); elsewhere the reader
//! falls back to explicit reads into owned sections with identical results.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size      field
//! 0x00    4         magic b"OSCG"
//! 0x04    2         format version (= 1)
//! 0x06    2         flags (bit 0: workload block present)
//! 0x08    8         n — node count
//! 0x10    8         m — edge count
//! 0x18    8         checksum — FNV-1a-64 over the payload, u64-word-wise
//! 0x20    ...       payload:
//!   u64[n+1]          forward offsets
//!   u32[m] (+pad 8)   forward targets, rank-sorted per source
//!   f64[m]            forward probabilities
//!   u64[n+1]          reverse offsets
//!   u32[m] (+pad 8)   reverse sources, grouped by target
//!   f64[m]            reverse probabilities
//!   workload block (iff flag bit 0):
//!     f64               budget Binv
//!     f64[n]            benefit b(v)
//!     f64[n]            seed cost c_seed(v)
//!     f64[n]            SC cost c_sc(v)
//! ```
//!
//! Every section starts 8-byte-aligned (the header is 32 bytes and `u32`
//! sections are zero-padded), so a page-aligned map can be reinterpreted as
//! typed slices directly. The checksum covers the whole payload; readers
//! verify it before trusting any section, and then validate the structural
//! invariants (monotone offsets terminating at `m`, ids `< n`, no
//! self-loops, probabilities in `[0, 1]`) so that a corrupt or adversarial
//! file yields a typed [`GraphError`] — never a panic or out-of-bounds read.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::node_data::NodeData;
use crate::storage::{MappedFile, Section};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The four magic bytes opening every `.oscg` file.
pub const MAGIC: [u8; 4] = *b"OSCG";
/// Current (and only) format version.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;

const FLAG_WORKLOAD: u16 = 1;

/// Word-wise FNV-1a-64 over `payload` (tail zero-padded to 8 bytes).
///
/// This is the format's integrity checksum. Hashing 8 bytes per round keeps
/// verification a small fraction of a text parse while still catching the
/// bit flips and truncations that matter for cached experiment inputs.
pub fn checksum(payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        hash ^= u64::from_le_bytes(c.try_into().unwrap());
        hash = hash.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Workload attributes carried alongside a cached graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Per-node benefit/cost attributes.
    pub data: NodeData,
    /// The instance's investment budget `Binv`.
    pub budget: f64,
}

/// A decoded `.oscg` file: the graph plus an optional workload block.
#[derive(Clone, Debug)]
pub struct OscgFile {
    pub graph: CsrGraph,
    pub workload: Option<Workload>,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serialize `graph` (and optionally a workload) to `.oscg` bytes.
pub fn to_bytes(
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
) -> Result<Vec<u8>, GraphError> {
    let n = graph.node_count();
    let m = graph.edge_count();
    if let Some((data, budget)) = workload {
        if data.len() != n {
            return Err(GraphError::AttributeLengthMismatch {
                expected: n,
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
    }

    let mut payload =
        Vec::with_capacity(payload_len(n as u64, m as u64, workload.is_some()) as usize);
    push_u64s(&mut payload, graph.offsets_raw());
    push_ids(&mut payload, graph.edge_targets_flat());
    push_f64s(&mut payload, graph.edge_probs_flat());
    push_u64s(&mut payload, graph.in_offsets_raw());
    push_ids(&mut payload, graph.in_sources_flat());
    push_f64s(&mut payload, graph.in_probs_flat());
    if let Some((data, budget)) = workload {
        payload.extend_from_slice(&budget.to_le_bytes());
        push_f64s(&mut payload, data.benefits());
        push_f64s(&mut payload, data.seed_costs());
        push_f64s(&mut payload, data.sc_costs());
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let flags: u16 = if workload.is_some() { FLAG_WORKLOAD } else { 0 };
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Write `graph` (and optionally a workload) as `.oscg` to `writer`.
pub fn write_oscg<W: Write>(
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
    mut writer: W,
) -> Result<(), GraphError> {
    writer.write_all(&to_bytes(graph, workload)?)?;
    Ok(())
}

/// Write an `.oscg` file **atomically**: serialize to a unique temp file in
/// the destination directory, then rename over `path`.
///
/// An interrupted write never leaves a truncated file at `path`, replacing
/// an existing file swaps the directory entry rather than truncating pages
/// under a live map of the old contents, and the temp name is unique per
/// process *and* per call so concurrent writers (threads or processes)
/// never interleave into one temp file. Both the profile cache and
/// `repro convert` write through here.
pub fn write_oscg_atomic(
    path: &Path,
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
) -> Result<(), GraphError> {
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| -> Result<(), GraphError> {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = std::io::BufWriter::new(file);
        write_oscg(graph, workload, &mut writer)?;
        // Flush explicitly: BufWriter's Drop swallows flush errors, and a
        // short write (e.g. ENOSPC) must fail the convert, not get renamed
        // into place as a truncated file.
        writer.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

fn push_u64s(out: &mut Vec<u8>, values: &[u64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_f64s(out: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_ids(out: &mut Vec<u8>, values: &[NodeId]) {
    for v in values {
        out.extend_from_slice(&v.0.to_le_bytes());
    }
    if values.len() % 2 == 1 {
        out.extend_from_slice(&[0u8; 4]); // keep the next section 8-aligned
    }
}

// ---------------------------------------------------------------------------
// Frame (header + sizes) checking, shared by both read paths
// ---------------------------------------------------------------------------

struct Header {
    flags: u16,
    n: u64,
    m: u64,
    checksum: u64,
}

/// Byte offsets of each payload section, relative to the file start.
struct Layout {
    offsets: usize,
    targets: usize,
    probs: usize,
    in_offsets: usize,
    in_sources: usize,
    in_probs: usize,
    workload: Option<usize>,
    total: usize,
}

fn padded_ids_len(m: u64) -> u64 {
    4 * m + if m % 2 == 1 { 4 } else { 0 }
}

fn payload_len(n: u64, m: u64, workload: bool) -> u64 {
    // Only called with n, m <= u32::MAX, so this cannot overflow u64.
    let mut len = 2 * (8 * (n + 1) + padded_ids_len(m) + 8 * m);
    if workload {
        len += 8 + 3 * 8 * n;
    }
    len
}

fn parse_header(bytes: &[u8]) -> Result<Header, GraphError> {
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
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(GraphError::UnsupportedVersion { got: version });
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    if flags & !FLAG_WORKLOAD != 0 {
        return Err(GraphError::CorruptSection {
            section: "header",
            detail: format!("unknown flag bits {:#06x}", flags & !FLAG_WORKLOAD),
        });
    }
    Ok(Header {
        flags,
        n: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        m: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        checksum: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
    })
}

fn check_frame(bytes: &[u8]) -> Result<(Header, Layout), GraphError> {
    let header = parse_header(bytes)?;
    // Node and edge ids are u32 throughout the workspace; a header that
    // claims more is either corrupt or a graph this build cannot represent.
    if header.n > u32::MAX as u64 {
        return Err(GraphError::CorruptSection {
            section: "header",
            detail: format!("node count {} exceeds u32 range", header.n),
        });
    }
    if header.m > u32::MAX as u64 {
        return Err(GraphError::CorruptSection {
            section: "header",
            detail: format!("edge count {} exceeds u32 range", header.m),
        });
    }
    let has_workload = header.flags & FLAG_WORKLOAD != 0;
    let total = HEADER_LEN as u64 + payload_len(header.n, header.m, has_workload);
    if (bytes.len() as u64) < total {
        return Err(GraphError::Truncated {
            needed: total,
            got: bytes.len() as u64,
        });
    }
    if bytes.len() as u64 > total {
        return Err(GraphError::CorruptSection {
            section: "payload",
            detail: format!(
                "{} trailing bytes after the last section",
                bytes.len() as u64 - total
            ),
        });
    }
    let computed = checksum(&bytes[HEADER_LEN..]);
    if computed != header.checksum {
        return Err(GraphError::ChecksumMismatch {
            stored: header.checksum,
            computed,
        });
    }

    let (n, m) = (header.n, header.m);
    let offsets = HEADER_LEN;
    let targets = offsets + 8 * (n as usize + 1);
    let probs = targets + padded_ids_len(m) as usize;
    let in_offsets = probs + 8 * m as usize;
    let in_sources = in_offsets + 8 * (n as usize + 1);
    let in_probs = in_sources + padded_ids_len(m) as usize;
    let workload_off = in_probs + 8 * m as usize;
    let layout = Layout {
        offsets,
        targets,
        probs,
        in_offsets,
        in_sources,
        in_probs,
        workload: has_workload.then_some(workload_off),
        total: total as usize,
    };
    debug_assert_eq!(
        layout.total,
        workload_off + if has_workload { 8 + 24 * n as usize } else { 0 }
    );
    Ok((header, layout))
}

// ---------------------------------------------------------------------------
// Structural validation, shared by both read paths
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Side {
    Forward,
    Reverse,
}

impl Side {
    fn offsets_name(self) -> &'static str {
        match self {
            Side::Forward => "offsets",
            Side::Reverse => "in_offsets",
        }
    }

    fn ids_name(self) -> &'static str {
        match self {
            Side::Forward => "targets",
            Side::Reverse => "in_sources",
        }
    }
}

/// Check one adjacency direction: monotone offsets ending at `m`, ids in
/// range, no self-loops, probabilities in `[0, 1]` — and, on the forward
/// side, the canonical rank order (descending probability, ties by
/// ascending target id) that the coupon-constrained cascade depends on.
fn validate_adjacency(
    n: u64,
    m: u64,
    offsets: &[u64],
    ids: &[NodeId],
    probs: &[f64],
    side: Side,
) -> Result<(), GraphError> {
    if offsets[0] != 0 {
        return Err(GraphError::CorruptSection {
            section: side.offsets_name(),
            detail: format!("first offset is {}, expected 0", offsets[0]),
        });
    }
    if offsets[n as usize] != m {
        return Err(GraphError::CorruptSection {
            section: side.offsets_name(),
            detail: format!(
                "last offset is {}, expected the edge count {m}",
                offsets[n as usize]
            ),
        });
    }
    // Last node whose slice referenced each id — detects duplicate (u, v)
    // pairs in O(m) without per-node sets. The sentinel is safe: ids are
    // `< n <= u32::MAX`, so no node is ever numbered `u32::MAX`.
    let mut last_ref: Vec<u32> = match side {
        Side::Forward => vec![u32::MAX; n as usize],
        Side::Reverse => Vec::new(), // transpose bijection covers reverse
    };
    for v in 0..n as usize {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        if lo > hi {
            return Err(GraphError::CorruptSection {
                section: side.offsets_name(),
                detail: format!("offsets decrease at node v{v}: {lo} > {hi}"),
            });
        }
        // hi <= m was established by monotonicity up to offsets[n] == m
        // only once the whole scan passes; bound each range defensively.
        if hi > m {
            return Err(GraphError::CorruptSection {
                section: side.offsets_name(),
                detail: format!("offset {hi} at node v{v} exceeds the edge count {m}"),
            });
        }
        for e in lo as usize..hi as usize {
            let other = ids[e];
            if other.0 as u64 >= n {
                return Err(GraphError::CorruptSection {
                    section: side.ids_name(),
                    detail: format!("edge {e} references node v{} but n = {n}", other.0),
                });
            }
            if other.index() == v {
                return Err(GraphError::CorruptSection {
                    section: side.ids_name(),
                    detail: format!("edge {e} is a self-loop on v{v}"),
                });
            }
            let p = probs[e];
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                let (source, target) = match side {
                    Side::Forward => (v as u32, other.0),
                    Side::Reverse => (other.0, v as u32),
                };
                return Err(GraphError::InvalidProbability { source, target, p });
            }
            // The edge's position in its slice is the paper's rank `j`;
            // every rank-based algorithm assumes the builder's canonical
            // order (descending probability, ties by ascending target, no
            // duplicate targets — the builder collapses parallel edges),
            // so a foreign file that breaks any of it must not load.
            if matches!(side, Side::Forward) {
                if last_ref[other.index()] == v as u32 {
                    return Err(GraphError::CorruptSection {
                        section: "targets",
                        detail: format!("duplicate edge (v{v}, v{}) at edge {e}", other.0),
                    });
                }
                last_ref[other.index()] = v as u32;
                if e > lo as usize {
                    let (pp, pt) = (probs[e - 1], ids[e - 1].0);
                    if p > pp || (p == pp && other.0 < pt) {
                        return Err(GraphError::CorruptSection {
                            section: "probs",
                            detail: format!(
                                "out-edges of v{v} violate rank order at edge \
                                 {e}: ({pt}, {pp}) before ({}, {p})",
                                other.0
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Check that the reverse sections are exactly the transpose of the forward
/// edges (same `(u, v, p)` set, reverse lists grouped by target with
/// sources ascending — the builder's counting-sort layout). Without this, a
/// checksum-valid foreign file could drive reverse-based algorithms (RIS
/// sampling, the linear-threshold comparison) on a different graph than the
/// forward cascade sees.
fn validate_transpose(
    n: u64,
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

/// Every structural check a decoded file must pass, in one place so the
/// owned and mmap read paths cannot diverge: per-direction adjacency
/// invariants plus the forward/reverse transpose bijection. Also the final
/// gate for sharded (v2) files once [`crate::shard`] assembles the
/// monolithic view.
#[allow(clippy::too_many_arguments)]
pub(crate) fn validate_sections(
    n: u64,
    m: u64,
    offsets: &[u64],
    targets: &[NodeId],
    probs: &[f64],
    in_offsets: &[u64],
    in_sources: &[NodeId],
    in_probs: &[f64],
) -> Result<(), GraphError> {
    validate_adjacency(n, m, offsets, targets, probs, Side::Forward)?;
    validate_adjacency(n, m, in_offsets, in_sources, in_probs, Side::Reverse)?;
    validate_transpose(n, offsets, targets, probs, in_offsets, in_sources, in_probs)
}

fn workload_from_parts(
    budget: f64,
    benefit: Vec<f64>,
    seed_cost: Vec<f64>,
    sc_cost: Vec<f64>,
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

// ---------------------------------------------------------------------------
// Reading — explicit (owned sections, any platform/endianness)
// ---------------------------------------------------------------------------

fn read_u64s(bytes: &[u8], offset: usize, count: usize) -> Vec<u64> {
    bytes[offset..offset + 8 * count]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn read_f64s(bytes: &[u8], offset: usize, count: usize) -> Vec<f64> {
    bytes[offset..offset + 8 * count]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn read_ids(bytes: &[u8], offset: usize, count: usize) -> Vec<NodeId> {
    bytes[offset..offset + 4 * count]
        .chunks_exact(4)
        .map(|c| NodeId(u32::from_le_bytes(c.try_into().unwrap())))
        .collect()
}

/// Decode `.oscg` bytes into owned sections (the explicit-read path).
///
/// Handles both layouts: version 1 decodes directly; a version-2
/// (partitioned, [`crate::shard`]) frame is opened shard by shard and
/// assembled into the monolithic view.
pub fn from_bytes(bytes: &[u8]) -> Result<OscgFile, GraphError> {
    if peek_version(bytes) == Some(crate::shard::VERSION_SHARDED) {
        return crate::shard::ShardedOscg::from_owned_bytes(bytes.to_vec())?.to_oscg_file();
    }
    let (header, layout) = check_frame(bytes)?;
    let (n, m) = (header.n, header.m);

    let offsets = read_u64s(bytes, layout.offsets, n as usize + 1);
    let targets = read_ids(bytes, layout.targets, m as usize);
    let probs = read_f64s(bytes, layout.probs, m as usize);
    let in_offsets = read_u64s(bytes, layout.in_offsets, n as usize + 1);
    let in_sources = read_ids(bytes, layout.in_sources, m as usize);
    let in_probs = read_f64s(bytes, layout.in_probs, m as usize);

    validate_sections(
        n,
        m,
        &offsets,
        &targets,
        &probs,
        &in_offsets,
        &in_sources,
        &in_probs,
    )?;

    let workload = decode_workload(bytes, &layout, n as usize)?;

    Ok(OscgFile {
        graph: CsrGraph::from_sections(
            n as u32,
            offsets.into(),
            targets.into(),
            probs.into(),
            in_offsets.into(),
            in_sources.into(),
            in_probs.into(),
        ),
        workload,
    })
}

/// Decode the optional workload block — one code path for both readers, so
/// the explicit-read fallback and the mmap path can never diverge on it.
fn decode_workload(
    bytes: &[u8],
    layout: &Layout,
    n: usize,
) -> Result<Option<Workload>, GraphError> {
    let Some(off) = layout.workload else {
        return Ok(None);
    };
    Ok(Some(decode_workload_at(bytes, off, n)?))
}

/// Decode a workload block starting at byte `off` (budget then the three
/// per-node attribute arrays). Shared with the sharded (v2) reader, whose
/// workload block is byte-identical to v1's.
pub(crate) fn decode_workload_at(
    bytes: &[u8],
    off: usize,
    n: usize,
) -> Result<Workload, GraphError> {
    let budget = f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    workload_from_parts(
        budget,
        read_f64s(bytes, off + 8, n),
        read_f64s(bytes, off + 8 + 8 * n, n),
        read_f64s(bytes, off + 8 + 16 * n, n),
    )
}

/// Decode `.oscg` from any reader via the explicit-read path.
pub fn read_oscg<R: Read>(mut reader: R) -> Result<OscgFile, GraphError> {
    osn_fault::io_point("graph.oscg.read")?;
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    from_bytes(&bytes)
}

// ---------------------------------------------------------------------------
// Reading — zero-copy memory map (little-endian Unix)
// ---------------------------------------------------------------------------

/// Decode an `.oscg` file through a memory map: the adjacency sections
/// borrow the map ([`Section::Mapped`]) instead of being copied.
///
/// Returns `Ok(None)` when the platform cannot map the file (non-Unix,
/// big-endian, or a failed `mmap`); [`load_oscg`] uses that signal to fall
/// back to [`read_oscg`].
pub fn map_oscg(path: &Path) -> Result<Option<OscgFile>, GraphError> {
    if cfg!(not(target_endian = "little")) {
        // The sections are little-endian words; reinterpreting them in
        // place would be wrong on a big-endian host.
        return Ok(None);
    }
    osn_fault::io_point("graph.oscg.map")?;
    let file = std::fs::File::open(path)?;
    let map = match MappedFile::map(&file)? {
        Some(map) => Arc::new(map),
        None => return Ok(None),
    };
    let (header, layout) = check_frame(map.bytes())?;
    let (n, m) = (header.n, header.m);

    let offsets = Section::<u64>::map(Arc::clone(&map), layout.offsets, n as usize + 1, "offsets")?;
    let targets = Section::<NodeId>::map(Arc::clone(&map), layout.targets, m as usize, "targets")?;
    let probs = Section::<f64>::map(Arc::clone(&map), layout.probs, m as usize, "probs")?;
    let in_offsets = Section::<u64>::map(
        Arc::clone(&map),
        layout.in_offsets,
        n as usize + 1,
        "in_offsets",
    )?;
    let in_sources = Section::<NodeId>::map(
        Arc::clone(&map),
        layout.in_sources,
        m as usize,
        "in_sources",
    )?;
    let in_probs = Section::<f64>::map(Arc::clone(&map), layout.in_probs, m as usize, "in_probs")?;

    validate_sections(
        n,
        m,
        &offsets,
        &targets,
        &probs,
        &in_offsets,
        &in_sources,
        &in_probs,
    )?;

    // The workload block is O(n) and NodeData owns its arrays, so copy it.
    let workload = decode_workload(map.bytes(), &layout, n as usize)?;

    Ok(Some(OscgFile {
        graph: CsrGraph::from_sections(
            n as u32, offsets, targets, probs, in_offsets, in_sources, in_probs,
        ),
        workload,
    }))
}

/// Load an `.oscg` file: memory-mapped and zero-copy where the platform
/// allows, explicit reads otherwise. Corrupt files fail identically on
/// both paths.
///
/// Partitioned (version 2) files route through [`crate::shard`] and come
/// back as the assembled monolithic view — callers that want shard-at-a-time residency open
/// [`crate::shard::ShardedOscg`] directly instead.
pub fn load_oscg(path: &Path) -> Result<OscgFile, GraphError> {
    if sniff_oscg_version(path)? == Some(crate::shard::VERSION_SHARDED) {
        return crate::shard::ShardedOscg::open(path)?.to_oscg_file();
    }
    if let Some(loaded) = map_oscg(path)? {
        return Ok(loaded);
    }
    read_oscg(std::io::BufReader::new(std::fs::File::open(path)?))
}

/// Peek at a file's first bytes: does it carry the `.oscg` magic?
///
/// Used by dataset auto-detection (`repro --data`) to route a path to the
/// binary loader or the plain-text edge-list parser.
pub fn sniff_is_oscg(path: &Path) -> std::io::Result<bool> {
    Ok(sniff_oscg_version(path)?.is_some())
}

/// The declared format version of the first six bytes of a slice carrying
/// the `.oscg` magic, `None` otherwise.
fn peek_version(bytes: &[u8]) -> Option<u16> {
    if bytes.len() < 6 || bytes[0..4] != MAGIC {
        return None;
    }
    Some(u16::from_le_bytes(bytes[4..6].try_into().unwrap()))
}

/// Peek at a file's header: `Some(version)` when it carries the `.oscg`
/// magic, `None` otherwise. This is how loaders route between the
/// monolithic (v1) and partitioned (v2, [`crate::shard`]) layouts without
/// reading past the header.
pub fn sniff_oscg_version(path: &Path) -> std::io::Result<Option<u16>> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 6];
    match file.read_exact(&mut head) {
        Ok(()) => Ok(peek_version(&head)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(2, 3, 0.8).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_graph_only() {
        let g = diamond();
        let bytes = to_bytes(&g, None).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.graph, g);
        assert!(back.workload.is_none());
        assert!(!back.graph.is_mapped());
    }

    #[test]
    fn roundtrip_with_workload() {
        let g = diamond();
        let data = NodeData::uniform(4, 2.0, 3.0, 0.5);
        let bytes = to_bytes(&g, Some((&data, 12.5))).unwrap();
        let back = from_bytes(&bytes).unwrap();
        let w = back.workload.unwrap();
        assert_eq!(w.data, data);
        assert_eq!(w.budget, 12.5);
    }

    #[test]
    fn sections_are_eight_aligned() {
        // Odd edge count exercises the u32 padding.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.25).unwrap();
        b.add_edge(1, 2, 0.75).unwrap();
        let g = b.build().unwrap();
        let bytes = to_bytes(&g, None).unwrap();
        assert_eq!(bytes.len() % 8, 0);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.graph, g);
    }

    #[test]
    fn workload_length_mismatch_is_rejected_at_write() {
        let g = diamond();
        let data = NodeData::uniform(3, 1.0, 1.0, 1.0);
        assert!(matches!(
            to_bytes(&g, Some((&data, 1.0))),
            Err(GraphError::AttributeLengthMismatch { .. })
        ));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"hello .oscg!");
        assert_eq!(a, checksum(b"hello .oscg!"));
        assert_ne!(a, checksum(b"hello .oscg?"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
