//! Whole-graph `.oscg` entry points: serialize an in-memory graph, load a
//! file back as one [`CsrGraph`], and sniff a path's format.
//!
//! The layout, reader, and writer live in [`crate::shard`]; everything
//! here is the one-shard case of it. Writers emit a one-shard version-2
//! file. Loaders accept any shard count and legacy version-1 files, and
//! decode the whole graph through the one streaming reader,
//! [`ShardedOscg::from_reader`]. Callers that want the shard table open
//! [`ShardedOscg`] directly.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::node_data::NodeData;
use crate::shard::{write_sharded_oscg_atomic, ShardPlan, ShardedOscg, MAGIC};
use std::io::{Read, Write};
use std::path::Path;

/// The format version every writer emits.
pub const VERSION: u16 = crate::shard::VERSION_SHARDED;

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

fn whole(graph: &CsrGraph) -> ShardPlan {
    ShardPlan::single(graph.node_count() as u32)
}

/// Serialize `graph` (and optionally a workload) to one-shard `.oscg` bytes.
pub fn to_bytes(
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
) -> Result<Vec<u8>, GraphError> {
    crate::shard::sharded_to_bytes(graph, workload, &whole(graph))
}

/// Write `graph` (and optionally a workload) as one-shard `.oscg` to `writer`.
pub fn write_oscg<W: Write>(
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
    mut writer: W,
) -> Result<(), GraphError> {
    writer.write_all(&to_bytes(graph, workload)?)?;
    Ok(())
}

/// Write a one-shard `.oscg` file atomically (temp file + rename; see
/// [`write_sharded_oscg_atomic`]).
pub fn write_oscg_atomic(
    path: &Path,
    graph: &CsrGraph,
    workload: Option<(&NodeData, f64)>,
) -> Result<(), GraphError> {
    write_sharded_oscg_atomic(path, graph, workload, &whole(graph))
}

/// Decode `.oscg` bytes (any version, any shard count) without copying
/// the slice first.
pub fn from_bytes(bytes: &[u8]) -> Result<OscgFile, GraphError> {
    ShardedOscg::from_reader(std::io::Cursor::new(bytes))?.to_oscg_file()
}

/// Load an `.oscg` file (any version, any shard count) as the whole graph,
/// through a buffered reader. Corrupt files fail exactly as in
/// [`from_bytes`].
pub fn load_oscg(path: &Path) -> Result<OscgFile, GraphError> {
    ShardedOscg::open(path)?.to_oscg_file()
}

/// Peek at a file's first bytes: does it carry the `.oscg` magic?
///
/// Used by dataset auto-detection (`repro --data`) to route a path to the
/// binary loader or the plain-text edge-list parser.
pub fn sniff_is_oscg(path: &Path) -> std::io::Result<bool> {
    Ok(sniff_oscg_version(path)?.is_some())
}

/// Peek at a file's header: `Some(version)` when it carries the `.oscg`
/// magic, `None` otherwise, without reading past the first six bytes.
pub fn sniff_oscg_version(path: &Path) -> std::io::Result<Option<u16>> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 6];
    match file.read_exact(&mut head) {
        Ok(()) if head[0..4] == MAGIC => Ok(Some(u16::from_le_bytes([head[4], head[5]]))),
        Ok(()) => Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::shard::checksum;

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
