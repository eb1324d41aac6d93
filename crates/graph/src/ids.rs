//! Node identifier newtype.
//!
//! Node ids are dense `0..n` integers. A `u32` suffices for every network in
//! the paper (the largest, Douban, has 5.5M nodes) and halves the memory
//! footprint of the 86M-edge adjacency arrays relative to `usize`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a user in the social network, dense in `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index {i} exceeds u32 range");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(format!("{}", NodeId(3)), "v3");
        assert_eq!(format!("{:?}", NodeId(3)), "v3");
    }

    #[test]
    fn ordering_is_by_raw_id() {
        assert!(NodeId(1) < NodeId(2));
    }
}
