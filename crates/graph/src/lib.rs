//! # osn-graph
//!
//! Directed, weighted social-network graph substrate for the S3CRM
//! reproduction (Chang et al., ICDE 2019).
//!
//! The propagation model of the paper ranks each user's out-neighbors by
//! **descending influence probability**: a user holding `k` social coupons
//! attempts neighbors in that order and each successful redemption consumes a
//! coupon. Every algorithm in the paper therefore needs rank-ordered
//! adjacency as a primitive, which is why this crate stores out-edges in a
//! compressed-sparse-row (CSR) layout **pre-sorted by descending probability
//! within each node** — `ranked_out(v)` is a contiguous slice scan, with the
//! rank of an edge being its index in that slice.
//!
//! Contents:
//! * [`NodeId`] — 32-bit node identifier newtype.
//! * [`GraphBuilder`] — incremental edge accumulation, deduplication,
//!   validation, then a one-shot [`CsrGraph`] build.
//! * [`CsrGraph`] — immutable CSR with forward (probability-ranked) and
//!   reverse adjacency.
//! * [`NodeData`] — struct-of-arrays per-node attributes: benefit `b(v)`,
//!   seed cost `c_seed(v)`, coupon cost `c_sc(v)`.
//! * [`traversal`] — BFS hop distances from a seed set and reachability.
//! * [`shortest_path`] — Dijkstra under the `w(e) = 1 − P(e)` metric used by
//!   the IM-S baseline (Sec. VI-A).
//! * [`stats`] — degree distributions and clustering coefficient, used to
//!   validate the synthetic dataset profiles against the paper's Table II.
//! * [`io`] — plain-text edge-list reading/writing so real SNAP-format data
//!   can be substituted for the synthetic profiles when available.
//! * [`prob_index`] — edges bucketed by probability exponent, the reusable
//!   substrate for geometric skip sampling of Monte-Carlo live-edge worlds.
//! * [`shard`] — the `.oscg` binary CSR format, its one reader and writer:
//!   the node space split into contiguous degree-balanced shards, each
//!   independently checksummed, so a streamed generator can write a graph
//!   shard by shard. Reading decodes every shard in one streaming pass
//!   straight into one in-memory [`CsrGraph`], validating as it goes.
//!   Legacy version-1 files read as one-shard frames.
//! * [`binary`] — whole-graph `.oscg` entry points: graphs (and optional
//!   workload attributes) serialize to a one-shard file that loads back
//!   without the O(E) text parse and sort.
//!
//! ```
//! use osn_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 0.4).unwrap();
//! b.add_edge(0, 2, 0.7).unwrap();
//! let g = b.build().unwrap();
//! // Rank order: higher probability first.
//! let ranked: Vec<_> = g.ranked_out(NodeId(0)).collect();
//! assert_eq!(ranked[0], (NodeId(2), 0.7));
//! assert_eq!(ranked[1], (NodeId(1), 0.4));
//! ```

#![forbid(unsafe_code)]

pub mod binary;
pub mod builder;
pub mod csr;
pub mod error;
pub mod ids;
pub mod io;
pub mod node_data;
pub mod prob_index;
pub mod shard;
pub mod shortest_path;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use ids::NodeId;
pub use node_data::NodeData;
pub use prob_index::{ProbBucket, ProbBucketIndex};
pub use shard::{ShardPlan, ShardedOscg};
