//! # osn-gen
//!
//! Synthetic social-network generators and workload attribute models for the
//! S3CRM reproduction (Chang et al., ICDE 2019).
//!
//! The paper evaluates on four real datasets (SNAP Facebook/Epinions/Google+
//! and the KDD-16 Douban graph) plus PPGG-generated synthetic graphs. None of
//! those assets are redistributable here, so this crate provides the closest
//! synthetic equivalents (real SNAP edge lists still load through
//! `repro --data`; see the README's "Real datasets" section):
//!
//! * [`erdos_renyi`] — G(n,m) baselines for tests;
//! * [`barabasi_albert`] — preferential attachment (pure power law);
//! * [`powerlaw_cluster`] — Holme–Kim triad-formation model controlling both
//!   the degree exponent and the clustering coefficient (the two quantities
//!   PPGG is parameterized by in Sec. VI-D);
//! * [`configuration`] — power-law configuration model for the η sweep;
//! * [`profiles`] — dataset-shaped presets replicating Table II
//!   (node/edge counts, `Binv`, benefit µ/σ) with a `scale` knob;
//! * [`cache`] — content-hash-keyed `.oscg` memoization of generated
//!   profile instances, so repeated runs mmap the finished CSR instead of
//!   regenerating it;
//! * [`fixtures`] — the exact worked-example instances of the paper (Fig. 1
//!   and Example 1) used by the integration tests;
//! * [`stream`] — the out-of-core twin of [`powerlaw_cluster`]: Holme–Kim
//!   generation streamed straight into a sharded (v2) `.oscg` file with
//!   O(N)-bounded memory (Fenwick-tree preferential attachment, neighbor
//!   reservoirs, disk-scattered shard builds);
//! * [`weights`] — influence-probability models (`P(e(i,j)) = 1/in-degree`,
//!   the paper's default, plus uniform and trivalency);
//! * [`attrs`] — benefit/cost workload models (normal benefit,
//!   degree-proportional seed cost, uniform coupon cost, λ/κ calibration);
//! * [`adoption`] — the Sec. VI-C case-study models (coupon adoption
//!   probabilities and gross-margin benefits).
//!
//! All generators take an explicit `u64` seed and are deterministic.

pub mod adoption;
pub mod attrs;
pub mod barabasi_albert;
pub mod cache;
pub mod configuration;
pub mod erdos_renyi;
pub mod fixtures;
pub mod powerlaw_cluster;
pub mod profiles;
pub mod stream;
pub mod topology;
pub mod watts_strogatz;
pub mod weights;

pub use profiles::DatasetProfile;
pub use topology::UndirectedTopology;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The deterministic RNG used by every generator in this crate.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}
