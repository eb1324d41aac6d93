//! # osn-propagation
//!
//! Coupon-constrained independent-cascade propagation engine for the S3CRM
//! reproduction (Chang et al., ICDE 2019).
//!
//! ## The model (paper Sec. III, made precise)
//!
//! The paper extends the independent-cascade (IC) model with a per-user
//! **SC constraint** `k_i`: an active user `v_i` attempts its out-neighbors
//! in *descending influence-probability order*; each attempt on an inactive
//! neighbor succeeds with the edge probability and **consumes one coupon**;
//! after `k_i` successful redemptions `v_i` stops. Attempts on already-active
//! neighbors are skipped without consuming a coupon (this is what the paper's
//! Fig. 1(c) arithmetic implies; `tests/paper_fig1.rs` pins it). An edge
//! whose rank exceeds the remaining coupons is the paper's *dependent edge*:
//! it can only fire if enough earlier-ranked attempts failed.
//!
//! ## What lives here
//!
//! * [`rank`] — the coupon-availability DP: exact per-rank redemption
//!   probabilities `q_j = P(e_j) · Pr[fewer than k earlier redemptions]`,
//!   which is the paper's `P(e(i,j))·P(k̄_i)` in closed form.
//! * [`cascade`] — one stochastic cascade (fresh coin flips); only tests
//!   call it, as Monte-Carlo ground truth.
//! * [`world`] / [`reach`] — pre-sampled live-edge **worlds** (the paper's
//!   "tosses a coin for each edge ... to generate a graph") and the
//!   deterministic coupon-constrained reachability inside one world. World
//!   construction only touches the graph's flat edge arrays, so it runs
//!   bit-identically over graphs loaded from `.oscg` files
//!   (`osn_graph::binary`) and over in-memory builds. Worlds
//!   are **skip-sampled** (geometric gaps over `osn_graph`'s probability
//!   buckets) and stored once, as 64-world **lane blocks**; see "World
//!   storage and sampling" below.
//! * [`spread`] — the analytic model: exact expected benefit on forests
//!   (all of the paper's worked examples), a documented independent-parent
//!   approximation elsewhere. It holds the propagation passes the engine
//!   runs, and [`SpreadState`], their from-scratch **test oracle**.
//! * [`engine`] — the **incremental spread engine**, the one production
//!   analytic evaluator: S3CA's greedy loops mutate it move-by-move, and a
//!   one-shot evaluation is a fresh engine (see "Evaluation architecture"
//!   below).
//! * [`ledger`] — the **deployment ledger**: one evolving deployment
//!   (seeds, seed mask, coupons) with its exact Table I costs — the running
//!   `Cseed`, and per coupon holder the rank DP and cost term whose
//!   ascending-node sum is `Csc` — plus the O(deg) ΔCsc probes. Every
//!   stateful estimator owns one.
//! * [`cost`] — the paper's Table-I cost terms (`Csc` is local per internal
//!   node) and the redemption rate; [`expected_sc_cost`] is the
//!   from-scratch test oracle the ledger is pinned against.
//! * [`monte_carlo`] — the Monte-Carlo estimator of `B(S, K(I))`: an
//!   [`McBackend`] owns one world cache (its lane blocks), and is
//!   the only way to build a [`MonteCarloEvaluator`], whose batched
//!   [`simulate_batch`](MonteCarloEvaluator::simulate_batch) scores many
//!   [`DeploymentRef`] candidates ([`evaluator`]) in one pool-parallel pass.
//!   One-shot analytic evaluation is a fresh [`SpreadEngine`].
//! * [`metrics`] — the reported quantities of Sec. VI: redemption rate,
//!   total benefit, seed–SC rate, average farthest hop.
//!
//! ## Evaluation architecture
//!
//! The ID phase drives estimation through the [`estimator`] seam:
//! [`estimator::BenefitEstimator`] is exactly the *stateful* surface
//! `s3crm-core`'s ID loop is generic over (spread order, per-node
//! candidacy test, the two monotone committed moves, the add probe). The
//! incremental [`SpreadEngine`] is the exact reference implementation: its
//! trait impl holds the method bodies, so the monomorphized loop runs the
//! engine's own floating-point sequence. SC Maneuver is not generic: it
//! runs on the engine and uses its inherent retrieval surface
//! (`remove_coupons`, `coupon_removal_delta`, `active_prob`). The
//! `osn-sketch` crate provides the reverse-reachability coverage oracle.
//! Both keep their deployment in a [`Ledger`], which owns the costs
//! (`Cseed`, `Csc`, probe ΔCsc): they are the same exact analytic values
//! in **every** backend — only the benefit side carries estimation error —
//! so budget feasibility never depends on the estimator choice. Callers
//! read seeds, coupons and costs from the ledger instead of mirroring
//! the deployment.
//!
//! Analytic evaluation has one production evaluator and one test oracle,
//! with one arithmetic:
//!
//! * **Production**: [`SpreadEngine`] — keeps the spread structure as a
//!   live index over the holder distributions its [`Ledger`] maintains
//!   across an evolving deployment. One full build at construction (the
//!   only O(Σ deg·k) DP sweep); a *broaden* move extends one holder's DP in
//!   O(deg) and re-runs only the flat passes; *deepen*, *new seed* and
//!   *coupon retrieval* re-derive the BFS structure but reuse every
//!   untouched holder's DP; O(deg) probes serve the candidate ranking. See
//!   the [`engine`] module docs. A one-shot evaluation of a fixed
//!   deployment is a freshly built engine, and every production cost is
//!   its ledger's.
//! * **Oracle**: [`SpreadState::evaluate`] with its probes, and
//!   [`expected_sc_cost`] — BFS the coupon spread, build each holder's
//!   `(eligible children, rank-DP, q)` distribution from scratch, run the
//!   same shared `pub(crate)` passes. Only tests call them; CI fails if a
//!   non-test line outside `spread.rs`, `cost.rs` and this file names
//!   them.
//!
//! [`SpreadEngine::rebuild`] is the from-scratch escape hatch, and by
//! contract it **never changes a bit**: the incremental DP extension
//! reproduces the full DP's floating-point sequence. Proptests
//! (`engine_equals_rebuild_after_any_move_sequence`) pin this after
//! arbitrary move sequences on cyclic graphs, and `tests/determinism.rs`
//! pins the downstream consequence: byte-identical CSVs.
//!
//! ## World storage and sampling
//!
//! [`WorldCache::sample`] generates worlds by **geometric skip sampling**:
//! edges are grouped into probability buckets
//! ([`osn_graph::prob_index::ProbBucketIndex`], one bucket per binary
//! exponent), and within a bucket the sampler jumps `Geometric(p_max)` gaps
//! between candidate live edges, thinning each candidate to its exact edge
//! probability — `O(live)` RNG draws per world instead of `O(m)`. The
//! cache stores each world once, in a [`lane::LaneBlock`] of 64 worlds
//! (see the lane kernel below): one pool task per block (per part of a
//! block when blocks are fewer than pool threads) runs each world's walk
//! into an `m`-bit scratch bitmap, drains it in ascending edge order into
//! the block's lane masks, and the block is compacted from them. Nothing
//! else holds a world, so a cache's resident size is its blocks' size.
//!
//! The scalar kernel ([`reach::world_cascade`]) consumes a
//! [`world::WorldRef`] view — one lane of one block — through
//! [`world::WorldRef::for_live_out`], which walks a node's union-live
//! out-edges and tests the world's bit. Frontier rounds are collected in a
//! word-level bitset and drained in ascending node-id order, which makes
//! the cascade outcome independent of seed ordering. It runs on an
//! in-memory [`osn_graph::CsrGraph`]: a sharded v2 file is assembled into
//! one graph with the same **global edge ids** (the layout preserves
//! them), so worlds are sampled at the same indices at any shard count —
//! bit-identical by construction, not by tolerance
//! (`reach::tests::sharded_schedule_is_bit_identical_to_monolithic`).
//!
//! ## The bit-parallel lane kernel
//!
//! Monte-Carlo evaluation transposes the world loop entirely ([`lane`]):
//! instead of one cascade per world, [`lane::LANE_WORLDS`] = 64 worlds are
//! packed as one `u64` **lane mask per edge** — bit `j` of edge `e`'s mask
//! is world `base + j`'s coin — filled as the worlds are sampled, then
//! compacted into a [`lane::LaneBlock`]: the union live adjacency holding,
//! per node, only the out-edges live in at least one lane. One frontier expansion then
//! advances all 64 worlds at once: per-edge liveness, the already-active
//! skip, and the per-lane coupon budgets (binary counters held as bit
//! planes with ripple-borrow decrements) are all word-wide AND/OR/XOR.
//! A block depends only on the sampled worlds, so the cache builds each
//! one at sampling time and it lives as long as the cache (~12 bytes per
//! union-live edge).
//!
//! **Lane layout / determinism-part alignment contract.** Lane blocks
//! always start at 64-world boundaries, and 64 = 2 ×
//! [`monte_carlo::PART_WORLDS`], so a block covers exactly two aligned
//! summation parts: lanes `0..32` form part `2b`, lanes `32..64` part
//! `2b + 1` (a ragged final block covers one full and one partial part, or
//! just a partial first half). Each lane's accumulators receive additions
//! in exactly the scalar kernel's per-world event order, and each part's
//! totals fold its half-block lanes in ascending lane order, so the merged
//! estimates are **bit-identical** to
//! [`monte_carlo::reference_simulate_batch`] — the scalar kernel folded
//! serially in parts — at every pool size and batch shape (pinned by unit
//! tests and proptests).
//!
//! **RNG-stream contract.** World `i` is always RNG stream `i` (the world
//! index is mixed into the seed), so caches never depend on the pool size.
//! The skip sampler consumes its per-world stream in a different order than
//! the original per-edge Bernoulli sampler, so switching the default was a
//! **one-time re-bless** of every seed-pinned expectation: the worlds are
//! equal in distribution (statistical-equivalence proptests pin per-edge
//! live frequencies against the retained
//! [`WorldCache::sample_dense_reference`] stream) but not bitwise. All
//! determinism pins below — bit-identical across pool sizes 1/2/N, across
//! shard counts, across text/binary graph loads — hold for the new stream.
//!
//! ## Parallel execution and the determinism contract
//!
//! All parallelism in this crate goes through one primitive,
//! [`osn_pool::ThreadPool::map_indexed`]: `f(i)` for every `i in 0..len`,
//! results in index order. Idle workers and the calling thread claim
//! indices from a shared counter, and a caller waits only for its own
//! call, never running another caller's work (see that crate's docs).
//! Folds fan out one index per 64-world block, sampling one per block or
//! per part of a block. [`McBackend::evaluator`] and
//! [`WorldCache::sample`](crate::world::WorldCache::sample) use the
//! process-wide [`osn_pool::global`] pool, so S3CA's greedy loop, the
//! baselines, and the bench harness share one set of workers instead of
//! spawning scoped threads per evaluation. [`McBackend::evaluator_on`] and
//! [`WorldCache::sample_with_pool`](crate::world::WorldCache::sample_with_pool)
//! take an explicit pool (how the determinism tests force sizes 1, 2, and
//! `available_parallelism`).
//!
//! The determinism contract, pinned by `tests/determinism.rs`:
//!
//! 1. **World identity.** World `i` is always RNG stream `i`, regardless of
//!    which worker sampled it.
//! 2. **Part grouping.** Per-world outcomes are summed in fixed
//!    [`monte_carlo::PART_WORLDS`]-world parts, each part serially in world
//!    order.
//! 3. **Merge order.** Part totals are merged in part order on the calling
//!    thread, never in completion order.
//!
//! Together these make every estimate bit-identical across pool sizes
//! (a one-worker pool runs every index inline) and machines. Batched
//! evaluation ([`MonteCarloEvaluator::simulate_batch`]) keeps per-candidate
//! accumulators through the same grouping, so batching never changes
//! results either — only how many candidates one pass over the world cache
//! serves.

#![forbid(unsafe_code)]

pub mod bits;
pub mod cascade;
pub mod cost;
pub mod engine;
pub mod estimator;
pub mod evaluator;
pub mod lane;
pub mod ledger;
pub mod linear_threshold;
pub mod metrics;
pub mod monte_carlo;
pub mod rank;
pub mod reach;
pub mod spread;
pub mod world;

pub use cascade::{simulate_cascade, CascadeOutcome};
pub use cost::{expected_sc_cost, redemption_rate, seed_cost};
pub use engine::{EngineCounters, RefreshDelta, SpreadEngine};
pub use estimator::BenefitEstimator;
pub use evaluator::DeploymentRef;
pub use lane::{lane_cascade_block, LaneBlock, LaneOutcome, LaneScratch, LANE_WORLDS};
pub use ledger::{DeltaScratch, Ledger};
pub use metrics::RedemptionReport;
pub use monte_carlo::{reference_simulate_batch, McBackend, MonteCarloEvaluator, SimulationStats};
pub use spread::SpreadState;
pub use world::{WorldCache, WorldRef};
