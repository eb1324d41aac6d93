//! Bucketed edge-probability index for geometric skip sampling.
//!
//! Monte-Carlo world generation flips one coin per edge per world; done
//! naively that is `O(R·m)` RNG draws even though typical influence
//! probabilities leave worlds 1–10% dense. Grouping edges by probability
//! lets the sampler jump `Geometric(p)` gaps between *live* edges instead
//! of testing every edge, making generation proportional to the number of
//! live edges.
//!
//! Edges are first classed by the **binary exponent** of their probability
//! (so every class satisfies `p_max / 2 < p ≤ p_max`), then each class is
//! split into **uniform** buckets — one per distinct probability — when the
//! split stays cheap (each bucket amortizes its one terminating gap draw
//! per world over at least `MIN_EDGES_PER_SPLIT` edges). Uniform buckets
//! need no per-candidate thinning draw, which is the common case under the
//! uniform, trivalency, and inverse-in-degree weight models; classes too
//! fragmented to split keep a single bucket whose candidates are thinned
//! with probability `p / p_max ≥ ½`.
//!
//! The index depends only on the graph's flat probability section, is
//! immutable, and can be built once and reused across any number of world
//! caches sampled from the same graph.

use crate::csr::CsrGraph;

/// Required average edges per bucket before an exponent class is split
/// into per-distinct-probability buckets.
const MIN_EDGES_PER_SPLIT: usize = 8;

/// One group of edges sampled with a shared geometric gap rate.
#[derive(Clone, Debug)]
pub struct ProbBucket {
    /// Largest probability in the bucket; the skip sampler's gap rate.
    pub p_max: f64,
    /// True when every edge in the bucket has exactly `p_max` (no
    /// per-candidate thinning draw needed).
    pub uniform: bool,
    /// Precomputed `−1 / ln(1 − p_max)`: a `Geometric(p_max)` gap is
    /// `⌊Exp(1) · inv_lambda⌋`. Unused (0) for the certain bucket.
    pub inv_lambda: f64,
    /// Edge ids in ascending order.
    pub edges: Vec<u32>,
}

impl ProbBucket {
    fn new(p_max: f64, uniform: bool, edges: Vec<u32>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let inv_lambda = if p_max >= 1.0 {
            0.0
        } else {
            // ln_1p stays exact for tiny probabilities.
            -1.0 / (-p_max).ln_1p()
        };
        ProbBucket {
            p_max,
            uniform,
            inv_lambda,
            edges,
        }
    }
}

/// Edges grouped into probability buckets, certain edges first, then by
/// descending `p_max`. Edges with `p = 0` are excluded entirely (they can
/// never be live); edges with `p = 1` form a draw-free "certain" bucket.
#[derive(Clone, Debug)]
pub struct ProbBucketIndex {
    buckets: Vec<ProbBucket>,
    edge_count: usize,
}

impl ProbBucketIndex {
    /// Build the index over a flat per-edge probability slice (indexed by
    /// the stable edge id of [`CsrGraph::out_edge_ids`]).
    pub fn new(probs: &[f64]) -> Self {
        assert!(probs.len() <= u32::MAX as usize, "edge ids must fit u32");
        let mut certain: Vec<u32> = Vec::new();
        // Classed by the biased binary exponent of `p` (sign bit is always
        // 0 for p > 0): a flat table indexed directly, iterated descending.
        let mut classes: Vec<Vec<u32>> = Vec::new();
        classes.resize_with(2048, Vec::new);
        let mut nonempty: Vec<usize> = Vec::new();
        for (e, &p) in probs.iter().enumerate() {
            debug_assert!((0.0..=1.0).contains(&p), "edge prob {p} outside [0, 1]");
            if p <= 0.0 {
                continue;
            }
            if p >= 1.0 {
                certain.push(e as u32);
            } else {
                let k = (p.to_bits() >> 52) as usize;
                if classes[k].is_empty() {
                    nonempty.push(k);
                }
                classes[k].push(e as u32);
            }
        }
        nonempty.sort_unstable_by(|a, b| b.cmp(a));
        let mut buckets = Vec::with_capacity(nonempty.len() + 1);
        if !certain.is_empty() {
            buckets.push(ProbBucket::new(1.0, true, certain));
        }
        for k in nonempty {
            split_class(std::mem::take(&mut classes[k]), probs, &mut buckets);
        }
        ProbBucketIndex {
            buckets,
            edge_count: probs.len(),
        }
    }

    /// The buckets, certain edges first, then descending `p_max`.
    pub fn buckets(&self) -> &[ProbBucket] {
        &self.buckets
    }

    /// Number of edges the index covers (including `p = 0` edges that are
    /// in no bucket).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }
}

/// Emit one exponent class as buckets: one uniform bucket per distinct
/// probability when the class is concentrated enough, else a single
/// thinned bucket at the class maximum.
fn split_class(edges: Vec<u32>, probs: &[f64], out: &mut Vec<ProbBucket>) {
    let first_p = probs[edges[0] as usize];
    if edges.iter().all(|&e| probs[e as usize] == first_p) {
        out.push(ProbBucket::new(first_p, true, edges));
        return;
    }
    // Group by exact probability bits — positive f64 bit patterns order
    // like the values, and pushing in id order keeps every group
    // ascending. An exponent class holds few distinct values, so the map
    // stays small.
    let mut groups: std::collections::BTreeMap<u64, Vec<u32>> = std::collections::BTreeMap::new();
    for &e in &edges {
        groups
            .entry(probs[e as usize].to_bits())
            .or_default()
            .push(e);
    }
    if groups.len() * MIN_EDGES_PER_SPLIT > edges.len() {
        // Too fragmented: keep one id-ascending bucket, thin candidates.
        let p_max = f64::from_bits(*groups.last_key_value().expect("nonempty").0);
        out.push(ProbBucket::new(p_max, false, edges));
        return;
    }
    for (bits, ids) in groups.into_iter().rev() {
        out.push(ProbBucket::new(f64::from_bits(bits), true, ids));
    }
}

impl CsrGraph {
    /// Build the reusable [`ProbBucketIndex`] over this graph's edges.
    pub fn prob_bucket_index(&self) -> ProbBucketIndex {
        ProbBucketIndex::new(self.edge_probs_flat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_probabilities_are_special_cased() {
        let idx = ProbBucketIndex::new(&[0.0, 1.0, 0.5, 0.0, 1.0]);
        assert_eq!(idx.edge_count(), 5);
        assert_eq!(idx.buckets().len(), 2);
        let certain = &idx.buckets()[0];
        assert_eq!(certain.p_max, 1.0);
        assert!(certain.uniform);
        assert_eq!(certain.edges, vec![1, 4]);
        assert_eq!(idx.buckets()[1].edges, vec![2]);
    }

    #[test]
    fn small_mixed_class_stays_one_thinned_bucket() {
        // 0.6 and 0.9 share the [0.5, 1) exponent but two edges cannot
        // amortize a split; 0.3 sits alone in [0.25, 0.5).
        let idx = ProbBucketIndex::new(&[0.6, 0.3, 0.9]);
        assert_eq!(idx.buckets().len(), 2);
        let top = &idx.buckets()[0];
        assert_eq!(top.p_max, 0.9);
        assert!(!top.uniform);
        assert_eq!(top.edges, vec![0, 2]);
        for b in idx.buckets() {
            for &e in &b.edges {
                let p = [0.6, 0.3, 0.9][e as usize];
                assert!(
                    p <= b.p_max && p > b.p_max / 2.0,
                    "p {p} vs cap {}",
                    b.p_max
                );
            }
        }
    }

    #[test]
    fn concentrated_class_splits_into_uniform_buckets() {
        // 32 edges at 0.9 interleaved with 32 at 0.6: same exponent, but
        // plenty of edges per distinct value — two uniform buckets, higher
        // probability first, ascending ids within each.
        let probs: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 0.9 } else { 0.6 })
            .collect();
        let idx = ProbBucketIndex::new(&probs);
        assert_eq!(idx.buckets().len(), 2);
        assert_eq!(idx.buckets()[0].p_max, 0.9);
        assert!(idx.buckets()[0].uniform);
        assert_eq!(idx.buckets()[1].p_max, 0.6);
        assert!(idx.buckets()[1].uniform);
        for b in idx.buckets() {
            assert_eq!(b.edges.len(), 32);
            assert!(b.edges.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn uniform_buckets_are_flagged() {
        let idx = ProbBucketIndex::new(&[0.25, 0.25, 0.25]);
        assert_eq!(idx.buckets().len(), 1);
        assert!(idx.buckets()[0].uniform);
        assert_eq!(idx.buckets()[0].p_max, 0.25);
    }

    #[test]
    fn gap_scale_matches_the_geometric_rate() {
        let idx = ProbBucketIndex::new(&[0.25]);
        let b = &idx.buckets()[0];
        assert!((b.inv_lambda - -1.0 / 0.75f64.ln()).abs() < 1e-15);
        let certain = ProbBucketIndex::new(&[1.0]);
        assert_eq!(certain.buckets()[0].inv_lambda, 0.0);
    }

    #[test]
    fn buckets_order_descending_and_edges_ascending() {
        let probs = [0.001, 0.8, 0.1, 0.8, 0.05, 1.0];
        let idx = ProbBucketIndex::new(&probs);
        let caps: Vec<f64> = idx.buckets().iter().map(|b| b.p_max).collect();
        let mut sorted = caps.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(caps, sorted, "buckets must come in descending p_max");
        for b in idx.buckets() {
            assert!(b.edges.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn every_positive_edge_lands_in_exactly_one_bucket() {
        let probs: Vec<f64> = (0..200)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => 1.0,
                2 => 0.5,
                3 => 1.0 / (1.0 + i as f64),
                _ => 0.37,
            })
            .collect();
        let idx = ProbBucketIndex::new(&probs);
        let mut seen = vec![0u32; probs.len()];
        for b in idx.buckets() {
            for &e in &b.edges {
                seen[e as usize] += 1;
            }
        }
        for (e, &p) in probs.iter().enumerate() {
            assert_eq!(seen[e], u32::from(p > 0.0), "edge {e} (p = {p})");
        }
    }

    #[test]
    fn empty_and_all_zero_inputs() {
        assert!(ProbBucketIndex::new(&[]).buckets().is_empty());
        let idx = ProbBucketIndex::new(&[0.0, 0.0]);
        assert!(idx.buckets().is_empty());
        assert_eq!(idx.edge_count(), 2);
    }
}
