//! The coupon-availability rank DP.
//!
//! For a user with `k` coupons attempting neighbors in rank order with
//! probabilities `p_1..p_d`, the probability that the rank-`j` neighbor
//! redeems is
//!
//! ```text
//! q_j = p_j · Pr[fewer than k of the attempts 1..j−1 succeeded]
//! ```
//!
//! which is exactly the paper's `E[k_i, c_sc(v_j)] / c_sc(v_j)`: for
//! `j ≤ k_i` the availability factor is 1 and `q_j = P(e(i,j))`; for
//! `j > k_i` the factor is the paper's `P(k̄_i)`. The DP tracks the
//! distribution of coupons consumed, saturating at `k` (once all coupons are
//! gone no further attempts happen, so the exact count above `k` is
//! irrelevant).

/// Per-rank redemption probabilities for attempt probabilities `probs`
/// (already in descending-rank order) under `k` coupons.
pub fn redemption_probs(probs: &[f64], k: u32) -> Vec<f64> {
    let mut q = vec![0.0; probs.len()];
    redemption_probs_into(probs, k, &mut q);
    q
}

/// As [`redemption_probs`], writing into a caller-provided buffer (hot path
/// of the marginal-redemption loop; avoids an allocation per candidate).
///
/// # Panics
/// Panics if `out.len() != probs.len()`.
pub fn redemption_probs_into(probs: &[f64], k: u32, out: &mut [f64]) {
    assert_eq!(out.len(), probs.len());
    let k = k as usize;
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // dist[c] = Pr[c coupons consumed so far], c saturating at k.
    let mut dist = vec![0.0f64; k + 1];
    dist[0] = 1.0;
    for (j, &p) in probs.iter().enumerate() {
        let avail: f64 = dist[..k].iter().sum();
        out[j] = p * avail;
        // One more attempt with success probability p, only from states with
        // coupons left. Descending order keeps the update in place.
        for c in (0..k).rev() {
            dist[c + 1] += dist[c] * p;
            dist[c] *= 1.0 - p;
        }
    }
}

/// Cached rank DP of one coupon holder, extensible by one coupon in
/// `O(deg)` instead of the `O(deg·k)` from-scratch sweep.
///
/// The cache stores, per rank `j` (0-indexed):
///
/// * `avail[j]` — the *availability* factor `Pr[fewer than k of attempts
///   1..j succeeded]`, kept as the **ascending partial sum**
///   `Σ_{c<k} E_c[j]` exactly as [`redemption_probs`] accumulates it;
/// * `ek[j]` — `E_k[j] = Pr[exactly k of attempts 1..j succeeded]`, the
///   next term of that sum.
///
/// Granting one more coupon turns the `k`-availability into the
/// `(k+1)`-availability by appending the `E_k` term: the floating-point
/// addition sequence is identical to the one a from-scratch DP at `k+1`
/// performs, so [`extend_one`](RankDp::extend_one) is **bit-identical** to
/// rebuilding — the contract `SpreadEngine`'s `rebuild()` proptest pins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankDp {
    /// Three length-`d` rows in one allocation (one-shot evaluations
    /// build every holder's DP afresh, so each allocation counts): `q_j`,
    /// the per-rank redemption probabilities for the
    /// current `k`; `avail[j]`, the ascending partial sums `Σ_{c<k} E_c[j]`
    /// (availability before rank `j+1`'s attempt); and `ek[j]`, the
    /// probability `E_k[j]` that exactly `k` of the first `j` attempts
    /// succeeded — the term `extend_one` folds into `avail`.
    rows: Vec<f64>,
    k: u32,
}

impl RankDp {
    /// Build the cache for attempt probabilities `probs` under `k` coupons.
    /// `self.q()` equals [`redemption_probs`]`(probs, k)` bit-for-bit.
    pub fn build(probs: &[f64], k: u32) -> RankDp {
        let d = probs.len();
        let ku = k as usize;
        // The three rows, then the DP's scratch distribution, saturating
        // at k + 1 (one row deeper than `redemption_probs`) so dist[k]
        // stays the exact `E_k` row rather than the ≥k bucket.
        let mut rows = vec![0.0f64; 3 * d + ku + 2];
        let (q, rest) = rows.split_at_mut(d);
        let (avail, rest) = rest.split_at_mut(d);
        let (ek, dist) = rest.split_at_mut(d);
        dist[0] = 1.0;
        for (j, &p) in probs.iter().enumerate() {
            // Same entries, same ascending order, hence the same bits as
            // `redemption_probs`' `dist[..k].iter().sum()`. Note `Sum<f64>`
            // folds from -0.0, so the k = 0 availability is -0.0 — kept
            // as-is because extensions must continue that exact sum, while
            // q is pinned to the +0.0 of `redemption_probs`' early return.
            avail[j] = dist[..ku].iter().sum();
            q[j] = if ku == 0 { 0.0 } else { p * avail[j] };
            ek[j] = dist[ku];
            for c in (0..ku + 1).rev() {
                dist[c + 1] += dist[c] * p;
                dist[c] *= 1.0 - p;
            }
        }
        rows.truncate(3 * d);
        RankDp { rows, k }
    }

    /// Current coupon count the cache reflects.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Per-rank redemption probabilities for the current `k`.
    pub fn q(&self) -> &[f64] {
        &self.rows[..self.rows.len() / 3]
    }

    /// The `(q, avail, ek)` rows.
    fn split(&self) -> (&[f64], &[f64], &[f64]) {
        let d = self.rows.len() / 3;
        let (q, rest) = self.rows.split_at(d);
        let (avail, ek) = rest.split_at(d);
        (q, avail, ek)
    }

    /// Grow the cache from `k` to `k + 1` coupons in `O(deg)`. After the
    /// call, `self` equals `RankDp::build(probs, k + 1)` bit-for-bit.
    pub fn extend_one(&mut self, probs: &[f64]) {
        let d = self.rows.len() / 3;
        debug_assert_eq!(probs.len(), d);
        self.k += 1;
        let (q, rest) = self.rows.split_at_mut(d);
        let (avail, ek) = rest.split_at_mut(d);
        for (j, &p) in probs.iter().enumerate() {
            // Appending E_k to the ascending partial sum is exactly the
            // next `+=` a from-scratch sweep at k + 1 would execute.
            avail[j] += ek[j];
            q[j] = p * avail[j];
        }
        // Roll the row forward: E_{k+1}[j] from E_{k+1}[j−1] and E_k[j−1],
        // the same `x·(1−p) + y·p` expression the in-place DP uses.
        let mut prev_new = 0.0f64; // E_{k+1}[0]
        for (j, &p) in probs.iter().enumerate() {
            let cur = prev_new * (1.0 - p) + ek[j] * p;
            ek[j] = prev_new;
            prev_new = cur;
        }
    }

    /// The redemption probabilities one extra coupon would produce, without
    /// mutating the cache — the `O(deg)` marginal probe of the greedy
    /// loops. Writes `redemption_probs(probs, k + 1)` (bit-identical) into
    /// `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != probs.len()`.
    pub fn extended_q_into(&self, probs: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), probs.len());
        let (_, avail, ek) = self.split();
        for (j, &p) in probs.iter().enumerate() {
            out[j] = p * (avail[j] + ek[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn unconstrained_equals_raw_probabilities() {
        let p = [0.7, 0.5, 0.3];
        let q = redemption_probs(&p, 3);
        for (a, b) in q.iter().zip(p.iter()) {
            assert!((a - b).abs() < EPS);
        }
        // k beyond the degree changes nothing.
        assert_eq!(redemption_probs(&p, 10), q);
    }

    #[test]
    fn zero_coupons_means_no_redemption() {
        assert_eq!(redemption_probs(&[0.9, 0.9], 0), vec![0.0, 0.0]);
    }

    #[test]
    fn paper_fig1_dependent_edge() {
        // Fig. 1(c) case 2: k₁ = 1 over ranked probs [0.55, 0.5]:
        // "the probability of activating v2 becomes (1 − 0.55) · 0.5".
        let q = redemption_probs(&[0.55, 0.5], 1);
        assert!((q[0] - 0.55).abs() < EPS);
        assert!((q[1] - 0.45 * 0.5).abs() < EPS);
    }

    #[test]
    fn paper_example1_dependent_edge() {
        // Example 1: k₁ = 1 over [0.6, 0.4] → v3 redeems w.p. (1−0.6)·0.4.
        let q = redemption_probs(&[0.6, 0.4], 1);
        assert!((q[0] - 0.6).abs() < EPS);
        assert!((q[1] - 0.16).abs() < EPS);
    }

    #[test]
    fn two_coupons_three_children() {
        // k = 2, probs [a, b, c]: rank 3 redeems iff fewer than 2 of {1, 2}
        // succeeded.
        let (a, b, c) = (0.5, 0.4, 0.3);
        let q = redemption_probs(&[a, b, c], 2);
        assert!((q[0] - a).abs() < EPS);
        assert!((q[1] - b).abs() < EPS);
        let p_fewer_than_2 = 1.0 - a * b;
        assert!((q[2] - c * p_fewer_than_2).abs() < EPS);
    }

    #[test]
    fn probabilities_are_monotone_in_k() {
        let p = [0.9, 0.8, 0.7, 0.6];
        for k in 0..4u32 {
            let lo = redemption_probs(&p, k);
            let hi = redemption_probs(&p, k + 1);
            for (l, h) in lo.iter().zip(hi.iter()) {
                assert!(h >= l, "q must be monotone nondecreasing in k");
            }
        }
    }

    /// Bitwise equality helper for the RankDp contract tests.
    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rank {i}: {x} vs {y}");
        }
    }

    #[test]
    fn rank_dp_build_matches_redemption_probs_bitwise() {
        let probs = [0.55, 0.5, 0.31, 0.9999, 0.0, 0.125, 0.7];
        for k in 0..10u32 {
            let dp = RankDp::build(&probs, k);
            assert_bits_eq(dp.q(), &redemption_probs(&probs, k), "build");
        }
    }

    #[test]
    fn rank_dp_extension_chain_is_bit_identical_to_rebuild() {
        let probs = [0.3, 0.85, 0.2, 0.61, 0.47, 0.09];
        let mut dp = RankDp::build(&probs, 0);
        for k in 1..9u32 {
            // Probe first, then commit: both must equal the fresh build.
            let mut probe = vec![0.0; probs.len()];
            dp.extended_q_into(&probs, &mut probe);
            dp.extend_one(&probs);
            assert_eq!(dp.k(), k);
            let fresh = RankDp::build(&probs, k);
            assert_bits_eq(dp.q(), fresh.q(), "extended q vs rebuilt q");
            assert_bits_eq(&probe, fresh.q(), "probe vs rebuilt q");
            assert_bits_eq(dp.split().1, fresh.split().1, "avail partial sums");
            assert_bits_eq(dp.split().2, fresh.split().2, "E_k row");
            assert_bits_eq(dp.q(), &redemption_probs(&probs, k), "vs DP");
        }
    }

    #[test]
    fn rank_dp_handles_empty_and_leaf_holders() {
        let mut dp = RankDp::build(&[], 3);
        assert!(dp.q().is_empty());
        dp.extend_one(&[]);
        assert_eq!(dp.k(), 4);
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let p = [0.2, 0.9, 0.5];
        let mut buf = vec![0.0; 3];
        redemption_probs_into(&p, 2, &mut buf);
        assert_eq!(buf, redemption_probs(&p, 2));
    }
}
