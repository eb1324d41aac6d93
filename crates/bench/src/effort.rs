//! Experiment sizing.
//!
//! The paper's full datasets range up to 5.5M nodes / 86M edges; the
//! harness scales each profile down so a complete reproduction runs on a
//! laptop in minutes. [`Effort::full`] restores larger fractions for
//! overnight runs.

use osn_gen::DatasetProfile;
use s3crm_core::{EstimatorBackend, S3caConfig};
use serde::{Deserialize, Serialize};

/// Global knobs shared by every experiment.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Effort {
    /// Multiplier on each profile's base scale (1.0 = the preset below).
    pub graph_scale: f64,
    /// Worlds in the evaluation cache (Monte-Carlo reports).
    pub eval_worlds: usize,
    /// Worlds used inside the IM baselines' greedy selection.
    pub im_worlds: usize,
    /// Deterministic master seed.
    pub seed: u64,
    /// Estimation backend driving S3CA's ID phase (`--estimator`).
    pub estimator: EstimatorBackend,
}

impl Effort {
    /// Minutes-scale preset used by the `repro` binary by default.
    pub fn quick() -> Self {
        Effort {
            graph_scale: 1.0,
            eval_worlds: 200,
            im_worlds: 24,
            seed: 42,
            estimator: EstimatorBackend::Mc,
        }
    }

    /// Smaller preset for `repro --micro` smoke runs (seconds-scale).
    pub fn micro() -> Self {
        Effort {
            graph_scale: 0.3,
            eval_worlds: 64,
            im_worlds: 8,
            seed: 42,
            estimator: EstimatorBackend::Mc,
        }
    }

    /// Larger preset for overnight runs.
    pub fn full() -> Self {
        Effort {
            graph_scale: 4.0,
            eval_worlds: 1000,
            im_worlds: 64,
            seed: 42,
            estimator: EstimatorBackend::Mc,
        }
    }

    /// The [`S3caConfig`] this effort implies: the default full pipeline
    /// under the selected estimation backend.
    pub fn s3ca_config(&self) -> S3caConfig {
        S3caConfig {
            estimator: self.estimator,
            ..S3caConfig::default()
        }
    }

    /// As [`s3ca_config`](Self::s3ca_config), ID phase only.
    pub fn s3ca_id_only(&self) -> S3caConfig {
        S3caConfig {
            estimator: self.estimator,
            ..S3caConfig::id_only()
        }
    }

    /// The effective generation scale for a profile: a per-profile base
    /// fraction (keeping every dataset in the same runtime ballpark) times
    /// the global multiplier, clamped to the generator's `(0, 1]` domain.
    /// The floor is per profile — the smallest scale at which `nodes ×
    /// scale` still rounds to at least one node (a fixed `1e-6` floor
    /// rounded every profile under ~500k nodes down to a 0-node graph for
    /// tiny `--scale` values).
    pub fn profile_scale(&self, profile: DatasetProfile) -> f64 {
        let base = match profile {
            DatasetProfile::Facebook => 0.25,   // 1 000 nodes at quick
            DatasetProfile::Epinions => 0.02,   // 1 520 nodes
            DatasetProfile::GooglePlus => 0.01, // 1 080 nodes
            DatasetProfile::Douban => 0.0004,   // 2 200 nodes
        };
        let min_scale = (1.0 / profile.nodes() as f64).min(1.0);
        (base * self.graph_scale).clamp(min_scale, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let m = Effort::micro();
        let q = Effort::quick();
        let f = Effort::full();
        assert!(f.graph_scale > q.graph_scale);
        assert!(f.eval_worlds > q.eval_worlds);
        // Micro sits strictly below quick on every sizing knob (it exists
        // so smoke runs and tests stay seconds-scale).
        assert!(m.graph_scale < q.graph_scale);
        assert!(m.eval_worlds < q.eval_worlds);
        assert!(m.im_worlds < q.im_worlds);
        assert!(q.eval_worlds <= f.eval_worlds && q.im_worlds <= f.im_worlds);
    }

    #[test]
    fn profile_scale_clamps() {
        let mut e = Effort::full();
        e.graph_scale = 1e9;
        assert_eq!(e.profile_scale(DatasetProfile::Facebook), 1.0);
    }

    #[test]
    fn degenerate_scale_floors_at_one_node() {
        // A fixed 1e-6 floor used to round every profile under ~500k nodes
        // to a 0-node graph; the floor must instead keep `nodes × scale`
        // rounding to ≥ 1 for every profile.
        let mut e = Effort::quick();
        e.graph_scale = 1e-12;
        for profile in DatasetProfile::ALL {
            let scale = e.profile_scale(profile);
            assert!(scale > 0.0 && scale <= 1.0, "{profile:?} scale {scale}");
            let n = (profile.nodes() as f64 * scale).round() as usize;
            assert!(n >= 1, "{profile:?} rounds to {n} nodes at scale {scale}");
        }
    }

    #[test]
    fn degenerate_scale_runs_end_to_end() {
        // The floored scale must survive the whole pipeline: generate the
        // instance and run S3CA on it (the generator enforces its own
        // minimum of a valid attachment graph, so this exercises both
        // floors composing).
        let mut e = Effort::micro();
        e.graph_scale = 1e-12;
        let inst = DatasetProfile::Facebook
            .generate(e.profile_scale(DatasetProfile::Facebook), e.seed)
            .expect("degenerate-scale generation");
        assert!(inst.graph.node_count() >= 1);
        let result = s3crm_core::s3ca(&inst.graph, &inst.data, inst.budget, &e.s3ca_config());
        assert!(result.objective.benefit.is_finite());
    }

    #[test]
    fn quick_facebook_is_about_a_thousand_nodes() {
        let e = Effort::quick();
        let n = (DatasetProfile::Facebook.nodes() as f64
            * e.profile_scale(DatasetProfile::Facebook))
        .round() as usize;
        assert_eq!(n, 1000);
    }
}
