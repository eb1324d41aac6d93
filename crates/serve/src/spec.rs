//! Campaign and probe request specifications: the `key=value` codec the
//! wire protocol, the load generator, and the serial reference path all
//! share. A spec round-trips through [`CampaignSpec::to_line`] /
//! [`CampaignSpec::parse`] unchanged, so a client can replay the exact
//! request a reply was produced from.

use osn_gen::weights::WeightModel;
use osn_graph::NodeId;
use s3crm_bench::{Algorithm, Effort};
use s3crm_core::EstimatorBackend;

/// Which edge probabilities a campaign runs on.
#[derive(Clone, Copy, Debug)]
pub enum WeightChoice {
    /// The probabilities the dataset file carries (or the loader's
    /// 1/in-degree default for weightless text files).
    Dataset,
    /// Re-weight the dataset's topology under a synthetic model; the
    /// daemon caches one resident re-weighted variant per label.
    Model(WeightModel),
}

impl WeightChoice {
    /// Stable token used on the wire and as the resident-variant cache key.
    pub fn label(&self) -> String {
        match self {
            WeightChoice::Dataset => "data".to_string(),
            WeightChoice::Model(WeightModel::InverseInDegree) => "invdeg".to_string(),
            WeightChoice::Model(WeightModel::Uniform(p)) => format!("uniform:{p}"),
            WeightChoice::Model(WeightModel::Trivalency(_)) => "trivalency".to_string(),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        if let Some(p) = s.strip_prefix("uniform:") {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("weights uniform:<p> needs a number, got {p:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("uniform edge probability {p} outside [0, 1]"));
            }
            return Ok(WeightChoice::Model(WeightModel::Uniform(p)));
        }
        match s {
            "data" => Ok(WeightChoice::Dataset),
            "invdeg" => Ok(WeightChoice::Model(WeightModel::InverseInDegree)),
            "trivalency" => Ok(WeightChoice::Model(WeightModel::trivalency_default())),
            other => Err(format!(
                "unknown weights {other:?} (data|invdeg|uniform:<p>|trivalency)"
            )),
        }
    }
}

/// One campaign request: everything that determines the deployment.
#[derive(Clone, Copy, Debug)]
pub struct CampaignSpec {
    /// Seed-selection / allocation algorithm.
    pub algorithm: Algorithm,
    /// Multiplier on the dataset's base budget (`Binv = budget × base`).
    pub budget_mult: f64,
    /// Coupon cap for the limited-strategy baselines.
    pub limited_cap: u32,
    /// ID-phase estimation backend for the S3CA variants.
    pub estimator: EstimatorBackend,
    /// Sketch ε (additive benefit-error target; sketch estimator only).
    pub epsilon: f64,
    /// Sketch δ (failure probability; sketch estimator only).
    pub delta: f64,
    /// Worlds in the final-evaluation cache.
    pub eval_worlds: usize,
    /// Worlds inside the IM-family baselines' greedy selection.
    pub im_worlds: usize,
    /// Master seed (same derivation salts as the `repro` harness).
    pub seed: u64,
    /// Edge-probability variant.
    pub weights: WeightChoice,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        let quick = Effort::quick();
        CampaignSpec {
            algorithm: Algorithm::S3ca,
            budget_mult: 1.0,
            limited_cap: Algorithm::default_limited_cap(),
            estimator: EstimatorBackend::Mc,
            epsilon: 0.1,
            delta: 0.1,
            eval_worlds: 64,
            im_worlds: 8,
            seed: quick.seed,
            weights: WeightChoice::Dataset,
        }
    }
}

/// Wire token for an algorithm.
pub fn algorithm_token(a: Algorithm) -> &'static str {
    match a {
        Algorithm::S3ca => "s3ca",
        Algorithm::S3caIdOnly => "s3ca-id",
        Algorithm::ImU => "im-u",
        Algorithm::ImL => "im-l",
        Algorithm::PmU => "pm-u",
        Algorithm::PmL => "pm-l",
        Algorithm::ImS => "im-s",
        Algorithm::Random => "random",
    }
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Ok(match s {
        "s3ca" => Algorithm::S3ca,
        "s3ca-id" => Algorithm::S3caIdOnly,
        "im-u" => Algorithm::ImU,
        "im-l" => Algorithm::ImL,
        "pm-u" => Algorithm::PmU,
        "pm-l" => Algorithm::PmL,
        "im-s" => Algorithm::ImS,
        "random" => Algorithm::Random,
        other => return Err(format!("unknown algo {other:?}")),
    })
}

fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {key}={v:?}"))
}

impl CampaignSpec {
    /// Parse the body of a `CAMPAIGN` request (everything after the verb).
    /// Unknown keys are rejected so typos fail loudly instead of silently
    /// running a default campaign.
    pub fn parse(body: &str) -> Result<Self, String> {
        let mut spec = CampaignSpec::default();
        for pair in body.split_whitespace() {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            match k {
                "algo" => spec.algorithm = parse_algorithm(v)?,
                "budget" => spec.budget_mult = num(k, v)?,
                "cap" => spec.limited_cap = num(k, v)?,
                "estimator" => {
                    spec.estimator = match v {
                        "mc" => EstimatorBackend::Mc,
                        "sketch" => EstimatorBackend::Sketch,
                        other => return Err(format!("estimator must be mc|sketch, got {other:?}")),
                    }
                }
                "epsilon" => spec.epsilon = num(k, v)?,
                "delta" => spec.delta = num(k, v)?,
                "eval_worlds" => spec.eval_worlds = num(k, v)?,
                "im_worlds" => spec.im_worlds = num(k, v)?,
                "seed" => spec.seed = num(k, v)?,
                "weights" => spec.weights = WeightChoice::parse(v)?,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if !(spec.budget_mult.is_finite() && spec.budget_mult > 0.0) {
            return Err(format!(
                "budget multiplier {} must be positive",
                spec.budget_mult
            ));
        }
        for (key, v) in [("epsilon", spec.epsilon), ("delta", spec.delta)] {
            if !(v > 0.0 && v < 1.0) {
                return Err(format!("{key} must be in (0, 1), got {v}"));
            }
        }
        if spec.eval_worlds == 0 {
            return Err("eval_worlds must be positive".to_string());
        }
        if spec.im_worlds == 0 {
            return Err("im_worlds must be positive".to_string());
        }
        Ok(spec)
    }

    /// Canonical wire form; [`parse`](Self::parse) of this line reproduces
    /// the spec.
    pub fn to_line(&self) -> String {
        format!(
            "algo={} budget={} cap={} estimator={} epsilon={} delta={} eval_worlds={} \
             im_worlds={} seed={} weights={}",
            algorithm_token(self.algorithm),
            self.budget_mult,
            self.limited_cap,
            match self.estimator {
                EstimatorBackend::Mc => "mc",
                EstimatorBackend::Sketch => "sketch",
            },
            self.epsilon,
            self.delta,
            self.eval_worlds,
            self.im_worlds,
            self.seed,
            self.weights.label(),
        )
    }

    /// The [`Effort`] this spec implies — the same struct the `repro`
    /// harness threads everywhere, so campaign and CLI runs share every
    /// seed-derivation salt.
    pub fn effort(&self) -> Effort {
        let mut e = Effort::quick();
        e.eval_worlds = self.eval_worlds;
        e.im_worlds = self.im_worlds;
        e.seed = self.seed;
        e.estimator = self.estimator;
        e
    }
}

/// One `PROBE` request: evaluate an explicit deployment on a resident
/// evaluation backend.
#[derive(Clone, Debug)]
pub struct ProbeSpec {
    pub worlds: usize,
    pub seed: u64,
    pub weights: WeightChoice,
    pub seeds: Vec<NodeId>,
    pub coupons: Vec<(NodeId, u32)>,
}

impl ProbeSpec {
    /// Parse the body of a `PROBE` request. `seeds` is a `;`-separated node
    /// list, `coupons` a `;`-separated `node:count` list.
    pub fn parse(body: &str) -> Result<Self, String> {
        let mut spec = ProbeSpec {
            worlds: 64,
            seed: 42,
            weights: WeightChoice::Dataset,
            seeds: Vec::new(),
            coupons: Vec::new(),
        };
        for pair in body.split_whitespace() {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            match k {
                "worlds" => spec.worlds = num(k, v)?,
                "seed" => spec.seed = num(k, v)?,
                "weights" => spec.weights = WeightChoice::parse(v)?,
                "seeds" => {
                    spec.seeds = v
                        .split(';')
                        .filter(|t| !t.is_empty())
                        .map(|t| num::<u32>("seeds", t).map(NodeId))
                        .collect::<Result<_, _>>()?;
                }
                "coupons" => {
                    spec.coupons = v
                        .split(';')
                        .filter(|t| !t.is_empty())
                        .map(|t| {
                            let (node, count) = t
                                .split_once(':')
                                .ok_or_else(|| format!("coupons wants node:count, got {t:?}"))?;
                            Ok((NodeId(num::<u32>("coupons", node)?), num("coupons", count)?))
                        })
                        .collect::<Result<_, String>>()?;
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if spec.worlds == 0 {
            return Err("worlds must be positive".to_string());
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_spec_round_trips_through_the_wire_form() {
        let mut spec = CampaignSpec {
            algorithm: Algorithm::PmL,
            budget_mult: 2.5,
            limited_cap: 8,
            estimator: EstimatorBackend::Sketch,
            epsilon: 0.05,
            delta: 0.2,
            eval_worlds: 96,
            im_worlds: 12,
            seed: 77,
            weights: WeightChoice::Model(WeightModel::Uniform(0.25)),
        };
        let parsed = CampaignSpec::parse(&spec.to_line()).expect("round trip");
        assert_eq!(parsed.to_line(), spec.to_line());
        spec.weights = WeightChoice::Dataset;
        let parsed = CampaignSpec::parse(&spec.to_line()).expect("round trip");
        assert_eq!(parsed.to_line(), spec.to_line());
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(CampaignSpec::parse("algo=s3ca bogus=1").is_err());
        assert!(CampaignSpec::parse("algo=quantum").is_err());
        assert!(CampaignSpec::parse("budget=-1").is_err());
        assert!(CampaignSpec::parse("eval_worlds=0").is_err());
        // Sketch bounds fail at parse time with a reason naming the key,
        // not later inside the estimator.
        for (body, key) in [
            ("estimator=sketch epsilon=0", "epsilon"),
            ("epsilon=1", "epsilon"),
            ("epsilon=nan", "epsilon"),
            ("estimator=sketch delta=1", "delta"),
            ("delta=-0.5", "delta"),
            ("delta=NaN", "delta"),
            ("im_worlds=0", "im_worlds"),
        ] {
            let err = CampaignSpec::parse(body).unwrap_err();
            assert!(err.starts_with(key), "CAMPAIGN {body}: {err}");
        }
        assert!(CampaignSpec::parse("weights=uniform:1.5").is_err());
        assert!(CampaignSpec::parse("").is_ok(), "empty body takes defaults");
    }

    #[test]
    fn probe_spec_parses_deployment_lists() {
        let p = ProbeSpec::parse("worlds=32 seed=9 seeds=0;3;5 coupons=2:1;7:3").unwrap();
        assert_eq!(p.seeds, vec![NodeId(0), NodeId(3), NodeId(5)]);
        assert_eq!(p.coupons, vec![(NodeId(2), 1), (NodeId(7), 3)]);
        assert!(ProbeSpec::parse("coupons=2").is_err());
        assert!(ProbeSpec::parse("worlds=0").is_err());
    }

    /// Execution-strategy keys are gone: every result has one cascade
    /// path, so `storage=` and `kernel=` are plain unknown keys.
    #[test]
    fn strategy_keys_are_unknown_keys() {
        for body in [
            "storage=sparse",
            "storage=dense",
            "kernel=lane",
            "kernel=scalar",
        ] {
            let key = body.split('=').next().unwrap();
            let want = format!("unknown key {key:?}");
            assert_eq!(
                CampaignSpec::parse(body).unwrap_err(),
                want,
                "CAMPAIGN {body}"
            );
            assert_eq!(ProbeSpec::parse(body).unwrap_err(), want, "PROBE {body}");
        }
    }
}
