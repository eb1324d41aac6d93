//! Campaign and probe request specifications: the `key=value` codec the
//! wire protocol, the load generator, and the serial reference path all
//! share. A spec round-trips through [`CampaignSpec::to_line`] /
//! [`CampaignSpec::parse`] unchanged, so a client can replay the exact
//! request a reply was produced from.

use osn_gen::weights::WeightModel;
use osn_graph::NodeId;
use s3crm_bench::{Algorithm, Effort};
use s3crm_core::{EstimatorBackend, S3caConfig};

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
        let s3ca = S3caConfig::default();
        CampaignSpec {
            algorithm: Algorithm::S3ca,
            budget_mult: 1.0,
            limited_cap: s3crm_baselines::CouponStrategy::DROPBOX_CAP,
            estimator: EstimatorBackend::Mc,
            epsilon: s3ca.sketch_epsilon,
            delta: s3ca.sketch_delta,
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

/// Largest world count a request may name (`PROBE worlds=`, `CAMPAIGN
/// eval_worlds=`/`im_worlds=`), and the largest sketch world floor a
/// campaign's `epsilon=`/`delta=` may imply (the first round of a sketch
/// build samples that many worlds at once). Every distinct count samples a
/// world cache the daemon keeps resident, so the wire bounds it. It covers
/// every in-repo caller: benchmark probes send 1024, the campaign default
/// is 64, and the default ε = δ = 0.1 floors at 150 sketch worlds.
pub const MAX_WORLDS: usize = 4096;

fn check_worlds(key: &str, worlds: usize) -> Result<(), String> {
    if (1..=MAX_WORLDS).contains(&worlds) {
        Ok(())
    } else {
        Err(format!("{key} must be in 1..={MAX_WORLDS}, got {worlds}"))
    }
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
        let floor = spec.s3ca_config().sketch_params().world_floor();
        if floor > MAX_WORLDS {
            return Err(format!(
                "epsilon={} delta={} imply a {floor}-world sketch round, above {MAX_WORLDS}",
                spec.epsilon, spec.delta
            ));
        }
        check_worlds("eval_worlds", spec.eval_worlds)?;
        check_worlds("im_worlds", spec.im_worlds)?;
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

    /// The S3CA configuration this spec runs (the ID-only one for
    /// `s3ca-id`), carrying its sketch ε and δ.
    pub fn s3ca_config(&self) -> S3caConfig {
        let effort = self.effort();
        let cfg = if self.algorithm == Algorithm::S3caIdOnly {
            effort.s3ca_id_only()
        } else {
            effort.s3ca_config()
        };
        S3caConfig {
            sketch_epsilon: self.epsilon,
            sketch_delta: self.delta,
            ..cfg
        }
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
        let campaign = CampaignSpec::default();
        let mut spec = ProbeSpec {
            worlds: campaign.eval_worlds,
            seed: campaign.seed,
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
        check_worlds("worlds", spec.worlds)?;
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
            ("eval_worlds=4097", "eval_worlds"),
            ("im_worlds=4097", "im_worlds"),
            ("eval_worlds=1000000000", "eval_worlds"),
            // A sketch world floor above MAX_WORLDS: ⌈ln 20 / 2·10⁻⁴⌉ worlds.
            ("estimator=sketch epsilon=0.01", "epsilon"),
            ("epsilon=0.001 delta=0.5", "epsilon"),
            ("epsilon=1e-300", "epsilon"),
        ] {
            let err = CampaignSpec::parse(body).unwrap_err();
            assert!(err.starts_with(key), "CAMPAIGN {body}: {err}");
        }
        assert!(CampaignSpec::parse("eval_worlds=4096 im_worlds=4096").is_ok());
        // ε = 0.02 floors at 3,745 sketch worlds, under the cap.
        assert!(CampaignSpec::parse("estimator=sketch epsilon=0.02").is_ok());
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
        assert_eq!(ProbeSpec::parse("worlds=4096").unwrap().worlds, MAX_WORLDS);
        for body in ["worlds=4097", "worlds=1000000000 seeds=0"] {
            let err = ProbeSpec::parse(body).unwrap_err();
            assert!(err.starts_with("worlds"), "PROBE {body}: {err}");
        }
        // The wire defaults come from one source and keep their values.
        let d = ProbeSpec::parse("").unwrap();
        assert_eq!((d.worlds, d.seed), (64, 42));
        let c = CampaignSpec::default();
        assert_eq!(
            (c.epsilon, c.delta, c.eval_worlds, c.seed),
            (0.1, 0.1, 64, 42)
        );
    }

    /// SplitMix64 step: the deterministic stream behind the mutation test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Byte flips, truncations, and splices of valid `CAMPAIGN` and `PROBE`
    /// bodies never panic the parser, and every body it accepts satisfies
    /// the parse-time bounds.
    #[test]
    fn mutated_bodies_never_panic_and_accepted_specs_are_bounded() {
        let campaigns = [
            CampaignSpec::default().to_line(),
            "algo=s3ca budget=0.5 estimator=sketch epsilon=0.05 delta=0.2 eval_worlds=4096 \
             im_worlds=12 seed=77 weights=uniform:0.25"
                .to_string(),
            "algo=pm-l cap=3 budget=2 weights=trivalency".to_string(),
        ];
        let probes = [
            "worlds=1024 seed=9 seeds=0;3;5 coupons=2:1;7:3 weights=invdeg".to_string(),
            "worlds=4096 seeds=1 coupons=1:4".to_string(),
        ];
        let pool: Vec<&[u8]> = campaigns
            .iter()
            .chain(&probes)
            .map(|s| s.as_bytes())
            .collect();
        let mut rng = 0x5eed_u64;
        let mut accepted = 0;
        for round in 0..20_000 {
            let mut body = pool[round % pool.len()].to_vec();
            for _ in 0..1 + splitmix(&mut rng) % 3 {
                let r = splitmix(&mut rng);
                let at = (r >> 8) as usize % (body.len() + 1);
                match r % 4 {
                    // Flip one byte, biased toward printable ASCII so the
                    // key=value structure stays reachable.
                    0 | 1 if at < body.len() => {
                        body[at] = if r & 0x10 == 0 {
                            b"0123456789=.;:-e x"[(r >> 40) as usize % 18]
                        } else {
                            (r >> 40) as u8
                        };
                    }
                    2 => body.truncate(at),
                    // Splice in a slice of another valid body.
                    _ => {
                        let donor = pool[(r >> 32) as usize % pool.len()];
                        let from = (r >> 16) as usize % donor.len();
                        let len = (r >> 48) as usize % (donor.len() - from + 1);
                        body.splice(at..at, donor[from..from + len].iter().copied());
                    }
                }
            }
            let text = String::from_utf8_lossy(&body);
            if let Ok(c) = CampaignSpec::parse(&text) {
                accepted += 1;
                assert!(c.budget_mult.is_finite() && c.budget_mult > 0.0, "{text}");
                assert!(c.epsilon > 0.0 && c.epsilon < 1.0, "{text}");
                assert!(c.delta > 0.0 && c.delta < 1.0, "{text}");
                let floor = c.s3ca_config().sketch_params().world_floor();
                assert!(floor <= MAX_WORLDS, "{text}");
                assert!((1..=MAX_WORLDS).contains(&c.eval_worlds), "{text}");
                assert!((1..=MAX_WORLDS).contains(&c.im_worlds), "{text}");
            }
            if let Ok(p) = ProbeSpec::parse(&text) {
                accepted += 1;
                assert!((1..=MAX_WORLDS).contains(&p.worlds), "{text}");
            }
        }
        assert!(
            accepted > 100,
            "mutations too destructive: {accepted} accepted"
        );
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
