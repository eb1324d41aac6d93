//! `osn-fault` — deterministic, seed-keyed fault injection at labeled
//! sites.
//!
//! Production code marks interesting failure surfaces with *injection
//! points*: [`point`] for pure control-flow sites (panics, delays) and
//! [`io_point`] for I/O boundaries (injected `std::io::Error`s, plus
//! delays and panics). In a default build both compile to inlined no-ops —
//! no registry, no atomics, no branches — so shipping binaries carry zero
//! overhead. With the `fault-injection` cargo feature enabled, an installed
//! [`Plan`] decides, **deterministically**, which hits of which sites fire
//! which faults.
//!
//! # Spec grammar
//!
//! A plan is parsed from a whitespace-separated spec string:
//!
//! ```text
//! seed=42 serve.campaign.run=panic@1 serve.conn.write=ioerr:0.05 serve.conn.read=delay,20:0.25
//! ```
//!
//! Each non-`seed` token is `SITE=ACTION` where `ACTION` is
//!
//! | form | meaning |
//! |---|---|
//! | `panic` / `ioerr` / `delay,MS` | the fault kind (`delay` takes its duration in ms) |
//! | `…@N` | fire on exactly the `N`-th hit of the site (1-based), once |
//! | `…:P` | fire independently on each hit with probability `P` |
//! | neither | fire on every hit |
//!
//! `SITE` matches a point's label exactly, or as a prefix when it ends in
//! `*` (`serve.*=delay,5:0.1` slows every serve-side site).
//!
//! # Determinism
//!
//! Probabilistic rules draw nothing from ambient randomness: the decision
//! for hit `h` of site `s` is a pure function of `(seed, s, h)` (SplitMix64
//! over an FNV-1a site hash), and per-rule hit counters start at zero when
//! the plan is installed. Running the same faulted workload twice with the
//! same plan and the same request interleaving fires the same faults.
//! (Under concurrency the *assignment* of hits to threads follows the
//! race, but the fired-hit *set* per site is reproducible.)
//!
//! # Installing a plan
//!
//! * Daemons call [`install_from_env`] once at startup: it reads the
//!   `OSN_FAULTS` environment variable and installs the parsed plan for the
//!   process lifetime.
//! * Tests use `Scenario::new` (fault-enabled builds only), which
//!   serializes fault-enabled tests behind a process-wide gate (plans are
//!   process-global, so two tests must not overlap) and uninstalls the plan
//!   when the guard drops.
//!
//! This registry is deliberately process-global — it is a *test* facility,
//! compiled out of production builds, not a configuration channel; nothing
//! outside `#[cfg(feature = "fault-injection")]` code can observe it.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::Duration;

/// What an injection point does when its rule fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// Panic with a message naming the site. Only meaningful at sites the
    /// surrounding code isolates with `catch_unwind` (or expects to kill).
    Panic,
    /// Return an injected [`std::io::Error`] (kind `Other`). Ignored by
    /// [`point`] sites, which have no error channel.
    IoErr,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
}

/// When a rule fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Every hit of the site.
    Always,
    /// Exactly the `N`-th hit (1-based), once.
    Nth(u64),
    /// Each hit independently with this probability, keyed by
    /// `(seed, site, hit)`.
    Prob(f64),
}

/// One `SITE=ACTION` rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Site label; a trailing `*` makes it a prefix match.
    pub site: String,
    pub action: Action,
    pub trigger: Trigger,
}

impl Rule {
    /// Does this rule watch `site`? (Exact label, or prefix when the
    /// rule's site ends in `*`.)
    pub fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// A parsed fault plan: a seed plus an ordered rule list (first matching
/// rule wins per site hit).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Plan {
    pub seed: u64,
    pub rules: Vec<Rule>,
}

/// A spec string that failed to parse, with the offending token.
#[derive(Debug, PartialEq)]
pub struct ParseError {
    pub token: String,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault token {:?}: {}", self.token, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Plan {
    /// Parse the spec grammar documented at the crate root.
    pub fn parse(spec: &str) -> Result<Plan, ParseError> {
        let mut plan = Plan::default();
        for token in spec.split_whitespace() {
            let err = |message: String| ParseError {
                token: token.to_string(),
                message,
            };
            let (site, action) = token
                .split_once('=')
                .ok_or_else(|| err("expected SITE=ACTION".to_string()))?;
            if site == "seed" {
                plan.seed = action
                    .parse()
                    .map_err(|_| err(format!("seed wants an integer, got {action:?}")))?;
                continue;
            }
            if site.is_empty() {
                return Err(err("empty site label".to_string()));
            }
            // Split the trigger suffix off the action body.
            let (body, trigger) = if let Some((body, nth)) = action.split_once('@') {
                let n: u64 = nth
                    .parse()
                    .map_err(|_| err(format!("@N wants an integer, got {nth:?}")))?;
                if n == 0 {
                    return Err(err("@N is 1-based; @0 never fires".to_string()));
                }
                (body, Trigger::Nth(n))
            } else if let Some((body, prob)) = action.split_once(':') {
                let p: f64 = prob
                    .parse()
                    .map_err(|_| err(format!(":P wants a number, got {prob:?}")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(err(format!("probability {p} outside [0, 1]")));
                }
                (body, Trigger::Prob(p))
            } else {
                (action, Trigger::Always)
            };
            let action = match body.split_once(',') {
                Some(("delay", ms)) => {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| err(format!("delay,MS wants milliseconds, got {ms:?}")))?;
                    Action::Delay(Duration::from_millis(ms))
                }
                None if body == "panic" => Action::Panic,
                None if body == "ioerr" => Action::IoErr,
                None if body == "delay" => {
                    return Err(err("delay needs a duration: delay,MS".to_string()))
                }
                _ => return Err(err(format!("unknown action {body:?}"))),
            };
            plan.rules.push(Rule {
                site: site.to_string(),
                action,
                trigger,
            });
        }
        Ok(plan)
    }
}

/// FNV-1a over the site label — stable across runs and platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 — the standard finalizer; one call fully mixes the key.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic coin for hit `hit` of `site` under `seed`: true with
/// probability `p`.
pub fn coin(seed: u64, site: &str, hit: u64, p: f64) -> bool {
    let x = splitmix64(seed ^ fnv1a(site).wrapping_add(hit.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    // 53 uniform mantissa bits, the same construction rand uses.
    ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

#[cfg(feature = "fault-injection")]
mod active {
    use super::{coin, Action, Plan, Trigger};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// The installed plan plus one hit counter per site label.
    struct Installed {
        plan: Plan,
        /// Hit counters keyed by site label (not per rule: the counter
        /// advances once per hit even when several rules watch one site).
        hits: Mutex<std::collections::HashMap<String, Arc<AtomicU64>>>,
        /// `Nth` rules that already fired (index into `plan.rules`).
        fired: Mutex<std::collections::HashSet<usize>>,
    }

    static ACTIVE: Mutex<Option<Arc<Installed>>> = Mutex::new(None);
    /// Serializes fault-enabled tests: plans are process-global.
    static SCENARIO_GATE: Mutex<()> = Mutex::new(());

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn install(plan: Plan) {
        *lock(&ACTIVE) = Some(Arc::new(Installed {
            plan,
            hits: Mutex::new(std::collections::HashMap::new()),
            fired: Mutex::new(std::collections::HashSet::new()),
        }));
    }

    fn uninstall() {
        *lock(&ACTIVE) = None;
    }

    /// Decide what (if anything) fires for this hit of `site`.
    pub(super) fn decide(site: &str) -> Option<Action> {
        let installed = lock(&ACTIVE).clone()?;
        if !installed.plan.rules.iter().any(|r| r.matches(site)) {
            return None;
        }
        let counter = lock(&installed.hits)
            .entry(site.to_string())
            .or_default()
            .clone();
        let hit = counter.fetch_add(1, Ordering::SeqCst) + 1; // 1-based
        for (i, rule) in installed.plan.rules.iter().enumerate() {
            if !rule.matches(site) {
                continue;
            }
            let fires = match rule.trigger {
                Trigger::Always => true,
                Trigger::Nth(n) => hit == n && lock(&installed.fired).insert(i),
                Trigger::Prob(p) => coin(installed.plan.seed, site, hit, p),
            };
            if fires {
                return Some(rule.action);
            }
        }
        None
    }

    /// Hits recorded for `site` so far (0 when no plan is installed).
    pub(super) fn hits(site: &str) -> u64 {
        match lock(&ACTIVE).clone() {
            Some(installed) => lock(&installed.hits)
                .get(site)
                .map_or(0, |c| c.load(Ordering::SeqCst)),
            None => 0,
        }
    }

    /// RAII scenario for tests; see [`crate::Scenario`].
    pub struct Scenario {
        _gate: MutexGuard<'static, ()>,
    }

    impl Scenario {
        pub(super) fn setup(plan: Plan) -> Scenario {
            let gate = lock(&SCENARIO_GATE);
            install(plan);
            Scenario { _gate: gate }
        }
    }

    impl Drop for Scenario {
        fn drop(&mut self) {
            uninstall();
        }
    }

    pub(super) fn install_from_env() -> Result<bool, super::ParseError> {
        match std::env::var("OSN_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => {
                install(Plan::parse(&spec)?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

#[cfg(feature = "fault-injection")]
pub use active::Scenario;

/// A test-scoped fault plan (fault-enabled builds only).
///
/// [`Scenario::new`] parses the spec, takes a process-wide gate so
/// concurrent fault-enabled tests serialize, and installs the plan; the
/// plan is uninstalled when the guard drops (including on test panic).
#[cfg(feature = "fault-injection")]
impl Scenario {
    /// Install `spec` for the lifetime of the returned guard.
    ///
    /// # Panics
    /// On a malformed spec — tests want the typo, not a silent no-fault run.
    pub fn new(spec: &str) -> Scenario {
        Scenario::setup(Plan::parse(spec).expect("fault spec parses"))
    }
}

/// Install the plan from the `OSN_FAULTS` environment variable for the
/// process lifetime. Returns `Ok(true)` when a plan was installed,
/// `Ok(false)` when the variable is unset or empty.
///
/// In a default (feature-off) build this always returns `Ok(false)`.
pub fn install_from_env() -> Result<bool, ParseError> {
    #[cfg(feature = "fault-injection")]
    {
        active::install_from_env()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        Ok(false)
    }
}

/// Hits recorded for `site` (always 0 in a feature-off build). Lets tests
/// assert an injection point actually sat on the executed path.
pub fn hits(site: &str) -> u64 {
    #[cfg(feature = "fault-injection")]
    {
        active::hits(site)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        0
    }
}

/// A pure control-flow injection point: may sleep or panic, never errors.
/// `IoErr` rules are ignored here (the site has no error channel).
#[inline]
pub fn point(site: &str) {
    #[cfg(feature = "fault-injection")]
    match active::decide(site) {
        Some(Action::Panic) => panic!("injected fault: panic at {site}"),
        Some(Action::Delay(d)) => std::thread::sleep(d),
        Some(Action::IoErr) | None => {}
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
    }
}

/// An I/O-boundary injection point: may return an injected error, sleep,
/// or panic.
#[inline]
pub fn io_point(site: &str) -> std::io::Result<()> {
    #[cfg(feature = "fault-injection")]
    match active::decide(site) {
        Some(Action::IoErr) => {
            return Err(std::io::Error::other(format!(
                "injected fault: io error at {site}"
            )))
        }
        Some(Action::Panic) => panic!("injected fault: panic at {site}"),
        Some(Action::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_every_action_and_trigger_form() {
        let plan =
            Plan::parse("seed=7 a.b=panic@1 c.d=ioerr:0.25 e.f=delay,20 g.*=delay,5:0.5 h.i=panic")
                .expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 5);
        assert_eq!(plan.rules[0].trigger, Trigger::Nth(1));
        assert_eq!(plan.rules[1].action, Action::IoErr);
        assert_eq!(plan.rules[1].trigger, Trigger::Prob(0.25));
        assert_eq!(
            plan.rules[2].action,
            Action::Delay(Duration::from_millis(20))
        );
        assert_eq!(plan.rules[2].trigger, Trigger::Always);
        assert!(plan.rules[3].matches("g.anything"));
        assert!(!plan.rules[3].matches("h.anything"));
        assert_eq!(plan.rules[4].trigger, Trigger::Always);
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_offending_token() {
        for bad in [
            "a.b",             // no '='
            "a.b=explode",     // unknown action
            "a.b=panic@0",     // 0 never fires
            "a.b=ioerr:1.5",   // probability out of range
            "a.b=delay",       // delay without duration
            "a.b=delay,fast",  // non-numeric duration
            "seed=notanumber", // bad seed
            "=panic",          // empty site
        ] {
            let err = Plan::parse(bad).expect_err(bad);
            assert!(!err.token.is_empty(), "error for {bad:?} names no token");
        }
        assert_eq!(Plan::parse("").expect("empty spec"), Plan::default());
    }

    #[test]
    fn coin_is_deterministic_and_roughly_fair() {
        // Same key -> same outcome.
        for hit in 0..64 {
            assert_eq!(coin(9, "x.y", hit, 0.3), coin(9, "x.y", hit, 0.3));
        }
        // A 30% coin over 10k hits lands near 3k (deterministic sequence,
        // exact count pinned loosely).
        let fired = (0..10_000).filter(|&h| coin(42, "site", h, 0.3)).count();
        assert!((2_700..=3_300).contains(&fired), "fired {fired} of 10000");
        // Different sites decorrelate.
        let a: Vec<bool> = (0..64).map(|h| coin(1, "a", h, 0.5)).collect();
        let b: Vec<bool> = (0..64).map(|h| coin(1, "b", h, 0.5)).collect();
        assert_ne!(a, b, "site label does not key the stream");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn nth_trigger_fires_exactly_once_and_scenarios_uninstall() {
        let scenario = Scenario::new("x.y=panic@2");
        assert_eq!(hits("x.y"), 0);
        point("x.y"); // hit 1: no fire
        let caught = std::panic::catch_unwind(|| point("x.y")); // hit 2: fires
        assert!(caught.is_err(), "second hit must panic");
        point("x.y"); // hit 3: Nth rules fire once
        assert_eq!(hits("x.y"), 3);
        drop(scenario);
        point("x.y"); // no plan installed: no-op, no counter
        assert_eq!(hits("x.y"), 0);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn io_point_returns_injected_errors_and_unmatched_sites_pass() {
        let _scenario = Scenario::new("disk.read=ioerr@1");
        assert!(io_point("other.site").is_ok());
        let err = io_point("disk.read").expect_err("first hit errors");
        assert!(err.to_string().contains("disk.read"), "{err}");
        assert!(io_point("disk.read").is_ok(), "Nth fires once");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn prefix_rules_match_and_first_rule_wins() {
        let _scenario = Scenario::new("a.b=delay,1@1 a.*=ioerr");
        // Exact rule consumes hit 1 (delay), prefix rule the rest (ioerr).
        assert!(io_point("a.b").is_ok(), "hit 1 is the delay rule");
        assert!(io_point("a.b").is_err(), "hit 2 falls to the prefix rule");
        assert!(io_point("a.c").is_err(), "prefix matches sibling sites");
    }
}
