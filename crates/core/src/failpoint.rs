//! Deterministic fault injection for resilience testing.
//!
//! DeepContext's failure modes — a stalled directory bind or snapshot
//! fold, a flaky profile-store disk — must be *injectable and
//! regression-tested*, not discovered in production. This module is the
//! no-new-deps harness: a [`Failpoints`] registry parsed from a compact
//! spec string, checked at named injection sites across the workspace.
//! When no spec is set the registry is empty and every check is a single
//! `is_empty()` branch — the harness compiles to a no-op in practice.
//!
//! # Spec grammar
//!
//! A spec is a `;`-separated list of `name@trigger` clauses:
//!
//! | trigger       | behaviour                                              |
//! |---------------|--------------------------------------------------------|
//! | `first`       | fires on the 1st check of the site only                |
//! | `<N>`         | fires on the Nth check only (1-based)                  |
//! | `every<N>`    | fires on every Nth check                               |
//! | `shard<K>`    | fires on every check whose site argument equals `K`    |
//! | `always`      | fires on every check                                   |
//! | `p<F>`        | fires independently with probability `F` (seeded PRNG) |
//!
//! Example: `fold_stall@3;store_io_err@first;dir_bind_stall@shard2`.
//!
//! The `DEEPCONTEXT_FAILPOINTS` environment variable only *seeds*
//! registries: every [`from_env`] call parses the spec into a registry of
//! its own, so two profilers (or two stores) in one process count their
//! own hits and fires ([`Failpoints::hits`], [`Failpoints::fired`]).
//! Probabilistic triggers draw from a per-point xorshift64* stream seeded
//! by `DEEPCONTEXT_FAILPOINT_SEED`, so a run is reproducible from its
//! spec + seed alone. A malformed
//! clause, a site outside [`sites::ALL`] or an unparseable seed makes
//! [`from_env`] panic with the variable and the culprit named, rather
//! than quietly inject nothing. Tests construct
//! registries with [`Failpoints::parse`] and thread them through
//! configuration (e.g. `PipelineConfig::failpoints`) instead of mutating
//! the process environment.
//!
//! What *happens* when a point fires is decided by the site, not the
//! spec: the store read/write sites synthesize a transient
//! [`std::io::Error`] (via [`Failpoints::io_error`]), the directory-bind /
//! snapshot-fold sites stall briefly (via [`Failpoints::stall_at`]) to
//! shake out timing assumptions.
//!
//! [`from_env`]: Failpoints::from_env

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Well-known injection-site names, so call sites and CI specs agree on
/// spelling.
pub mod sites {
    /// Correlation-directory bind (fires → brief stall).
    pub const DIR_BIND_STALL: &str = "dir_bind_stall";
    /// Incremental snapshot fold (fires → brief stall).
    pub const FOLD_STALL: &str = "fold_stall";
    /// `ProfileStore` write path (fires → synthetic transient IO error).
    pub const STORE_IO_ERR: &str = "store_io_err";
    /// `ProfileStore` read path (fires → synthetic transient IO error).
    pub const STORE_READ_ERR: &str = "store_read_err";

    /// Every site above: the names an environment spec may use.
    pub const ALL: [&str; 4] = [DIR_BIND_STALL, FOLD_STALL, STORE_IO_ERR, STORE_READ_ERR];
}

/// How long [`Failpoints::stall_at`] sleeps when its point fires: long
/// enough to perturb scheduling, short enough that a CI matrix run
/// barely notices.
const STALL: Duration = Duration::from_micros(200);

/// Default PRNG seed for probabilistic triggers when
/// `DEEPCONTEXT_FAILPOINT_SEED` is unset (the golden-ratio constant —
/// an arbitrary, documented, reproducible choice).
const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug)]
enum Trigger {
    First,
    Nth(u64),
    EveryNth(u64),
    Shard(u64),
    Always,
    Prob(f64),
}

#[derive(Debug)]
struct Point {
    name: String,
    trigger: Trigger,
    /// Checks observed at this point (fired or not).
    hits: AtomicU64,
    /// Times the point actually fired.
    fired: AtomicU64,
    /// Per-point xorshift64* state for `Trigger::Prob`.
    rng: AtomicU64,
}

/// A parsed fault-injection registry. Cloning is cheap (an `Arc` bump)
/// and clones share hit/fired counters, so a test can keep a handle to
/// the registry it injected and observe how often each point tripped.
#[derive(Debug, Clone)]
pub struct Failpoints {
    points: Arc<Vec<Point>>,
}

impl PartialEq for Failpoints {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.points, &other.points)
    }
}

impl Eq for Failpoints {}

impl Default for Failpoints {
    fn default() -> Self {
        Failpoints::disabled()
    }
}

/// splitmix64: expands a seed into well-distributed per-point initial
/// PRNG states.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Failpoints {
    /// The empty registry: every check is one `is_empty()` branch.
    pub fn disabled() -> Failpoints {
        Failpoints {
            points: Arc::new(Vec::new()),
        }
    }

    /// Parses a spec with the default seed. See the [module docs](self)
    /// for the grammar; returns a human-readable error for a malformed
    /// clause.
    pub fn parse(spec: &str) -> Result<Failpoints, String> {
        Failpoints::parse_with_seed(spec, DEFAULT_SEED)
    }

    /// Parses a spec, seeding each probabilistic point's PRNG stream
    /// from `seed` (mixed per point, so `p`-triggers on different names
    /// draw independent streams).
    pub fn parse_with_seed(spec: &str, seed: u64) -> Result<Failpoints, String> {
        let mut points = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, trigger) = clause
                .split_once('@')
                .ok_or_else(|| format!("failpoint clause `{clause}` is missing `@trigger`"))?;
            let name = name.trim();
            if name.is_empty() {
                return Err(format!("failpoint clause `{clause}` has an empty name"));
            }
            let trigger = parse_trigger(trigger.trim())
                .ok_or_else(|| format!("failpoint clause `{clause}` has an invalid trigger"))?;
            let rng = splitmix64(seed ^ splitmix64(points.len() as u64 + 1)).max(1);
            points.push(Point {
                name: name.to_string(),
                trigger,
                hits: AtomicU64::new(0),
                fired: AtomicU64::new(0),
                rng: AtomicU64::new(rng),
            });
        }
        Ok(Failpoints {
            points: Arc::new(points),
        })
    }

    /// A fresh registry parsed from `DEEPCONTEXT_FAILPOINTS`
    /// (+ `DEEPCONTEXT_FAILPOINT_SEED`): the environment is read once per
    /// process, the spec is parsed once per call, so every caller counts
    /// its own hits and fires.
    ///
    /// # Panics
    ///
    /// On a spec that does not say what it was meant to — a malformed
    /// clause, a site name outside [`sites::ALL`], an unparseable seed —
    /// with a message naming the variable and the bad clause or value.
    /// Injection is opt-in test infrastructure: a typo that silently
    /// disabled it would make a fault-injection run test nothing.
    pub fn from_env() -> Failpoints {
        static SPEC: OnceLock<Result<(String, u64), String>> = OnceLock::new();
        let spec = SPEC.get_or_init(|| {
            let spec = std::env::var("DEEPCONTEXT_FAILPOINTS").unwrap_or_default();
            let seed = std::env::var("DEEPCONTEXT_FAILPOINT_SEED").ok();
            env_spec(&spec, seed.as_deref()).map(|seed| (spec, seed))
        });
        match spec {
            Ok((spec, seed)) => {
                Failpoints::parse_with_seed(spec, *seed).expect("checked when first read")
            }
            Err(error) => panic!("{error}"),
        }
    }

    /// Whether any point is registered. The negative is the hot-path
    /// guard every injection site starts with.
    pub fn is_active(&self) -> bool {
        !self.points.is_empty()
    }

    /// Checks the named point with no site argument. `shard`-triggered
    /// points never fire through this entry.
    pub fn should_fire(&self, name: &str) -> bool {
        self.check(name, None)
    }

    /// Checks the named point at a numbered site (a shard index) — the
    /// entry `shard<K>` triggers match against.
    pub fn should_fire_at(&self, name: &str, site: u64) -> bool {
        self.check(name, Some(site))
    }

    /// Checks + fires-as-a-stall: sleeps a few hundred microseconds when
    /// the point trips. The convenience wrapper for timing-perturbation
    /// sites (directory bind, snapshot fold).
    pub fn stall_at(&self, name: &str, site: u64) {
        if self.should_fire_at(name, site) {
            std::thread::sleep(STALL);
        }
    }

    /// Checks + fires-as-an-IO-error: returns a synthetic *transient*
    /// ([`std::io::ErrorKind::Interrupted`]) error when the point trips.
    /// The convenience wrapper for store read/write sites.
    pub fn io_error(&self, name: &str) -> Option<std::io::Error> {
        self.should_fire(name).then(|| {
            std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("failpoint: {name}"),
            )
        })
    }

    /// Checks observed at the named point so far (fired or not); `0`
    /// for an unregistered name.
    pub fn hits(&self, name: &str) -> u64 {
        self.find(name)
            .map(|p| p.hits.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Times the named point has actually fired; `0` for an
    /// unregistered name.
    pub fn fired(&self, name: &str) -> u64 {
        self.find(name)
            .map(|p| p.fired.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    fn find(&self, name: &str) -> Option<&Point> {
        // Linear scan: registries hold a handful of points and the
        // active path is gated by `is_active` anyway.
        self.points.iter().find(|p| p.name == name)
    }

    fn check(&self, name: &str, site: Option<u64>) -> bool {
        if self.points.is_empty() {
            return false;
        }
        let Some(point) = self.find(name) else {
            return false;
        };
        let hit = point.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match point.trigger {
            Trigger::First => hit == 1,
            Trigger::Nth(n) => hit == n,
            Trigger::EveryNth(n) => hit % n == 0,
            Trigger::Shard(k) => site == Some(k),
            Trigger::Always => true,
            Trigger::Prob(p) => {
                // xorshift64*: race on the state only interleaves the
                // stream, it never degenerates it.
                let mut x = point.rng.load(Ordering::Relaxed);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                point.rng.store(x, Ordering::Relaxed);
                let draw =
                    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                draw < p
            }
        };
        if fire {
            point.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

/// Checks a spec and a seed as [`Failpoints::from_env`] reads them from
/// the environment and returns the seed: every clause must parse and
/// name a site in [`sites::ALL`], and a set seed must be a `u64`. The
/// error names the variable and the clause or value at fault.
fn env_spec(spec: &str, seed: Option<&str>) -> Result<u64, String> {
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        Failpoints::parse(clause).map_err(|error| format!("DEEPCONTEXT_FAILPOINTS: {error}"))?;
        let (name, _) = clause.split_once('@').expect("a parsed clause has `@`");
        if !sites::ALL.contains(&name.trim()) {
            return Err(format!(
                "DEEPCONTEXT_FAILPOINTS: failpoint clause `{clause}` names no site; the sites are {}",
                sites::ALL.join(", ")
            ));
        }
    }
    match seed {
        None => Ok(DEFAULT_SEED),
        Some(seed) => seed.trim().parse().map_err(|_| {
            format!("DEEPCONTEXT_FAILPOINT_SEED: `{seed}` is not an unsigned 64-bit integer")
        }),
    }
}

fn parse_trigger(trigger: &str) -> Option<Trigger> {
    if trigger.eq_ignore_ascii_case("first") {
        return Some(Trigger::First);
    }
    if trigger.eq_ignore_ascii_case("always") {
        return Some(Trigger::Always);
    }
    if let Some(rest) = trigger.strip_prefix("every") {
        let n = rest.trim().parse::<u64>().ok()?;
        return (n > 0).then_some(Trigger::EveryNth(n));
    }
    if let Some(rest) = trigger.strip_prefix("shard") {
        return Some(Trigger::Shard(rest.trim().parse::<u64>().ok()?));
    }
    if let Some(rest) = trigger.strip_prefix('p') {
        let p = rest.trim().parse::<f64>().ok()?;
        return (0.0..=1.0).contains(&p).then_some(Trigger::Prob(p));
    }
    let n = trigger.parse::<u64>().ok()?;
    (n > 0).then_some(Trigger::Nth(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_fires_and_counts_nothing() {
        let fp = Failpoints::disabled();
        assert!(!fp.is_active());
        assert!(!fp.should_fire(sites::FOLD_STALL));
        assert!(!fp.should_fire_at(sites::DIR_BIND_STALL, 2));
        assert_eq!(fp.hits(sites::FOLD_STALL), 0);
    }

    #[test]
    fn first_and_nth_triggers_fire_exactly_once() {
        let fp = Failpoints::parse("a@first;b@3").unwrap();
        assert!(fp.is_active());
        let a: Vec<bool> = (0..5).map(|_| fp.should_fire("a")).collect();
        assert_eq!(a, [true, false, false, false, false]);
        let b: Vec<bool> = (0..5).map(|_| fp.should_fire("b")).collect();
        assert_eq!(b, [false, false, true, false, false]);
        assert_eq!(fp.hits("a"), 5);
        assert_eq!(fp.fired("a"), 1);
        assert_eq!(fp.fired("b"), 1);
    }

    #[test]
    fn every_and_always_triggers_repeat() {
        let fp = Failpoints::parse("a@every2;b@always").unwrap();
        let a: Vec<bool> = (0..4).map(|_| fp.should_fire("a")).collect();
        assert_eq!(a, [false, true, false, true]);
        assert!((0..4).all(|_| fp.should_fire("b")));
    }

    #[test]
    fn shard_trigger_matches_the_site_argument_only() {
        let fp = Failpoints::parse("stall@shard2").unwrap();
        assert!(!fp.should_fire_at("stall", 0));
        assert!(fp.should_fire_at("stall", 2));
        assert!(fp.should_fire_at("stall", 2));
        // No site argument: a shard trigger cannot match.
        assert!(!fp.should_fire("stall"));
    }

    #[test]
    fn probabilistic_trigger_is_seed_reproducible() {
        let draws = |seed| {
            let fp = Failpoints::parse_with_seed("p@p0.5", seed).unwrap();
            (0..64).map(|_| fp.should_fire("p")).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7), "same seed, same stream");
        assert_ne!(draws(7), draws(8), "different seed, different stream");
        let fired = draws(7).iter().filter(|f| **f).count();
        assert!((8..56).contains(&fired), "p0.5 of 64: got {fired}");
    }

    #[test]
    fn unknown_names_are_inert_even_in_an_active_registry() {
        let fp = Failpoints::parse("a@always").unwrap();
        assert!(!fp.should_fire("zzz"));
        assert_eq!(fp.hits("zzz"), 0);
    }

    #[test]
    fn io_error_helper_is_transient_and_named() {
        let fp = Failpoints::parse("store_io_err@first").unwrap();
        let err = fp.io_error(sites::STORE_IO_ERR).expect("fires first");
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        assert!(err.to_string().contains("store_io_err"));
        assert!(fp.io_error(sites::STORE_IO_ERR).is_none());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in ["a", "@always", "a@", "a@p1.5", "a@every0", "a@0"] {
            assert!(Failpoints::parse(bad).is_err(), "{bad} should not parse");
        }
        // Empty / whitespace specs are the disabled registry.
        assert!(!Failpoints::parse("").unwrap().is_active());
        assert!(!Failpoints::parse(" ; ").unwrap().is_active());
    }

    #[test]
    fn env_specs_name_known_sites_and_a_numeric_seed() {
        assert_eq!(env_spec("", None), Ok(DEFAULT_SEED));
        assert_eq!(
            env_spec(" store_io_err@first ; fold_stall@every2 ;", Some(" 7 ")),
            Ok(7)
        );
        let error = |spec, seed| env_spec(spec, seed).unwrap_err();
        let malformed = error("fold_stall@first;store_io_err@sometimes", None);
        assert!(
            malformed.starts_with("DEEPCONTEXT_FAILPOINTS: "),
            "{malformed}"
        );
        assert!(
            malformed.contains("`store_io_err@sometimes`"),
            "{malformed}"
        );
        let unknown = error("fold_stall@first; fold_stal@3", None);
        assert!(unknown.starts_with("DEEPCONTEXT_FAILPOINTS: "), "{unknown}");
        assert!(unknown.contains("`fold_stal@3`"), "{unknown}");
        assert!(unknown.contains("dir_bind_stall, fold_stall"), "{unknown}");
        let seed = error("fold_stall@first", Some("0x2a"));
        assert!(seed.starts_with("DEEPCONTEXT_FAILPOINT_SEED: "), "{seed}");
        assert!(seed.contains("`0x2a`"), "{seed}");
    }

    #[test]
    fn clones_share_counters() {
        let fp = Failpoints::parse("a@always").unwrap();
        let clone = fp.clone();
        assert_eq!(fp, clone);
        assert!(clone.should_fire("a"));
        assert_eq!(fp.fired("a"), 1);
        assert_ne!(fp, Failpoints::parse("a@always").unwrap());
    }
}
