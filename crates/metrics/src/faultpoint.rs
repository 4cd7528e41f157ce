//! Deterministic, environment-driven fault injection.
//!
//! Long batch runs die in ways unit tests never exercise: a worker
//! panics three hours in, a trace write is cut short by `kill -9`, one
//! child of the `all` runner segfaults. This module lets tests and CI
//! trigger those failures **on purpose and reproducibly**, so every
//! degradation path in the suite is executable on demand.
//!
//! # Activation
//!
//! Faults are described by the `BRANCH_LAB_FAULTS` environment variable,
//! read once per process, at the first fault site reached; a value that
//! does not parse is refused whole (see [`crate::env`]). The syntax is a
//! comma-separated list of `site:action[@schedule]` entries:
//!
//! ```text
//! BRANCH_LAB_FAULTS=trace_store.save:fail@2,engine.task:panic@5..8,all.child.fig3:fail@25%
//! ```
//!
//! * `site` — a dot-separated name compiled into the code under test
//!   (e.g. `trace_store.save`, `engine.task`, `all.child.fig3`).
//! * `action` — `fail` (the site reports an injected failure) or
//!   `panic` (the site panics with an `"injected fault"` payload).
//! * `@schedule` — when the fault fires, as a function of the site's
//!   1-based per-process hit counter:
//!   * *(absent)* — every arrival;
//!   * `@n` — only the *n*-th arrival;
//!   * `@n..m` — arrivals *n* through *m* inclusive;
//!   * `@n..` — every arrival from *n* onward;
//!   * `@p%` — each arrival independently with probability *p*/100,
//!     decided by a hash of (`BRANCH_LAB_CHAOS_SEED`, site, hit number).
//!
//! # Determinism
//!
//! Each site keeps a per-process hit counter, and a spec fires as a pure
//! function of that count (probability schedules additionally mix in the
//! chaos seed — same seed, same firing hit numbers). Re-running the same
//! binary with the same environment and thread count replays the same
//! injections. (Sites reached from worker threads should be hit a
//! deterministic number of times per run — all current sites are; for
//! probability schedules the *set* of firing arrival indices is
//! deterministic even if thread scheduling reorders which task draws
//! them.)
//!
//! # Cost
//!
//! When `BRANCH_LAB_FAULTS` is unset (every production run), a fault
//! check is one relaxed atomic load and a predictable branch — no
//! locking, no allocation, no string work. Sites only pay for bookkeeping
//! when a plan is installed.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::env;

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// The instrumented site should behave as if the operation failed.
    Fail,
    /// The instrumented site panics (exercises panic-isolation paths).
    Panic,
}

/// When a spec fires, as a function of the site's 1-based hit counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum When {
    /// Every arrival (no `@` suffix).
    Always,
    /// Only the n-th arrival (`@n`).
    Nth(u64),
    /// Arrivals `from..=to`; `to == None` means "from `from` onward"
    /// (`@n..m` / `@n..`).
    Range {
        /// First firing arrival (1-based, inclusive).
        from: u64,
        /// Last firing arrival (inclusive), or open-ended.
        to: Option<u64>,
    },
    /// Each arrival independently with probability `percent`/100, decided
    /// by hashing (chaos seed, site, hit number) — deterministic per seed
    /// (`@p%`).
    Prob {
        /// Firing probability in percent, 1..=100.
        percent: u8,
    },
}

impl When {
    /// Whether a spec with this schedule fires on arrival `hit` (1-based)
    /// at `site` under `seed`.
    #[must_use]
    pub fn fires(&self, site: &str, hit: u64, seed: u64) -> bool {
        match *self {
            When::Always => true,
            When::Nth(n) => hit == n,
            When::Range { from, to } => hit >= from && to.is_none_or(|t| hit <= t),
            When::Prob { percent } => {
                let h = crate::fnv1a(crate::FNV_OFFSET ^ seed, site.as_bytes());
                (crate::fnv1a(h, &hit.to_le_bytes()) % 100) < u64::from(percent)
            }
        }
    }
}

/// One parsed `site:action[@schedule]` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Site name the spec arms.
    pub site: String,
    /// What happens when it fires.
    pub action: Action,
    /// Which arrivals it fires on.
    pub when: When,
}

impl fmt::Display for FaultSpec {
    /// Renders the spec in the exact syntax [`parse`] accepts, so
    /// `parse(spec.to_string())` round-trips (pinned by the faultpoint
    /// property tests).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let action = match self.action {
            Action::Fail => "fail",
            Action::Panic => "panic",
        };
        write!(f, "{}:{action}", self.site)?;
        match self.when {
            When::Always => Ok(()),
            When::Nth(n) => write!(f, "@{n}"),
            When::Range { from, to: Some(to) } => write!(f, "@{from}..{to}"),
            When::Range { from, to: None } => write!(f, "@{from}.."),
            When::Prob { percent } => write!(f, "@{percent}%"),
        }
    }
}

struct Plan {
    specs: Vec<FaultSpec>,
    seed: u64,
    hits: Mutex<HashMap<String, u64>>,
}

/// Fast-path switch: false until a non-empty plan is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: OnceLock<Mutex<Option<Plan>>> = OnceLock::new();

/// The chaos seed from the environment (`BRANCH_LAB_CHAOS_SEED`, default
/// 0; panics if it is malformed) — mixed into probability schedules and
/// retry-backoff jitter so a whole chaos run replays from one number.
#[must_use]
pub fn env_seed() -> u64 {
    env::CHAOS_SEED.get().unwrap_or(0)
}

fn plan_cell() -> &'static Mutex<Option<Plan>> {
    PLAN.get_or_init(|| {
        let plan = env::FAULTS.get().filter(|specs| !specs.is_empty()).map(|specs| Plan {
            specs,
            seed: env_seed(),
            hits: Mutex::new(HashMap::new()),
        });
        ACTIVE.store(plan.is_some(), Ordering::Release);
        Mutex::new(plan)
    })
}

/// Parses the schedule part after `@` (already split off).
fn parse_when(entry: &str, sched: &str) -> Result<When, String> {
    if let Some(p) = sched.strip_suffix('%') {
        let percent: u8 = p
            .parse()
            .ok()
            .filter(|&p| (1..=100).contains(&p))
            .ok_or_else(|| format!("`{entry}`: `@{sched}` must be 1..=100 percent"))?;
        return Ok(When::Prob { percent });
    }
    if let Some((from, to)) = sched.split_once("..") {
        let from: u64 = from
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("`{entry}`: range start in `@{sched}` must be a positive integer"))?;
        let to = if to.is_empty() {
            None
        } else {
            let t: u64 = to
                .parse()
                .ok()
                .filter(|&t| t >= from)
                .ok_or_else(|| {
                    format!("`{entry}`: range end in `@{sched}` must be an integer >= {from}")
                })?;
            Some(t)
        };
        return Ok(When::Range { from, to });
    }
    let n: u64 = sched
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("`{entry}`: `@{sched}` must be a positive integer"))?;
    Ok(When::Nth(n))
}

/// Parses a `BRANCH_LAB_FAULTS` value into fault specs.
///
/// # Errors
///
/// Returns a human-readable message for a malformed entry; the whole
/// value is rejected so a typo cannot half-arm a test.
pub fn parse(raw: &str) -> Result<Vec<FaultSpec>, String> {
    let mut specs = Vec::new();
    for entry in raw.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, rest) = entry
            .rsplit_once(':')
            .ok_or_else(|| format!("`{entry}` is missing `:action`"))?;
        let (action_str, when) = match rest.split_once('@') {
            Some((a, sched)) => (a, parse_when(entry, sched)?),
            None => (rest, When::Always),
        };
        let action = match action_str {
            "fail" => Action::Fail,
            "panic" => Action::Panic,
            other => return Err(format!("`{entry}`: unknown action `{other}` (use fail|panic)")),
        };
        if site.is_empty() {
            return Err(format!("`{entry}` has an empty site name"));
        }
        specs.push(FaultSpec { site: site.to_string(), action, when });
    }
    Ok(specs)
}

/// Registers one arrival at `site` and returns the action of a fault
/// that fires now, if any. The no-plan fast path is a single atomic
/// load.
#[must_use]
pub fn hit(site: &str) -> Option<Action> {
    if !ACTIVE.load(Ordering::Acquire) && PLAN.get().is_some() {
        return None; // plan resolved to "no faults": steady-state fast path
    }
    let cell = plan_cell();
    let guard = cell.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = guard.as_ref()?;
    let mut hits = plan.hits.lock().unwrap_or_else(PoisonError::into_inner);
    let count = hits.entry(site.to_string()).or_insert(0);
    *count += 1;
    let now = *count;
    drop(hits);
    plan.specs
        .iter()
        .find(|s| s.site == site && s.when.fires(site, now, plan.seed))
        .map(|s| s.action)
}

/// True when a `fail` fault fires at `site` on this arrival.
///
/// Instrumented code treats `true` as "the operation failed" and takes
/// its error path.
#[must_use]
pub fn should_fail(site: &str) -> bool {
    hit(site) == Some(Action::Fail)
}

/// Panics when a `panic` fault fires at `site` on this arrival.
///
/// # Panics
///
/// Panics with an `injected fault` payload when armed — that is its job.
pub fn panic_point(site: &str) {
    if hit(site) == Some(Action::Panic) {
        panic!("injected fault: panic at {site}");
    }
}

/// Installs (or clears, with `None`) a fault plan programmatically,
/// bypassing the environment: `seed` is the chaos seed of its probability
/// schedules, so a test's schedule does not depend on the environment.
/// Returns the previous plan's specs.
///
/// Intended for tests: fault state is process-global, so tests that use
/// this must serialize themselves (e.g. behind a shared `Mutex`).
///
/// # Panics
///
/// Panics if `spec` does not parse — a test asking for a malformed plan
/// is a bug in the test.
pub fn install_for_tests(spec: Option<&str>, seed: u64) -> Vec<FaultSpec> {
    let cell = plan_cell();
    let mut guard = cell.lock().unwrap_or_else(PoisonError::into_inner);
    let old = guard.take().map(|p| p.specs).unwrap_or_default();
    *guard = spec.map(|raw| {
        let specs = parse(raw).expect("test fault spec must parse");
        Plan { specs, seed, hits: Mutex::new(HashMap::new()) }
    });
    ACTIVE.store(guard.is_some(), Ordering::Release);
    old
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let specs = parse(
            "trace_store.save:fail@2, engine.task:panic@5,all.child.fig3:fail,\
             s.range:fail@3..7,s.open:panic@9..,s.prob:fail@25%",
        )
        .expect("parses");
        assert_eq!(
            specs,
            vec![
                FaultSpec {
                    site: "trace_store.save".into(),
                    action: Action::Fail,
                    when: When::Nth(2)
                },
                FaultSpec { site: "engine.task".into(), action: Action::Panic, when: When::Nth(5) },
                FaultSpec { site: "all.child.fig3".into(), action: Action::Fail, when: When::Always },
                FaultSpec {
                    site: "s.range".into(),
                    action: Action::Fail,
                    when: When::Range { from: 3, to: Some(7) }
                },
                FaultSpec {
                    site: "s.open".into(),
                    action: Action::Panic,
                    when: When::Range { from: 9, to: None }
                },
                FaultSpec { site: "s.prob".into(), action: Action::Fail, when: When::Prob { percent: 25 } },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        assert!(parse("noaction").is_err());
        assert!(parse("site:explode").is_err());
        assert!(parse("site:fail@0").is_err());
        assert!(parse("site:fail@x").is_err());
        assert!(parse(":fail").is_err());
        assert!(parse("site:fail@0..5").is_err());
        assert!(parse("site:fail@5..3").is_err());
        assert!(parse("site:fail@..5").is_err());
        assert!(parse("site:fail@0%").is_err());
        assert!(parse("site:fail@101%").is_err());
        assert!(parse("site:fail@x%").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for raw in ["a.b:fail", "a.b:panic@7", "a.b:fail@2..9", "a.b:panic@4..", "a.b:fail@60%"] {
            let specs = parse(raw).expect("parses");
            assert_eq!(specs.len(), 1);
            assert_eq!(specs[0].to_string(), raw);
            assert_eq!(parse(&specs[0].to_string()).expect("round-trip"), specs);
        }
    }

    #[test]
    fn counted_faults_fire_exactly_on_the_nth_hit() {
        let _g = lock();
        install_for_tests(Some("s.a:fail@3"), 0);
        assert_eq!(hit("s.a"), None);
        assert_eq!(hit("s.a"), None);
        assert_eq!(hit("s.a"), Some(Action::Fail));
        assert_eq!(hit("s.a"), None, "fires only on the exact hit");
        assert_eq!(hit("s.other"), None, "unarmed sites never fire");
        install_for_tests(None, 0);
    }

    #[test]
    fn range_faults_fire_across_their_window() {
        let _g = lock();
        install_for_tests(Some("s.r:fail@2..3"), 0);
        assert_eq!(hit("s.r"), None);
        assert_eq!(hit("s.r"), Some(Action::Fail));
        assert_eq!(hit("s.r"), Some(Action::Fail));
        assert_eq!(hit("s.r"), None, "past the window");
        install_for_tests(Some("s.o:fail@3.."), 0);
        assert_eq!(hit("s.o"), None);
        assert_eq!(hit("s.o"), None);
        for _ in 0..5 {
            assert_eq!(hit("s.o"), Some(Action::Fail), "open-ended tail");
        }
        install_for_tests(None, 0);
    }

    #[test]
    fn probability_faults_are_seed_deterministic() {
        let _g = lock();
        let draw = |seed: u64| -> Vec<bool> {
            install_for_tests(Some("s.p:fail@40%"), seed);
            (0..64).map(|_| hit("s.p").is_some()).collect()
        };
        let a = draw(7);
        let b = draw(7);
        assert_eq!(a, b, "same seed replays the same schedule");
        let c = draw(8);
        assert_ne!(a, c, "different seed draws a different schedule");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..=40).contains(&fired), "~40% of 64 arrivals, got {fired}");
        install_for_tests(None, 0);
    }

    #[test]
    fn uncounted_faults_fire_every_hit_and_sites_are_independent() {
        let _g = lock();
        install_for_tests(Some("s.b:panic"), 0);
        for _ in 0..3 {
            assert_eq!(hit("s.b"), Some(Action::Panic));
        }
        assert_eq!(hit("s.c"), None);
        install_for_tests(None, 0);
        assert_eq!(hit("s.b"), None, "cleared plan disarms everything");
    }

    #[test]
    fn panic_point_panics_with_injected_payload() {
        let _g = lock();
        install_for_tests(Some("s.d:panic@1"), 0);
        let err = std::panic::catch_unwind(|| panic_point("s.d")).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault"), "{msg}");
        panic_point("s.d"); // second hit: disarmed
        install_for_tests(None, 0);
    }
}
