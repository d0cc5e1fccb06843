//! Deterministic fault injection and cooperative cancellation.
//!
//! A tool is only as robust as the faults it has actually been
//! exercised against. This crate provides two primitives:
//!
//! * **Named fault points** ([`hit`]): each stands for a failure the
//!   real system can have — a socket read or write that fails, an
//!   `accept(2)` out of descriptors, a metrics write that fails, a bug
//!   that panics, a body that runs slow. An installed [`FaultPlan`] of
//!   explicit rules (`proto.write@2=io;unit.solve@*=delay:10`) says
//!   which hits fail. `hit` acts out a `panic` or a `delay` itself and
//!   returns the error an `io` or `fd-exhausted` fault stands for, so
//!   the call site handles an injected failure in the arm that handles
//!   the real one.
//! * **Cooperative cancellation** ([`cancel`]): a per-thread deadline
//!   token that long-running loops (the engine's per-expression work
//!   accounting, the solver's worklist) poll cheaply. A `cquald`
//!   request that blows its wall-clock deadline unwinds through the
//!   existing fault-isolation paths instead of hanging the daemon.
//!
//! When no plan is installed the whole machinery is a single relaxed
//! atomic load per fault point — cheap enough to leave compiled into
//! release binaries, which is the point: the *production* code paths
//! are the ones being tested, not a shadow build.
//!
//! The installed plan is process-global: a point hit on any thread
//! sees it.

pub mod cancel;

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// `errno` for a process out of file descriptors (Linux and macOS):
/// what `accept(2)` fails with, and what an injected `fd-exhausted`
/// fails with.
pub const EMFILE: i32 = 24;

/// What an armed fault point should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// The site's call fails with an I/O error.
    Io,
    /// The process is out of descriptors: the call fails with EMFILE,
    /// as `accept(2)` does.
    FdExhausted,
    /// Panic, as a bug would.
    Panic,
    /// Stall for this many milliseconds (drives deadline handling).
    Delay(u64),
}

impl FaultKind {
    fn parse(s: &str) -> Result<FaultKind, String> {
        match s.split_once(':') {
            None if s == "io" => Ok(FaultKind::Io),
            None if s == "fd-exhausted" => Ok(FaultKind::FdExhausted),
            None if s == "panic" => Ok(FaultKind::Panic),
            None if s == "delay" => Ok(FaultKind::Delay(20)),
            Some(("delay", ms)) => ms
                .parse()
                .map(FaultKind::Delay)
                .map_err(|_| format!("bad delay milliseconds: {ms:?}")),
            _ => Err(format!(
                "unknown fault kind {s:?} (want io, fd-exhausted, panic, delay[:MS])"
            )),
        }
    }
}

/// Which hits of a point a rule arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occurrence {
    /// Exactly the n-th hit (1-based).
    Nth(u64),
    /// Every hit.
    Every,
}

/// One explicit injection rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rule {
    /// The fault-point name, or a prefix ending in `*`.
    point: String,
    occurrence: Occurrence,
    kind: FaultKind,
}

impl Rule {
    fn matches(&self, point: &str, hit: u64) -> bool {
        let name_ok = match self.point.strip_suffix('*') {
            Some(prefix) => point.starts_with(prefix),
            None => self.point == point,
        };
        name_ok
            && match self.occurrence {
                Occurrence::Nth(n) => hit == n,
                Occurrence::Every => true,
            }
    }
}

/// A deterministic injection schedule: explicit rules such as "the 2nd
/// `metrics.write` fails with an I/O error". The same plan injects the
/// same faults at the same hits of each point, every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Parses a plan specification.
    ///
    /// Grammar, `;`-separated (`,` also accepted):
    ///
    /// ```text
    /// spec   := rule (';' rule)*
    /// rule   := point '@' occ '=' kind
    /// point  := dotted name, '*' suffix matches a prefix
    /// occ    := decimal hit number (1-based) | '*'
    /// kind   := 'io' | 'fd-exhausted' | 'panic' | 'delay' [':' ms]
    /// ```
    ///
    /// Example: `metrics.write@2=io;unit.solve@*=delay:10`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming a malformed clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split([';', ',']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (target, kind) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause {clause:?} has no `=`"))?;
            let (point, occ) = target
                .split_once('@')
                .ok_or_else(|| format!("clause {clause:?} has no `@` occurrence"))?;
            if point.is_empty() {
                return Err(format!("clause {clause:?} names no fault point"));
            }
            let occurrence = if occ == "*" {
                Occurrence::Every
            } else {
                Occurrence::Nth(
                    occ.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad occurrence {occ:?} (want 1-based index or `*`)"))?,
                )
            };
            plan.rules.push(Rule {
                point: point.to_owned(),
                occurrence,
                kind: FaultKind::parse(kind)?,
            });
        }
        Ok(plan)
    }

    /// Whether this plan can inject anything at all.
    fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The first rule arming this hit wins.
    fn decide(&self, point: &str, hit: u64) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| r.matches(point, hit))
            .map(|r| r.kind)
    }
}

/// Global injection state: the plan and per-point hit counters.
struct State {
    plan: FaultPlan,
    hits: HashMap<String, u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<Option<State>> {
    static STATE: OnceLock<Mutex<Option<State>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn lock_state() -> MutexGuard<'static, Option<State>> {
    // A panicking fault point (that is the job description) may poison
    // this lock; the state itself is always consistent.
    state().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan` process-wide, resetting hit counters. An empty plan
/// disables injection entirely.
pub fn install(plan: FaultPlan) {
    let mut g = lock_state();
    ENABLED.store(!plan.is_empty(), Ordering::Relaxed);
    *g = Some(State {
        plan,
        hits: HashMap::new(),
    });
}

/// Installs the plan `QUAL_FAULT_PLAN` holds (a [`FaultPlan::parse`]
/// spec), if it is set.
///
/// # Errors
///
/// Propagates the [`FaultPlan::parse`] message.
pub fn install_from_env() -> Result<(), String> {
    if let Ok(spec) = std::env::var("QUAL_FAULT_PLAN") {
        install(FaultPlan::parse(&spec)?);
    }
    Ok(())
}

/// The heart of the crate: records a hit of `point` and acts out the
/// fault armed there, if any. `io` returns an I/O error and
/// `fd-exhausted` the EMFILE error `accept(2)` returns; a site that
/// stands for a failing call fails with it. `delay` sleeps (clamped to
/// 200 ms) and returns `Ok`. With no plan installed this is one relaxed
/// atomic load.
///
/// # Errors
///
/// The injected error, when the plan arms `io` or `fd-exhausted` here.
///
/// # Panics
///
/// When the plan arms `panic` here: the simulated bug, for the
/// supervision boundary around the site to contain.
pub fn hit(point: &str) -> io::Result<()> {
    if !ENABLED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let decision = {
        let mut g = lock_state();
        let Some(st) = g.as_mut() else {
            return Ok(());
        };
        let n = st.hits.entry(point.to_owned()).or_insert(0);
        *n += 1;
        st.plan.decide(point, *n)
    };
    match decision {
        None => Ok(()),
        Some(FaultKind::Io) => Err(io::Error::other(format!("injected fault at {point}"))),
        Some(FaultKind::FdExhausted) => Err(io::Error::from_raw_os_error(EMFILE)),
        Some(FaultKind::Panic) => panic!("injected panic at {point}"),
        Some(FaultKind::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms.min(200)));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that install the process-global plan. An
    /// injected panic unwinds through a test holding the guard, so
    /// poisoning is expected and recovered.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_is_none() {
        let _g = test_lock();
        install(FaultPlan::default());
        assert!(hit("proto.read").is_ok());
    }

    #[test]
    fn explicit_rule_fires_on_exact_hit() {
        let _g = test_lock();
        install(FaultPlan::parse("metrics.write@2=io").unwrap());
        assert!(hit("metrics.write").is_ok());
        let err = hit("metrics.write").expect_err("the 2nd hit fails");
        assert_eq!(err.to_string(), "injected fault at metrics.write");
        assert!(hit("metrics.write").is_ok());
        assert!(hit("proto.read").is_ok());
        install(FaultPlan::default());
    }

    #[test]
    fn wildcards_and_every_occurrence() {
        let _g = test_lock();
        install(FaultPlan::parse("proto.*@*=io").unwrap());
        assert!(hit("proto.read").is_err());
        assert!(hit("proto.write").is_err());
        assert!(hit("proto.write").is_err());
        assert!(hit("unit.solve").is_ok());
        install(FaultPlan::default());
    }

    #[test]
    fn fd_exhausted_is_the_emfile_accept_returns() {
        let _g = test_lock();
        install(FaultPlan::parse("serve.accept@1=fd-exhausted").unwrap());
        let err = hit("serve.accept").expect_err("EMFILE");
        assert_eq!(err.raw_os_error(), Some(EMFILE));
        assert!(hit("serve.accept").is_ok());
        install(FaultPlan::default());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("no-equals").is_err());
        assert!(FaultPlan::parse("p=io").is_err(), "missing occurrence");
        assert!(FaultPlan::parse("p@0=io").is_err(), "occurrences are 1-based");
        assert!(FaultPlan::parse("p@1=whatever").is_err());
        assert!(FaultPlan::parse("@1=io").is_err(), "empty point");
        // Retired clauses and kinds fail loudly, naming the clause, so
        // an old plan cannot silently arm nothing.
        for retired in ["seed:7", "disk:1024", "fds:4", "alloc:1048576"] {
            let err = FaultPlan::parse(&format!("p@1=io;{retired}")).unwrap_err();
            assert!(err.contains(retired), "{retired}: {err}");
        }
        for kind in ["short-write", "garbage", "disk-full", "alloc-fail"] {
            let err = FaultPlan::parse(&format!("p@1={kind}")).unwrap_err();
            assert!(err.contains(kind), "{kind}: {err}");
        }
        let ok = FaultPlan::parse(" metrics.write@2=io ; unit.solve@*=delay:10 ").unwrap();
        assert_eq!(ok.rules.len(), 2);
    }

    #[test]
    fn hit_acts_out_panic_and_delay_itself() {
        let _g = test_lock();
        install(FaultPlan::parse("p@1=delay:5;p@2=panic").unwrap());
        let t = std::time::Instant::now();
        assert!(hit("p").is_ok(), "a delay returns Ok once served");
        assert!(t.elapsed() >= Duration::from_millis(5));
        assert!(std::panic::catch_unwind(|| hit("p")).is_err());
        assert!(hit("p").is_ok());
        install(FaultPlan::default());
    }
}
