//! Deterministic fault injection and cooperative cancellation.
//!
//! Production-grade drivers are only as robust as the faults they have
//! actually been exercised against. This crate provides the two
//! primitives the chaos-hardened incremental driver builds on:
//!
//! * **Named fault points** ([`hit`]): call sites in the cache, the
//!   wire codec, the engine, and the worker pool ask "should a fault
//!   fire here?" and get back a [`FaultKind`] to act out — an I/O
//!   error, a short write, decode garbage, a panic, or a delay. Which
//!   points fire is driven by an installed [`FaultPlan`]: either an
//!   explicit rule list (`cache.write@2=io;unit.solve@*=delay:10`) or
//!   a seeded pseudo-random schedule that is *fully deterministic* —
//!   the same seed injects the same faults at the same hits, every
//!   run, so every chaos failure reproduces.
//! * **Cooperative cancellation** ([`cancel`]): a per-thread deadline
//!   token that long-running loops (the engine's per-expression work
//!   accounting, the solver's worklist) poll cheaply. A unit that
//!   blows its wall-clock deadline unwinds through the existing
//!   fault-isolation paths instead of hanging the run.
//!
//! When no plan is installed the whole machinery is a single relaxed
//! atomic load per fault point — cheap enough to leave compiled into
//! release binaries, which is the point: the *production* code paths
//! are the ones being tested, not a shadow build.
//!
//! The installed plan is process-global (workers on any thread must see
//! it); tests that install plans must serialize on
//! [`test_lock`].

pub mod cancel;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed fault point should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with a synthetic I/O error (transient: a retry may succeed).
    Io,
    /// Write only a prefix of the bytes, then fail — a torn write, as a
    /// crashed process would leave behind.
    ShortWrite,
    /// Corrupt the bytes in flight (decoders must reject, never trust).
    Garbage,
    /// Panic, as a worker bug would.
    Panic,
    /// Stall for this many milliseconds (drives deadline handling).
    Delay(u64),
    /// The simulated disk is full: writes fail with ENOSPC until the
    /// environment "gc" frees space (see [`FaultPlan::with_disk`]).
    DiskFull,
    /// The simulated fd table is full: accept/open fail with EMFILE
    /// until descriptors are released (see [`FaultPlan::with_fds`]).
    FdExhausted,
    /// The simulated allocator watermark is exceeded: the unit's
    /// allocation charge is denied (see [`FaultPlan::with_alloc`]).
    AllocFail,
}

impl FaultKind {
    fn parse(s: &str) -> Result<FaultKind, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        match (name, arg) {
            ("io", None) => Ok(FaultKind::Io),
            ("short-write", None) | ("short_write", None) => Ok(FaultKind::ShortWrite),
            ("garbage", None) => Ok(FaultKind::Garbage),
            ("panic", None) => Ok(FaultKind::Panic),
            ("delay", Some(ms)) => ms
                .parse()
                .map(FaultKind::Delay)
                .map_err(|_| format!("bad delay milliseconds: {ms:?}")),
            ("delay", None) => Ok(FaultKind::Delay(20)),
            ("disk-full", None) | ("disk_full", None) => Ok(FaultKind::DiskFull),
            ("fd-exhausted", None) | ("fd_exhausted", None) => Ok(FaultKind::FdExhausted),
            ("alloc-fail", None) | ("alloc_fail", None) => Ok(FaultKind::AllocFail),
            _ => Err(format!(
                "unknown fault kind {s:?} (want io, short-write, garbage, panic, \
                 delay[:MS], disk-full, fd-exhausted, alloc-fail)"
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

/// Denials before a resource machine's "gc" frees the resource again,
/// unless the plan configures its own interval.
const DEFAULT_ENV_GC_AFTER: u64 = 16;

/// A *stateful* simulated environment, configured per plan: a disk
/// with a byte budget, an fd table with a cap, and an allocator
/// watermark. Unlike the stateless per-hit rules, these machines
/// accumulate usage across charges — writes succeed until the disk
/// fills, then fail with [`FaultKind::DiskFull`] until a "gc" interval
/// (a fixed number of denials) frees the space again, modeling an
/// operator clearing room. A capacity of 0 is *permanent* exhaustion
/// (the gc never helps). Everything is deterministic: the same charge
/// sequence produces the same denial sequence, every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EnvSpec {
    /// Disk byte budget as `(capacity_bytes, gc_after_denials)`.
    disk: Option<(u64, u64)>,
    /// Fd-table cap as `(max_open, gc_after_denials)`.
    fds: Option<(u64, u64)>,
    /// Allocator watermark as `(watermark_bytes, gc_after_denials)`.
    alloc: Option<(u64, u64)>,
}

impl EnvSpec {
    fn is_empty(&self) -> bool {
        self.disk.is_none() && self.fds.is_none() && self.alloc.is_none()
    }
}

/// A deterministic injection schedule.
///
/// Two flavors, freely combinable: explicit [rules](FaultPlan::parse)
/// ("the 2nd `cache.write` fails with an I/O error") and a seeded
/// pseudo-random schedule ("roughly `rate` per mille of all hits fault,
/// derived from `seed`"). The seeded draw hashes `(seed, point, hit
/// index)`, so it is independent of thread interleaving: the n-th hit
/// of a given point always makes the same decision.
///
/// A third, *stateful* layer models resource exhaustion: a byte-budgeted
/// disk ([`FaultPlan::with_disk`]), a capped fd table
/// ([`FaultPlan::with_fds`]), and an allocator watermark
/// ([`FaultPlan::with_alloc`]). Consumers charge these machines through
/// [`charge_disk`], [`take_fd`]/[`release_fd`], and [`charge_alloc`];
/// the seeded schedule never produces the environment kinds, so pinned
/// seeds replay byte-identically with or without an environment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<Rule>,
    /// Seeded schedule, as (seed, injection rate per mille of hits).
    seeded: Option<(u64, u32)>,
    /// Stateful environment machines (disk / fds / allocator).
    env: EnvSpec,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// A purely seeded plan: about `rate_per_mille`/1000 of all fault
    /// point hits inject, chosen deterministically from `seed`.
    #[must_use]
    pub fn seeded(seed: u64, rate_per_mille: u32) -> FaultPlan {
        FaultPlan {
            rules: Vec::new(),
            seeded: Some((seed, rate_per_mille.min(1000))),
            env: EnvSpec::default(),
        }
    }

    /// Adds a simulated disk with a byte budget: [`charge_disk`] calls
    /// succeed until `capacity_bytes` have accumulated, then deny with
    /// [`FaultKind::DiskFull`]; after `gc_after` denials the "gc" frees
    /// all space and writes succeed again. `gc_after = None` uses the
    /// default interval; `capacity_bytes = 0` never recovers.
    #[must_use]
    pub fn with_disk(mut self, capacity_bytes: u64, gc_after: Option<u64>) -> FaultPlan {
        self.env.disk = Some((capacity_bytes, gc_after.unwrap_or(DEFAULT_ENV_GC_AFTER)));
        self
    }

    /// Adds a simulated fd table: [`take_fd`] succeeds while fewer than
    /// `max_open` descriptors are held, then denies with
    /// [`FaultKind::FdExhausted`]. [`release_fd`] frees one; `gc_after`
    /// denials also flush the table (idle peers closing).
    #[must_use]
    pub fn with_fds(mut self, max_open: u64, gc_after: Option<u64>) -> FaultPlan {
        self.env.fds = Some((max_open, gc_after.unwrap_or(DEFAULT_ENV_GC_AFTER)));
        self
    }

    /// Adds a simulated allocator watermark: [`charge_alloc`] succeeds
    /// until `watermark_bytes` have accumulated, then denies with
    /// [`FaultKind::AllocFail`]; after `gc_after` denials the watermark
    /// resets (memory was freed).
    #[must_use]
    pub fn with_alloc(mut self, watermark_bytes: u64, gc_after: Option<u64>) -> FaultPlan {
        self.env.alloc = Some((watermark_bytes, gc_after.unwrap_or(DEFAULT_ENV_GC_AFTER)));
        self
    }

    /// Parses a plan specification.
    ///
    /// Grammar, `;`-separated (`,` also accepted):
    ///
    /// ```text
    /// spec   := clause (';' clause)*
    /// clause := point '@' occ '=' kind        explicit rule
    ///         | 'seed' ':' u64 [':' rate]     seeded schedule (rate per mille, default 150)
    ///         | 'disk' ':' bytes [':' gc]     disk byte budget (ENOSPC machine)
    ///         | 'fds' ':' cap [':' gc]        fd-table cap (EMFILE machine)
    ///         | 'alloc' ':' bytes [':' gc]    allocator watermark
    /// point  := dotted name, '*' suffix matches a prefix
    /// occ    := decimal hit number (1-based) | '*'
    /// kind   := 'io' | 'short-write' | 'garbage' | 'panic' | 'delay' [':' ms]
    ///         | 'disk-full' | 'fd-exhausted' | 'alloc-fail'
    /// ```
    ///
    /// Example: `cache.write@2=io;unit.solve@*=delay:10;seed:7:100`, or
    /// a 64 KiB disk that recovers after 8 denials: `disk:65536:8`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a malformed clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split([';', ',']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(rest) = clause.strip_prefix("seed:") {
                let (seed, rate) = match rest.split_once(':') {
                    Some((s, r)) => (
                        s.parse::<u64>().map_err(|_| format!("bad seed: {s:?}"))?,
                        r.parse::<u32>().map_err(|_| format!("bad rate: {r:?}"))?,
                    ),
                    None => (
                        rest.parse::<u64>().map_err(|_| format!("bad seed: {rest:?}"))?,
                        150,
                    ),
                };
                plan.seeded = Some((seed, rate.min(1000)));
                continue;
            }
            let mut env_clause = false;
            for (prefix, slot) in [
                ("disk:", 0usize),
                ("fds:", 1),
                ("alloc:", 2),
            ] {
                if let Some(rest) = clause.strip_prefix(prefix) {
                    let (cap, gc) = match rest.split_once(':') {
                        Some((c, g)) => (
                            c.parse::<u64>()
                                .map_err(|_| format!("bad {prefix}capacity: {c:?}"))?,
                            g.parse::<u64>()
                                .map_err(|_| format!("bad {prefix}gc interval: {g:?}"))?,
                        ),
                        None => (
                            rest.parse::<u64>()
                                .map_err(|_| format!("bad {prefix}capacity: {rest:?}"))?,
                            DEFAULT_ENV_GC_AFTER,
                        ),
                    };
                    match slot {
                        0 => plan.env.disk = Some((cap, gc)),
                        1 => plan.env.fds = Some((cap, gc)),
                        _ => plan.env.alloc = Some((cap, gc)),
                    }
                    env_clause = true;
                    break;
                }
            }
            if env_clause {
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
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.seeded.is_none() && self.env.is_empty()
    }

    fn decide(&self, point: &str, hit: u64) -> Option<FaultKind> {
        // Explicit rules win (first match), then the seeded schedule.
        for r in &self.rules {
            if r.matches(point, hit) {
                return Some(r.kind);
            }
        }
        let (seed, rate) = self.seeded?;
        let roll = splitmix(seed ^ fnv(point) ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if roll % 1000 < u64::from(rate) {
            Some(match splitmix(roll) % 5 {
                0 => FaultKind::Io,
                1 => FaultKind::ShortWrite,
                2 => FaultKind::Garbage,
                3 => FaultKind::Panic,
                _ => FaultKind::Delay(1 + splitmix(roll ^ 0xff) % 8),
            })
        } else {
            None
        }
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One resource machine: accumulated usage, consecutive denials in the
/// current exhaustion episode, and how many episodes have begun.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EnvMachine {
    used: u64,
    denials: u64,
    episodes: u64,
}

impl EnvMachine {
    /// Charges `amount` against `(capacity, gc_after)`. Returns `true`
    /// when the charge is *denied*. A denied charge counts toward the
    /// gc interval; once `gc_after` denials accumulate the machine
    /// resets (space freed) — unless capacity is 0, which is permanent.
    fn charge(&mut self, amount: u64, capacity: u64, gc_after: u64) -> bool {
        if self.used.saturating_add(amount) > capacity {
            if self.denials == 0 {
                self.episodes += 1;
            }
            self.denials += 1;
            if capacity > 0 && gc_after > 0 && self.denials >= gc_after {
                self.used = 0;
                self.denials = 0;
            }
            true
        } else {
            self.used += amount;
            self.denials = 0;
            false
        }
    }

    fn release(&mut self, amount: u64) {
        self.used = self.used.saturating_sub(amount);
    }
}

/// A read-only view of the environment machines, for tests and
/// observability: `(used, denials, episodes)` per resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvSnapshot {
    /// Disk machine: bytes used, current denial streak, episodes begun.
    pub disk: (u64, u64, u64),
    /// Fd machine: descriptors held, denial streak, episodes begun.
    pub fds: (u64, u64, u64),
    /// Allocator machine: bytes charged, denial streak, episodes begun.
    pub alloc: (u64, u64, u64),
}

/// Global injection state: the plan, per-point hit counters, and a
/// record of what actually fired (for observability and tests).
struct State {
    plan: FaultPlan,
    hits: std::collections::HashMap<String, u64>,
    injected: Vec<(String, u64, FaultKind)>,
    /// Environment-machine charge counters, *separate* from `hits` so
    /// charging a site never shifts the occurrence numbers that
    /// explicit `point@N=kind` rules (and the tests pinning them) see.
    env_hits: std::collections::HashMap<String, u64>,
    disk: EnvMachine,
    fds: EnvMachine,
    alloc: EnvMachine,
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

/// Installs `plan` process-wide, resetting hit counters and the
/// injection log. An empty plan disables injection entirely.
pub fn install(plan: FaultPlan) {
    let mut g = lock_state();
    ENABLED.store(!plan.is_empty(), Ordering::Relaxed);
    *g = Some(State {
        plan,
        hits: std::collections::HashMap::new(),
        injected: Vec::new(),
        env_hits: std::collections::HashMap::new(),
        disk: EnvMachine::default(),
        fds: EnvMachine::default(),
        alloc: EnvMachine::default(),
    });
}

/// Removes any installed plan (every subsequent [`hit`] is a no-op).
pub fn clear() {
    let mut g = lock_state();
    ENABLED.store(false, Ordering::Relaxed);
    *g = None;
}

/// Installs a plan from the environment, if one is configured:
/// `QUAL_FAULT_PLAN` (a [`FaultPlan::parse`] spec) wins over
/// `QUAL_FAULT_SEED` (a bare seed for the default-rate seeded
/// schedule). Returns an error for a malformed spec, `Ok(false)` when
/// neither variable is set.
///
/// # Errors
///
/// Propagates the [`FaultPlan::parse`] message.
pub fn install_from_env() -> Result<bool, String> {
    if let Ok(spec) = std::env::var("QUAL_FAULT_PLAN") {
        install(FaultPlan::parse(&spec)?);
        return Ok(true);
    }
    if let Ok(seed) = std::env::var("QUAL_FAULT_SEED") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("QUAL_FAULT_SEED must be a u64, got {seed:?}"))?;
        install(FaultPlan::seeded(seed, 150));
        return Ok(true);
    }
    Ok(false)
}

/// The heart of the crate: records a hit of `point` and returns the
/// fault to act out, if any. [`FaultKind::Delay`] is already *served*
/// here (the calling thread sleeps); it is still returned so callers
/// can log it. With no plan installed this is one relaxed atomic load.
#[must_use]
pub fn hit(point: &str) -> Option<FaultKind> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let decision = {
        let mut g = lock_state();
        let st = g.as_mut()?;
        let n = st.hits.entry(point.to_owned()).or_insert(0);
        *n += 1;
        let hit_no = *n;
        let decision = st.plan.decide(point, hit_no);
        if let Some(kind) = decision {
            st.injected.push((point.to_owned(), hit_no, kind));
        }
        decision
    };
    if let Some(FaultKind::Delay(ms)) = decision {
        // Clamp so a chaotic schedule cannot stall a test suite.
        std::thread::sleep(Duration::from_millis(ms.min(200)));
    }
    decision
}

/// Convenience: panics if a `Panic` fault is armed at `point`; serves
/// delays; ignores other kinds (they are for I/O-shaped call sites).
///
/// # Panics
///
/// When the installed plan arms a `Panic` fault here.
pub fn maybe_panic(point: &str) {
    if hit(point) == Some(FaultKind::Panic) {
        panic!("injected panic at {point}");
    }
}

/// Which environment machine a charge targets.
#[derive(Debug, Clone, Copy)]
enum Resource {
    Disk,
    Fds,
    Alloc,
}

/// Charges one environment machine. Charge counters live in `env_hits`,
/// not `hits`: the same site usually both [`hit`]s a point and charges
/// a machine, and the charge must not shift explicit-rule occurrence
/// numbers. Denials are recorded in the shared injection log under the
/// charge's own counter.
fn charge_env(point: &str, amount: u64, which: Resource) -> Option<FaultKind> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let mut g = lock_state();
    let st = g.as_mut()?;
    let (capacity, gc_after, kind) = match which {
        Resource::Disk => {
            let (cap, gc) = st.plan.env.disk?;
            (cap, gc, FaultKind::DiskFull)
        }
        Resource::Fds => {
            let (cap, gc) = st.plan.env.fds?;
            (cap, gc, FaultKind::FdExhausted)
        }
        Resource::Alloc => {
            let (cap, gc) = st.plan.env.alloc?;
            (cap, gc, FaultKind::AllocFail)
        }
    };
    let n = st.env_hits.entry(point.to_owned()).or_insert(0);
    *n += 1;
    let hit_no = *n;
    let machine = match which {
        Resource::Disk => &mut st.disk,
        Resource::Fds => &mut st.fds,
        Resource::Alloc => &mut st.alloc,
    };
    if machine.charge(amount, capacity, gc_after) {
        st.injected.push((point.to_owned(), hit_no, kind));
        Some(kind)
    } else {
        None
    }
}

/// Charges `bytes` against the simulated disk at write site `point`.
/// Returns `Some(DiskFull)` when the write should fail with ENOSPC.
/// With no plan (or no disk configured) this is one relaxed atomic
/// load and always succeeds.
#[must_use]
pub fn charge_disk(point: &str, bytes: u64) -> Option<FaultKind> {
    charge_env(point, bytes, Resource::Disk)
}

/// Takes one descriptor from the simulated fd table at `point`.
/// Returns `Some(FdExhausted)` when the accept/open should fail with
/// EMFILE — the descriptor is *not* held in that case.
#[must_use]
pub fn take_fd(point: &str) -> Option<FaultKind> {
    charge_env(point, 1, Resource::Fds)
}

/// Returns one descriptor to the simulated fd table (connection
/// closed). Harmless when no fd machine is configured.
pub fn release_fd() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut g = lock_state();
    if let Some(st) = g.as_mut() {
        if st.plan.env.fds.is_some() {
            st.fds.release(1);
        }
    }
}

/// Charges `bytes` against the simulated allocator watermark at
/// `point`. Returns `Some(AllocFail)` when the allocation should be
/// treated as denied.
#[must_use]
pub fn charge_alloc(point: &str, bytes: u64) -> Option<FaultKind> {
    charge_env(point, bytes, Resource::Alloc)
}

/// The current environment-machine state, for tests and diagnostics.
/// All zeros when no plan (or no environment) is installed.
#[must_use]
pub fn env_snapshot() -> EnvSnapshot {
    let g = lock_state();
    g.as_ref().map_or_else(EnvSnapshot::default, |st| EnvSnapshot {
        disk: (st.disk.used, st.disk.denials, st.disk.episodes),
        fds: (st.fds.used, st.fds.denials, st.fds.episodes),
        alloc: (st.alloc.used, st.alloc.denials, st.alloc.episodes),
    })
}

/// Every fault injected since the last [`install`], as
/// `(point, hit_number, kind)` in injection order.
#[must_use]
pub fn injected() -> Vec<(String, u64, FaultKind)> {
    lock_state()
        .as_ref()
        .map(|st| st.injected.clone())
        .unwrap_or_default()
}

/// Number of faults injected since the last [`install`].
#[must_use]
pub fn injected_count() -> usize {
    lock_state().as_ref().map_or(0, |st| st.injected.len())
}

/// Serializes tests (and any other callers) that install process-global
/// plans. Lock poisoning is expected here — injected panics unwind
/// through tests holding the guard — and is transparently recovered.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_none() {
        let _g = test_lock();
        clear();
        assert_eq!(hit("cache.read"), None);
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn explicit_rule_fires_on_exact_hit() {
        let _g = test_lock();
        install(FaultPlan::parse("cache.write@2=io").unwrap());
        assert_eq!(hit("cache.write"), None);
        assert_eq!(hit("cache.write"), Some(FaultKind::Io));
        assert_eq!(hit("cache.write"), None);
        assert_eq!(hit("cache.read"), None);
        assert_eq!(injected(), vec![("cache.write".to_owned(), 2, FaultKind::Io)]);
        clear();
    }

    #[test]
    fn wildcards_and_every_occurrence() {
        let _g = test_lock();
        install(FaultPlan::parse("cache.*@*=garbage").unwrap());
        assert_eq!(hit("cache.read"), Some(FaultKind::Garbage));
        assert_eq!(hit("cache.write"), Some(FaultKind::Garbage));
        assert_eq!(hit("unit.solve"), None);
        clear();
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("no-equals").is_err());
        assert!(FaultPlan::parse("p=io").is_err(), "missing occurrence");
        assert!(FaultPlan::parse("p@0=io").is_err(), "occurrences are 1-based");
        assert!(FaultPlan::parse("p@1=whatever").is_err());
        assert!(FaultPlan::parse("seed:notanumber").is_err());
        assert!(FaultPlan::parse("@1=io").is_err(), "empty point");
        let ok = FaultPlan::parse(" cache.write@2=io ; unit.solve@*=delay:10 ").unwrap();
        assert_eq!(ok.rules.len(), 2);
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_rate_bounded() {
        let _g = test_lock();
        let run = |seed: u64| -> Vec<(String, u64, FaultKind)> {
            install(FaultPlan::seeded(seed, 300));
            for _ in 0..200 {
                // Delay(ms) sleeps; keep the test fast by draining the
                // decision through the plan directly would skip the
                // counters, so just accept the (clamped, ≤8ms·few) cost.
                let _ = lock_state().as_mut().map(|st| {
                    let n = st.hits.entry("unit.solve".to_owned()).or_insert(0);
                    *n += 1;
                    if let Some(k) = st.plan.decide("unit.solve", *n) {
                        st.injected.push(("unit.solve".to_owned(), *n, k));
                    }
                });
            }
            let log = injected();
            clear();
            log
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty(), "rate 300/1000 over 200 hits must fire");
        assert!(a.len() < 150, "rate 300/1000 is not 'always'");
        let c = run(43);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn disk_machine_fills_denies_and_gcs() {
        let _g = test_lock();
        install(FaultPlan::new().with_disk(100, Some(3)));
        // Fits, fits, then the budget is blown.
        assert_eq!(charge_disk("cache.write", 60), None);
        assert_eq!(charge_disk("cache.write", 40), None);
        assert_eq!(charge_disk("cache.write", 1), Some(FaultKind::DiskFull));
        assert_eq!(charge_disk("cache.write", 1), Some(FaultKind::DiskFull));
        let snap = env_snapshot();
        assert_eq!(snap.disk, (100, 2, 1), "one episode, two denials so far");
        // Third denial triggers the gc; the next charge succeeds.
        assert_eq!(charge_disk("cache.write", 1), Some(FaultKind::DiskFull));
        assert_eq!(charge_disk("cache.write", 50), None);
        assert_eq!(env_snapshot().disk.2, 1, "recovery does not start an episode");
        // Refilling starts a second episode.
        assert_eq!(charge_disk("cache.write", 60), Some(FaultKind::DiskFull));
        assert_eq!(env_snapshot().disk.2, 2);
        clear();
    }

    #[test]
    fn zero_capacity_disk_is_permanent() {
        let _g = test_lock();
        install(FaultPlan::new().with_disk(0, Some(2)));
        for _ in 0..10 {
            assert_eq!(charge_disk("metrics.write", 8), Some(FaultKind::DiskFull));
        }
        clear();
    }

    #[test]
    fn fd_table_caps_and_releases() {
        let _g = test_lock();
        install(FaultPlan::new().with_fds(2, Some(100)));
        assert_eq!(take_fd("serve.accept"), None);
        assert_eq!(take_fd("serve.accept"), None);
        assert_eq!(take_fd("serve.accept"), Some(FaultKind::FdExhausted));
        release_fd();
        assert_eq!(take_fd("serve.accept"), None, "a released fd can be retaken");
        clear();
    }

    #[test]
    fn alloc_watermark_denies_then_gcs() {
        let _g = test_lock();
        install(FaultPlan::new().with_alloc(1000, Some(1)));
        assert_eq!(charge_alloc("alloc.unit", 900), None);
        assert_eq!(charge_alloc("alloc.unit", 200), Some(FaultKind::AllocFail));
        // gc_after=1: the single denial already freed the watermark.
        assert_eq!(charge_alloc("alloc.unit", 200), None);
        clear();
    }

    #[test]
    fn env_charges_never_shift_rule_occurrences() {
        let _g = test_lock();
        // The same site is both a fault point and a disk charge; the
        // charge must not consume `hits` occurrences.
        install(
            FaultPlan::parse("cache.write@2=io")
                .unwrap()
                .with_disk(1_000_000, None),
        );
        assert_eq!(charge_disk("cache.write", 10), None);
        assert_eq!(charge_disk("cache.write", 10), None);
        assert_eq!(hit("cache.write"), None);
        assert_eq!(hit("cache.write"), Some(FaultKind::Io), "rule still fires on hit 2");
        clear();
    }

    #[test]
    fn env_clauses_parse_and_disabled_charges_are_free() {
        let _g = test_lock();
        let plan = FaultPlan::parse("disk:65536:8;fds:64;alloc:4096:2").unwrap();
        assert!(!plan.is_empty(), "an env-only plan is not empty");
        assert_eq!(plan.env.disk, Some((65536, 8)));
        assert_eq!(plan.env.fds, Some((64, DEFAULT_ENV_GC_AFTER)));
        assert_eq!(plan.env.alloc, Some((4096, 2)));
        assert!(FaultPlan::parse("disk:notanumber").is_err());
        assert!(FaultPlan::parse("fds:1:x").is_err());
        // New kinds parse as explicit rules too.
        let k = FaultPlan::parse("p@1=disk-full;q@1=fd-exhausted;r@1=alloc-fail").unwrap();
        assert_eq!(k.rules.len(), 3);
        clear();
        assert_eq!(charge_disk("cache.write", u64::MAX), None);
        assert_eq!(take_fd("serve.accept"), None);
        assert_eq!(charge_alloc("alloc.unit", u64::MAX), None);
    }

    #[test]
    fn maybe_panic_panics_only_on_panic_kind() {
        let _g = test_lock();
        install(FaultPlan::parse("p@1=io;p@2=panic").unwrap());
        maybe_panic("p"); // io kind: ignored here
        let caught = std::panic::catch_unwind(|| maybe_panic("p"));
        assert!(caught.is_err());
        clear();
    }
}
