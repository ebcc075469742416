//! Deterministic fault injection for robustness testing.
//!
//! The serve stack claims to survive worker panics, torn cache writes, and
//! clients that vanish mid-flight. Those claims are only worth anything if
//! they are *exercised*, and the real triggers (a latent engine bug, a
//! power cut mid-save, a TCP reset) are precisely the events a test cannot
//! schedule. This module gives them schedulable stand-ins: a handful of
//! named failure points, compiled into every build, that do nothing unless
//! a fault plan is armed — via the `TERMITE_FAULTS` environment variable
//! (the CLI arms it at startup) or via [`arm`] from a test.
//!
//! # Spec grammar
//!
//! A plan is `point=arg` clauses separated by `;` (or `,`):
//!
//! ```text
//! worker_panic=<id|#N>        panic inside the job with request id <id>,
//!                             or inside the N-th executed job (0-based)
//! slow_job=<id|#N>:<millis>   stall that job for <millis> ms (the stall
//!                             observes cancellation, like a real engine)
//! slow_engine=<name>:<millis> stall one engine of the next portfolio race
//!                             by <millis> ms before it starts proving;
//!                             <name> is the CLI spelling (`termite`,
//!                             `eager`, `heuristic`, `lasso`, `complete-lrf`,
//!                             `piecewise`). The stall observes the race's
//!                             cancellation token, so a cancelled loser
//!                             wakes up promptly — this is the lever the
//!                             race-determinism tests pull to hand every
//!                             engine in turn the scheduling disadvantage
//! cache_torn_write=<1|substr> truncate the next cache save halfway and skip
//!                             the atomic rename (simulates a crash
//!                             mid-write); `1` fires on any save, anything
//!                             else only on a save whose path contains the
//!                             substring (lets concurrent tests stay scoped
//!                             to their own files)
//! conn_drop=<id>              fail the transport write of the response to
//!                             request id <id> (simulates the peer resetting
//!                             the connection)
//! ```
//!
//! Every fault point fires **once** and is consumed, so "panic on job N,
//! then answer its retry" is expressible. Disarmed, each point costs one
//! relaxed atomic load.

use crate::lock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Which job a job-scoped fault point fires on.
#[derive(Clone, Debug, PartialEq, Eq)]
enum JobMatch {
    /// The job whose request id equals this string.
    Id(String),
    /// The N-th job a worker actually executes while armed (0-based),
    /// written `#N` in a spec.
    Ordinal(u64),
}

impl JobMatch {
    fn parse(text: &str) -> Result<JobMatch, String> {
        match text.strip_prefix('#') {
            Some(n) => n
                .parse::<u64>()
                .map(JobMatch::Ordinal)
                .map_err(|_| format!("`#{n}` is not an execution ordinal")),
            None if text.is_empty() => Err("empty job target".to_string()),
            None => Ok(JobMatch::Id(text.to_string())),
        }
    }

    fn matches(&self, id: &str, ordinal: u64) -> bool {
        match self {
            JobMatch::Id(want) => want == id,
            JobMatch::Ordinal(want) => *want == ordinal,
        }
    }
}

/// A parsed fault plan: which points fire, on what.
#[derive(Clone, Debug, Default, PartialEq)]
struct FaultPlan {
    worker_panic: Vec<JobMatch>,
    slow_job: Vec<(JobMatch, u64)>,
    /// Engine CLI name → stall, for the portfolio race's fault point.
    slow_engine: Vec<(String, u64)>,
    /// `Some("")` fires on any cache save; `Some(substr)` only on saves
    /// whose path contains the substring.
    cache_torn_write: Option<String>,
    conn_drop: Vec<String>,
}

impl FaultPlan {
    fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split([';', ',']).map(str::trim) {
            if clause.is_empty() {
                continue;
            }
            let (point, arg) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not `point=arg`"))?;
            match point {
                "worker_panic" => plan.worker_panic.push(JobMatch::parse(arg)?),
                "slow_job" => {
                    // `rsplit_once`: the millis are after the *last* colon,
                    // so a job id containing colons still parses.
                    let (target, millis) = arg
                        .rsplit_once(':')
                        .ok_or_else(|| format!("slow_job `{arg}` is not `<id|#N>:<millis>`"))?;
                    let millis = millis
                        .parse::<u64>()
                        .map_err(|_| format!("slow_job `{arg}`: bad millis"))?;
                    plan.slow_job.push((JobMatch::parse(target)?, millis));
                }
                "slow_engine" => {
                    let (engine, millis) = arg
                        .rsplit_once(':')
                        .ok_or_else(|| format!("slow_engine `{arg}` is not `<name>:<millis>`"))?;
                    if engine.is_empty() {
                        return Err("slow_engine needs an engine name".to_string());
                    }
                    let millis = millis
                        .parse::<u64>()
                        .map_err(|_| format!("slow_engine `{arg}`: bad millis"))?;
                    plan.slow_engine.push((engine.to_string(), millis));
                }
                "cache_torn_write" => match arg {
                    "" => {
                        return Err("cache_torn_write takes `1` or a path substring".to_string());
                    }
                    "1" => plan.cache_torn_write = Some(String::new()),
                    substr => plan.cache_torn_write = Some(substr.to_string()),
                },
                "conn_drop" => {
                    if arg.is_empty() {
                        return Err("conn_drop needs a request id".to_string());
                    }
                    plan.conn_drop.push(arg.to_string());
                }
                other => return Err(format!("unknown fault point `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Fast-path flag: every fault point checks this before touching the plan.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Count of jobs executed while armed, for `#N` ordinal matching.
static EXECUTIONS: AtomicU64 = AtomicU64::new(0);

fn plan_slot() -> &'static Mutex<Option<FaultPlan>> {
    static SLOT: OnceLock<Mutex<Option<FaultPlan>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Serializes [`arm`] callers: the plan is process-global, so two armed
/// tests running concurrently would read each other's faults.
fn arm_serial() -> &'static Mutex<()> {
    static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
    SERIAL.get_or_init(|| Mutex::new(()))
}

fn set_plan(plan: FaultPlan) {
    *lock(plan_slot()) = Some(plan);
    EXECUTIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// `true` while a fault plan is armed — the one-branch fast path.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the plan in the `TERMITE_FAULTS` environment variable, when set and
/// non-empty (called once by the CLI at startup; a parse error is reported
/// rather than silently running without the requested faults). Unlike
/// [`arm`], this does not serialize or disarm — a process armed from the
/// environment stays armed for its lifetime.
pub fn arm_from_env() -> Result<(), String> {
    let Ok(spec) = std::env::var("TERMITE_FAULTS") else {
        return Ok(());
    };
    if spec.trim().is_empty() {
        return Ok(());
    }
    set_plan(FaultPlan::parse(&spec)?);
    eprintln!("termite: fault injection armed: {}", spec.trim());
    Ok(())
}

/// Arms a fault plan for the lifetime of the returned guard (the test API).
/// Callers are serialized: a second `arm` blocks until the first guard
/// drops, because the plan is process-global.
pub fn arm(spec: &str) -> Result<FaultGuard, String> {
    let serial = arm_serial()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let plan = FaultPlan::parse(spec)?;
    set_plan(plan);
    Ok(FaultGuard { _serial: serial })
}

/// Disarms fault injection (and releases the [`arm`] serialization lock)
/// when dropped.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *lock(plan_slot()) = None;
    }
}

/// The execution ordinal of the job a worker is about to run. Only called
/// while armed; each call consumes one ordinal.
pub(crate) fn next_execution() -> u64 {
    EXECUTIONS.fetch_add(1, Ordering::SeqCst)
}

/// Whether a `worker_panic` point fires for this job (consumed on fire).
pub(crate) fn worker_panic(id: &str, ordinal: u64) -> bool {
    if !armed() {
        return false;
    }
    let mut slot = lock(plan_slot());
    let Some(plan) = slot.as_mut() else {
        return false;
    };
    match plan
        .worker_panic
        .iter()
        .position(|m| m.matches(id, ordinal))
    {
        Some(index) => {
            plan.worker_panic.remove(index);
            true
        }
        None => false,
    }
}

/// The stall a `slow_job` point injects for this job, if one fires
/// (consumed on fire).
pub(crate) fn slow_job_millis(id: &str, ordinal: u64) -> Option<u64> {
    if !armed() {
        return None;
    }
    let mut slot = lock(plan_slot());
    let plan = slot.as_mut()?;
    let index = plan
        .slow_job
        .iter()
        .position(|(m, _)| m.matches(id, ordinal))?;
    Some(plan.slow_job.remove(index).1)
}

/// The stall a `slow_engine` point injects for this engine of a portfolio
/// race, if one fires (consumed on fire). `engine` is the CLI spelling.
pub(crate) fn slow_engine_millis(engine: &str) -> Option<u64> {
    if !armed() {
        return None;
    }
    let mut slot = lock(plan_slot());
    let plan = slot.as_mut()?;
    let index = plan
        .slow_engine
        .iter()
        .position(|(name, _)| name == engine)?;
    Some(plan.slow_engine.remove(index).1)
}

/// Whether the `cache_torn_write` point fires for a save to this path
/// (consumed on fire).
pub(crate) fn cache_torn_write(path: &str) -> bool {
    if !armed() {
        return false;
    }
    let mut slot = lock(plan_slot());
    let Some(plan) = slot.as_mut() else {
        return false;
    };
    match &plan.cache_torn_write {
        Some(pattern) if pattern.is_empty() || path.contains(pattern.as_str()) => {
            plan.cache_torn_write = None;
            true
        }
        _ => false,
    }
}

/// Whether a `conn_drop` point fires for the response to this request id
/// (consumed on fire).
pub(crate) fn conn_drop(id: &str) -> bool {
    if !armed() {
        return false;
    }
    let mut slot = lock(plan_slot());
    let Some(plan) = slot.as_mut() else {
        return false;
    };
    match plan.conn_drop.iter().position(|want| want == id) {
        Some(index) => {
            plan.conn_drop.remove(index);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::parse(
            "worker_panic=boom; slow_job=#2:250, conn_drop=a:b, cache_torn_write=1; \
             slow_job=stall:1000; slow_engine=complete-lrf:50",
        )
        .unwrap();
        assert_eq!(plan.worker_panic, vec![JobMatch::Id("boom".to_string())]);
        assert_eq!(
            plan.slow_job,
            vec![
                (JobMatch::Ordinal(2), 250),
                (JobMatch::Id("stall".to_string()), 1000)
            ]
        );
        assert_eq!(plan.cache_torn_write, Some(String::new()));
        assert_eq!(plan.conn_drop, vec!["a:b".to_string()]);
        assert_eq!(plan.slow_engine, vec![("complete-lrf".to_string(), 50)]);

        let scoped = FaultPlan::parse("cache_torn_write=my-test.json").unwrap();
        assert_eq!(scoped.cache_torn_write, Some("my-test.json".to_string()));
    }

    #[test]
    fn ordinal_matching_targets_the_nth_execution() {
        let m = JobMatch::parse("#3").unwrap();
        assert!(m.matches("whatever", 3));
        assert!(!m.matches("whatever", 2));
        let by_id = JobMatch::parse("job-7").unwrap();
        assert!(by_id.matches("job-7", 0));
        assert!(!by_id.matches("job-8", 0));
    }

    #[test]
    fn bad_specs_are_rejected() {
        for spec in [
            "worker_panic",
            "worker_panic=",
            "worker_panic=#x",
            "slow_job=abc",
            "slow_job=abc:fast",
            "slow_engine=lasso",
            "slow_engine=:100",
            "slow_engine=lasso:soon",
            "cache_torn_write=",
            "conn_drop=",
            "explode=now",
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "`{spec}` must be rejected");
        }
    }

    // The unit plan targets ids no real job uses and a path substring no
    // real save touches: fault plans are process-global, so a concurrently
    // running scheduler test must not be able to consume these points.
    #[test]
    fn points_fire_once_and_disarm_with_the_guard() {
        {
            let _guard = arm(
                "worker_panic=__faults_unit; cache_torn_write=__faults_unit.json; \
                 conn_drop=__faults_unit_x; slow_engine=__faults_unit_e:7",
            )
            .unwrap();
            assert!(armed());
            let ordinal = next_execution();
            assert!(worker_panic("__faults_unit", ordinal));
            assert!(!worker_panic("__faults_unit", ordinal), "consumed on fire");
            assert!(!cache_torn_write("/tmp/other.json"), "path must match");
            assert!(cache_torn_write("/tmp/__faults_unit.json"));
            assert!(!cache_torn_write("/tmp/__faults_unit.json"), "consumed");
            assert!(conn_drop("__faults_unit_x"));
            assert!(!conn_drop("__faults_unit_x"), "consumed on fire");
            assert_eq!(slow_engine_millis("__faults_unit_e"), Some(7));
            assert_eq!(slow_engine_millis("__faults_unit_e"), None, "consumed");
        }
        assert!(!armed(), "the guard disarms on drop");
        assert!(!worker_panic("__faults_unit", 0));
    }
}
