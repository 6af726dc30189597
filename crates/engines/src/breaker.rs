//! A per-engine circuit breaker: fail fast when a backend is down.
//!
//! Retry policies handle *occasional* transient faults well; they handle
//! a *persistently* failing backend terribly — every query burns its full
//! retry-and-backoff budget before giving up, and a four-engine sweep
//! crawls because one column is dead. [`BreakerEngine`] wraps any
//! [`Engine`] with the classic closed/open/half-open state machine:
//!
//! * **Closed** — operations pass through. Consecutive *transient*
//!   failures are counted; reaching [`BreakerPolicy::failure_threshold`]
//!   opens the circuit. Any success closes the count back to zero;
//!   permanent errors (e.g. [`EngineError::UnknownDataset`], which the
//!   harness repairs by lineage replay) say nothing about backend health
//!   and leave the count untouched.
//! * **Open** — operations fail immediately with
//!   [`EngineError::CircuitOpen`] *without reaching the inner engine*.
//!   `CircuitOpen` is not transient, so the resilient runner records the
//!   query as failed and degrades the session to `CompletedWithErrors`
//!   instead of retrying into the open breaker. After
//!   [`BreakerPolicy::cooldown_ops`] fast-failed operations the breaker
//!   moves to half-open.
//! * **Half-open** — the next operation is a probe that reaches the
//!   inner engine: success closes the circuit, a transient failure
//!   re-opens it (restarting the cooldown).
//!
//! The cooldown is counted in **operations, not wall time**: under
//! [`ChaosEngine`](crate::ChaosEngine) the fault schedule is a pure
//! function of the operation sequence, so breaker trips and recoveries
//! are seed-deterministic and bit-reproducible across hosts and thread
//! counts — a chaos run with a breaker is as replayable as one without.

use crate::{CancelToken, Engine, EngineError, ExecutionReport, QueryOutcome};
use betze_json::Value;
use betze_model::Query;

/// Tuning knobs for a [`BreakerEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive transient failures that open the circuit.
    pub failure_threshold: u32,
    /// Fast-failed operations to absorb while open before probing again
    /// (op-count-based for determinism; see the module docs).
    pub cooldown_ops: u64,
}

impl BreakerPolicy {
    /// A policy: open after `failure_threshold` consecutive transient
    /// failures, probe again after `cooldown_ops` fast-failed operations.
    pub fn new(failure_threshold: u32, cooldown_ops: u64) -> Self {
        BreakerPolicy {
            failure_threshold,
            cooldown_ops,
        }
    }

    /// Validates the policy (threshold ≥ 1; a zero threshold would open
    /// the breaker before the first operation).
    pub fn validate(&self) -> Result<(), String> {
        if self.failure_threshold == 0 {
            return Err("failure_threshold must be ≥ 1".to_owned());
        }
        Ok(())
    }
}

impl Default for BreakerPolicy {
    /// Generous defaults: a healthy backend with sporadic chaos never
    /// trips (retry policies already absorb isolated faults); only a
    /// backend failing many times in a row does.
    fn default() -> Self {
        BreakerPolicy::new(8, 16)
    }
}

/// The breaker's externally observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Operations pass through; consecutive transient failures counted.
    Closed,
    /// Operations fail fast with [`EngineError::CircuitOpen`].
    Open,
    /// The next operation probes the inner engine.
    HalfOpen,
}

/// The breaker's state machine, separated from any particular engine so
/// it can be **shared**: [`BreakerEngine`] owns one per wrapped engine,
/// and `betze-serve` keeps one per backend behind a mutex so every
/// concurrent request observes (and is gated by) the same circuit — a
/// backend that melts down under one request fails fast for all of them.
#[derive(Debug, Clone)]
pub struct BreakerCore {
    policy: BreakerPolicy,
    state: BreakerState,
    /// Consecutive transient failures while closed.
    consecutive_failures: u32,
    /// Fast-failed operations absorbed while open.
    open_ops: u64,
    /// Times the circuit opened since the last reset.
    trips: u64,
}

impl BreakerCore {
    /// A closed circuit under the given policy. Panics on an invalid
    /// policy (zero threshold).
    pub fn new(policy: BreakerPolicy) -> Self {
        if let Err(msg) = policy.validate() {
            panic!("invalid breaker policy: {msg}");
        }
        BreakerCore {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_ops: 0,
            trips: 0,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &BreakerPolicy {
        &self.policy
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the circuit opened since the last reset.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Gate called before each operation. `Err` = fail fast (breaker
    /// open and still cooling down); `Ok` = the operation may proceed.
    /// `what` names the guarded backend in the error.
    pub fn admit(&mut self, what: &str) -> Result<(), EngineError> {
        if self.state == BreakerState::Open {
            if self.open_ops >= self.policy.cooldown_ops {
                self.state = BreakerState::HalfOpen;
            } else {
                self.open_ops += 1;
                return Err(EngineError::CircuitOpen {
                    engine: what.to_owned(),
                    failures: self.consecutive_failures,
                });
            }
        }
        Ok(())
    }

    /// Records an operation result, driving the state machine.
    pub fn observe<T>(&mut self, result: &Result<T, EngineError>) {
        match result {
            Ok(_) => {
                self.consecutive_failures = 0;
                self.state = BreakerState::Closed;
            }
            Err(e) if e.is_transient() => {
                self.consecutive_failures += 1;
                let tripped = match self.state {
                    BreakerState::Closed => {
                        self.consecutive_failures >= self.policy.failure_threshold
                    }
                    // A failed half-open probe re-opens immediately.
                    BreakerState::HalfOpen => true,
                    BreakerState::Open => false,
                };
                if tripped {
                    self.state = BreakerState::Open;
                    self.open_ops = 0;
                    self.trips += 1;
                }
            }
            // Permanent errors (lost intermediates, bad imports, bugs)
            // say nothing about backend health: leave the state alone.
            Err(_) => {}
        }
    }

    /// Closes the circuit and zeroes all counters.
    pub fn reset(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.open_ops = 0;
        self.trips = 0;
    }
}

/// A circuit-breaker wrapper around any engine. See the module docs for
/// the state machine.
#[derive(Debug)]
pub struct BreakerEngine<E> {
    inner: E,
    core: BreakerCore,
}

impl<E: Engine> BreakerEngine<E> {
    /// Wraps `inner` under the given policy. Panics on an invalid policy
    /// (zero threshold).
    pub fn new(inner: E, policy: BreakerPolicy) -> Self {
        BreakerEngine {
            inner,
            core: BreakerCore::new(policy),
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &BreakerPolicy {
        self.core.policy()
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.core.state()
    }

    /// How many times the circuit opened since the last reset.
    pub fn trips(&self) -> u64 {
        self.core.trips()
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the inner engine.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: Engine> Engine for BreakerEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn short_name(&self) -> &'static str {
        self.inner.short_name()
    }

    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        self.core.admit(self.inner.name())?;
        let result = self.inner.import(name, docs);
        self.core.observe(&result);
        result
    }

    fn import_paged(
        &mut self,
        corpus: &std::sync::Arc<betze_store::PagedCorpus>,
    ) -> Result<ExecutionReport, EngineError> {
        self.core.admit(self.inner.name())?;
        let result = self.inner.import_paged(corpus);
        self.core.observe(&result);
        result
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        self.core.admit(self.inner.name())?;
        let result = self.inner.execute(query);
        self.core.observe(&result);
        result
    }

    fn forget(&mut self, name: &str) -> bool {
        self.inner.forget(name)
    }

    /// Resets the inner engine **and closes the circuit**, zeroing all
    /// counters — independent session runs start from the same state.
    fn reset(&mut self) {
        self.inner.reset();
        self.core.reset();
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.inner.set_cancel(token);
    }

    fn set_output_enabled(&mut self, on: bool) {
        self.inner.set_output_enabled(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::DocSet;

    /// A scripted engine: `fail_first` transient failures, then success
    /// forever. Counts how many calls actually reached it.
    struct Scripted {
        fail_first: u64,
        calls: u64,
    }

    impl Scripted {
        fn new(fail_first: u64) -> Self {
            Scripted {
                fail_first,
                calls: 0,
            }
        }
    }

    impl Engine for Scripted {
        fn name(&self) -> &'static str {
            "Scripted"
        }

        fn short_name(&self) -> &'static str {
            "scripted"
        }

        fn import(&mut self, _name: &str, _docs: &[Value]) -> Result<ExecutionReport, EngineError> {
            Ok(ExecutionReport::empty())
        }

        fn execute(&mut self, _query: &Query) -> Result<QueryOutcome, EngineError> {
            self.calls += 1;
            if self.calls <= self.fail_first {
                Err(EngineError::Transient {
                    message: format!("scripted failure {}", self.calls),
                    attempt_hint: 0,
                })
            } else {
                Ok(QueryOutcome {
                    docs: DocSet::default(),
                    report: ExecutionReport::empty(),
                })
            }
        }

        fn forget(&mut self, _name: &str) -> bool {
            false
        }

        fn reset(&mut self) {
            self.calls = 0;
        }
    }

    fn q() -> Query {
        Query::scan("t")
    }

    #[test]
    fn opens_after_threshold_consecutive_transient_failures() {
        let mut b = BreakerEngine::new(Scripted::new(u64::MAX), BreakerPolicy::new(3, 10));
        for _ in 0..2 {
            assert!(b.execute(&q()).unwrap_err().is_transient());
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.execute(&q()).unwrap_err().is_transient());
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Open: fails fast without reaching the inner engine.
        let reached_before = b.inner().calls;
        let err = b.execute(&q()).unwrap_err();
        assert!(matches!(err, EngineError::CircuitOpen { .. }));
        assert!(!err.is_transient());
        assert_eq!(b.inner().calls, reached_before);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = BreakerEngine::new(Scripted::new(u64::MAX), BreakerPolicy::new(2, 3));
        for _ in 0..2 {
            let _ = b.execute(&q());
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown: 3 fast-failed ops.
        for _ in 0..3 {
            assert!(matches!(
                b.execute(&q()).unwrap_err(),
                EngineError::CircuitOpen { .. }
            ));
        }
        // Next op is a probe that reaches the (still failing) inner
        // engine, and its failure re-opens the circuit.
        let reached_before = b.inner().calls;
        assert!(b.execute(&q()).unwrap_err().is_transient());
        assert_eq!(b.inner().calls, reached_before + 1);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn half_open_probe_success_closes() {
        // Fails exactly long enough to trip + survive the cooldown, then
        // recovers: 2 real failures, 2 fast-fails, then the probe is Ok.
        let mut b = BreakerEngine::new(Scripted::new(2), BreakerPolicy::new(2, 2));
        for _ in 0..2 {
            let _ = b.execute(&q());
        }
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..2 {
            let _ = b.execute(&q());
        }
        assert!(b.execute(&q()).is_ok());
        assert_eq!(b.state(), BreakerState::Closed);
        // And stays healthy.
        assert!(b.execute(&q()).is_ok());
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        // One failure, then success, repeatedly: never trips at
        // threshold 2 because the streak keeps breaking.
        struct Alternating(u64);
        impl Engine for Alternating {
            fn name(&self) -> &'static str {
                "Alternating"
            }
            fn short_name(&self) -> &'static str {
                "alt"
            }
            fn import(
                &mut self,
                _name: &str,
                _docs: &[Value],
            ) -> Result<ExecutionReport, EngineError> {
                Ok(ExecutionReport::empty())
            }
            fn execute(&mut self, _query: &Query) -> Result<QueryOutcome, EngineError> {
                self.0 += 1;
                if self.0 % 2 == 1 {
                    Err(EngineError::Transient {
                        message: "odd call".into(),
                        attempt_hint: 0,
                    })
                } else {
                    Ok(QueryOutcome {
                        docs: DocSet::default(),
                        report: ExecutionReport::empty(),
                    })
                }
            }
            fn forget(&mut self, _name: &str) -> bool {
                false
            }
            fn reset(&mut self) {}
        }
        let mut b = BreakerEngine::new(Alternating(0), BreakerPolicy::new(2, 4));
        for _ in 0..20 {
            let _ = b.execute(&q());
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn permanent_errors_do_not_trip_the_breaker() {
        struct AlwaysUnknown;
        impl Engine for AlwaysUnknown {
            fn name(&self) -> &'static str {
                "AlwaysUnknown"
            }
            fn short_name(&self) -> &'static str {
                "unk"
            }
            fn import(
                &mut self,
                _name: &str,
                _docs: &[Value],
            ) -> Result<ExecutionReport, EngineError> {
                Ok(ExecutionReport::empty())
            }
            fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
                Err(EngineError::UnknownDataset {
                    name: query.base.clone(),
                })
            }
            fn forget(&mut self, _name: &str) -> bool {
                false
            }
            fn reset(&mut self) {}
        }
        let mut b = BreakerEngine::new(AlwaysUnknown, BreakerPolicy::new(1, 1));
        for _ in 0..5 {
            let err = b.execute(&q()).unwrap_err();
            assert_eq!(err.lost_dataset(), Some("t"));
            assert_eq!(b.state(), BreakerState::Closed);
        }
    }

    #[test]
    fn reset_closes_the_circuit() {
        let mut b = BreakerEngine::new(Scripted::new(u64::MAX), BreakerPolicy::new(1, 100));
        let _ = b.execute(&q());
        assert_eq!(b.state(), BreakerState::Open);
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        // After reset the first call reaches the inner engine again.
        assert!(b.execute(&q()).unwrap_err().is_transient());
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(BreakerPolicy::new(0, 5).validate().is_err());
        assert!(BreakerPolicy::new(1, 0).validate().is_ok());
        assert!(BreakerPolicy::default().validate().is_ok());
    }
}
