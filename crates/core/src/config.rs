//! Engine configuration.

use aorta_net::BreakerConfig;
use aorta_sim::SimDuration;

/// Admission-control and brownout tunables (the overload-safe lifecycle).
///
/// A token bucket paces new request admissions, and a predicted backlog
/// makespan (pending work times the engine's observed mean action latency)
/// is compared against multiples of the target SLO: past
/// `brownout_multiple` the engine degrades action quality (lo-res photos at
/// reduced atomic-operation cost) before past `shed_multiple` it starts
/// shedding — lowest-priority queries first.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Token-bucket refill rate: admissions per second of virtual time.
    pub rate_per_sec: f64,
    /// Token-bucket capacity: the largest admissible burst.
    pub burst: f64,
    /// Target end-to-end completion budget per request (the SLO).
    pub slo: SimDuration,
    /// Predicted backlog makespan above `brownout_multiple × slo` degrades
    /// new photo requests to lo-res instead of full quality.
    pub brownout_multiple: f64,
    /// Predicted backlog makespan above `shed_multiple × slo` sheds new
    /// requests outright — except protected queries, which are degraded.
    pub shed_multiple: f64,
    /// Queries with ID below this are *protected*: in the shed band they
    /// are degraded rather than shed (priority is admission order — the
    /// oldest registered queries are the highest priority).
    pub protected_queries: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate_per_sec: 10.0,
            burst: 20.0,
            slo: SimDuration::from_secs(10),
            brownout_multiple: 1.0,
            shed_multiple: 3.0,
            protected_queries: 0,
        }
    }
}

/// How a batch of concurrent action requests is distributed over devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Each request independently goes to its currently-cheapest available
    /// candidate (pure device-selection optimization, §2.3).
    MinCost,
    /// Batches of two or more requests are scheduled together with
    /// LERFA + SRFE (§5); singletons fall back to min-cost.
    Scheduled,
}

/// Tunable engine parameters.
///
/// The defaults correspond to the paper's deployment: synchronization on and
/// scheduled dispatch. Every candidate is probed before costing (§4), the
/// sensor tables are sampled once a second, a device-level failure is
/// terminal for its request, and a request that cannot start within 30 s
/// of its event times out.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Master seed for all engine randomness.
    pub seed: u64,
    /// Enable the locking mechanism (§4). Turning this off reproduces the
    /// §6.2 interference failures.
    pub sync_enabled: bool,
    /// Batch dispatch policy.
    pub dispatch: DispatchPolicy,
    /// When the local candidate set is exhausted (no probeable candidate at
    /// dispatch, or no surviving candidate after a crash), park the request
    /// in an escalation buffer for an external gateway instead of failing it
    /// terminally. Off by default — a standalone engine has no sibling to
    /// escalate to, so exhaustion stays a terminal `no_candidate`/`orphaned`
    /// outcome exactly as before.
    pub escalate_exhausted: bool,
    /// End-to-end deadline budget granted to every action request at
    /// admission: the request must *complete* by `created_at + deadline`.
    /// The scheduler sheds assignments predicted to finish past it, the
    /// executor cancels work at expiry (releasing the holder's lock), and
    /// gateways drop expired escalations — each a counted outcome, never a
    /// silent loss. `None` (the default) disables deadline enforcement
    /// entirely; the request lifecycle then matches the seed engine.
    pub deadline: Option<SimDuration>,
    /// Token-bucket admission control with brownout degradation. `None`
    /// (the default) admits everything, exactly as the seed engine did.
    pub admission: Option<AdmissionConfig>,
    /// Per-device circuit breakers over probe/action failures. `None` (the
    /// default) never quarantines a device.
    pub breaker: Option<BreakerConfig>,
    /// Enable the deterministic observability layer (`aorta-obs`): a
    /// metrics registry of counters, gauges and latency histograms plus
    /// structured span events, all stamped from the virtual clock.
    /// Recording is strictly write-only, so enabling it never changes
    /// engine behavior — but it is off by default so the seed experiments
    /// stay bit-for-bit unchanged *and* pay no recording cost.
    pub observability: bool,
    /// Enable in-network operator pushdown: each query's maximal pushable
    /// prefix — its leading indexable comparisons and windowed aggregate
    /// comparisons, the leading non-fallback slots of its predicate-index
    /// group — counts as evaluated on the device, and samples on which
    /// every watching query's detection walk stops cleanly false inside
    /// that prefix are *suppressed* — replaced on the wire by a one-byte
    /// marker instead of the full attribute reply. The decision is read
    /// off the walk detection performs anyway, so detections, traces and
    /// stats are byte-identical with the flag on or off; only the pushdown
    /// byte accounting ([`crate::PushdownStats`]) changes. Off by default
    /// so the committed seed artifacts stay bit-for-bit unchanged.
    pub pushdown: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 42,
            sync_enabled: true,
            dispatch: DispatchPolicy::Scheduled,
            escalate_exhausted: false,
            deadline: None,
            admission: None,
            breaker: None,
            observability: false,
            pushdown: false,
        }
    }
}

impl EngineConfig {
    /// The default configuration with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        EngineConfig {
            seed,
            ..EngineConfig::default()
        }
    }

    /// Disables synchronization (the §6.2 "without locking" arm).
    pub fn without_sync(mut self) -> Self {
        self.sync_enabled = false;
        self
    }

    /// Sets the dispatch policy, builder style.
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Grants every request an explicit end-to-end deadline budget,
    /// builder style.
    pub fn with_deadline(mut self, budget: SimDuration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Enables token-bucket admission control and brownout, builder style.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Enables per-device circuit breakers, builder style.
    pub fn with_breakers(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Enables the deterministic observability layer, builder style.
    pub fn with_observability(mut self) -> Self {
        self.observability = true;
        self
    }

    /// Enables in-network operator pushdown, builder style.
    pub fn with_pushdown(mut self) -> Self {
        self.pushdown = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        let c = EngineConfig::default();
        assert!(c.sync_enabled);
        assert_eq!(c.dispatch, DispatchPolicy::Scheduled);
    }

    #[test]
    fn builders_toggle_flags() {
        let c = EngineConfig::seeded(7).without_sync();
        assert_eq!(c.seed, 7);
        assert!(!c.sync_enabled);
        let c = EngineConfig::default().with_dispatch(DispatchPolicy::MinCost);
        assert_eq!(c.dispatch, DispatchPolicy::MinCost);
    }

    #[test]
    fn overload_knobs_default_off() {
        let c = EngineConfig::default();
        assert_eq!(c.deadline, None);
        assert_eq!(c.admission, None);
        assert_eq!(c.breaker, None);
        assert!(!c.observability, "observability must be opt-in");
        assert!(EngineConfig::default().with_observability().observability);
    }

    #[test]
    fn pushdown_is_opt_in() {
        assert!(!EngineConfig::default().pushdown);
        assert!(EngineConfig::default().with_pushdown().pushdown);
    }

    #[test]
    fn overload_builders_set_their_fields() {
        let c = EngineConfig::default().with_deadline(SimDuration::from_secs(7));
        assert_eq!(c.deadline, Some(SimDuration::from_secs(7)));
        let c = EngineConfig::default()
            .with_admission(AdmissionConfig::default())
            .with_breakers(aorta_net::BreakerConfig::default());
        assert!(c.admission.is_some() && c.breaker.is_some());
    }
}
