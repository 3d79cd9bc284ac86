//! The probing mechanism (§4).
//!
//! "A probe on a candidate device includes the transmission of several
//! messages between the optimizer and the device. The major role of the
//! probing mechanism is to check the current availability of a candidate
//! device … A system-provided TIMEOUT value is set for each type of devices
//! to break the probe on unresponsive devices."
//!
//! Each logical probe is exactly that single attempt under the per-kind
//! TIMEOUT: a device that does not answer in time is unavailable for this
//! dispatch. [`RetryPolicy`] lives here as the backoff schedule the cluster
//! gateway applies to parked escalations.

use aorta_device::{DeviceId, PhysicalStatus};
use aorta_obs::{SharedMetrics, SpanKind};
use aorta_sim::{SimDuration, SimRng, SimTime};

use crate::channel::{Channel, Exchange};
use crate::endpoint;
use crate::{DeviceRegistry, Message};

/// The outcome of probing one candidate device.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// The device answered within the TIMEOUT.
    Available {
        /// Its current physical status (feeds the cost model).
        status: PhysicalStatus,
        /// Probe round-trip time.
        rtt: SimDuration,
    },
    /// No answer within the per-kind TIMEOUT; the device is excluded from
    /// device-selection optimization.
    TimedOut,
    /// The device is not registered at all.
    Unknown,
}

impl ProbeOutcome {
    /// True when the device can be considered for selection.
    pub fn is_available(&self) -> bool {
        matches!(self, ProbeOutcome::Available { .. })
    }

    /// The probed status, when available.
    pub fn status(&self) -> Option<&PhysicalStatus> {
        match self {
            ProbeOutcome::Available { status, .. } => Some(status),
            _ => None,
        }
    }
}

/// A bounded retry schedule with exponential backoff.
///
/// A failed attempt is retried after an exponentially growing backoff: the
/// wait before attempt `k + 1` is `backoff_base × 2^(k-1)` plus a uniform
/// jitter in `[0, jitter]` drawn from the caller's [`SimRng`]. The default
/// is [`RetryPolicy::none`], a single attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    backoff_base: SimDuration,
    jitter: SimDuration,
}

impl RetryPolicy {
    /// A single attempt, no retries (the default).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
        }
    }

    /// A policy with the given attempt budget, backoff base, and jitter cap.
    ///
    /// # Panics
    ///
    /// Panics when `max_attempts` is zero.
    pub fn new(max_attempts: u32, backoff_base: SimDuration, jitter: SimDuration) -> Self {
        assert!(max_attempts >= 1, "a probe needs at least one attempt");
        RetryPolicy {
            max_attempts,
            backoff_base,
            jitter,
        }
    }

    /// Total attempts allowed (first try included).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The backoff base duration.
    pub fn backoff_base(&self) -> SimDuration {
        self.backoff_base
    }

    /// The maximum uniform jitter added to each backoff wait.
    pub fn jitter(&self) -> SimDuration {
        self.jitter
    }

    /// The wait after failed attempt `attempt` (1-based): `base × 2^(attempt-1)`,
    /// jitter excluded.
    pub fn backoff_after(&self, attempt: u32) -> SimDuration {
        self.backoff_base
            .mul_f64((1u64 << (attempt - 1).min(32)) as f64)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Why one probe failed. Each failed probe is classified into exactly one
/// of these, so the prober's failure counters are mutually exclusive by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptFailure {
    /// The device is administratively offline.
    Offline,
    /// The device's own reliability model rejected the contact (radio hops,
    /// coverage, connect loss).
    Unreachable,
    /// The wire lost a message in either direction.
    WireLost,
    /// The reply arrived, but after the per-kind TIMEOUT.
    SlowReply,
}

/// Probes candidate devices through the communication layer.
///
/// Counter semantics: `probes_sent` counts probes of registered devices,
/// `timeouts` counts the failed ones, and the four failure-reason counters
/// (`offline_failures`, `unreachable_failures`, `wire_lost`, `slow_replies`)
/// partition the failed probes — each failed probe increments exactly one
/// of them.
#[derive(Debug, Clone, Default)]
pub struct Prober {
    probes_sent: u64,
    timeouts: u64,
    offline_failures: u64,
    unreachable_failures: u64,
    wire_lost: u64,
    slow_replies: u64,
    metrics: Option<SharedMetrics>,
}

impl Prober {
    /// Creates a prober.
    pub fn new() -> Self {
        Prober::default()
    }

    /// Attaches a metrics handle; every subsequent probe records attempt /
    /// timeout counters, an RTT histogram, and one `probe` span. Recording
    /// is write-only and never changes probe behavior.
    pub fn set_metrics(&mut self, metrics: SharedMetrics) {
        self.metrics = Some(metrics);
    }

    /// Total probes sent to registered devices.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Probes that got no timely answer.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Probes that failed because the device was administratively offline.
    pub fn offline_failures(&self) -> u64 {
        self.offline_failures
    }

    /// Probes rejected by the device's own reliability model.
    pub fn unreachable_failures(&self) -> u64 {
        self.unreachable_failures
    }

    /// Probes whose request or reply was lost on the wire.
    pub fn wire_lost(&self) -> u64 {
        self.wire_lost
    }

    /// Probes whose reply arrived after the TIMEOUT.
    pub fn slow_replies(&self) -> u64 {
        self.slow_replies
    }

    /// Probes one device: connect, exchange `Probe`/`ProbeReply`, close.
    pub fn probe(
        &mut self,
        registry: &mut DeviceRegistry,
        id: DeviceId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ProbeOutcome {
        self.probe_timed(registry, id, now, rng).0
    }

    /// Like [`Prober::probe`], also returning the virtual time the probe
    /// consumed: the round-trip time on success, the full TIMEOUT otherwise
    /// (the optimizer waits it out before it declares the device dead).
    pub fn probe_timed(
        &mut self,
        registry: &mut DeviceRegistry,
        id: DeviceId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> (ProbeOutcome, SimDuration) {
        if registry.get(id).is_none() {
            return (ProbeOutcome::Unknown, SimDuration::ZERO);
        }
        let device_label = id.to_string();
        let timeout = registry.probe_timeout(id.kind());
        let channel = Channel::new(registry.link(id.kind()).clone());
        self.probes_sent += 1;
        if let Some(m) = &self.metrics {
            m.incr("aorta_probe_attempts", &[("device", &device_label)], 1);
        }
        match attempt_once(registry, id, timeout, &channel, now, rng) {
            Ok((status, rtt)) => {
                if let Some(m) = &self.metrics {
                    m.observe("aorta_probe_rtt", &[("device", &device_label)], rtt);
                    m.span(
                        SpanKind::Probe,
                        now + rtt,
                        rtt,
                        &format!("device={device_label} attempts=1 outcome=available"),
                    );
                }
                (ProbeOutcome::Available { status, rtt }, rtt)
            }
            Err(failure) => {
                match failure {
                    AttemptFailure::Offline => self.offline_failures += 1,
                    AttemptFailure::Unreachable => self.unreachable_failures += 1,
                    AttemptFailure::WireLost => self.wire_lost += 1,
                    AttemptFailure::SlowReply => self.slow_replies += 1,
                }
                self.timeouts += 1;
                if let Some(m) = &self.metrics {
                    m.incr("aorta_probe_timeouts", &[("device", &device_label)], 1);
                    m.span(
                        SpanKind::Probe,
                        now + timeout,
                        timeout,
                        &format!("device={device_label} attempts=1 outcome=timeout"),
                    );
                }
                (ProbeOutcome::TimedOut, timeout)
            }
        }
    }
}

/// One probe attempt, classified into success or exactly one failure kind.
fn attempt_once(
    registry: &mut DeviceRegistry,
    id: DeviceId,
    timeout: SimDuration,
    channel: &Channel,
    at: SimTime,
    rng: &mut SimRng,
) -> Result<(PhysicalStatus, SimDuration), AttemptFailure> {
    let entry = registry.get_mut(id).ok_or(AttemptFailure::Offline)?;
    if !entry.online {
        return Err(AttemptFailure::Offline);
    }
    // Device-level availability (radio hops, coverage, connect loss).
    let status = entry
        .sim
        .probe(at, rng)
        .ok_or(AttemptFailure::Unreachable)?;
    // Wire-level exchange. A lost message and an over-TIMEOUT reply are
    // distinct failure modes and counted separately.
    match channel.exchange(&Message::Probe, rng, || endpoint::probe_reply(&status)) {
        Exchange::Reply { rtt, .. } if rtt <= timeout => Ok((status, rtt)),
        Exchange::Reply { .. } => Err(AttemptFailure::SlowReply),
        Exchange::Lost => Err(AttemptFailure::WireLost),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::Location;
    use aorta_device::{Camera, CameraFailureModel, DeviceKind, Mote, PervasiveLab};
    use aorta_sim::LinkModel;

    fn reliable_registry() -> DeviceRegistry {
        let mut reg = DeviceRegistry::from_lab(PervasiveLab::standard().with_reliable_cameras());
        // Deterministic wire for the camera tests.
        reg.set_link(DeviceKind::Camera, LinkModel::ideal());
        reg
    }

    #[test]
    fn probing_reliable_camera_yields_status() {
        let mut reg = reliable_registry();
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(1);
        let outcome = prober.probe(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng);
        assert!(outcome.is_available());
        assert!(outcome.status().unwrap().as_camera_head().is_some());
        assert_eq!(prober.probes_sent(), 1);
        assert_eq!(prober.timeouts(), 0);
    }

    #[test]
    fn unknown_device() {
        let mut reg = DeviceRegistry::new();
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(2);
        assert_eq!(
            prober.probe(&mut reg, DeviceId::camera(9), SimTime::ZERO, &mut rng),
            ProbeOutcome::Unknown
        );
        assert_eq!(prober.probes_sent(), 0);
    }

    #[test]
    fn offline_device_times_out() {
        let mut reg = reliable_registry();
        reg.set_online(DeviceId::camera(0), false);
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(3);
        assert_eq!(
            prober.probe(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng),
            ProbeOutcome::TimedOut
        );
        assert_eq!(prober.timeouts(), 1);
        assert_eq!(prober.offline_failures(), 1);
    }

    #[test]
    fn unreachable_camera_times_out() {
        let mut reg = reliable_registry();
        let dead = Camera::ceiling_mounted(5, Location::ORIGIN).with_failure(CameraFailureModel {
            connect_loss: 1.0,
            ..CameraFailureModel::reliable()
        });
        reg.register(dead.into(), SimTime::ZERO);
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(4);
        assert_eq!(
            prober.probe(&mut reg, DeviceId::camera(5), SimTime::ZERO, &mut rng),
            ProbeOutcome::TimedOut
        );
        assert_eq!(prober.unreachable_failures(), 1);
    }

    #[test]
    fn deep_lossy_mote_often_times_out() {
        let mut reg = DeviceRegistry::new();
        let mote = Mote::new(0, Location::ORIGIN, 5).with_per_hop_loss(0.15);
        reg.register(mote.into(), SimTime::ZERO);
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(5);
        for _ in 0..200 {
            let _ = prober.probe(&mut reg, DeviceId::sensor(0), SimTime::ZERO, &mut rng);
        }
        // (0.85)^10 ≈ 0.197 survive the radio path, so most probes fail.
        let rate = prober.timeouts() as f64 / prober.probes_sent() as f64;
        assert!(rate > 0.6, "timeout rate {rate}");
    }

    #[test]
    fn slow_link_exceeds_timeout() {
        let mut reg = reliable_registry();
        reg.set_link(
            DeviceKind::Camera,
            LinkModel::new(SimDuration::from_secs(10), SimDuration::ZERO, 0.0),
        );
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(6);
        assert_eq!(
            prober.probe(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng),
            ProbeOutcome::TimedOut
        );
        assert_eq!(prober.slow_replies(), 1);
        assert_eq!(prober.wire_lost(), 0);
    }

    /// Regression: a lost reply and an over-TIMEOUT reply used to fall into
    /// one undifferentiated `timeouts` bucket. They are separate failure
    /// modes and must be counted exactly once each, mutually exclusively.
    #[test]
    fn failure_counters_are_mutually_exclusive() {
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(8);

        // Arm 1: total wire loss → wire_lost, nothing else.
        let mut reg = reliable_registry();
        reg.set_link(
            DeviceKind::Camera,
            LinkModel::new(SimDuration::ZERO, SimDuration::ZERO, 1.0),
        );
        let out = prober.probe(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng);
        assert_eq!(out, ProbeOutcome::TimedOut);
        assert_eq!(
            (prober.wire_lost(), prober.slow_replies()),
            (1, 0),
            "wire loss misclassified"
        );

        // Arm 2: reply arrives but too slow → slow_replies, wire_lost
        // unchanged.
        let mut reg = reliable_registry();
        reg.set_link(
            DeviceKind::Camera,
            LinkModel::new(SimDuration::from_secs(10), SimDuration::ZERO, 0.0),
        );
        let out = prober.probe(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng);
        assert_eq!(out, ProbeOutcome::TimedOut);
        assert_eq!((prober.wire_lost(), prober.slow_replies()), (1, 1));

        // Arm 3: offline → offline_failures only.
        let mut reg = reliable_registry();
        reg.set_online(DeviceId::camera(0), false);
        let _ = prober.probe(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng);

        // Every failed probe classified exactly once.
        let failed_attempts = prober.offline_failures()
            + prober.unreachable_failures()
            + prober.wire_lost()
            + prober.slow_replies();
        assert_eq!(failed_attempts, 3);
        assert_eq!(prober.probes_sent(), 3);
        assert_eq!(prober.timeouts(), 3);
    }

    #[test]
    fn probe_time_is_rtt_or_one_timeout() {
        let mut reg = reliable_registry();
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(10);
        let (out, elapsed) =
            prober.probe_timed(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng);
        let ProbeOutcome::Available { rtt, .. } = out else {
            panic!("reliable camera unavailable: {out:?}");
        };
        assert_eq!(elapsed, rtt);
        reg.set_link(
            DeviceKind::Camera,
            LinkModel::new(SimDuration::ZERO, SimDuration::ZERO, 1.0),
        );
        let (out, elapsed) =
            prober.probe_timed(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng);
        assert_eq!(out, ProbeOutcome::TimedOut);
        assert_eq!(elapsed, reg.probe_timeout(DeviceKind::Camera));
    }

    #[test]
    fn retry_policy_validation_and_defaults() {
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
        assert_eq!(RetryPolicy::none().max_attempts(), 1);
        let p = RetryPolicy::new(3, SimDuration::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(p.backoff_after(1), SimDuration::from_millis(10));
        assert_eq!(p.backoff_after(2), SimDuration::from_millis(20));
        assert_eq!(p.jitter(), SimDuration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempt_policy_rejected() {
        let _ = RetryPolicy::new(0, SimDuration::ZERO, SimDuration::ZERO);
    }
}
