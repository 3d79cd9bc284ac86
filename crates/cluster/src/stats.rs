//! Cluster-wide statistics: per-shard engine counters aggregated under the
//! same conservation discipline the single engine guarantees.
//!
//! The engine invariant (per shard) is
//! `requests + escalated_in == terminal + pending + escalated_out`: a
//! request a shard admits (or adopts) either reaches a terminal counter,
//! is visibly pending, or has been handed to the gateway. The gateway in
//! turn re-injects every escalated request into exactly one sibling or
//! counts it dropped (or expired, when its deadline lapsed in flight), so
//! cluster-wide the sums telescope to
//! `Σ requests == Σ terminal + Σ pending + gateway_dropped + gateway_expired`
//! — a re-routed request is counted exactly once, on the shard that
//! admitted it. The per-shard terminal set includes the overload outcomes
//! (`shed`, `expired`, `degraded`) alongside the failure counters.

use aorta_core::EngineStats;

/// Aggregated statistics for a [`crate::ShardManager`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Per-shard engine snapshots, indexed by shard ID.
    pub per_shard: Vec<EngineStats>,
    /// Requests admitted but not yet terminally resolved, summed over
    /// shards (queued executions plus operator backlogs).
    pub pending: u64,
    /// Requests the gateway re-routed to a sibling shard.
    pub rerouted: u64,
    /// Escalated requests no sibling could serve (or that had already
    /// visited every shard); these are the cluster's terminal drops.
    pub gateway_dropped: u64,
    /// Escalated requests whose deadline lapsed in flight at the gateway —
    /// dropped as counted sheds instead of being retried forever.
    pub gateway_expired: u64,
    /// Escalated requests currently parked in the gateway's backoff queue
    /// (awaiting delivery to a sibling, or admission-queued while their
    /// shard rebuilds). In-flight, not lost: they resolve to an injection,
    /// a drop, or an expiry on delivery.
    pub gateway_parked: u64,
    /// Device ownership transfers performed by the rebalancer.
    pub migrations: u64,
    /// Cross-host failovers completed (dead shard rebuilt from a shipped
    /// snapshot image on a fresh host).
    pub failovers: u64,
    /// Deliveries stamped with a fenced-off incarnation epoch, rejected at
    /// the fence and re-routed under the current epoch — counted, never
    /// double-applied.
    pub zombie_rejects: u64,
}

impl ClusterStats {
    /// Requests admitted cluster-wide (each counted once, on the shard
    /// whose event detection created it).
    pub fn requests(&self) -> u64 {
        self.per_shard.iter().map(|s| s.requests).sum()
    }

    /// Requests whose action a device accepted, cluster-wide.
    pub fn executed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.executed).sum()
    }

    /// Requests escalated by shards to the gateway.
    pub fn escalated_out(&self) -> u64 {
        self.per_shard.iter().map(|s| s.escalated_out).sum()
    }

    /// Escalated requests adopted by sibling shards.
    pub fn escalated_in(&self) -> u64 {
        self.per_shard.iter().map(|s| s.escalated_in).sum()
    }

    /// Requests completed at degraded (brownout) quality, cluster-wide.
    pub fn degraded(&self) -> u64 {
        self.per_shard.iter().map(|s| s.degraded).sum()
    }

    /// Requests shed by admission or deadline rejection, cluster-wide.
    pub fn shed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.shed).sum()
    }

    /// Requests cancelled at execution after their deadline, cluster-wide.
    pub fn expired(&self) -> u64 {
        self.per_shard.iter().map(|s| s.expired).sum()
    }

    /// Successes that completed after their deadline, cluster-wide.
    pub fn late_successes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.late_successes).sum()
    }

    /// Sum of every terminal outcome counter over all shards.
    pub fn terminal(&self) -> u64 {
        self.per_shard.iter().map(EngineStats::terminal).sum()
    }

    /// Mean event-to-completion latency over executed requests,
    /// cluster-wide (weighted by each shard's executed count), in seconds.
    pub fn mean_latency_secs(&self) -> Option<f64> {
        let mut total = 0.0;
        let mut count = 0u64;
        for s in &self.per_shard {
            if let Some(lat) = s.mean_action_latency {
                let n = s.latency_weight();
                total += lat.as_secs_f64() * n as f64;
                count += n;
            }
        }
        (count > 0).then(|| total / count as f64)
    }

    /// Verifies the cluster-wide conservation invariant, returning a
    /// description of the imbalance when it fails.
    ///
    /// Checks both the telescoped cluster identity (requests equal
    /// `terminal + pending + gateway_dropped + gateway_expired +
    /// gateway_parked`) and the gateway's own ledger (escalated_out equals
    /// `escalated_in + gateway_dropped + gateway_expired +
    /// gateway_parked`): together they imply every re-routed request is
    /// counted exactly once. The parked term covers the degraded window —
    /// work queued at the gateway while a shard rebuilds is in flight, not
    /// lost. Zombie rejects enter neither identity: a fenced delivery is a
    /// discarded *duplicate*; the request itself is re-routed and stays
    /// accounted through the other terms.
    pub fn check_conservation(&self) -> Result<(), String> {
        let requests = self.requests();
        let accounted = self.terminal()
            + self.pending
            + self.gateway_dropped
            + self.gateway_expired
            + self.gateway_parked;
        if requests != accounted {
            return Err(format!(
                "requests {requests} != terminal {} + pending {} + gateway_dropped {} \
                 + gateway_expired {} + gateway_parked {}",
                self.terminal(),
                self.pending,
                self.gateway_dropped,
                self.gateway_expired,
                self.gateway_parked
            ));
        }
        let out = self.escalated_out();
        let handled =
            self.escalated_in() + self.gateway_dropped + self.gateway_expired + self.gateway_parked;
        if out != handled {
            return Err(format!(
                "escalated_out {out} != escalated_in {} + gateway_dropped {} + gateway_expired {} \
                 + gateway_parked {}",
                self.escalated_in(),
                self.gateway_dropped,
                self.gateway_expired,
                self.gateway_parked
            ));
        }
        Ok(())
    }
}

/// Extension used by the latency aggregation: `EngineStats` exposes only
/// the mean, so weight it by executions (the mean's denominator is the
/// count of completed actions, which `executed` tracks closely enough for
/// an aggregate mean across homogeneous shards).
trait LatencyWeight {
    fn latency_weight(&self) -> u64;
}

impl LatencyWeight for EngineStats {
    fn latency_weight(&self) -> u64 {
        // Degraded completions record latencies too.
        self.executed + self.degraded
    }
}
