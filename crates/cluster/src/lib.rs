//! # aorta-cluster — sharded multi-engine execution
//!
//! Scales the single-engine design to a partitioned fleet (the paper's §8
//! "large number of heterogeneous devices" direction): a [`ShardManager`]
//! runs *k* independent [`aorta_core::Aorta`] engines over disjoint device
//! slices on **one** deterministic virtual clock, a gateway routes admitted
//! queries and escalated action requests between them, and a rebalancer
//! migrates device ownership at safe points when backlogs skew.
//!
//! Three properties carry over from the single engine, by construction:
//!
//! * **Determinism** — shards step in `(next_event_time, shard_id)` order
//!   and each shard's engine seed forks from the cluster seed, so the
//!   concatenated cluster trace is byte-identical across runs of the same
//!   seed, crash storms included.
//! * **Conservation** — [`ClusterStats::check_conservation`]: every
//!   admitted request terminates on exactly one shard, is visibly pending,
//!   or is a counted gateway drop; a re-routed request is counted once.
//! * **Paper-faithful scheduling** — the gateway batch model
//!   ([`run_photo_batch`], experiment E8) reuses LERFA + SRFE and the
//!   op-counted CPU model unchanged; sharding shrinks the serial per-shard
//!   control plane (probe, schedule, transmit) while service stays
//!   parallel.
//!
//! ```
//! use aorta_cluster::{ClusterConfig, ShardManager};
//! use aorta_device::PervasiveLab;
//! use aorta_sim::SimDuration;
//!
//! let lab = PervasiveLab::with_sizes(8, 12, 0)
//!     .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
//! let mut cluster = ShardManager::new(ClusterConfig::seeded(7, 4), lab);
//! cluster
//!     .execute_sql(
//!         r#"CREATE AQ snap AS SELECT photo(c.ip, s.loc, "p")
//!            FROM sensor s, camera c
//!            WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#,
//!     )
//!     .unwrap();
//! cluster.run_for(SimDuration::from_mins(2));
//! cluster.stats().check_conservation().unwrap();
//! ```

#![warn(missing_docs)]

mod batch;
mod cluster;
mod partition;
mod stats;

pub use batch::{run_photo_batch, BatchConfig, BatchOutcome, ShardBatchReport};
pub use cluster::{
    metrics_demo, ClusterConfig, FailoverConfig, FailoverEvent, ShardManager, WalClusterConfig,
    WalReport,
};
pub use partition::{owner_of, stripe_of};
pub use stats::ClusterStats;
