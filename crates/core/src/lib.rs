//! # aorta-core — the action-oriented query processing engine
//!
//! The middle layer of the Aorta architecture (§2.1): it parses and
//! registers action-embedded continuous queries, generates plans with
//! **actions as first-class operators**, shares action operators among
//! concurrent queries, performs cost-based device-selection optimization
//! (probe → estimate → pick cheapest), enforces device synchronization
//! (locking + probing, §4), and schedules multi-request action workloads
//! through `aorta-sched` (§5).
//!
//! The facade is [`Aorta`]:
//!
//! ```
//! use aorta_core::{Aorta, EngineConfig};
//! use aorta_device::PervasiveLab;
//! use aorta_sim::SimDuration;
//!
//! // Ten motes spiking once per minute (the §6.2 workload).
//! let lab = PervasiveLab::standard()
//!     .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
//! let mut aorta = Aorta::with_lab(EngineConfig::default(), lab);
//! aorta.execute_sql(
//!     r#"CREATE AQ snapshot AS
//!        SELECT photo(c.ip, s.loc, "photos/admin")
//!        FROM sensor s, camera c
//!        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#,
//! )?;
//! aorta.run_for(SimDuration::from_mins(2));
//! let stats = aorta.stats();
//! assert!(stats.requests > 0);
//! # Ok::<(), aorta_core::EngineError>(())
//! ```

#![warn(missing_docs)]

mod actions;
mod admission;
mod catalog;
mod config;
mod cost;
mod engine;
mod error;
mod exec;
mod expr;
mod lock;
mod pindex;
mod plan;
mod recovery;
mod shared;

pub use actions::{ActionDef, ActionHandler, ActionProfile, CustomHandler, ProfileNode, UnitsSpec};
pub use catalog::Catalog;
pub use config::{AdmissionConfig, DispatchPolicy, EngineConfig};
pub use cost::{estimate_action_cost, CostContext};
pub use engine::{Aorta, ExecOutput};
pub use error::EngineError;
pub use exec::{EngineStats, PushdownStats};
pub use expr::{eval_expr, Env, EvalContext};
pub use lock::LockManager;
pub use pindex::PredicateIndex;
pub use plan::{ActionCallPlan, AqPlan, DevicePart, WindowedCmp};
pub use recovery::{
    genesis_fingerprint, recover_engine, recover_from_log, request_from_wire, restore_from_image,
    wire_from_request, GenesisSpec, Recovered,
};
pub use shared::{ActionRequest, CandidateBlock, SharedActionOperator};
