//! # aorta-net — the uniform data communication layer
//!
//! §3 of the paper: the layer that "handles heterogeneous networking
//! protocols and provides a dynamic, logical view of networked devices".
//! Its three components map to modules here:
//!
//! 1. **Device profiles** — kept by the [`DeviceRegistry`] (catalog schemas
//!    from `aorta-device::catalog_for`, atomic-operation cost tables, probe
//!    timeouts per device type), plus dynamic join/leave.
//! 2. **Scan operators** — [`ScanOperator`] materializes each device type as
//!    a virtual relational table; sensory attributes are acquired live over
//!    the (lossy) wire, non-sensory attributes come from registry metadata.
//! 3. **Basic communication methods** — [`Channel`] and [`endpoint`]
//!    implement `connect/send/receive/close` over per-device-type
//!    [`aorta_sim::LinkModel`]s with a length-prefixed binary [`Message`] format.
//!
//! # Example
//!
//! ```
//! use aorta_net::{DeviceRegistry, ScanOperator};
//! use aorta_device::{DeviceKind, PervasiveLab};
//! use aorta_sim::{SimRng, SimTime};
//!
//! let mut registry = DeviceRegistry::from_lab(PervasiveLab::standard());
//! let mut rng = SimRng::seed(1);
//! let scan = ScanOperator::new(DeviceKind::Sensor);
//! let tuples = scan.run(&mut registry, SimTime::ZERO, &mut rng);
//! assert_eq!(tuples.len(), 10); // ten motes in the standard lab
//! ```

#![warn(missing_docs)]

mod breaker;
mod channel;
pub mod endpoint;
mod message;
mod probe;
mod profiles_dir;
mod registry;
mod scan;
mod ship;

pub use breaker::{BreakerBank, BreakerConfig, BreakerDecision, BreakerState};
pub use channel::Channel;
pub use message::Message;
pub use probe::{ProbeOutcome, Prober, RetryPolicy};
pub use profiles_dir::{export_profiles, import_cost_tables};
pub use registry::{DeviceEntry, DeviceRegistry, DeviceSim};
pub use scan::ScanOperator;
pub use ship::{ship_bytes, EpochFence, ShipConfig, ShipError, Shipment};
