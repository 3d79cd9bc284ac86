//! # aorta-data — relational data model
//!
//! The uniform data communication layer abstracts each device type into a
//! *virtual relational table* (paper §3.2): every tuple comes from one
//! device, attributes are either **sensory** (acquired live — sensor
//! readings, camera head position, battery voltage) or **non-sensory**
//! (static — locations, IP addresses, phone numbers). This crate defines the
//! value, schema and tuple types shared by the communication layer, the SQL
//! front-end and the query engine.
//!
//! # Example
//!
//! ```
//! use aorta_data::{AttrKind, Location, Schema, Tuple, Value, ValueType};
//!
//! let schema = Schema::builder("sensor")
//!     .attr("id", ValueType::Int, AttrKind::NonSensory)
//!     .attr("loc", ValueType::Location, AttrKind::NonSensory)
//!     .attr("accel_x", ValueType::Int, AttrKind::Sensory)
//!     .build();
//! let tuple = Tuple::new(vec![
//!     Value::Int(3),
//!     Value::Location(Location::new(1.0, 2.0, 0.0)),
//!     Value::Int(612),
//! ]);
//! assert_eq!(schema.index_of("accel_x"), Some(2));
//! assert_eq!(tuple.get(2), Some(&Value::Int(612)));
//! ```

#![warn(missing_docs)]

pub mod codec;
mod error;
mod location;
mod schema;
mod tuple;
mod value;

pub use error::DataError;
pub use location::Location;
pub use schema::{AttrDef, AttrKind, Schema, SchemaBuilder};
pub use tuple::Tuple;
pub use value::{Value, ValueType};
