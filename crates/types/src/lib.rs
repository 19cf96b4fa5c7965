//! Shared foundation types for the MoPAC Rowhammer-mitigation simulator.
//!
//! This crate holds the vocabulary used by every other crate in the
//! workspace: DRAM geometry and component identifiers ([`geometry`]),
//! physical addresses ([`addr`]), simulation time ([`time`]), deterministic
//! random-number generation ([`rng`]), and the metrics registry and
//! stats-struct declarations ([`obs`]).
//!
//! # Examples
//!
//! ```
//! use mopac_types::geometry::DramGeometry;
//! use mopac_types::addr::PhysAddr;
//!
//! let geom = DramGeometry::ddr5_32gb();
//! assert_eq!(geom.banks_per_subchannel, 32);
//! assert_eq!(geom.rows_per_bank, 64 * 1024);
//! let addr = PhysAddr::new(0x1234_5678);
//! assert_eq!(addr.line_index(64), 0x1234_5678 / 64);
//! ```

pub mod addr;
pub mod bankmask;
pub mod check;
pub mod collections;
pub mod error;
pub mod geometry;
pub mod jedec;
pub mod knob;
pub mod obs;
pub mod persist;
pub mod rng;
pub mod snapshot;
pub mod time;

pub use addr::{DecodedAddr, PhysAddr};
pub use error::{MopacError, MopacResult};
pub use geometry::{BankRef, DramGeometry};
pub use obs::{MetricsSink, MetricsSnapshot, SinkConfig};
pub use rng::DetRng;
pub use snapshot::{SnapshotReader, SnapshotWriter, Snapshottable};
pub use time::{Cycle, MemClock};
