//! CPU-side models for the MoPAC reproduction: the trace-driven
//! out-of-order core ([`core`]), the shared last-level cache ([`llc`]),
//! and the trace interface workloads implement ([`trace`]).
//!
//! Together with `mopac-memctrl` and `mopac-dram`, this reproduces the
//! paper's Table 3 system: 8 cores (4 GHz, 4-wide, 256-entry ROB)
//! sharing an 8 MB 16-way LLC in front of a 32 GB DDR5 device.
//!
//! # Examples
//!
//! ```
//! use mopac_cpu::core::{Core, CoreParams};
//!
//! let mut core = Core::new(CoreParams::paper_default());
//! core.push_instrs(16);
//! assert!(core.retire() > 0);
//! ```

pub mod core;
pub mod llc;
pub mod prefetch;
pub mod trace;

pub use crate::core::{Core, CoreParams, RetireModel};
pub use llc::{CacheAccess, Llc, LlcStats};
pub use prefetch::StreamPrefetcher;
pub use trace::{ReplayTrace, TraceRecord, TraceSource};
