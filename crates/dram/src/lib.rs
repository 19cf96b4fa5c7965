//! Cycle-level DDR5 DRAM device model for the MoPAC reproduction.
//!
//! This crate is the simulation substrate the paper obtains from
//! DRAMSim3: a per-sub-channel table of bank row state and JEDEC timing
//! gates, and each bank's mitigation state ([`bank`]), the
//! Table 1 timing sets for base DDR5 and PRAC ([`timing`]), and the
//! device-level shared resources, refresh machinery and ALERT/RFM (ABO)
//! protocol ([`device`]).
//!
//! The device embeds a boxed [`mopac::engine::MitigationEngine`] in
//! every bank, plus one [`mopac::checker::Disturbance`] store read by two
//! optional views: the [`mopac::checker::Oracle`] and the victim-data
//! flip plane ([`flip`]). Any command stream driven through it is
//! simultaneously timed, protected and security-checked.
//!
//! # Examples
//!
//! ```
//! use mopac_dram::device::{DramConfig, DramDevice};
//! use mopac::config::MitigationConfig;
//! use mopac_types::error::MopacResult;
//!
//! fn demo() -> MopacResult<()> {
//!     let mut dev = DramDevice::new(DramConfig::tiny(MitigationConfig::prac(500)));
//!     let at = dev.earliest_activate(0, 0).ok_or_else(|| {
//!         mopac_types::error::MopacError::internal("bank unexpectedly open")
//!     })?;
//!     dev.activate(0, 0, /*row=*/ 7, at, false)?;
//!     let rd = dev.earliest_column(0, 0, 7).ok_or_else(|| {
//!         mopac_types::error::MopacError::internal("row not open")
//!     })?;
//!     let data_done = dev.read(0, 0, rd)?;
//!     assert!(data_done > rd);
//!     Ok(())
//! }
//! demo().unwrap();
//! ```

// The robustness contract (see DESIGN.md): library code surfaces
// failures as `MopacResult`, never by unwrapping. Tests are exempt
// via clippy.toml (`allow-unwrap-in-tests`).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bank;
pub mod device;
pub mod flip;
pub mod timing;

pub use bank::{GateKind, PrechargeKind};
pub use device::{DramConfig, DramDevice, DramStats};
pub use flip::{
    EccMode, FlipPlane, FlipPlaneConfig, FlipStats, ReadOutcome, TrhDistribution, VictimWords,
};
pub use timing::{AboTiming, TimingSet};
