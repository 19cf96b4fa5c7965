//! Full-system simulation harness for the MoPAC reproduction.
//!
//! Assembles the substrates — trace-driven cores (`mopac-cpu`), the
//! memory controller (`mopac-memctrl`) and the DDR5 device with embedded
//! mitigation engines (`mopac-dram`) — into the paper's Table 3 system
//! ([`system`]), provides workload-level experiment helpers and the
//! weighted-speedup metric ([`experiment`]), and a maximum-rate attack
//! driver for the security and performance-attack studies ([`attack`]).
//!
//! Robustness infrastructure rides alongside: deterministic fault
//! injection ([`fault`]) and a panic-isolated, timeout-guarded
//! experiment runner ([`runner`]).
//!
//! # Examples
//!
//! ```no_run
//! use mopac::config::MitigationConfig;
//! use mopac_sim::experiment::run_workload;
//! use mopac_types::MopacResult;
//!
//! fn headline() -> MopacResult<()> {
//!     let base = run_workload("xz", MitigationConfig::baseline(), 100_000)?;
//!     let prac = run_workload("xz", MitigationConfig::prac(500), 100_000)?;
//!     println!("PRAC slowdown on xz: {:.1}%", prac.slowdown_vs(&base) * 100.0);
//!     Ok(())
//! }
//! ```

// The robustness contract (see DESIGN.md): library code surfaces
// failures as `MopacResult`, never by unwrapping. Tests are exempt
// via clippy.toml (`allow-unwrap-in-tests`).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod campaign;
pub mod experiment;
pub mod fault;
pub mod runner;
pub mod shard;
pub mod system;

pub use attack::{run_attack, run_attack_instrumented, AttackConfig, AttackResult, AttackRun};
pub use campaign::{
    run_fault_campaign, run_fault_campaign_cells, FaultCampaignSpec, FaultCellOutcome,
    ParallelCampaign,
};
pub use experiment::run_workload;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
pub use runner::{IsolatedRunner, RunReport, RunStatus};
pub use shard::ChannelSet;
pub use system::{KernelMode, RunResult, System, SystemConfig};
