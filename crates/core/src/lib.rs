//! MoPAC: probabilistic activation counting for Rowhammer mitigation.
//!
//! This crate implements the paper's contribution — the in-DRAM and
//! memory-controller-side mechanisms that track aggressor rows and decide
//! when to trigger ALERT-back-off (ABO):
//!
//! * [`counters`] — per-row PRAC activation counters;
//! * [`moat`] — the MOAT single-entry tracker (the baseline secure
//!   implementation of PRAC+ABO);
//! * [`mint`] — the MINT window sampler used by MoPAC-D;
//! * [`srq`] — MoPAC-D's Selected-Row Queue with ACtr/SCtr coalescing;
//! * [`config`] — mitigation configuration presets (PRAC, MoPAC-C,
//!   MoPAC-D, NUP, QPRAC, CnC-PRAC, Row-Press hardening, multi-chip);
//! * [`engine`] — the pluggable [`engine::MitigationEngine`] trait and
//!   the string-keyed [`engine::EngineRegistry`] of
//!   [`engine::EngineSpec`]s, each naming one design's preset,
//!   constructor and [`engine::TimingDemands`];
//! * [`engines`] — the built-in engine implementations;
//! * [`bank`] — what an engine reports back to its DRAM bank (alert
//!   causes, ABO service, statistics);
//! * [`checker`] — the security oracle that verifies no row ever receives
//!   `T_RH` activations without an intervening mitigation or refresh.
//!
//! The mathematical derivation of the parameters (`p`, `C`, `ATH*`) lives
//! in the sibling crate `mopac-analysis`; the DRAM timing model that
//! hosts these engines lives in `mopac-dram`.
//!
//! # Examples
//!
//! ```
//! use mopac::config::MitigationConfig;
//! use mopac::engine::build_engine;
//! use mopac_types::rng::DetRng;
//!
//! // A MoPAC-D bank engine at the paper's default threshold of 500.
//! let cfg = MitigationConfig::mopac_d(500);
//! let mut bank = build_engine(&cfg, 64 * 1024, DetRng::from_seed(1));
//! for act in 0..100u32 {
//!     bank.on_activate(act % 8, 0.0);
//! }
//! assert!(bank.stats().activations >= 100);
//! ```

// Robustness contract (see ci.sh): no unwrap/expect in non-test core
// code — promoted to errors by clippy -D warnings in CI.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bank;
pub mod checker;
pub mod config;
pub mod counters;
pub mod engine;
pub mod engines;
pub mod mint;
pub mod moat;
pub mod srq;

pub use bank::{AboService, AlertCause, MitigationStats};
pub use checker::RowhammerChecker;
pub use config::MitigationConfig;
pub use engine::{build_engine, EngineRegistry, EngineSpec, MitigationEngine, TimingDemands};
