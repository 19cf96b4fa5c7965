//! Experiment-level helpers: build and run the paper's workloads against
//! a mitigation configuration and compute slowdowns.

use crate::system::{RunResult, System, SystemConfig};
use mopac::config::MitigationConfig;
use mopac_cpu::trace::TraceSource;
use mopac_memctrl::mapping::AddressMapper;
use mopac_types::error::{MopacError, MopacResult};
use mopac_workloads::generator::CalibratedTrace;
use mopac_workloads::spec::{self, MIXES};

/// Number of cores in the paper's system.
pub const CORES: usize = 8;

/// Every name [`build_traces`] accepts: the 23 single workloads plus
/// the `mix1`–`mix6` assignments.
#[must_use]
pub fn valid_workload_names() -> Vec<String> {
    let mut names: Vec<String> = spec::all_names()
        .iter()
        .map(|s| (*s).to_string())
        .chain(MIXES.iter().map(|(n, _)| (*n).to_string()))
        .collect();
    // `spec::all_names` already lists the mixes; drop the duplicates
    // while keeping the original ordering.
    let mut seen = std::collections::HashSet::new();
    names.retain(|n| seen.insert(n.clone()));
    names
}

fn unknown_workload(name: &str) -> MopacError {
    MopacError::UnknownWorkload {
        name: name.to_string(),
        valid: valid_workload_names(),
    }
}

/// Looks up a registered mitigation engine by name and instantiates
/// its preset at the given Rowhammer threshold.
///
/// # Errors
///
/// Returns [`MopacError::Config`] — listing every registered engine —
/// if `name` is not in the [`mopac::EngineRegistry`].
pub fn mitigation_preset(name: &str, t_rh: u64) -> MopacResult<MitigationConfig> {
    let registry = mopac::EngineRegistry::builtin();
    registry.get(name).map(|spec| (spec.preset)(t_rh)).ok_or_else(|| {
        MopacError::config(format!(
            "unknown mitigation engine '{name}' (registered: {})",
            registry.names().join(", ")
        ))
    })
}

/// Builds the 8 per-core traces for a named workload: rate mode (eight
/// copies) for plain workloads, the fixed assignment for `mix1`–`mix6`.
///
/// # Errors
///
/// Returns [`MopacError::UnknownWorkload`] — listing every valid name —
/// if `name` matches neither a workload nor a mix.
pub fn build_traces(name: &str, cfg: &SystemConfig) -> MopacResult<Vec<Box<dyn TraceSource>>> {
    let mapper = AddressMapper::new(cfg.geometry, cfg.mapping);
    if let Some((_, assignment)) = MIXES.iter().find(|(n, _)| *n == name) {
        assignment
            .iter()
            .enumerate()
            .map(|(core, wname)| {
                let spec = spec::find(wname).ok_or_else(|| unknown_workload(wname))?;
                Ok(Box::new(CalibratedTrace::new(spec, mapper, core as u32, cfg.seed))
                    as Box<dyn TraceSource>)
            })
            .collect()
    } else {
        let spec = spec::find(name).ok_or_else(|| unknown_workload(name))?;
        Ok((0..CORES)
            .map(|core| {
                Box::new(CalibratedTrace::new(spec, mapper, core as u32, cfg.seed))
                    as Box<dyn TraceSource>
            })
            .collect())
    }
}

/// Runs one workload under one mitigation and returns the result.
///
/// # Errors
///
/// Returns [`MopacError::UnknownWorkload`] for a bad name, or any error
/// surfaced by [`System::run`].
pub fn run_workload(name: &str, mitigation: MitigationConfig, instrs: u64) -> MopacResult<RunResult> {
    let cfg = SystemConfig::paper_default(mitigation, instrs);
    run_workload_with(name, cfg)
}

/// Runs one workload with a fully custom system configuration.
///
/// # Errors
///
/// Returns [`MopacError::UnknownWorkload`] for a bad name, or any error
/// surfaced by [`System::run`].
pub fn run_workload_with(name: &str, cfg: SystemConfig) -> MopacResult<RunResult> {
    let traces = build_traces(name, &cfg)?;
    System::new(cfg, traces)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_built_for_rate_mode_and_mixes() {
        let cfg = SystemConfig::paper_default(MitigationConfig::baseline(), 1000);
        assert_eq!(build_traces("xz", &cfg).unwrap().len(), 8);
        let mix = build_traces("mix1", &cfg).unwrap();
        assert_eq!(mix.len(), 8);
        assert_eq!(mix[0].name(), "parest");
        assert_eq!(mix[3].name(), "xz");
    }

    #[test]
    fn unknown_workload_is_a_typed_error_listing_names() {
        let cfg = SystemConfig::paper_default(MitigationConfig::baseline(), 1000);
        let err = build_traces("nope", &cfg).err().expect("must fail");
        let MopacError::UnknownWorkload { name, valid } = &err else {
            panic!("expected UnknownWorkload, got {err}");
        };
        assert_eq!(name, "nope");
        assert!(valid.iter().any(|v| v == "xz"));
        assert!(valid.iter().any(|v| v == "mix1"));
        // The rendered message carries the valid names.
        assert!(err.to_string().contains("xz"), "{err}");
    }

    #[test]
    fn small_run_produces_sane_slowdown() {
        // A fast smoke test: cam4 (low MPKI) under PRAC.
        let base = run_workload("cam4", MitigationConfig::baseline(), 20_000).unwrap();
        let prac = run_workload("cam4", MitigationConfig::prac(500), 20_000).unwrap();
        let s = prac.slowdown_vs(&base);
        assert!((-0.05..0.5).contains(&s), "slowdown {s}");
        assert_eq!(prac.violations, 0);
    }
}
