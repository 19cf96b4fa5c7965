//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|attack_battery|mc4_faults> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs a warm-up pass, then untraced passes for `--seconds`
//! and reports the end-to-end metrics (medians over the passes of thread
//! CPU time, each pass rescaled to a reference host by the host-speed
//! probes taken during it, see `host`; and the peak RSS after the
//! warm-up pass). `--trace 1` runs a warm-up pass, one untraced and
//! one traced pass, checks that their digests agree, and reports the
//! per-layer metrics from replays of what the traced pass captured. The
//! last line of standard output is one JSON object.

use mopac_perfbench::host::{pin_heap_policy, HostSpeed, Prober};
use mopac_perfbench::replay::{layers, per_layer_specs};
use mopac_perfbench::{
    cells, git_revision, median, peak_rss_mb, Budget, Pass, Workload, END_TO_END, IGNORED_ENV,
    REFUSED_ENV,
};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

/// Measured passes per untraced run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Upper limit on measured passes, for very long `--seconds`.
const MAX_PASSES: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{v}` (valid: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn provenance(args: &Args, budget: &Budget, n_cells: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let env: Vec<String> = IGNORED_ENV
        .iter()
        .map(|k| {
            let v = std::env::var(k).map_or_else(|_| "null".into(), |v| json_str(&v));
            format!("{}: {v}", json_str(k))
        })
        .collect();
    format!(
        "{{\"git_revision\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cells\": {n_cells}, \"config\": {{\"budget\": {}, \
         \"kernel\": \"event-driven\", \"shard_threads\": 1, \"campaign_threads\": 1, \
         \"use_llc\": false, \"t_rh\": {}}}, \"ignored_env\": {{{}}}}}",
        json_str(&git_revision()),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&format!("{budget:?}")),
        mopac_perfbench::workload::T_RH,
        env.join(", ")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        json_str(name),
        json_str(unit)
    )
}

/// Cells whose results differ between two passes.
fn mismatched(a: &Pass, b: &Pass) -> BTreeSet<usize> {
    a.outcomes
        .iter()
        .zip(&b.outcomes)
        .enumerate()
        .filter(|(_, (x, y))| x.result != y.result)
        .map(|(i, _)| i)
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = REFUSED_ENV.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("perfbench: refusing to run with {k} set (`System::run_loop` reads it)");
        return ExitCode::from(2);
    }
    if let Err(e) = pin_heap_policy() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    let budget = Budget::BENCH;
    let workload = args.workload;
    let cells = cells(workload, args.seed, &budget);
    println!("provenance {}", provenance(&args, &budget, cells.len()));

    let warm = Pass::run(&cells, false);
    // Peak memory of one pass in a fresh process. Later passes can
    // raise `VmHWM` further only through allocator fragmentation, which
    // depends on how many passes fit in `--seconds`.
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);
    // Failed operations, as (pass, cell), with the reasons.
    let mut failed: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut reasons = Vec::new();
    let mut check = |pass_idx: usize, pass: &Pass| {
        for (i, why) in pass.failures(workload, &cells) {
            failed.insert((pass_idx, i));
            reasons.push(why);
        }
        for i in mismatched(&warm, pass) {
            failed.insert((pass_idx, i));
            reasons.push(format!(
                "{}: result differs from the warm-up pass",
                cells[i].label
            ));
        }
    };
    check(0, &warm);

    let (ops, metrics) = if args.trace {
        let base = Pass::run(&cells, false);
        let traced = Pass::run(&cells, true);
        check(1, &base);
        check(2, &traced);
        println!("digest_untraced {}", base.digest().to_json());
        println!("digest_traced {}", traced.digest().to_json());
        let mut diverged = Vec::new();
        let trace_overhead = traced.wall_s / base.wall_s;
        let layer = match layers(
            workload,
            &base.outcomes,
            &traced.outcomes,
            trace_overhead,
            &mut diverged,
        ) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("perfbench: per-layer replay failed: {e}");
                return ExitCode::from(1);
            }
        };
        for d in &diverged {
            println!("replay_diverged {d}");
        }
        let mut unmeasured = Vec::new();
        let metrics: Vec<String> = per_layer_specs()
            .iter()
            .map(|(name, unit, _)| {
                let v = layer.get(name);
                match v {
                    Some(v) => println!("{name} = {v} {unit}"),
                    None => {
                        println!("{name} = unmeasured");
                        unmeasured.push(name.clone());
                    }
                }
                metric_json(name, v.unwrap_or(0.0), unit)
            })
            .collect();
        println!("unmeasured {}", unmeasured.join(" "));
        (3 * cells.len(), metrics)
    } else {
        let mut passes: Vec<Pass> = Vec::new();
        let mut prober = Prober::new();
        let start = Instant::now();
        loop {
            let done = passes.len();
            if done >= MAX_PASSES {
                break;
            }
            if done >= MIN_PASSES {
                // Stop when the next pass would end past the budget.
                let mean = start.elapsed().as_secs_f64() / done as f64;
                if start.elapsed().as_secs_f64() + mean > args.seconds {
                    break;
                }
            }
            let pass = Pass::run_probed(&cells, &mut prober);
            check(done + 1, &pass);
            let speed = HostSpeed::from_probes(&pass.probes);
            println!(
                "pass {done}: wall {:.4} s, setup {:.4} s, run {:.4} s, \
                 probes {:.5} / {:.5} s",
                pass.wall_s,
                pass.setup_s(),
                pass.run_s(),
                speed.compute_s,
                speed.memory_s
            );
            passes.push(pass);
        }
        // Each pass at the reference host, by the probes taken during it.
        let speeds: Vec<HostSpeed> = passes
            .iter()
            .map(|p| HostSpeed::from_probes(&p.probes))
            .collect();
        let med = |f: &dyn Fn(&Pass, &HostSpeed) -> f64| {
            median(
                &passes
                    .iter()
                    .zip(&speeds)
                    .map(|(p, s)| f(p, s))
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "unscaled: wall_s {} s, sim_cycles_per_s {} 1/s, setup_s {} s; \
             median probes {} / {} s",
            med(&|p, _| p.wall_s),
            med(&|p, _| p.sim_cycles_per_s()),
            med(&|p, _| p.setup_s()),
            med(&|_, s| s.compute_s),
            med(&|_, s| s.memory_s),
        );
        let values = [
            med(&|p, s| p.scaled_wall_s(s)),
            med(&|p, s| p.sim_cycles_per_s() / s.compute),
            med(&|p, s| p.setup_s() * s.memory),
            peak_rss,
        ];
        println!("passes {} (+1 warm-up)", passes.len());
        println!("digest {}", warm.digest().to_json());
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _), v)| {
                println!("{name} = {v} {unit}");
                metric_json(name, v, unit)
            })
            .collect();
        ((passes.len() + 1) * cells.len(), metrics)
    };
    for r in &reasons {
        println!("failed_op {r}");
    }
    println!("ops={ops} failed_ops={}", failed.len());
    println!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed.is_empty(),
        failed.len(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
