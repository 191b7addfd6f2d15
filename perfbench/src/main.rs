//! `castg-perfbench`: the repository's end-to-end and per-layer
//! benchmark (see `BENCHMARK.json` at the repository root).
//!
//! ```text
//! castg-perfbench --workload iv_full|grid_dc|serve_mix --seed N --seconds S --trace 0|1
//!     --goodput-limit-ms MS [--workers N] [--rounds N]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Progress and
//! failed checks go to standard error.

mod grid;
mod json;
mod loadgen;
mod pipeline;
mod serve_mix;
mod trace;
mod util;

use std::process::ExitCode;

use castg_faults::BridgeDerivation;
use castg_netlist::NetlistMacroOptions;

use util::Metrics;

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads (generation, evaluation, daemon pool).
    pub workers: usize,
    /// Fixed round count for pipeline workloads (determinism checks);
    /// by default rounds run until `seconds` is used up.
    pub rounds: Option<usize>,
    /// Latency limit of `goodput_rps`.
    pub goodput_limit_ms: f64,
}

/// What a workload run reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
}

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("faults_per_s", "1/s"),
    ("coverage_pct", "%"),
    ("test_set_size", "count"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("ok_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

const LAYERS: &[(&str, &str)] = &[
    ("run.rounds", "count"),
    ("apply.p50_ms", "ms"),
    ("apply.p95_ms", "ms"),
    ("trace.faults_per_s", "1/s"),
    ("netlist.parse_s", "s"),
    ("netlist.deck_bytes", "bytes"),
    ("faults.derived", "count"),
    ("faults.sampled", "count"),
    ("faults.inject_s", "s"),
    ("spice.unknowns", "count"),
    ("numeric.pattern_nnz", "count"),
    ("numeric.lu_nnz_natural", "count"),
    ("numeric.lu_nnz_amd", "count"),
    ("spice.dc_nominal_s", "s"),
    ("spice.dc_nominal_iters", "count"),
    ("generate.s", "s"),
    ("generate.evaluations", "count"),
    ("compact.s", "s"),
    ("compact.ratio", "ratio"),
    ("evaluate.s", "s"),
    ("evaluate.pairs", "count"),
    ("evaluate.newton_iters", "count"),
    ("evaluate.rung.plain", "count"),
    ("evaluate.rung.damped", "count"),
    ("evaluate.rung.gmin", "count"),
    ("evaluate.rung.source", "count"),
    ("evaluate.rung.ptran", "count"),
    ("evaluate.singular", "count"),
    ("cache.nominal_entries", "count"),
    ("serve.hit_rtt_p50_ms", "ms"),
    ("serve.miss_rtt_p50_ms", "ms"),
    ("serve.keepalive_hit_rtt_p50_ms", "ms"),
    ("serve.keepalive_miss_rtt_p50_ms", "ms"),
    ("serve.miss_pipeline_ms", "ms"),
    ("serve.result_hits", "count"),
    ("serve.result_misses", "count"),
    ("serve.plan_hits", "count"),
    ("serve.plan_misses", "count"),
    ("serve.digest_us", "us"),
    ("loadgen.late_p95_ms", "ms"),
    ("loadgen.sent", "count"),
];

/// Configurations whose per-layer cells every run reports: the one of
/// `grid_dc`, the pipeline workload `BENCHMARK.json` lists.
const CONFIGS: &[&str] = &["dc_output"];

/// The five IV-converter descriptions, reported by `iv_full` runs only.
const IV_CONFIGS: &[&str] = &[
    "dc_transfer",
    "supply_current",
    "harmonic_distortion",
    "step_response_1",
    "step_response_2",
];

fn per_layer_names(workload: &str) -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    let iv: &[&str] = if workload == "iv_full" {
        IV_CONFIGS
    } else {
        &[]
    };
    for phase in trace::PHASES {
        for cfg in CONFIGS.iter().chain(iv) {
            names.push((format!("{phase}.{cfg}.calls"), "count"));
            names.push((format!("{phase}.{cfg}.busy_s"), "s"));
            names.push((format!("{phase}.{cfg}.newton_iters"), "count"));
        }
    }
    names
}

const USAGE: &str = "usage: castg-perfbench --workload iv_full|grid_dc|serve_mix --seed N \
                     --seconds S --trace 0|1 --goodput-limit-ms MS [--workers N] [--rounds N]";

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: 2,
        rounds: None,
        goodput_limit_ms: f64::NAN,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--workers" => args.workers = value.parse().map_err(|e| bad(&e))?,
            "--rounds" => args.rounds = Some(value.parse().map_err(|e| bad(&e))?),
            "--goodput-limit-ms" => args.goodput_limit_ms = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if args.goodput_limit_ms.is_nan() || args.goodput_limit_ms <= 0.0 {
        return Err(format!(
            "--goodput-limit-ms must be given, above 0\n{USAGE}"
        ));
    }
    Ok(args)
}

fn iv_full() -> pipeline::Spec {
    let configs = [
        include_str!("../../tests/fixtures/iv_configs/1_dc_transfer.cfg"),
        include_str!("../../tests/fixtures/iv_configs/2_supply_current.cfg"),
        include_str!("../../tests/fixtures/iv_configs/3_thd.cfg"),
        include_str!("../../tests/fixtures/iv_configs/4_step_max_dev.cfg"),
        include_str!("../../tests/fixtures/iv_configs/5_step_acc_dev.cfg"),
    ];
    pipeline::Spec {
        macro_name: "iv_converter",
        deck: include_str!("../../tests/fixtures/iv_converter.sp").to_string(),
        configs: configs.iter().map(|c| c.to_string()).collect(),
        options: NetlistMacroOptions::default(),
        faults_per_round: 4,
    }
}

fn grid_dc(seed: u64) -> pipeline::Spec {
    pipeline::Spec {
        macro_name: "grid_mesh",
        deck: grid::deck(seed),
        configs: vec![grid::DC_CONFIG.to_string()],
        options: NetlistMacroOptions {
            derivation: BridgeDerivation::Adjacent,
            ..NetlistMacroOptions::default()
        },
        faults_per_round: 8,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("castg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "iv_full" => pipeline::run(&iv_full(), &args),
        "grid_dc" => pipeline::run(&grid_dc(args.seed), &args),
        "serve_mix" => serve_mix::run(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("castg-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.metrics.set("peak_rss_mb", util::peak_rss_mb());
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer_names(&args.workload)
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json(&names)
    );
    ExitCode::SUCCESS
}
