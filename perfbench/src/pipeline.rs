//! The pipeline workloads (`iv_full`, `grid_dc`): deck and description
//! text → `NetlistMacro`, then rounds of generate → compact → evaluate
//! campaigns over seeded fault samples, run exactly as `castg generate`
//! runs them (default `GeneratorOptions`, fresh `NominalCache` per
//! campaign).

use std::sync::Arc;
use std::time::Instant;

use castg_core::{
    compact, evaluate_campaign, test_instances_from_compaction, AnalogMacro, CampaignOptions,
    CompactionOptions, ConfigDescription, DescribedConfig, FaultOutcome, Generator,
    GeneratorOptions, NominalCache, TestConfiguration,
};
use castg_faults::{Fault, FaultDictionary, FaultKind};
use castg_netlist::{parse_deck, NetlistMacro, NetlistMacroOptions};
use castg_spice::{sparse_fill_stats, Circuit, DcAnalysis, DeviceKind, LadderStats, OrderingKind};

use crate::trace::{self, Probe};
use crate::util::{median, quantile, Metrics, Rng};
use crate::{Outcome, RunArgs};

/// One pipeline workload.
pub struct Spec {
    pub macro_name: &'static str,
    pub deck: String,
    /// Description texts, in the id order `castg generate --configs`
    /// assigns (file-name order).
    pub configs: Vec<String>,
    pub options: NetlistMacroOptions,
    /// Faults per campaign round.
    pub faults_per_round: usize,
}

struct Built {
    mac: NetlistMacro,
    parse_s: f64,
    probe: Option<Arc<Probe>>,
}

fn build(spec: &Spec, traced: bool) -> Result<Built, String> {
    let t = Instant::now();
    let deck = parse_deck(&spec.deck).map_err(|e| format!("deck: {e}"))?;
    let parse_s = t.elapsed().as_secs_f64();
    let mac = NetlistMacro::from_deck_with(spec.macro_name, deck, spec.options)
        .map_err(|e| format!("macro: {e}"))?;
    let mut configs: Vec<Arc<dyn TestConfiguration>> = Vec::new();
    for (i, text) in spec.configs.iter().enumerate() {
        let description = ConfigDescription::parse(text).map_err(|e| format!("config {i}: {e}"))?;
        let cfg =
            DescribedConfig::new(i + 1, description).map_err(|e| format!("config {i}: {e}"))?;
        configs.push(Arc::new(cfg));
    }
    let probe = traced.then(|| Probe::new(configs.iter().map(|c| c.name().to_string()).collect()));
    if let Some(p) = &probe {
        configs = trace::wrap(configs, p);
    }
    Ok(Built {
        mac: mac.with_configurations(configs),
        parse_s,
        probe,
    })
}

/// What one campaign round produced.
struct Round {
    faults: usize,
    latency_s: f64,
    generate_s: f64,
    compact_s: f64,
    evaluate_s: f64,
    tests: usize,
    original: usize,
    detected: usize,
    failed: usize,
    evaluations: usize,
    pairs: usize,
    ladder: LadderStats,
    singular: usize,
    nominal_entries: usize,
    /// Output checks that failed, described.
    errors: Vec<String>,
}

fn run_round(
    mac: &NetlistMacro,
    dict: &FaultDictionary,
    workers: usize,
    probe: Option<&Arc<Probe>>,
) -> Result<Round, String> {
    let enter = |phase: usize| {
        if let Some(p) = probe {
            p.enter(phase);
        }
    };
    let cache = NominalCache::new();
    let start = Instant::now();

    enter(0);
    let options = GeneratorOptions {
        threads: workers,
        ..GeneratorOptions::default()
    };
    let generation = Generator::with_options(mac, &cache, options).generate(dict);
    let generate_s = start.elapsed().as_secs_f64();

    enter(1);
    let t = Instant::now();
    let compaction = compact(mac, &cache, &generation, &CompactionOptions::default())
        .map_err(|e| format!("compaction: {e}"))?;
    let tests = test_instances_from_compaction(mac, &compaction)
        .map_err(|e| format!("test instances: {e}"))?;
    let compact_s = t.elapsed().as_secs_f64();

    enter(2);
    let t = Instant::now();
    let campaign = CampaignOptions {
        threads: workers,
        ..CampaignOptions::default()
    };
    let coverage = evaluate_campaign(mac, &cache, &tests, dict, &campaign)
        .map_err(|e| format!("evaluation: {e}"))?;
    let evaluate_s = t.elapsed().as_secs_f64();
    let latency_s = start.elapsed().as_secs_f64();

    let tally = coverage.tally();
    for (fault, e) in &generation.failures {
        eprintln!("generation failed for {fault}: {e}");
    }
    for f in &coverage.per_fault {
        if !matches!(f.outcome, FaultOutcome::Detected | FaultOutcome::Undetected) {
            eprintln!("{}: {} (detected flag {})", f.fault, f.outcome, f.detected);
        }
    }
    let mut errors = Vec::new();
    if coverage.total() != dict.len() {
        errors.push(format!(
            "coverage covers {} of {} faults",
            coverage.total(),
            dict.len()
        ));
    }
    // The headline count is the per-fault detected flags, the tally
    // counts outcomes. A detected fault with a broken-down cell keeps
    // its flag but is classified by the breakdown (unconverged,
    // singular, ...), so the two agree exactly when no cell broke down;
    // breakdowns are counted as failed operations instead.
    let breakdowns = coverage
        .per_fault
        .iter()
        .filter(|f| !matches!(f.outcome, FaultOutcome::Detected | FaultOutcome::Undetected))
        .count();
    if breakdowns == 0 && coverage.detected() != tally.detected {
        errors.push(format!(
            "headline detected {} != tally detected {}",
            coverage.detected(),
            tally.detected
        ));
    }
    if coverage.per_fault.iter().any(|f| match f.outcome {
        FaultOutcome::Detected => !f.detected,
        FaultOutcome::Undetected => f.detected,
        _ => false,
    }) {
        errors.push("a detected/undetected outcome contradicts its detected flag".to_string());
    }
    if generation.tests.len() + generation.failures.len() != dict.len() {
        errors.push("generation lost faults".to_string());
    }
    if compaction.tests.is_empty() && !generation.tests.is_empty() {
        errors.push("compaction produced no tests".to_string());
    }
    let failed = generation.failures.len()
        + tally.unconverged
        + tally.timed_out
        + tally.panicked
        + tally.injection_failed;
    Ok(Round {
        faults: dict.len(),
        latency_s,
        generate_s,
        compact_s,
        evaluate_s,
        tests: compaction.tests.len(),
        original: compaction.original_count,
        detected: coverage.detected(),
        failed,
        evaluations: generation.tests.iter().map(|t| t.evaluations).sum(),
        pairs: tests.len() * dict.len(),
        ladder: coverage.ladder,
        singular: tally.singular,
        nominal_entries: cache.len(),
        errors,
    })
}

/// Set-ups timed before the first round (one more follows each round).
const SETUP_REPS: usize = 9;
/// Test-application points, shared evenly among the configurations;
/// each round is followed by one pass over all of them.
const APPLICATION_POINTS: usize = 200;

/// Runs a pipeline workload for `args.seconds`.
pub fn run(spec: &Spec, args: &RunArgs) -> Result<Outcome, String> {
    let mut m = Metrics::default();

    // Set-up: deck + description text → ready macro, several times.
    let mut setups = Vec::new();
    let mut parses = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build(spec, false)?;
        setups.push(t.elapsed().as_secs_f64());
        parses.push(built.parse_s);
    }
    let Built { mac, probe, .. } = build(spec, args.trace)?;
    m.set("netlist.parse_s", median(&parses));
    m.set("netlist.deck_bytes", spec.deck.len() as f64);

    let all = mac.fault_dictionary();
    m.set("faults.derived", all.len() as f64);
    let order = stratified_order(&mac, &all, args.seed);
    let k = spec.faults_per_round.min(all.len());
    let sample = |round: usize| -> FaultDictionary {
        let mut idx: Vec<usize> = (0..k)
            .map(|j| order[(round * k + j) % order.len()])
            .collect();
        idx.sort_unstable();
        FaultDictionary::new(idx.into_iter().map(|i| all.faults()[i].clone()).collect())
    };

    if args.trace {
        probe_layers(&mac, &sample(0), &mut m);
    }

    // Between rounds the run times a pass over the test applications
    // and a set-up, so all three are sampled across the same stretch of
    // time.
    let plain = build(spec, false)?.mac;
    let per_config = APPLICATION_POINTS / plain.configurations().len();
    let points = application_points(&plain, args.seed, per_config);
    let mut applications: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut pass_goodput = Vec::new();

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut config_cells = Vec::new();
    loop {
        let n = rounds.len();
        if args.rounds.is_some_and(|cap| n >= cap.max(1)) {
            break;
        }
        // Start another round while it is expected to end no more than
        // half a round past the budget.
        if args.rounds.is_none() && n > 0 {
            let per_round = start.elapsed().as_secs_f64() / n as f64;
            if start.elapsed().as_secs_f64() + 0.5 * per_round > args.seconds {
                break;
            }
        }
        rounds.push(run_round(&mac, &sample(n), args.workers, probe.as_ref())?);
        if n == 0 {
            if let Some(p) = &probe {
                config_cells = p
                    .snapshot()
                    .into_iter()
                    .map(|(phase, cfg, calls, busy, iters)| {
                        (format!("{phase}.{cfg}"), calls, busy, iters)
                    })
                    .collect();
            }
        }
        let pass_ms = sweep(&plain, &points, &mut applications)?;
        let within = pass_ms
            .iter()
            .filter(|ms| **ms <= args.goodput_limit_ms)
            .count();
        pass_goodput.push(within as f64 / (pass_ms.iter().sum::<f64>() / 1e3));
        let t = Instant::now();
        build(spec, false)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let faults: usize = rounds.iter().map(|r| r.faults).sum();
    let busy: f64 = rounds.iter().map(|r| r.latency_s).sum();
    let detected: usize = rounds.iter().map(|r| r.detected).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();
    let latencies_ms: Vec<f64> = rounds.iter().map(|r| r.latency_s * 1e3).collect();
    let errors: Vec<String> = rounds
        .iter()
        .flat_map(|r| r.errors.iter().cloned())
        .collect();
    // Each point's median over its samples, then quantiles over the
    // points applied at least once.
    let per_point: Vec<f64> = applications
        .iter()
        .filter(|a| !a.is_empty())
        .map(|a| median(a))
        .collect();
    let samples: usize = applications.iter().map(Vec::len).sum();

    let faults_per_s = faults as f64 / busy;
    m.set("faults_per_s", faults_per_s);
    m.set("coverage_pct", 100.0 * detected as f64 / faults as f64);
    m.set(
        "test_set_size",
        rounds.iter().map(|r| r.tests as f64).sum::<f64>() / rounds.len() as f64,
    );
    m.set("setup_s", median(&setups));
    // Campaign latency, not test-application latency: the per-point
    // latencies are bimodal (fast and slow drive levels), so their
    // median jumps between the modes from run to run.
    m.set("p50_ms", quantile(&latencies_ms, 0.5));
    m.set("p95_ms", quantile(&latencies_ms, 0.95));
    // Median over the passes: every pass is the same set of points, so
    // passes differ only in how fast the host ran them.
    m.set("goodput_rps", median(&pass_goodput));
    m.set("apply.p50_ms", quantile(&per_point, 0.5));
    m.set("apply.p95_ms", quantile(&per_point, 0.95));
    m.set("ok_pct", 100.0 * (1.0 - failed as f64 / faults as f64));
    m.set("run.rounds", rounds.len() as f64);
    m.set("trace.faults_per_s", faults_per_s);

    // Per-layer figures of the first round: the same seeded sample on
    // every run, whatever the machine's speed.
    let r0 = &rounds[0];
    m.set("faults.sampled", r0.faults as f64);
    m.set("generate.s", r0.generate_s);
    m.set("generate.evaluations", r0.evaluations as f64);
    m.set("compact.s", r0.compact_s);
    m.set("compact.ratio", r0.original as f64 / r0.tests.max(1) as f64);
    m.set("evaluate.s", r0.evaluate_s);
    m.set("evaluate.pairs", r0.pairs as f64);
    m.set("evaluate.newton_iters", r0.ladder.iterations as f64);
    m.set("evaluate.rung.plain", r0.ladder.plain as f64);
    m.set("evaluate.rung.damped", r0.ladder.damped as f64);
    m.set("evaluate.rung.gmin", r0.ladder.gmin_stepping as f64);
    m.set("evaluate.rung.source", r0.ladder.source_stepping as f64);
    m.set("evaluate.rung.ptran", r0.ladder.pseudo_transient as f64);
    m.set("evaluate.singular", r0.singular as f64);
    m.set("cache.nominal_entries", r0.nominal_entries as f64);
    for (key, calls, busy_s, iters) in config_cells {
        m.set(format!("{key}.calls"), calls as f64);
        m.set(format!("{key}.busy_s"), busy_s);
        m.set(format!("{key}.newton_iters"), iters as f64);
    }

    eprintln!(
        "{}: {} rounds of {} faults ({} sampled in all), {:.3} faults/s, coverage {}/{}, \
         {} failed, setup median of {} = {:.6} s, test applications: {} points, {} samples",
        spec.macro_name,
        rounds.len(),
        k,
        faults,
        faults_per_s,
        detected,
        faults,
        failed,
        setups.len(),
        median(&setups),
        per_point.len(),
        samples,
    );
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    Ok(Outcome {
        metrics: m,
        correct: errors.is_empty(),
        attempted: faults,
        failed,
    })
}

/// The seeded fault order rounds draw from: a proportionally stratified
/// permutation. Faults fall into three structural strata — pinholes,
/// bridges touching a supply rail (a voltage-source terminal or
/// ground), other bridges — which differ sharply in detectability and
/// cost; each stratum is shuffled and spread evenly over the order, so
/// every prefix (and every round) holds each stratum in proportion and
/// the seed moves only which members are drawn.
fn stratified_order(mac: &NetlistMacro, all: &FaultDictionary, seed: u64) -> Vec<usize> {
    let circuit = mac.nominal_circuit();
    let mut rails = vec![circuit.node_name(Circuit::GROUND).to_string()];
    for device in circuit.devices() {
        if let DeviceKind::Vsource { pos, neg, .. } = device.kind() {
            rails.push(circuit.node_name(*pos).to_string());
            rails.push(circuit.node_name(*neg).to_string());
        }
    }
    let stratum = |fault: &Fault| -> usize {
        if fault.kind() == FaultKind::Pinhole {
            return 0;
        }
        let name = fault.name();
        let nets = name.trim_start_matches("bridge(").trim_end_matches(')');
        if nets.split(',').any(|n| rails.iter().any(|r| r == n)) {
            1
        } else {
            2
        }
    };
    let mut rng = Rng::derive(seed, 1);
    let mut keyed: Vec<(f64, usize)> = Vec::with_capacity(all.len());
    for s in 0..3 {
        let mut members: Vec<usize> = (0..all.len())
            .filter(|&i| stratum(&all.faults()[i]) == s)
            .collect();
        rng.shuffle(&mut members);
        let offset = rng.unit();
        let n = members.len() as f64;
        keyed.extend(
            members
                .into_iter()
                .enumerate()
                .map(|(j, i)| ((j as f64 + offset) / n, i)),
        );
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Seeded parameter points for test applications — one `measure()` of
/// a configuration on the nominal circuit, the simulator call the paper
/// counts as its cost unit: `per_config` points of every configuration,
/// laid out as a Latin hypercube (each parameter's range cut into
/// `per_config` equal strata, every stratum drawn once) so every seed
/// covers the ranges evenly.
fn application_points(mac: &NetlistMacro, seed: u64, per_config: usize) -> Vec<(usize, Vec<f64>)> {
    let mut rng = Rng::derive(seed, 4);
    let mut points = Vec::new();
    for (c, cfg) in mac.configurations().iter().enumerate() {
        let space = cfg.space();
        let strata: Vec<Vec<usize>> = (0..space.dim())
            .map(|_| {
                let mut s: Vec<usize> = (0..per_config).collect();
                rng.shuffle(&mut s);
                s
            })
            .collect();
        for point in 0..per_config {
            let params: Vec<f64> = strata
                .iter()
                .enumerate()
                .map(|(i, stratum)| {
                    let b = space.bounds(i);
                    let u = (stratum[point] as f64 + rng.unit()) / per_config as f64;
                    b.lo() + (b.hi() - b.lo()) * u
                })
                .collect();
            points.push((c, params));
        }
    }
    points
}

/// Applies every point once, appending each latency (ms) to its
/// point's samples; returns the pass's latencies.
fn sweep(
    mac: &NetlistMacro,
    points: &[(usize, Vec<f64>)],
    samples: &mut [Vec<f64>],
) -> Result<Vec<f64>, String> {
    let circuit = mac.nominal_circuit();
    let configs = mac.configurations();
    let mut pass = Vec::with_capacity(points.len());
    for ((c, params), into) in points.iter().zip(samples.iter_mut()) {
        let cfg = &configs[*c];
        let t = Instant::now();
        cfg.measure(&circuit, params)
            .map_err(|e| format!("{}: {e}", cfg.name()))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        into.push(ms);
        pass.push(ms);
    }
    Ok(pass)
}

/// Probes the layers under the campaign on the nominal circuit: fault
/// injection, sparse fill under both orderings, and a warmed DC solve.
fn probe_layers(mac: &NetlistMacro, sample: &FaultDictionary, m: &mut Metrics) {
    let circuit = mac.nominal_circuit();
    let t = Instant::now();
    for fault in sample.iter() {
        let _ = fault.inject(&circuit);
    }
    m.set("faults.inject_s", t.elapsed().as_secs_f64());

    if let Some(fill) = sparse_fill_stats(&circuit, OrderingKind::Natural) {
        m.set("spice.unknowns", fill.unknowns as f64);
        m.set("numeric.pattern_nnz", fill.pattern_nnz as f64);
        m.set("numeric.lu_nnz_natural", fill.lu_nnz as f64);
    }
    if let Some(fill) = sparse_fill_stats(&circuit, OrderingKind::Amd) {
        m.set("numeric.lu_nnz_amd", fill.lu_nnz as f64);
    }
    let dc = DcAnalysis::new(&circuit);
    if let Ok(solution) = dc.solve() {
        m.set(
            "spice.dc_nominal_iters",
            solution.newton_iterations() as f64,
        );
        let times: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                let _ = dc.solve();
                t.elapsed().as_secs_f64()
            })
            .collect();
        m.set("spice.dc_nominal_s", median(&times));
    }
}
