//! Differential harness for the fault-campaign engine: the delta-stamp
//! injection path (variants sharing and patching the nominal circuit's
//! compiled plan) must produce **bit-identical** coverage reports to
//! the clone-and-recompile reference path, for every fault in the
//! IV-converter and ladder-n=256 dictionaries, on the dense and the
//! sparse solver path, at any worker count.
//!
//! This is the contract that lets every production evaluation default
//! to delta injection: whatever the patched plans, shared sparse
//! templates, seeded symbolic analyses and Jacobian-reuse keys do, the
//! numbers cannot move by even one ulp.

use std::path::PathBuf;
use std::sync::Arc;

use castg::core::report::render_pipeline_report;
use castg::core::synthetic::{LadderMacro, MeshMacro, OtaChainMacro};
use castg::core::{
    compact, evaluate_campaign, test_instances_from_compaction, AnalogMacro, CampaignOptions,
    CompactionOptions, CoverageReport, Evaluator, Generator, GeneratorOptions, InjectionMode,
    NominalCache, TestInstance,
};
use castg::faults::{Fault, FaultDictionary, FaultKind, Junction};
use castg::macros::{BjtOpAmp, IvConverter};
use castg::netlist::{NetlistMacro, NetlistMacroOptions};
use castg::spice::{ladder_stats, Circuit, OrderingKind, SolverKind};

/// Builds a few test instances per configuration of `mac` by scaling
/// each configuration's seed vector — cheap, deterministic, and enough
/// to exercise every measurement kind (DC, THD transient, step
/// transient) against every fault.
fn seed_instances(mac: &dyn AnalogMacro, scales: &[f64]) -> Vec<TestInstance> {
    let mut tests = Vec::new();
    for config in mac.configurations() {
        let space = config.space();
        for &scale in scales {
            let params: Vec<f64> =
                config.seed().iter().map(|p| p * scale).collect();
            let params = space.clamp(&params);
            tests.push(TestInstance { config: Arc::clone(&config), params });
        }
    }
    tests
}

fn assert_reports_bit_identical(a: &CoverageReport, b: &CoverageReport, what: &str) {
    assert_eq!(a.test_count, b.test_count, "{what}: test counts");
    assert_eq!(a.per_fault.len(), b.per_fault.len(), "{what}: fault counts");
    for (x, y) in a.per_fault.iter().zip(&b.per_fault) {
        assert_eq!(x.fault, y.fault, "{what}");
        assert_eq!(x.best_test, y.best_test, "{what}: {}", x.fault);
        assert_eq!(x.detected, y.detected, "{what}: {}", x.fault);
        assert_eq!(
            x.best_sensitivity.to_bits(),
            y.best_sensitivity.to_bits(),
            "{what}: {} sensitivity {} vs {}",
            x.fault,
            x.best_sensitivity,
            y.best_sensitivity,
        );
    }
}

/// Runs the delta-vs-rebuild differential over a macro's dictionary at
/// several worker counts; each evaluation uses a fresh nominal cache so
/// the two paths cannot share measurements.
fn differential(mac: &dyn AnalogMacro, dict: &FaultDictionary, tests: &[TestInstance]) {
    let reference = {
        let cache = NominalCache::new();
        evaluate_campaign(
            mac,
            &cache,
            tests,
            dict,
            &CampaignOptions {
                threads: 1,
                injection: InjectionMode::Rebuild,
                ..CampaignOptions::default()
            },
        )
        .expect("rebuild-path campaign")
    };
    assert!(
        reference.detected() > 0,
        "a fully undetected dictionary would make the differential vacuous; escapes: {:?}",
        reference.escapes()
    );
    for threads in [1usize, 4] {
        for injection in [InjectionMode::Delta, InjectionMode::Rebuild] {
            let cache = NominalCache::new();
            let report = evaluate_campaign(
                mac,
                &cache,
                tests,
                dict,
                &CampaignOptions { threads, injection, ..CampaignOptions::default() },
            )
            .expect("campaign");
            assert_reports_bit_identical(
                &reference,
                &report,
                &format!("threads={threads}, injection={injection:?}"),
            );
        }
    }
}

/// IV-converter (dense solver path, n = 11, nonlinear): every
/// dictionary fault — all 45 bridges and all 10 pinholes — against
/// tests from all five paper configurations.
///
/// The transient configurations make the full run a release-binary
/// workload; debug builds cover a dictionary prefix that still includes
/// both fault models.
#[test]
fn iv_converter_delta_campaign_is_bit_identical() {
    let mac = IvConverter::with_analytic_boxes();
    let full = mac.fault_dictionary();
    let take = if cfg!(debug_assertions) {
        // Two bridges plus the first pinhole keep `cargo test` quick.
        let mut faults: Vec<_> = full.iter().take(2).cloned().collect();
        if let Some(pinhole) = full.iter().find(|f| f.name().starts_with("pinhole")) {
            faults.push(pinhole.clone());
        }
        FaultDictionary::new(faults)
    } else {
        full
    };
    // One instance per configuration (the seed itself): five tests
    // covering DC, supply-current, THD and both step measurements.
    let tests = seed_instances(&mac, &[1.0]);
    differential(&mac, &take, &tests);
}

/// Ladder at n = 256 unknowns (sparse solver path, linear): the full
/// bridge dictionary against DC and step-response tests, exercising the
/// shared symbolic analysis and the factor-once Jacobian reuse on both
/// injection paths.
#[test]
fn ladder_256_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(256);
    assert!(mac.unknowns() >= 256);
    let dict = mac.fault_dictionary();
    let scales: &[f64] = if cfg!(debug_assertions) { &[1.0] } else { &[0.6, 1.0, 1.4] };
    let tests = seed_instances(&mac, scales);
    differential(&mac, &dict, &tests);
}

/// The mesh campaign — the workload whose natural-order fill justifies
/// the AMD ordering — run three-way: Dense, Sparse-Natural and
/// Sparse-AMD variants of the macro each get the full delta-vs-rebuild
/// and threads-1-vs-4 bit-identity treatment, so plan patching over a
/// *permuted* pattern is pinned exactly like the unpermuted paths. The
/// configurations must also agree with each other on which faults are
/// detected (their sensitivities differ only in the last ulps).
#[test]
fn mesh_four_way_delta_campaigns_are_bit_identical() {
    let configs: [(SolverKind, OrderingKind); 3] = [
        (SolverKind::Dense, OrderingKind::Natural),
        (SolverKind::Sparse, OrderingKind::Natural),
        (SolverKind::Sparse, OrderingKind::Amd),
    ];
    let size = if cfg!(debug_assertions) { 64 } else { 256 };
    let mut detection: Vec<Vec<bool>> = Vec::new();
    for (solver, ordering) in configs {
        let mac = MeshMacro::with_unknowns(size).with_solver(solver, ordering);
        let dict = mac.fault_dictionary();
        let scales: &[f64] = if cfg!(debug_assertions) { &[1.0] } else { &[0.6, 1.0] };
        let tests = seed_instances(&mac, scales);
        differential(&mac, &dict, &tests);

        let cache = NominalCache::new();
        let report = evaluate_campaign(
            &mac,
            &cache,
            &tests,
            &dict,
            &CampaignOptions {
                threads: 2,
                injection: InjectionMode::Delta,
                ..CampaignOptions::default()
            },
        )
        .expect("campaign");
        detection.push(report.per_fault.iter().map(|f| f.detected).collect());
    }
    assert_eq!(detection[0], detection[1], "dense vs sparse-natural detection diverged");
    assert_eq!(detection[0], detection[2], "dense vs sparse-amd detection diverged");
}

/// The OTA-chain campaign under forced Sparse-AMD: a many-MOSFET
/// cascade whose delta-patched variants re-run the AMD ordering on
/// every merged pattern, pinned delta vs rebuild and threads 1 vs 4.
#[test]
fn ota_chain_amd_delta_campaign_is_bit_identical() {
    let size = if cfg!(debug_assertions) { 64 } else { 128 };
    let mac = OtaChainMacro::with_unknowns(size).with_solver(SolverKind::Sparse, OrderingKind::Amd);
    let dict = mac.fault_dictionary();
    let tests = seed_instances(&mac, &[1.0]);
    differential(&mac, &dict, &tests);
}

/// The ladder campaign through the forced Sparse-AMD configuration:
/// tridiagonal-plus-branch-row structure under a non-identity
/// permutation, delta vs rebuild, threads 1 vs 4.
#[test]
fn ladder_amd_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(if cfg!(debug_assertions) { 96 } else { 256 })
        .with_solver(SolverKind::Sparse, OrderingKind::Amd);
    let dict = mac.fault_dictionary();
    let tests = seed_instances(&mac, &[1.0]);
    differential(&mac, &dict, &tests);
}

/// The campaign differential through the *dense* solver arm: the
/// n = 24 ladder sits below the Auto sparse threshold, so every
/// simulation of this campaign runs dense LU — the delta path's
/// bit-identity must not depend on the sparse machinery.
#[test]
fn ladder_auto_dense_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(24);
    let dict = mac.fault_dictionary();
    let config = mac
        .configurations()
        .into_iter()
        .find(|c| c.name() == "dc_out")
        .expect("ladder has a dc_out configuration");
    let tests: Vec<TestInstance> = [2.0, 5.0, 7.5]
        .iter()
        .map(|&lev| TestInstance { config: Arc::clone(&config), params: vec![lev] })
        .collect();
    differential(&mac, &dict, &tests);
}

/// The bipolar op-amp — the pure junction-device Newton path: every
/// dictionary fault (21 bridges + 10 diode/BJT junction pinholes in
/// release; a mix of both in debug) gets the full delta-vs-rebuild and
/// threads-1-vs-4 bit-identity treatment, pinning the patched-plan
/// `DiodeSite`/`BjtSite` stamping against clone-and-recompile.
#[test]
fn bjt_opamp_delta_campaign_is_bit_identical() {
    let mac = BjtOpAmp::new();
    let full = mac.fault_dictionary();
    let dict = if cfg!(debug_assertions) {
        // Three bridges plus three junction pinholes keep `cargo test`
        // quick while covering both fault models.
        FaultDictionary::new(
            full.iter().take(3).chain(full.iter().skip(21).take(3)).cloned().collect(),
        )
    } else {
        full
    };
    let tests = seed_instances(&mac, &[0.7, 1.0, 1.3]);
    differential(&mac, &dict, &tests);
}

/// Spice-level delta-vs-rebuild over a full-wave diode bridge
/// rectifier: bridge and anode–cathode pinhole patches on the compiled
/// plan must solve bit-identically to rebuilt circuits under both
/// forced solver kinds — the diode counterpart of the forced-kind
/// ladder differential below.
#[test]
fn rectifier_junction_faults_solve_delta_and_rebuilt_identically() {
    use castg::spice::{
        AnalysisOptions, Circuit, DcAnalysis, DiodeParams, SolverKind, Waveform,
    };
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let a = c.node("a");
    let p = c.node("p");
    let m = c.node("m");
    let gnd = Circuit::GROUND;
    let d = DiodeParams::signal_default();
    c.add_vsource("V1", vin, gnd, Waveform::dc(3.0)).unwrap();
    c.add_resistor("RS", vin, a, 50.0).unwrap();
    c.add_diode("D1", a, p, d).unwrap();
    c.add_diode("D2", gnd, p, d).unwrap();
    c.add_diode("D3", m, a, d).unwrap();
    c.add_diode("D4", m, gnd, d).unwrap();
    c.add_resistor("RL", p, m, 1e3).unwrap();
    c.add_capacitor("CF", p, m, 1e-6).unwrap();
    c.compile_plan();

    let mut faults = vec![
        Fault::bridge("a", "p", 10e3),
        Fault::bridge("p", "m", 10e3),
        Fault::bridge("vin", "m", 10e3),
    ];
    for name in ["D1", "D2", "D3", "D4"] {
        faults.push(Fault::junction_pinhole(name, Junction::AnodeCathode, 2e3));
    }
    for fault in &faults {
        let patched = fault.inject(&c).unwrap();
        let rebuilt = fault.inject_rebuilt(&c).unwrap();
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
            let sp = DcAnalysis::with_options(&patched, opts).solve().unwrap();
            let sr = DcAnalysis::with_options(&rebuilt, opts).solve().unwrap();
            for (x, y) in sp.state().iter().zip(sr.state()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{solver:?} {}", fault.name());
            }
        }
    }
}

/// Spice-level differential with the solver *forced* (both kinds, on a
/// size where Auto would pick the other): a delta-injected variant and
/// a rebuilt variant must solve bit-identically under explicitly forced
/// Dense and forced Sparse dispatch alike.
#[test]
fn forced_solver_kinds_solve_delta_and_rebuilt_identically() {
    use castg::spice::{AnalysisOptions, DcAnalysis, SolverKind};
    for unknowns in [24usize, 96] {
        let mac = LadderMacro::with_unknowns(unknowns);
        let nominal = mac.nominal_circuit();
        nominal.compile_plan();
        for fault in mac.fault_dictionary().iter() {
            let patched = fault.inject(&nominal).unwrap();
            let rebuilt = fault.inject_rebuilt(&nominal).unwrap();
            for solver in [SolverKind::Dense, SolverKind::Sparse] {
                let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
                let sp = DcAnalysis::with_options(&patched, opts).solve().unwrap();
                let sr = DcAnalysis::with_options(&rebuilt, opts).solve().unwrap();
                for (a, b) in sp.state().iter().zip(sr.state()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={unknowns} {solver:?} {}",
                        fault.name()
                    );
                }
            }
        }
    }
}

/// Runs generate → compact → evaluate on `mac` as `castg generate`
/// does (frugal generator settings) and returns the rendered report
/// with the coverage it summarizes.
fn pipeline_report(
    mac: &dyn AnalogMacro,
    dict: &FaultDictionary,
    threads: usize,
    injection: InjectionMode,
) -> (String, CoverageReport) {
    let cache = NominalCache::new();
    let options = GeneratorOptions { threads, ..castg_bench::golden::golden_options() };
    let generation = Generator::with_options(mac, &cache, options).generate(dict);
    assert!(generation.failures.is_empty(), "generation failed: {:?}", generation.failures);
    let compaction =
        compact(mac, &cache, &generation, &CompactionOptions::default()).expect("compaction");
    let tests = test_instances_from_compaction(mac, &compaction).expect("test instances");
    let campaign = CampaignOptions { threads, injection, ..CampaignOptions::default() };
    let coverage = evaluate_campaign(mac, &cache, &tests, dict, &campaign).expect("campaign");
    let report = render_pipeline_report(mac.name(), &generation, &compaction, &coverage);
    (report, coverage)
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The bipolar op-amp deck with its description files: a nonlinear
/// described macro, so its faulted DC solves start from the cached
/// nominal operating point. The whole pipeline report stays
/// bit-identical at 1 and 4 threads and under delta-patched and
/// rebuilt injection, the warm start lands plain Newton solves, and
/// the detected set is the hand-built `BjtOpAmp`'s.
#[test]
fn bjt_deck_warm_started_pipeline_is_thread_and_injection_invariant() {
    let mac = NetlistMacro::from_files(
        &fixture("bjt_opamp.sp"),
        &fixture("bjt_configs"),
        NetlistMacroOptions::default(),
    )
    .expect("bipolar deck + configs load");
    let dict = AnalogMacro::fault_dictionary(&mac);

    let (reference, coverage) = pipeline_report(&mac, &dict, 1, InjectionMode::Delta);
    assert!(
        coverage.ladder.plain > 0,
        "no faulted solve landed on plain Newton: {:?}",
        coverage.ladder
    );
    for (threads, injection) in
        [(4, InjectionMode::Delta), (1, InjectionMode::Rebuild), (4, InjectionMode::Rebuild)]
    {
        let (report, _) = pipeline_report(&mac, &dict, threads, injection);
        assert!(report == reference, "threads={threads}, injection={injection:?}:\n{report}");
    }

    let detected = |c: &CoverageReport| -> Vec<String> {
        c.per_fault.iter().filter(|f| f.detected).map(|f| f.fault.clone()).collect()
    };
    let (_, hand_coverage) = pipeline_report(&BjtOpAmp::new(), &dict, 2, InjectionMode::Delta);
    assert_eq!(detected(&coverage), detected(&hand_coverage));
}

/// A MOS pinhole splits the channel at a new node, so the variant
/// leaves the nominal's unknown layout and is measured cold: the
/// evaluator's faulty returns equal a cold `measure()`'s, bit for bit.
/// A bridge on the same deck keeps the layout and is warm-started.
#[test]
fn pinhole_variant_is_measured_cold() {
    let mac = NetlistMacro::from_files(
        &fixture("iv_converter.sp"),
        &fixture("iv_configs"),
        NetlistMacroOptions::default(),
    )
    .expect("IV deck + configs load");
    let nominal = mac.nominal_circuit();
    let configs = mac.configurations();
    let config = configs.iter().find(|c| c.name() == "dc_transfer").expect("dc config");
    let params = config.seed();
    let cache = NominalCache::new();
    let ev = Evaluator::new(config.as_ref(), &nominal, &cache);
    let entry = ev.nominal(&params).expect("nominal");
    assert!(entry.operating_point.is_some(), "a dc() observation reports its point");

    let dict = mac.fault_dictionary();
    let pinhole = dict.iter().find(|f| f.kind() == FaultKind::Pinhole).unwrap();
    let variant = pinhole.inject(&nominal).unwrap();
    assert_eq!(variant.node_count(), nominal.node_count() + 1);
    let iterations = |f: &dyn Fn()| {
        let before = ladder_stats();
        f();
        ladder_stats().since(&before).iterations
    };
    let evaluated = |c: &Circuit| iterations(&|| drop(ev.evaluate_injected(c, &params).unwrap()));
    let measured = |c: &Circuit| iterations(&|| drop(config.measure(c, &params).unwrap()));

    let report = ev.evaluate_injected(&variant, &params).unwrap();
    let cold = config.measure(&variant, &params).unwrap();
    let expected = config.return_values(&cold, &entry.measurement);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.faulty_returns), bits(&expected));
    assert_eq!(evaluated(&variant), measured(&variant));

    // A bridge keeps the layout, so the evaluator warm-starts it: its
    // Newton work differs from a cold measurement's.
    let bridge = dict.iter().find(|f| f.kind() == FaultKind::Bridge).unwrap();
    let bridged = bridge.inject(&nominal).unwrap();
    assert_eq!(bridged.unknown_count(), nominal.unknown_count());
    assert_ne!(evaluated(&bridged), measured(&bridged));
}
