//! End-to-end integration of the full pipeline on the fast synthetic
//! macro: generation → compaction → coverage → baseline, plus
//! determinism.

use castg::core::synthetic::DividerMacro;
use castg::core::{
    compact, compare_with_baseline, evaluate_test_set, seed_test_set,
    test_instances_from_compaction, AnalogMacro, CompactionOptions, Generator,
    GeneratorOptions, NominalCache, SelectionMethod,
};

fn quick_options() -> GeneratorOptions {
    GeneratorOptions {
        threads: 2,
        powell: castg::numeric::PowellOptions {
            ftol: 1e-3,
            max_iter: 6,
            line: castg::numeric::BrentOptions { tol: 5e-3, max_iter: 10 },
        },
        brent: castg::numeric::BrentOptions { tol: 1e-3, max_iter: 20 },
        ..GeneratorOptions::default()
    }
}

#[test]
fn full_pipeline_on_synthetic_macro() {
    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    let cache = NominalCache::new();

    // §3: one optimal test per fault.
    let generator = Generator::with_options(&mac, &cache, quick_options());
    let report = generator.generate(&dict);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.tests.len(), dict.len());
    assert!(report.total_evaluations() > 0);

    // Table-2-style distribution accounts for every fault exactly once.
    let total: usize = report.distribution().iter().map(|r| r.bridge + r.pinhole).sum();
    assert_eq!(total, dict.len());

    // §4: compaction covers every fault exactly once and never grows.
    let compaction = compact(&mac, &cache, &report, &CompactionOptions::default()).unwrap();
    assert!(compaction.tests.len() <= report.tests.len());
    let covered: usize = compaction.tests.iter().map(|t| t.covered_faults.len()).sum();
    assert_eq!(covered, report.tests.len());

    // The compacted set detects what the per-fault set detected.
    let instances = test_instances_from_compaction(&mac, &compaction).unwrap();
    let coverage = evaluate_test_set(&mac, &cache, &instances, &dict).unwrap();
    assert_eq!(coverage.detected(), dict.len(), "escapes: {:?}", coverage.escapes());

    // §2.2: optimization is at least as good as the fixed-seed baseline.
    let cmp = compare_with_baseline(&mac, &cache, &report, &dict).unwrap();
    assert!(cmp.optimized.detected() >= cmp.baseline.detected());
    assert!(cmp.optimized.mean_best_sensitivity() <= cmp.baseline.mean_best_sensitivity() + 1e-9);
}

#[test]
fn generation_is_deterministic() {
    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    let run = || {
        let cache = NominalCache::new();
        let generator = Generator::with_options(&mac, &cache, quick_options());
        let report = generator.generate(&dict);
        report
            .tests
            .iter()
            .map(|t| (t.fault.name(), t.config_id, t.params.clone(), t.critical_scale))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "two identical runs must select identical tests");
}

#[test]
fn selection_methods_agree_across_dictionary() {
    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    let run = |method: SelectionMethod| {
        let cache = NominalCache::new();
        let opts = GeneratorOptions { selection: method, ..quick_options() };
        let generator = Generator::with_options(&mac, &cache, opts);
        generator
            .generate(&dict)
            .tests
            .iter()
            .map(|t| (t.fault.name(), t.config_id))
            .collect::<Vec<_>>()
    };
    let iterative = run(SelectionMethod::PaperIterative);
    let critical = run(SelectionMethod::MaxCriticalImpact);
    // The two selection definitions coincide on clear-cut faults; demand
    // agreement on a solid majority (ties near equal criticality may
    // differ legitimately).
    let agree = iterative.iter().zip(&critical).filter(|(a, b)| a == b).count();
    assert!(
        agree * 3 >= iterative.len() * 2,
        "selection methods agree on only {agree}/{} faults",
        iterative.len()
    );
}

#[test]
fn seed_baseline_is_well_formed() {
    let mac = DividerMacro::new();
    let seeds = seed_test_set(&mac);
    assert_eq!(seeds.len(), mac.configurations().len());
    for t in &seeds {
        assert!(t.config.space().contains(&t.params));
    }
}

/// A campaign over an empty test set leaves every row at the
/// `f64::INFINITY` sensitivity sentinel; the JSON report must still
/// parse, with `best_sensitivity` rendered as `null`.
#[test]
fn json_report_over_empty_test_set_is_valid_json() {
    use castg::core::report::{render_json_report, PipelineTimings};
    use castg::serve::json::{parse_json, Json};

    let mac = DividerMacro::new();
    let dict = mac.fault_dictionary();
    let cache = NominalCache::new();
    let coverage = evaluate_test_set(&mac, &cache, &[], &dict).unwrap();
    assert!(coverage
        .per_fault
        .iter()
        .all(|f| f.best_sensitivity == f64::INFINITY));
    let json = render_json_report(
        mac.name(),
        mac.macro_type(),
        dict.len(),
        1,
        &PipelineTimings::default(),
        0,
        0,
        &coverage,
    );
    let parsed = parse_json(json.as_bytes()).unwrap_or_else(|e| panic!("{e}:\n{json}"));
    let rows = parsed.get("per_fault").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), dict.len());
    for row in rows {
        assert_eq!(row.get("best_sensitivity"), Some(&Json::Null));
    }
}
