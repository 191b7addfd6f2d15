//! The sensitivity cost function `S_f(T_tc)` (§3.1) and its evaluation
//! against nominal/faulty circuit pairs.

use std::sync::Arc;

use castg_faults::Fault;
use castg_numeric::NumericError;
use castg_spice::{Circuit, SpiceError};

use crate::cache::{NominalCache, NominalEntry};
use crate::config::Measurement;
use crate::{CoreError, TestConfiguration};

/// Sensitivity value reported when the faulty circuit cannot be simulated
/// at all — a grossly broken device counts as strongly detected.
pub const SENSITIVITY_SIM_FAILURE: f64 = -1.0e3;

/// Why a *faulted* variant's simulation broke down. These are expected
/// campaign events, not errors: a hard bridge can legitimately produce
/// a circuit that no Newton strategy lands ([`SimFailure::Unconverged`]),
/// one whose MNA system loses rank ([`SimFailure::Singular`]), or one
/// that burns past its wall-clock budget ([`SimFailure::TimedOut`]).
/// The classification is carried through to the campaign's per-fault
/// outcome; the sensitivity itself stays [`SENSITIVITY_SIM_FAILURE`]
/// (counted as detected) in every case, so coverage figures do not
/// depend on *why* the variant broke.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SimFailure {
    /// The nonlinear solver exhausted its strategy ladder or its
    /// iteration budget without converging.
    Unconverged,
    /// The variant's MNA system is singular at the named unknown
    /// (`v(<node>)` / `i(<device>)`, or a raw pivot index when the
    /// failure surfaced below the circuit layer).
    Singular {
        /// The unknown whose pivot vanished.
        unknown: String,
    },
    /// The variant overran a wall-clock budget
    /// ([`castg_spice::AnalysisOptions::budget_ms`] or the campaign's
    /// per-item budget).
    TimedOut,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimFailure::Unconverged => f.write_str("no convergence"),
            SimFailure::Singular { unknown } => write!(f, "singular at {unknown}"),
            SimFailure::TimedOut => f.write_str("wall-clock budget exceeded"),
        }
    }
}

/// Splits a faulted-variant simulation error into the expected
/// breakdown set (`Ok`) versus genuine errors (`Err` — unknown devices,
/// invalid analyses and other contract violations that must propagate).
fn classify_sim_failure(e: SpiceError) -> Result<SimFailure, SpiceError> {
    match e {
        SpiceError::NoConvergence { .. } => Ok(SimFailure::Unconverged),
        SpiceError::Singular { unknown } => Ok(SimFailure::Singular { unknown }),
        SpiceError::Numeric(NumericError::SingularMatrix { pivot }) => {
            Ok(SimFailure::Singular { unknown: format!("pivot {pivot}") })
        }
        SpiceError::Numeric(_) => Ok(SimFailure::Unconverged),
        SpiceError::Timeout { .. } => Ok(SimFailure::TimedOut),
        other => Err(other),
    }
}

/// Combines per-return deviations and box half-widths into the scalar
/// sensitivity
/// `S_f(T) = min_i (1 − |Δr_i| / box_i)`.
///
/// * `S = 1` — the faulty response is indistinguishable from nominal
///   (total insensitivity; the paper assigns cost value 1).
/// * `0 < S < 1` — a deviation exists but stays inside the tolerance box.
/// * `S < 0` — detection: the deviation exceeds the box.
///
/// Non-positive or non-finite boxes for a deviating return count as
/// immediate detection (an infinitely tight box); an empty input yields
/// `1.0` (nothing measured — nothing detected).
pub fn sensitivity(deviations: &[f64], boxes: &[f64]) -> f64 {
    debug_assert_eq!(deviations.len(), boxes.len());
    let mut s_min = 1.0_f64;
    for (dev, b) in deviations.iter().zip(boxes) {
        s_min = s_min.min(per_return_sensitivity(*dev, *b));
    }
    s_min
}

/// The per-return-value sensitivity term of `S_f(T)` — the single
/// source of truth shared by [`sensitivity`] and the fold in
/// [`Evaluator::sensitivity_of`], so the report path and the lean
/// scalar path cannot drift apart.
#[inline]
fn per_return_sensitivity(dev: f64, b: f64) -> f64 {
    if b > 0.0 && b.is_finite() {
        1.0 - dev.abs() / b
    } else if dev.abs() > 0.0 {
        f64::NEG_INFINITY
    } else {
        1.0
    }
}

/// Whether a sensitivity value means the fault is detected.
pub fn is_detected(s: f64) -> bool {
    s < 0.0
}

/// One full sensitivity evaluation: parameters, nominal/faulty return
/// values, boxes and the resulting `S_f`.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// Parameter vector the test was applied with.
    pub params: Vec<f64>,
    /// Nominal return values `R_nom(T)`.
    pub nominal_returns: Vec<f64>,
    /// Faulty return values `R_f(T)`.
    pub faulty_returns: Vec<f64>,
    /// Tolerance-box half-widths.
    pub boxes: Vec<f64>,
    /// The sensitivity `S_f(T)`.
    pub sensitivity: f64,
    /// Whether the faulty simulation failed (counted as detection).
    pub sim_failure: bool,
}

/// Evaluates sensitivities of one configuration for one macro, caching
/// nominal measurements (which are fault-independent) across calls.
///
/// This is the inner loop of everything in this crate: tps-graph sweeps,
/// the per-fault optimizations, the impact searches and the compaction
/// screen all evaluate `S_f(T)` through an `Evaluator`.
pub struct Evaluator<'a> {
    config: &'a dyn TestConfiguration,
    nominal_circuit: &'a Circuit,
    cache: &'a NominalCache,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `config` against the given nominal
    /// circuit, using `cache` for nominal measurements.
    pub fn new(
        config: &'a dyn TestConfiguration,
        nominal_circuit: &'a Circuit,
        cache: &'a NominalCache,
    ) -> Self {
        Evaluator { config, nominal_circuit, cache }
    }

    /// The configuration being evaluated.
    pub fn config(&self) -> &dyn TestConfiguration {
        self.config
    }

    /// Injects a fault into the evaluator's nominal circuit (convenience
    /// for callers that sweep parameters over one injected circuit).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Fault`] when the fault does not apply.
    pub fn inject(&self, fault: &Fault) -> Result<Circuit, CoreError> {
        Ok(fault.inject(self.nominal_circuit)?)
    }

    /// Nominal measurement at `params`, cached together with the DC
    /// operating point the configuration reports for it.
    ///
    /// A linear nominal circuit keeps no point: its faulted variants
    /// are linear too (bridges add resistors, pinholes need a
    /// nonlinear device to short), and a linear solve is never
    /// warm-started.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (the nominal circuit is expected to
    /// simulate cleanly everywhere inside the parameter bounds).
    pub fn nominal(&self, params: &[f64]) -> Result<Arc<NominalEntry>, CoreError> {
        self.cache.get_or_insert(self.config.id(), params, || {
            let (measurement, point) =
                self.config.measure_from(self.nominal_circuit, params, None)?;
            let operating_point = point.filter(|_| !self.nominal_circuit.is_linear());
            Ok(NominalEntry { measurement, operating_point })
        })
    }

    /// Whether a faulted circuit's DC solves may start from the nominal
    /// operating point: only when the variant is nonlinear and keeps
    /// the nominal's unknown layout (node and branch counts). Bridges
    /// qualify. A pinhole adds a node and stays cold. A linear variant
    /// converges in one factorization from zeros, and a warm start
    /// would only move the last bits of its answer.
    fn warm_start_applies(&self, faulty_circuit: &Circuit) -> bool {
        faulty_circuit.node_count() == self.nominal_circuit.node_count()
            && faulty_circuit.unknown_count() == self.nominal_circuit.unknown_count()
            && !faulty_circuit.is_linear()
    }

    /// Full sensitivity evaluation of `fault` (at its current impact) at
    /// `params`, simulating the injected faulty circuit.
    ///
    /// A faulty-circuit convergence failure is not an error: it returns a
    /// report with [`SENSITIVITY_SIM_FAILURE`] and `sim_failure = true`.
    ///
    /// # Errors
    ///
    /// Fault-injection errors and *nominal* simulation failures propagate.
    pub fn evaluate(&self, fault: &Fault, params: &[f64]) -> Result<SensitivityReport, CoreError> {
        let faulty_circuit = fault.inject(self.nominal_circuit)?;
        self.evaluate_injected(&faulty_circuit, params)
    }

    /// Measures the faulty circuit, warm-started from the nominal
    /// operating point when [`warm_start_applies`](Self::warm_start_applies),
    /// mapping a simulation breakdown (non-convergence, singular
    /// system, numerical failure, budget overrun — a grossly broken
    /// device) to `Ok(Err(classification))`. The single home of the
    /// sim-failure error set, shared by the report and the lean scalar
    /// paths.
    fn measure_faulty(
        &self,
        faulty_circuit: &Circuit,
        params: &[f64],
        nominal: &NominalEntry,
    ) -> Result<Result<Measurement, SimFailure>, CoreError> {
        let start = nominal
            .operating_point
            .as_deref()
            .filter(|_| self.warm_start_applies(faulty_circuit));
        match self.config.measure_from(faulty_circuit, params, start) {
            Ok((m, _)) => Ok(Ok(m)),
            Err(CoreError::Simulation(e)) => match classify_sim_failure(e) {
                Ok(failure) => Ok(Err(failure)),
                Err(hard) => Err(CoreError::Simulation(hard)),
            },
            Err(other) => Err(other),
        }
    }

    /// Like [`Evaluator::evaluate`] but takes an already injected faulty
    /// circuit (callers that sweep parameters reuse one injection).
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate`].
    pub fn evaluate_injected(
        &self,
        faulty_circuit: &Circuit,
        params: &[f64],
    ) -> Result<SensitivityReport, CoreError> {
        let nominal = self.nominal(params)?;
        let nominal_m = &nominal.measurement;
        let nominal_returns = self.config.return_values(nominal_m, nominal_m);
        let boxes = self.config.tolerance_box(params, &nominal_returns);

        match self.measure_faulty(faulty_circuit, params, &nominal)? {
            Ok(faulty_m) => {
                let faulty_returns = self.config.return_values(&faulty_m, nominal_m);
                let deviations: Vec<f64> = faulty_returns
                    .iter()
                    .zip(&nominal_returns)
                    .map(|(f, n)| f - n)
                    .collect();
                let s = sensitivity(&deviations, &boxes);
                Ok(SensitivityReport {
                    params: params.to_vec(),
                    nominal_returns,
                    faulty_returns,
                    boxes,
                    sensitivity: s,
                    sim_failure: false,
                })
            }
            Err(_) => Ok(SensitivityReport {
                params: params.to_vec(),
                faulty_returns: vec![f64::NAN; nominal_returns.len()],
                nominal_returns,
                boxes,
                sensitivity: SENSITIVITY_SIM_FAILURE,
                sim_failure: true,
            }),
        }
    }

    /// Just the sensitivity value (the optimizer objective and the
    /// campaign engine's work-item kernel).
    ///
    /// Identical — bit for bit — to
    /// [`evaluate_injected`](Evaluator::evaluate_injected)`.sensitivity`,
    /// but skips materializing the [`SensitivityReport`] (parameter
    /// copies, deviation vectors): campaigns call this millions of
    /// times and keep only the scalar.
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate`].
    pub fn sensitivity_of(
        &self,
        faulty_circuit: &Circuit,
        params: &[f64],
    ) -> Result<f64, CoreError> {
        self.sensitivity_outcome(faulty_circuit, params).map(|(s, _)| s)
    }

    /// [`sensitivity_of`](Evaluator::sensitivity_of) plus the breakdown
    /// classification: the scalar sensitivity and, when the faulted
    /// simulation broke down, *why* (`None` means it simulated
    /// cleanly). The campaign engine's work-item kernel — the
    /// sensitivity is bit-identical to the other two paths.
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate`].
    pub fn sensitivity_outcome(
        &self,
        faulty_circuit: &Circuit,
        params: &[f64],
    ) -> Result<(f64, Option<SimFailure>), CoreError> {
        let nominal = self.nominal(params)?;
        let nominal_m = &nominal.measurement;
        let nominal_returns = self.config.return_values(nominal_m, nominal_m);
        let boxes = self.config.tolerance_box(params, &nominal_returns);
        match self.measure_faulty(faulty_circuit, params, &nominal)? {
            Ok(faulty_m) => {
                let faulty_returns = self.config.return_values(&faulty_m, nominal_m);
                // Fold `sensitivity` over on-the-fly deviations: the
                // same `f − n` pairs through the same per-return term,
                // in the same order as the report path, so the fold
                // rounds identically.
                let mut s_min = 1.0_f64;
                for ((f, n), b) in faulty_returns.iter().zip(&nominal_returns).zip(&boxes) {
                    s_min = s_min.min(per_return_sensitivity(f - n, *b));
                }
                Ok((s_min, None))
            }
            Err(failure) => Ok((SENSITIVITY_SIM_FAILURE, Some(failure))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DividerMacro;
    use crate::AnalogMacro;

    #[test]
    fn sensitivity_sign_convention() {
        // No deviation: total insensitivity = 1.
        assert_eq!(sensitivity(&[0.0], &[1.0]), 1.0);
        // Deviation inside the box: 0 < S < 1.
        let s = sensitivity(&[0.5], &[1.0]);
        assert!(s > 0.0 && s < 1.0);
        // Deviation at the box edge: S = 0.
        assert!(sensitivity(&[1.0], &[1.0]).abs() < 1e-12);
        // Outside: detection.
        assert!(is_detected(sensitivity(&[2.0], &[1.0])));
        assert!(!is_detected(0.5));
    }

    #[test]
    fn sensitivity_takes_worst_return_value() {
        // Second return deviates beyond its box → min wins.
        let s = sensitivity(&[0.1, 3.0], &[1.0, 1.0]);
        assert_eq!(s, -2.0);
    }

    #[test]
    fn degenerate_boxes() {
        assert_eq!(sensitivity(&[], &[]), 1.0);
        assert_eq!(sensitivity(&[0.5], &[0.0]), f64::NEG_INFINITY);
        assert_eq!(sensitivity(&[0.0], &[0.0]), 1.0);
    }

    #[test]
    fn evaluator_detects_a_hard_bridge_on_the_divider() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let config = configs[0].as_ref(); // DC output voltage
        let ev = Evaluator::new(config, &circuit, &cache);

        // Strong bridge across the lower divider resistor.
        let fault = castg_faults::Fault::bridge("out", "0", 100.0);
        let report = ev.evaluate(&fault, &config.seed()).unwrap();
        assert!(report.sensitivity < 0.0, "S = {}", report.sensitivity);
        assert!(!report.sim_failure);
        assert_eq!(report.boxes.len(), report.nominal_returns.len());
    }

    #[test]
    fn evaluator_finds_weak_bridge_undetectable() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let config = configs[0].as_ref();
        let ev = Evaluator::new(config, &circuit, &cache);

        // A 100 MΩ bridge barely moves a 1 kΩ divider.
        let fault = castg_faults::Fault::bridge("out", "0", 100e6);
        let report = ev.evaluate(&fault, &config.seed()).unwrap();
        assert!(report.sensitivity > 0.0, "S = {}", report.sensitivity);
    }

    /// The lean scalar path must agree bit for bit with the full
    /// report path, detection and non-detection alike.
    #[test]
    fn sensitivity_of_matches_report_path_bitwise() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        for config in &configs {
            let ev = Evaluator::new(config.as_ref(), &circuit, &cache);
            for ohms in [100.0, 100e6] {
                let fault = castg_faults::Fault::bridge("out", "0", ohms);
                let faulty = ev.inject(&fault).unwrap();
                let report = ev.evaluate_injected(&faulty, &config.seed()).unwrap();
                let lean = ev.sensitivity_of(&faulty, &config.seed()).unwrap();
                assert_eq!(report.sensitivity.to_bits(), lean.to_bits());
            }
        }
    }

    #[test]
    fn nominal_measurements_are_cached() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let config = configs[0].as_ref();
        let ev = Evaluator::new(config, &circuit, &cache);
        let p = config.seed();
        let a = ev.nominal(&p).unwrap();
        let b = ev.nominal(&p).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(cache.len(), 1);
    }
}
