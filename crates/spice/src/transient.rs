//! Fixed-step transient analysis.
//!
//! Capacitors (explicit devices plus the MOSFETs' intrinsic gate
//! capacitances) are replaced by their integration companion models —
//! trapezoidal after the first step, backward Euler on the first step and
//! for sub-stepped recovery — and the resulting nonlinear system is
//! solved with the same damped Newton iteration as the DC analysis.
//!
//! The step size is caller-chosen and fixed; the test configurations of
//! the paper prescribe their own sample rates (100 MHz for the step
//! responses), so the engine simply honours whatever resolution the
//! configuration requests. A step that refuses to converge is retried
//! with a gmin-stepping ladder and then by recursive 8x step cutting
//! (up to 512x), which copes with steep stimulus ramps and with
//! operating-branch snaps such as an op-amp entering clipping.

use crate::analysis::AnalysisOptions;
use crate::budget::IterBudget;
use crate::circuit::Circuit;
use crate::dc::{resolve_overrides, DcAnalysis, NewtonScratch};
use crate::device::DeviceKind;
use crate::node::NodeId;
use crate::probe::{Probe, Trace};
use crate::stamp;
use crate::stimulus::Waveform;
use crate::SpiceError;

/// The [`JacobianKey`](crate::dc::JacobianKey) of a linear plan's
/// companion-augmented transient matrix: the companion conductances
/// `geq` are a pure function of the integration method and the step
/// size `h`, both carried verbatim (tags 1/2 keep the method spaces
/// disjoint from DC's zero tag and from each other).
fn companion_key(gmin: f64, method: IntegrationMethod, h: f64) -> crate::dc::JacobianKey {
    let tag: u64 = match method {
        IntegrationMethod::BackwardEuler => 1,
        IntegrationMethod::Trapezoidal => 2,
    };
    (gmin.to_bits(), tag, h.to_bits())
}

/// Time-integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntegrationMethod {
    /// First-order, L-stable; damps ringing but adds numerical loss.
    BackwardEuler,
    /// Second-order; the default, matching common SPICE practice.
    #[default]
    Trapezoidal,
}

/// Rewrites a gmin-ladder failure with the timepoint for diagnosis.
fn ladder_error(e: SpiceError, t1: f64) -> SpiceError {
    match e {
        SpiceError::NoConvergence { iterations, .. } => SpiceError::NoConvergence {
            analysis: format!("transient @ t={t1:.3e} (gmin ladder)"),
            iterations,
        },
        other => other,
    }
}

/// Levels of recursive 8× step cutting attempted on non-convergence.
const RETRY_DEPTH: usize = 3;

/// One energy-storage element tracked by the integrator, with its state
/// (`v_prev`/`i_prev`) at the previous accepted timepoint.
#[derive(Debug, Clone)]
enum DynElement {
    /// A capacitance between two nodes (explicit capacitors plus the
    /// MOSFETs' intrinsic gate capacitances). Its companion is a
    /// conductance `geq` between the nodes plus a history current.
    Cap { a: NodeId, b: NodeId, farads: f64, v_prev: f64, i_prev: f64 },
    /// An inductor riding MNA branch row `row` (absolute matrix index).
    /// Its companion is a resistance `req` on the branch diagonal plus a
    /// history voltage on the branch row's right-hand side.
    Ind { a: NodeId, b: NodeId, row: usize, henries: f64, v_prev: f64, i_prev: f64 },
}

/// Per-run solver state: the shared Newton scratch (compiled stamp
/// plan, matrix, rhs, LU workspace, update vector) plus the
/// transient-specific staging buffers. Allocated once in
/// [`TranAnalysis::run`]; every timestep and every Newton iteration
/// inside it then reuses these buffers.
#[derive(Debug)]
struct TranScratch {
    newton: NewtonScratch,
    /// Newton working state (candidate solution being iterated).
    x_iter: Vec<f64>,
    /// gmin-ladder stage state.
    x_stage: Vec<f64>,
    /// Per-element companion `(geq, i_hist)` for the current step.
    companions: Vec<(f64, f64)>,
}

impl TranScratch {
    fn new(
        circuit: &Circuit,
        n_dyns: usize,
        solver: crate::solver::SolverKind,
        ordering: crate::solver::OrderingKind,
    ) -> Self {
        // Transient stamps companion conductances into the dynamic
        // slots, so its Newton systems live on the full pattern.
        let newton =
            NewtonScratch::new(circuit, solver, ordering, crate::stamp::PatternScope::Full);
        let n = newton.plan.dim();
        TranScratch {
            newton,
            x_iter: vec![0.0; n],
            x_stage: vec![0.0; n],
            companions: Vec::with_capacity(n_dyns),
        }
    }
}

/// Fixed-step transient simulator for a [`Circuit`].
///
/// # Example
///
/// ```
/// use castg_spice::{Circuit, Probe, TranAnalysis, Waveform};
///
/// // RC low-pass step response: v(t) = 1 − e^(−t/RC).
/// let mut c = Circuit::new();
/// let inp = c.node("in");
/// let out = c.node("out");
/// c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9))?;
/// c.add_resistor("R1", inp, out, 1e3)?;
/// c.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?; // τ = 1 µs
/// let trace = TranAnalysis::new(&c).run(5e-6, 10e-9, &[Probe::NodeVoltage(out)])?;
/// let v_end = *trace.column(0).last().unwrap();
/// assert!((v_end - 1.0).abs() < 0.01); // settled after 5 τ
/// # Ok::<(), castg_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TranAnalysis<'c> {
    circuit: &'c Circuit,
    options: AnalysisOptions,
    method: IntegrationMethod,
    overrides: Vec<(String, Waveform)>,
}

impl<'c> TranAnalysis<'c> {
    /// Creates a transient solver with default options (trapezoidal).
    pub fn new(circuit: &'c Circuit) -> Self {
        TranAnalysis {
            circuit,
            options: AnalysisOptions::default(),
            method: IntegrationMethod::default(),
            overrides: Vec::new(),
        }
    }

    /// Creates a transient solver with explicit options and method.
    pub fn with_options(
        circuit: &'c Circuit,
        options: AnalysisOptions,
        method: IntegrationMethod,
    ) -> Self {
        TranAnalysis { circuit, options, method, overrides: Vec::new() }
    }

    /// Overrides the waveform of a named independent source for this
    /// run only (including its internal DC operating-point solve),
    /// without cloning or mutating the circuit — bit-identical to
    /// running a copy mutated with [`Circuit::set_stimulus`].
    pub fn override_stimulus(mut self, name: impl Into<String>, wave: Waveform) -> Self {
        self.overrides.push((name.into(), wave));
        self
    }

    /// Runs from `t = 0` to `t_stop` with step `dt`, starting from the DC
    /// operating point, recording `probes` at every timepoint (including
    /// `t = 0`).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] for non-positive `t_stop`/`dt`,
    /// plus any DC or per-step convergence failure.
    pub fn run(&self, t_stop: f64, dt: f64, probes: &[Probe]) -> Result<Trace, SpiceError> {
        if !(t_stop > 0.0 && t_stop.is_finite() && dt > 0.0 && dt.is_finite()) {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("need positive t_stop and dt, got t_stop={t_stop}, dt={dt}"),
            });
        }
        if dt > t_stop {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("dt={dt} exceeds t_stop={t_stop}"),
            });
        }

        let dc = DcAnalysis::with_options(self.circuit, self.options)
            .with_overrides(self.overrides.clone())
            .solve()?;
        let mut x = dc.state().to_vec();

        let mut dyns = self.collect_dynamics(&x);
        let labels: Vec<String> = probes.iter().map(|p| p.label(self.circuit)).collect();
        let mut trace = Trace::new(labels);

        let mut row = Vec::with_capacity(probes.len());
        self.record(probes, &x, &mut row)?;
        trace.push_row(0.0, &row);

        let n_steps = (t_stop / dt - 1e-9).ceil().max(1.0) as usize;
        let mut scratch = TranScratch::new(
            self.circuit,
            dyns.len(),
            self.options.solver,
            self.options.ordering,
        );
        scratch.newton.overrides = resolve_overrides(self.circuit, &self.overrides)?;

        // One budget for the whole run: every Newton iteration of every
        // timestep (ladder stages and sub-step retries included) charges
        // it. The initial DC operating point above runs under its own
        // equal per-analysis caps; a `with_solve_budget` overlay spans
        // both.
        let mut budget = IterBudget::start("transient", &self.options);
        for k in 1..=n_steps {
            let t1 = (k as f64) * dt;
            let t0 = t1 - dt;
            let method = if k == 1 { IntegrationMethod::BackwardEuler } else { self.method };
            self.advance(
                &mut x,
                &mut dyns,
                t0,
                t1,
                method,
                RETRY_DEPTH,
                &mut scratch,
                &mut budget,
            )?;
            self.record(probes, &x, &mut row)?;
            trace.push_row(t1, &row);
        }
        Ok(trace)
    }

    /// Advances `x` from `t0` to `t1` in one step, recursively cutting
    /// the interval into eight backward-Euler sub-steps on convergence
    /// failure (each cut multiplies the capacitive companion
    /// conductances by eight, anchoring the iteration; two levels give
    /// an effective 64× step reduction). `x` is updated in place on
    /// success and left at the last accepted state on failure.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        x: &mut [f64],
        dyns: &mut [DynElement],
        t0: f64,
        t1: f64,
        method: IntegrationMethod,
        depth: usize,
        scratch: &mut TranScratch,
        budget: &mut IterBudget,
    ) -> Result<(), SpiceError> {
        match self.step(x, dyns, t1, t1 - t0, method, scratch, budget) {
            Ok(()) => Ok(()),
            // A depleted budget caused the failure (or would cut every
            // sub-step off at its first iteration) — don't retry.
            Err(SpiceError::NoConvergence { .. }) if depth > 0 && !budget.depleted() => {
                let sub = 8;
                let h = (t1 - t0) / sub as f64;
                for j in 1..=sub {
                    let ta = t0 + h * (j - 1) as f64;
                    let tb = if j == sub { t1 } else { t0 + h * j as f64 };
                    self.advance(
                        x,
                        dyns,
                        ta,
                        tb,
                        IntegrationMethod::BackwardEuler,
                        depth - 1,
                        scratch,
                        budget,
                    )?;
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Gathers all energy-storage elements with their DC initial
    /// conditions: capacitors start at their DC voltage with zero
    /// current, inductors at zero voltage carrying their DC (short)
    /// branch current.
    fn collect_dynamics(&self, x: &[f64]) -> Vec<DynElement> {
        let n_nodes = self.circuit.node_count() - 1;
        let mut dyns = Vec::new();
        let mut branch = 0usize;
        for dev in self.circuit.devices() {
            match dev.kind() {
                DeviceKind::Capacitor { a, b, farads } => {
                    dyns.push(DynElement::Cap {
                        a: *a,
                        b: *b,
                        farads: *farads,
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                }
                DeviceKind::Inductor { a, b, henries } => {
                    dyns.push(DynElement::Ind {
                        a: *a,
                        b: *b,
                        row: n_nodes + branch,
                        henries: *henries,
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                }
                DeviceKind::Mosfet { d, g, s, params, .. } => {
                    dyns.push(DynElement::Cap {
                        a: *g,
                        b: *s,
                        farads: params.cgs(),
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                    dyns.push(DynElement::Cap {
                        a: *g,
                        b: *d,
                        farads: params.cgd(),
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                }
                DeviceKind::Diode { a, k, params } => {
                    dyns.push(DynElement::Cap {
                        a: *a,
                        b: *k,
                        farads: params.cj0,
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                }
                DeviceKind::Bjt { c, b, e, params, .. } => {
                    dyns.push(DynElement::Cap {
                        a: *b,
                        b: *e,
                        farads: params.cje,
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                    dyns.push(DynElement::Cap {
                        a: *b,
                        b: *c,
                        farads: params.cjc,
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                }
                // Storage-free devices — listed exhaustively so the
                // compiler forces every future device kind to decide
                // its transient contribution here.
                DeviceKind::Resistor { .. }
                | DeviceKind::Vsource { .. }
                | DeviceKind::Isource { .. }
                | DeviceKind::Vcvs { .. }
                | DeviceKind::Vccs { .. }
                | DeviceKind::Cccs { .. }
                | DeviceKind::Ccvs { .. } => {}
            }
            if dev.has_branch_current() {
                branch += 1;
            }
        }
        for el in &mut dyns {
            match el {
                DynElement::Cap { a, b, v_prev, i_prev, .. } => {
                    *v_prev = stamp::voltage_of(x, *a) - stamp::voltage_of(x, *b);
                    *i_prev = 0.0; // steady state: no capacitor current
                }
                DynElement::Ind { row, v_prev, i_prev, .. } => {
                    *v_prev = 0.0; // steady state: a short drops nothing
                    *i_prev = x[*row];
                }
            }
        }
        dyns
    }

    /// One Newton solve at time `t1` with step `h`; on success updates
    /// the dynamic-element states and `x` in place. On failure `x` is
    /// left untouched.
    ///
    /// If the warm-started Newton fails (e.g. the circuit snaps between
    /// operating branches, as an op-amp entering clipping does), the step
    /// is retried with a gmin-stepping ladder on the companion-augmented
    /// system before giving up.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        x: &mut [f64],
        dyns: &mut [DynElement],
        t1: f64,
        h: f64,
        method: IntegrationMethod,
        scratch: &mut TranScratch,
        budget: &mut IterBudget,
    ) -> Result<(), SpiceError> {
        let opts = &self.options;
        let TranScratch { newton, x_iter, x_stage, companions } = scratch;

        // Companion parameters per element (buffer reused across steps):
        // `(geq, history)` for capacitors, `(req, history)` for
        // inductors — both pure functions of (element, method, h) and
        // the previous accepted state.
        companions.clear();
        companions.extend(dyns.iter().map(|el| match (el, method) {
            (DynElement::Cap { farads, v_prev, .. }, IntegrationMethod::BackwardEuler) => {
                let geq = farads / h;
                (geq, geq * v_prev)
            }
            (DynElement::Cap { farads, v_prev, i_prev, .. }, IntegrationMethod::Trapezoidal) => {
                let geq = 2.0 * farads / h;
                (geq, geq * v_prev + i_prev)
            }
            // Inductor branch row: v(a) − v(b) − req·i = hist.
            (DynElement::Ind { henries, i_prev, .. }, IntegrationMethod::BackwardEuler) => {
                let req = henries / h;
                (req, -req * i_prev)
            }
            (DynElement::Ind { henries, v_prev, i_prev, .. }, IntegrationMethod::Trapezoidal) => {
                let req = 2.0 * henries / h;
                (req, -req * i_prev - v_prev)
            }
        }));

        let normal = (opts.max_step_v, opts.max_iter);
        x_iter.copy_from_slice(x);
        match self.newton_step(
            x_iter,
            companions,
            dyns,
            (t1, method, h),
            opts.gmin,
            normal,
            newton,
            budget,
        ) {
            Ok(()) => {}
            Err(SpiceError::NoConvergence { .. }) if !budget.depleted() => {
                // gmin ladder: solve a heavily shunted version first and
                // relax decade by decade, warm-starting each stage. The
                // first pass uses normal damping; if the circuit is
                // snapping between operating branches (clipping onset), a
                // second pass with much stronger damping and a higher
                // iteration budget usually lands it.
                let attempts =
                    [(1e-2, opts.max_step_v, opts.max_iter), (1e-1, 0.05, 4 * opts.max_iter)];
                let mut result = Err(SpiceError::NoConvergence {
                    analysis: format!("transient @ t={t1:.3e}"),
                    iterations: opts.max_iter,
                });
                'attempt: for (g_start, damp, iters) in attempts {
                    x_stage.copy_from_slice(x);
                    let mut gmin = g_start;
                    while gmin > opts.gmin {
                        x_iter.copy_from_slice(x_stage);
                        match self.newton_step(
                            x_iter,
                            companions,
                            dyns,
                            (t1, method, h),
                            gmin,
                            (damp, iters),
                            newton,
                            budget,
                        ) {
                            Ok(()) => x_stage.copy_from_slice(x_iter),
                            Err(e) => {
                                result = Err(ladder_error(e, t1));
                                continue 'attempt;
                            }
                        }
                        gmin /= 10.0;
                    }
                    x_iter.copy_from_slice(x_stage);
                    match self.newton_step(
                        x_iter,
                        companions,
                        dyns,
                        (t1, method, h),
                        opts.gmin,
                        (damp, iters),
                        newton,
                        budget,
                    ) {
                        Ok(()) => {
                            result = Ok(());
                            break 'attempt;
                        }
                        Err(e) => result = Err(ladder_error(e, t1)),
                    }
                }
                result?
            }
            Err(other) => return Err(other),
        }

        // Accept: the converged solution is in x_iter.
        x.copy_from_slice(x_iter);
        // Update element histories from the converged solution.
        for (el, (geq, hist)) in dyns.iter_mut().zip(companions.iter()) {
            match el {
                DynElement::Cap { a, b, v_prev, i_prev, .. } => {
                    let v_new = stamp::voltage_of(x, *a) - stamp::voltage_of(x, *b);
                    *i_prev = geq * v_new - hist;
                    *v_prev = v_new;
                }
                DynElement::Ind { a, b, row, v_prev, i_prev, .. } => {
                    *i_prev = x[*row];
                    *v_prev = stamp::voltage_of(x, *a) - stamp::voltage_of(x, *b);
                }
            }
        }
        Ok(())
    }

    /// The damped Newton iteration for one timepoint at fixed `gmin`,
    /// with explicit `(max_step_v, max_iter)` damping control. Iterates
    /// `x` in place, allocating nothing: the compiled stamp plan is
    /// replayed into the reused matrix, companions are added on top, and
    /// the LU workspace factors and solves into reused buffers.
    ///
    /// For a linear plan the companion-augmented Jacobian is a pure
    /// function of `(gmin, method, h)` — constant across the Newton
    /// iterations of a step *and across timesteps* at a fixed step
    /// size. The scratch's factorization-reuse key captures exactly
    /// that, so a fixed-step transient of a linear circuit factors
    /// once and then pays only rhs re-derivation + substitution per
    /// step, bit-identical to the always-refactor path. History terms
    /// (`i_hist`) live purely in the rhs and never break the reuse.
    #[allow(clippy::too_many_arguments)]
    fn newton_step(
        &self,
        x: &mut [f64],
        companions: &[(f64, f64)],
        dyns: &[DynElement],
        (t1, method, h): (f64, IntegrationMethod, f64),
        gmin: f64,
        (max_step_v, max_iter): (f64, usize),
        scratch: &mut NewtonScratch,
        budget: &mut IterBudget,
    ) -> Result<(), SpiceError> {
        scratch.eval_sources(|w| w.eval(t1));
        let NewtonScratch { plan, solver, rhs, x_new, src_vals, factored_for, .. } = scratch;
        let n = plan.dim();
        let n_nodes = self.circuit.node_count() - 1;
        let opts = &self.options;
        let reuse_key = companion_key(gmin, method, h);

        let mut spent = 0u64;
        let result = (|| {
            for _ in 0..max_iter {
                budget.charge()?;
                spent += 1;
                if plan.is_linear() && *factored_for == Some(reuse_key) {
                    plan.assemble_rhs_only(rhs, src_vals);
                } else {
                    *factored_for = None;
                    solver
                        .assemble_and_factor(plan, x, rhs, gmin, src_vals, |mat| {
                            for (el, (geq, _)) in dyns.iter().zip(companions) {
                                match el {
                                    DynElement::Cap { a, b, .. } => {
                                        stamp::stamp_conductance(mat, *a, *b, *geq);
                                    }
                                    DynElement::Ind { row, .. } => {
                                        // `geq` holds `req`; the branch equation
                                        // gains `−req·i`.
                                        mat.add(*row, *row, -geq);
                                    }
                                }
                            }
                        })
                        .map_err(|e| self.circuit.singular_error(e))?;
                    if plan.is_linear() {
                        *factored_for = Some(reuse_key);
                    }
                }
                for (el, (_, hist)) in dyns.iter().zip(companions) {
                    match el {
                        // The history term acts as a current source from b
                        // to a.
                        DynElement::Cap { a, b, .. } => stamp::stamp_current(rhs, *b, *a, *hist),
                        // The history term is the branch equation's rhs.
                        DynElement::Ind { row, .. } => rhs[*row] += hist,
                    }
                }
                solver.solve_into(rhs, x_new)?;

                let mut converged = true;
                let mut landed_exactly = true;
                for i in 0..n {
                    let mut delta = x_new[i] - x[i];
                    if !delta.is_finite() {
                        return Err(SpiceError::NoConvergence {
                            analysis: format!("transient @ t={t1:.3e} (non-finite)"),
                            iterations: max_iter,
                        });
                    }
                    // As in DC: only nonlinear-device terminals are damped.
                    let (tol, clamp) = if i < n_nodes {
                        let clamp = if plan.damped()[i] { max_step_v } else { f64::INFINITY };
                        (opts.vntol + opts.reltol * x_new[i].abs().max(x[i].abs()), clamp)
                    } else {
                        (opts.abstol + opts.reltol * x_new[i].abs().max(x[i].abs()), f64::INFINITY)
                    };
                    if delta.abs() > tol {
                        converged = false;
                    }
                    if delta.abs() > clamp {
                        delta = clamp.copysign(delta);
                    }
                    x[i] += delta;
                    landed_exactly &= crate::dc::landed_on(x[i], x_new[i]);
                }
                if converged {
                    return Ok(());
                }
                // As in DC: when a linear plan's update landed bit-exactly
                // on the solved state, the next iteration would reuse the
                // identical factors and rhs and produce an exactly-zero
                // update — skip the verification iteration.
                if plan.is_linear() && *factored_for == Some(reuse_key) && landed_exactly {
                    return Ok(());
                }
            }
            Err(SpiceError::NoConvergence {
                analysis: format!("transient @ t={t1:.3e}"),
                iterations: max_iter,
            })
        })();
        crate::stats::record_iterations(spent);
        result
    }

    fn record(&self, probes: &[Probe], x: &[f64], row: &mut Vec<f64>) -> Result<(), SpiceError> {
        row.clear();
        for p in probes {
            row.push(p.extract(self.circuit, x)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;

    fn rc_circuit(tau_r: f64, tau_c: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9)).unwrap();
        c.add_resistor("R1", inp, out, tau_r).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, tau_c).unwrap();
        (c, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (c, out) = rc_circuit(1e3, 1e-9); // τ = 1 µs
        let trace = TranAnalysis::new(&c).run(3e-6, 5e-9, &[Probe::NodeVoltage(out)]).unwrap();
        let tau = 1e-6;
        let mut worst = 0.0_f64;
        for (t, v) in trace.times().iter().zip(trace.column(0)) {
            // The source ramps over the first 1 ns; skip that region.
            if *t < 5e-9 {
                continue;
            }
            let expected = 1.0 - (-(t - 1e-9) / tau).exp();
            worst = worst.max((v - expected).abs());
        }
        assert!(worst < 5e-3, "worst deviation {worst}");
    }

    #[test]
    fn rc_sine_amplitude_matches_transfer_function() {
        // Drive at the pole frequency: |H| = 1/√2, phase −45°.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        let (r, cap) = (1e3, 1e-9);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * r * cap); // ≈159 kHz
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::sine(0.0, 1.0, f0)).unwrap();
        c.add_resistor("R1", inp, out, r).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, cap).unwrap();
        let period = 1.0 / f0;
        let trace = TranAnalysis::new(&c)
            .run(8.0 * period, period / 200.0, &[Probe::NodeVoltage(out)])
            .unwrap();
        // Skip the first 5 periods (transient), measure peak of the rest.
        let n = trace.len();
        let peak = trace.column(0)[(5 * n / 8)..].iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let expected = 1.0 / 2.0_f64.sqrt();
        assert!((peak - expected).abs() < 0.02, "peak {peak}, expected {expected}");
    }

    #[test]
    fn backward_euler_also_tracks_rc() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let trace = TranAnalysis::with_options(
            &c,
            AnalysisOptions::default(),
            IntegrationMethod::BackwardEuler,
        )
        .run(3e-6, 5e-9, &[Probe::NodeVoltage(out)])
        .unwrap();
        let v_end = *trace.column(0).last().unwrap();
        assert!((v_end - 0.95).abs() < 0.05, "v_end {v_end}");
    }

    #[test]
    fn source_current_probe_records_capacitor_charging() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let trace =
            TranAnalysis::new(&c).run(10e-6, 10e-9, &[Probe::SourceCurrent("V1".into())]).unwrap();
        // Just after the step the full 1 V sits across R: i = −1 mA
        // (SPICE convention: + to − through the source is positive).
        let i_early = trace.column(0)[1];
        assert!((i_early + 1e-3).abs() < 0.1e-3, "i_early {i_early}");
        // Fully charged: no current.
        let i_late = *trace.column(0).last().unwrap();
        assert!(i_late.abs() < 1e-5, "i_late {i_late}");
    }

    /// A transient stimulus override must reproduce the mutated-copy
    /// trace bit for bit (the linear fixture also exercises the
    /// factor-once-per-run Jacobian reuse on both paths).
    #[test]
    fn transient_override_matches_set_stimulus_bitwise() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let wave = Waveform::step(0.5, 1.5, 0.2e-6, 1e-9);
        let via_override = TranAnalysis::new(&c)
            .override_stimulus("V1", wave.clone())
            .run(2e-6, 10e-9, &[Probe::NodeVoltage(out)])
            .unwrap();
        let mut mutated = c.clone();
        mutated.set_stimulus("V1", wave).unwrap();
        let via_mutation =
            TranAnalysis::new(&mutated).run(2e-6, 10e-9, &[Probe::NodeVoltage(out)]).unwrap();
        assert_eq!(via_override.len(), via_mutation.len());
        for (a, b) in via_override.column(0).iter().zip(via_mutation.column(0)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// RL step response: i(t) = (V/R)·(1 − e^(−t·R/L)); the current is
    /// probed through the inductor's own branch unknown.
    #[test]
    fn rl_step_current_matches_analytic() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9)).unwrap();
        c.add_resistor("R1", inp, mid, 1e3).unwrap();
        c.add_inductor("L1", mid, Circuit::GROUND, 1e-3).unwrap(); // τ = 1 µs
        let trace =
            TranAnalysis::new(&c).run(3e-6, 5e-9, &[Probe::SourceCurrent("L1".into())]).unwrap();
        let tau = 1e-3 / 1e3;
        let mut worst = 0.0_f64;
        for (t, i) in trace.times().iter().zip(trace.column(0)) {
            if *t < 5e-9 {
                continue; // source still ramping
            }
            let expected = 1e-3 * (1.0 - (-(t - 1e-9) / tau).exp());
            worst = worst.max((i - expected).abs());
        }
        assert!(worst < 5e-6, "worst current deviation {worst}");
    }

    /// Backward Euler also integrates the inductor (first step always
    /// uses it, and the sub-stepped recovery path relies on it).
    #[test]
    fn rl_backward_euler_settles() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-9)).unwrap();
        c.add_resistor("R1", inp, mid, 1e3).unwrap();
        c.add_inductor("L1", mid, Circuit::GROUND, 1e-3).unwrap();
        let trace = TranAnalysis::with_options(
            &c,
            AnalysisOptions::default(),
            IntegrationMethod::BackwardEuler,
        )
        .run(10e-6, 10e-9, &[Probe::SourceCurrent("L1".into())])
        .unwrap();
        let i_end = *trace.column(0).last().unwrap();
        assert!((i_end - 1e-3).abs() < 2e-5, "i_end {i_end}");
    }

    #[test]
    fn rejects_bad_time_parameters() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let tr = TranAnalysis::new(&c);
        assert!(tr.run(0.0, 1e-9, &[Probe::NodeVoltage(out)]).is_err());
        assert!(tr.run(1e-6, 0.0, &[Probe::NodeVoltage(out)]).is_err());
        assert!(tr.run(1e-9, 1e-6, &[Probe::NodeVoltage(out)]).is_err());
    }

    #[test]
    fn records_t_zero_and_final_time() {
        let (c, out) = rc_circuit(1e3, 1e-9);
        let trace = TranAnalysis::new(&c).run(1e-6, 1e-8, &[Probe::NodeVoltage(out)]).unwrap();
        assert_eq!(trace.times()[0], 0.0);
        let t_end = *trace.times().last().unwrap();
        assert!((t_end - 1e-6).abs() < 1e-12);
        assert_eq!(trace.len(), 101);
    }

    #[test]
    fn unknown_current_probe_errors() {
        let (c, _) = rc_circuit(1e3, 1e-9);
        let err = TranAnalysis::new(&c)
            .run(1e-7, 1e-8, &[Probe::SourceCurrent("nope".into())])
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownDevice { .. }));
    }
}
