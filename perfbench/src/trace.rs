//! The configuration-layer probe of the traced run: a
//! [`TestConfiguration`] wrapper that times every `measure()` call and
//! attributes its Newton iterations (thread-local ladder-counter deltas)
//! to the pipeline phase the benchmark is in. Untraced runs never
//! install it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use castg_core::{ConfigDescription, CoreError, Measurement, TestConfiguration};
use castg_numeric::ParamSpace;
use castg_spice::{ladder_stats, Circuit};

pub const PHASES: [&str; 3] = ["generate", "compact", "evaluate"];

#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    newton_iters: AtomicU64,
}

/// Per-(phase, configuration) counters shared by every wrapper of one
/// macro.
pub struct Probe {
    names: Vec<String>,
    phase: AtomicUsize,
    cells: Vec<Cell>,
}

impl Probe {
    pub fn new(names: Vec<String>) -> Arc<Self> {
        let cells = (0..PHASES.len() * names.len())
            .map(|_| Cell::default())
            .collect();
        Arc::new(Probe {
            names,
            phase: AtomicUsize::new(0),
            cells,
        })
    }

    /// Sets the phase subsequent `measure()` calls are attributed to.
    pub fn enter(&self, phase: usize) {
        self.phase.store(phase, Ordering::SeqCst);
    }

    fn cell(&self, phase: usize, slot: usize) -> &Cell {
        &self.cells[phase * self.names.len() + slot]
    }

    /// `(phase, config, calls, busy_s, newton_iters)` for every cell.
    pub fn snapshot(&self) -> Vec<(&'static str, &str, u64, f64, u64)> {
        let mut out = Vec::new();
        for (p, phase) in PHASES.iter().enumerate() {
            for (slot, name) in self.names.iter().enumerate() {
                let c = self.cell(p, slot);
                out.push((
                    *phase,
                    name.as_str(),
                    c.calls.load(Ordering::Relaxed),
                    c.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                    c.newton_iters.load(Ordering::Relaxed),
                ));
            }
        }
        out
    }
}

/// Wraps every configuration so its measurements land in `probe`.
pub fn wrap(
    configs: Vec<Arc<dyn TestConfiguration>>,
    probe: &Arc<Probe>,
) -> Vec<Arc<dyn TestConfiguration>> {
    configs
        .into_iter()
        .enumerate()
        .map(|(slot, inner)| {
            Arc::new(Timed {
                inner,
                slot,
                probe: Arc::clone(probe),
            }) as Arc<dyn TestConfiguration>
        })
        .collect()
}

struct Timed {
    inner: Arc<dyn TestConfiguration>,
    slot: usize,
    probe: Arc<Probe>,
}

impl TestConfiguration for Timed {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn param_names(&self) -> Vec<String> {
        self.inner.param_names()
    }

    fn space(&self) -> ParamSpace {
        self.inner.space()
    }

    fn seed(&self) -> Vec<f64> {
        self.inner.seed()
    }

    fn measure(&self, circuit: &Circuit, params: &[f64]) -> Result<Measurement, CoreError> {
        let phase = self.probe.phase.load(Ordering::Relaxed);
        let ladder = ladder_stats();
        let t = Instant::now();
        let result = self.inner.measure(circuit, params);
        let busy = t.elapsed().as_nanos() as u64;
        let iters = ladder_stats().since(&ladder).iterations;
        let cell = self.probe.cell(phase, self.slot);
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.busy_ns.fetch_add(busy, Ordering::Relaxed);
        cell.newton_iters.fetch_add(iters, Ordering::Relaxed);
        result
    }

    fn return_values(&self, measured: &Measurement, nominal: &Measurement) -> Vec<f64> {
        self.inner.return_values(measured, nominal)
    }

    fn tolerance_box(&self, params: &[f64], nominal_returns: &[f64]) -> Vec<f64> {
        self.inner.tolerance_box(params, nominal_returns)
    }

    fn description(&self) -> ConfigDescription {
        self.inner.description()
    }
}
