//! MNA matrix assembly (device "stamps").
//!
//! Unknown ordering: the `N − 1` non-ground node voltages first (node id
//! `n` lives at index `n − 1`), followed by one branch current per
//! voltage-defined device (voltage sources, VCVS, CCVS and inductors),
//! in device insertion order. KCL rows are written as "sum of currents
//! *leaving* the node equals zero" with constant terms moved to the
//! right-hand side.
//!
//! Assembly is two-phase: [`StampPlan::build`] walks the device list
//! *once* per circuit, resolving every node to its matrix slot and
//! precomputing all constant stamp values; [`StampPlan::assemble_into`]
//! then replays the flat op list per Newton iteration with no device
//! dispatch, no node-index arithmetic and no allocation. The plan is
//! shared across Newton iterations, gmin/source stepping ladders,
//! transient timesteps, and AC operating-point linearization. The
//! replay applies ops in device order, so the floating-point
//! accumulation order (and therefore the result, bit for bit) matches a
//! direct device-by-device assembly.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use castg_numeric::{Matrix, SparseLu, SparseMatrix, SparseSymbolic, StampTarget};

use crate::bjt::{self, BjtParams, BjtPolarity};
use crate::circuit::Circuit;
use crate::device::{Device, DeviceKind};
use crate::diode::{self, DiodeParams};
use crate::solver::OrderingKind;
use crate::mos::{self, MosParams, MosPolarity};
use crate::node::NodeId;
use crate::stimulus::Waveform;

/// Maps a node to its matrix index (`None` for ground).
#[inline]
pub(crate) fn idx(n: NodeId) -> Option<usize> {
    if n.is_ground() {
        None
    } else {
        Some(n.index() - 1)
    }
}

/// Voltage of a node under the candidate solution `x` (ground is 0).
#[inline]
pub(crate) fn voltage_of(x: &[f64], n: NodeId) -> f64 {
    match idx(n) {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Voltage of a resolved matrix slot under the candidate solution `x`.
#[inline]
fn slot_voltage(x: &[f64], slot: Option<usize>) -> f64 {
    match slot {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Adds `g` as a two-terminal conductance stamp between `a` and `b`.
/// Generic over the assembly target so the same stamp drives the dense
/// and the sparse solver path.
pub(crate) fn stamp_conductance<M: StampTarget + ?Sized>(mat: &mut M, a: NodeId, b: NodeId, g: f64) {
    if let Some(i) = idx(a) {
        mat.add(i, i, g);
        if let Some(j) = idx(b) {
            mat.add(i, j, -g);
        }
    }
    if let Some(j) = idx(b) {
        mat.add(j, j, g);
        if let Some(i) = idx(a) {
            mat.add(j, i, -g);
        }
    }
}

/// Adds a constant current `i` flowing out of node `from` into node `to`
/// (through the element being stamped).
pub(crate) fn stamp_current(rhs: &mut [f64], from: NodeId, to: NodeId, i: f64) {
    if let Some(a) = idx(from) {
        rhs[a] -= i;
    }
    if let Some(b) = idx(to) {
        rhs[b] += i;
    }
}

/// One replayable assembly operation with fully resolved slots.
///
/// Kept deliberately small (the MOSFET payload lives out-of-line in
/// [`MosSite`]): the op list is cloned per fault-injection patch and
/// walked once per Newton iteration, so its footprint is hot-loop
/// memory traffic.
#[derive(Debug, Clone)]
enum PlanOp {
    /// Add a precomputed constant to one matrix slot (resistors and the
    /// ±1/±gain patterns of voltage-defined devices).
    Mat { row: usize, col: usize, value: f64 },
    /// Independent current source: waveform value into the KCL rows.
    Current { from: Option<usize>, to: Option<usize>, wave: usize },
    /// Voltage-defined device: waveform value onto the branch row.
    SourceRow { row: usize, wave: usize },
    /// Level-1 MOSFET, linearized around the candidate solution at
    /// replay time; `site` indexes the plan's [`MosSite`] table.
    Mos { site: usize },
    /// Junction diode, linearized around the candidate solution at
    /// replay time; `site` indexes the plan's [`DiodeSite`] table.
    Diode { site: usize },
    /// Bipolar transistor, linearized around the candidate solution at
    /// replay time; `site` indexes the plan's [`BjtSite`] table.
    Bjt { site: usize },
}

/// Resolved terminals and model of one MOSFET linearization site.
#[derive(Debug, Clone)]
struct MosSite {
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    b: Option<usize>,
    polarity: MosPolarity,
    params: MosParams,
}

/// Resolved terminals and model of one diode linearization site.
#[derive(Debug, Clone)]
struct DiodeSite {
    a: Option<usize>,
    k: Option<usize>,
    params: DiodeParams,
}

/// Resolved terminals and model of one BJT linearization site.
#[derive(Debug, Clone)]
struct BjtSite {
    c: Option<usize>,
    b: Option<usize>,
    e: Option<usize>,
    polarity: BjtPolarity,
    params: BjtParams,
}

// Each nonlinear device kind *declares* its limited unknowns (all of
// its terminal slots — these get the ladder's damped-update clamp) and
// the KCL rows its linearization writes; `StampPlan::finalize` consumes
// the declarations device-agnostically. Before this existed, the
// damping mask was populated from MOSFET sites only, and any other
// nonlinear device would have run unclamped through every ladder rung.
impl MosSite {
    fn terminals(&self) -> [Option<usize>; 4] {
        [self.d, self.g, self.s, self.b]
    }
    fn written_rows(&self) -> [Option<usize>; 2] {
        // The channel linearization writes the drain and source KCL
        // rows only (the gate and bulk draw no DC current).
        [self.d, self.s]
    }
}

impl DiodeSite {
    fn terminals(&self) -> [Option<usize>; 2] {
        [self.a, self.k]
    }
    fn written_rows(&self) -> [Option<usize>; 2] {
        [self.a, self.k]
    }
}

impl BjtSite {
    fn terminals(&self) -> [Option<usize>; 3] {
        [self.c, self.b, self.e]
    }
    fn written_rows(&self) -> [Option<usize>; 3] {
        [self.c, self.b, self.e]
    }
}

/// Registers one nonlinear linearization site with the plan being
/// finalized: the plan stops being linear, every terminal unknown joins
/// the damped mask, and every (written row × terminal column) slot
/// joins the static sparsity pattern.
fn register_nonlinear_site(
    damped: &mut [bool],
    linear: &mut bool,
    static_slots: &mut Vec<(usize, usize)>,
    written_rows: &[Option<usize>],
    terminals: &[Option<usize>],
) {
    *linear = false;
    for slot in terminals.iter().flatten() {
        damped[*slot] = true;
    }
    for row in written_rows.iter().flatten() {
        for col in terminals.iter().flatten() {
            static_slots.push((*row, *col));
        }
    }
}

/// Accumulates the per-device assembly ops during plan construction.
/// Shared by the full compile ([`StampPlan::build`]) and the
/// incremental patch ([`StampPlan::patched_with_device`]), so a patched
/// plan is structurally indistinguishable from a recompiled one.
struct PlanBuilder {
    ops: Vec<PlanOp>,
    waves: Vec<Waveform>,
    mos_sites: Vec<MosSite>,
    diode_sites: Vec<DiodeSite>,
    bjt_sites: Vec<BjtSite>,
    dynamic_slots: Vec<(usize, usize)>,
    /// Next branch-current row/column.
    branch: usize,
    /// Branch row of every voltage-defined device emitted so far, by
    /// name: current-controlled sources (F/H) resolve their sensing
    /// column here. `Circuit::add` guarantees the controller precedes
    /// its F/H card in device order, so the row is always present by
    /// the time it is looked up.
    branch_rows: HashMap<Arc<str>, usize>,
}

impl PlanBuilder {
    /// Emits the assembly ops of one device, in exactly the add order
    /// the direct stamp functions use so replay accumulates
    /// identically.
    fn emit(&mut self, dev: &Device) {
        let ops = &mut self.ops;
        let mat = |ops: &mut Vec<PlanOp>, row: usize, col: usize, value: f64| {
            ops.push(PlanOp::Mat { row, col, value });
        };
        // Conductance stamps in exactly the add order of
        // `stamp_conductance`.
        let conductance = |ops: &mut Vec<PlanOp>, a: NodeId, b: NodeId, g: f64| {
            if let Some(i) = idx(a) {
                ops.push(PlanOp::Mat { row: i, col: i, value: g });
                if let Some(j) = idx(b) {
                    ops.push(PlanOp::Mat { row: i, col: j, value: -g });
                }
            }
            if let Some(j) = idx(b) {
                ops.push(PlanOp::Mat { row: j, col: j, value: g });
                if let Some(i) = idx(a) {
                    ops.push(PlanOp::Mat { row: j, col: i, value: -g });
                }
            }
        };
        // Slots a two-terminal conductance between resolved indices can
        // touch (the sparsity-pattern counterpart of `stamp_conductance`).
        let conductance_slots =
            |slots: &mut Vec<(usize, usize)>, a: Option<usize>, b: Option<usize>| {
                if let Some(i) = a {
                    slots.push((i, i));
                    if let Some(j) = b {
                        slots.push((i, j));
                        slots.push((j, i));
                    }
                }
                if let Some(j) = b {
                    slots.push((j, j));
                }
            };
        match dev.kind() {
            DeviceKind::Resistor { a, b, ohms } => {
                conductance(ops, *a, *b, 1.0 / ohms);
            }
            DeviceKind::Capacitor { a, b, .. } => {
                // Open in DC; transient stamps companions separately
                // (but their slots belong to the sparsity pattern).
                conductance_slots(&mut self.dynamic_slots, idx(*a), idx(*b));
            }
            DeviceKind::Inductor { a, b, .. } => {
                // DC: an ideal short via the branch equation
                // `v(a) − v(b) = 0` (±1 pattern, no source row). The
                // transient companion and the AC reactance stamp the
                // branch diagonal, which is therefore a dynamic slot.
                let br = self.branch;
                self.branch += 1;
                self.branch_rows.insert(dev.name_arc(), br);
                if let Some(i) = idx(*a) {
                    mat(ops, i, br, 1.0);
                    mat(ops, br, i, 1.0);
                }
                if let Some(j) = idx(*b) {
                    mat(ops, j, br, -1.0);
                    mat(ops, br, j, -1.0);
                }
                self.dynamic_slots.push((br, br));
            }
            DeviceKind::Isource { from, to, wave } => {
                self.waves.push(wave.clone());
                ops.push(PlanOp::Current {
                    from: idx(*from),
                    to: idx(*to),
                    wave: self.waves.len() - 1,
                });
            }
            DeviceKind::Vsource { pos, neg, wave } => {
                let br = self.branch;
                self.branch += 1;
                self.branch_rows.insert(dev.name_arc(), br);
                if let Some(p) = idx(*pos) {
                    mat(ops, p, br, 1.0);
                    mat(ops, br, p, 1.0);
                }
                if let Some(ng) = idx(*neg) {
                    mat(ops, ng, br, -1.0);
                    mat(ops, br, ng, -1.0);
                }
                self.waves.push(wave.clone());
                ops.push(PlanOp::SourceRow { row: br, wave: self.waves.len() - 1 });
            }
            DeviceKind::Vcvs { pos, neg, cp, cn, gain } => {
                let br = self.branch;
                self.branch += 1;
                self.branch_rows.insert(dev.name_arc(), br);
                if let Some(p) = idx(*pos) {
                    mat(ops, p, br, 1.0);
                    mat(ops, br, p, 1.0);
                }
                if let Some(ng) = idx(*neg) {
                    mat(ops, ng, br, -1.0);
                    mat(ops, br, ng, -1.0);
                }
                if let Some(c) = idx(*cp) {
                    mat(ops, br, c, -gain);
                }
                if let Some(c) = idx(*cn) {
                    mat(ops, br, c, *gain);
                }
            }
            DeviceKind::Mosfet { d, g, s, b, polarity, params } => {
                // Gate capacitances are stamped by the transient and
                // AC engines.
                conductance_slots(&mut self.dynamic_slots, idx(*g), idx(*s));
                conductance_slots(&mut self.dynamic_slots, idx(*g), idx(*d));
                self.mos_sites.push(MosSite {
                    d: idx(*d),
                    g: idx(*g),
                    s: idx(*s),
                    b: idx(*b),
                    polarity: *polarity,
                    params: *params,
                });
                ops.push(PlanOp::Mos { site: self.mos_sites.len() - 1 });
            }
            DeviceKind::Diode { a, k, params } => {
                // The junction capacitance is stamped by the transient
                // and AC engines over the anode/cathode slots.
                conductance_slots(&mut self.dynamic_slots, idx(*a), idx(*k));
                self.diode_sites.push(DiodeSite { a: idx(*a), k: idx(*k), params: *params });
                ops.push(PlanOp::Diode { site: self.diode_sites.len() - 1 });
            }
            DeviceKind::Bjt { c, b, e, polarity, params } => {
                // Base-emitter and base-collector junction capacitances
                // are stamped by the transient and AC engines.
                conductance_slots(&mut self.dynamic_slots, idx(*b), idx(*e));
                conductance_slots(&mut self.dynamic_slots, idx(*b), idx(*c));
                self.bjt_sites.push(BjtSite {
                    c: idx(*c),
                    b: idx(*b),
                    e: idx(*e),
                    polarity: *polarity,
                    params: *params,
                });
                ops.push(PlanOp::Bjt { site: self.bjt_sites.len() - 1 });
            }
            DeviceKind::Vccs { pos, neg, cp, cn, gm } => {
                // Current gm·(v(cp) − v(cn)) leaves `pos` and enters
                // `neg`: the four-entry transconductance pattern.
                if let Some(p) = idx(*pos) {
                    if let Some(c) = idx(*cp) {
                        mat(ops, p, c, *gm);
                    }
                    if let Some(c) = idx(*cn) {
                        mat(ops, p, c, -*gm);
                    }
                }
                if let Some(ng) = idx(*neg) {
                    if let Some(c) = idx(*cp) {
                        mat(ops, ng, c, -*gm);
                    }
                    if let Some(c) = idx(*cn) {
                        mat(ops, ng, c, *gm);
                    }
                }
            }
            DeviceKind::Cccs { pos, neg, ctrl, gain } => {
                // Current gain·i(ctrl) leaves `pos` and enters `neg`:
                // ±gain in the controller's branch column.
                let ctrl_col = *self
                    .branch_rows
                    .get(ctrl.as_ref())
                    .expect("Circuit::add validates the controlling device of a CCCS");
                if let Some(p) = idx(*pos) {
                    mat(ops, p, ctrl_col, *gain);
                }
                if let Some(ng) = idx(*neg) {
                    mat(ops, ng, ctrl_col, -*gain);
                }
            }
            DeviceKind::Ccvs { pos, neg, ctrl, ohms } => {
                // Branch equation v(pos) − v(neg) − ohms·i(ctrl) = 0.
                let ctrl_col = *self
                    .branch_rows
                    .get(ctrl.as_ref())
                    .expect("Circuit::add validates the controlling device of a CCVS");
                let br = self.branch;
                self.branch += 1;
                self.branch_rows.insert(dev.name_arc(), br);
                if let Some(p) = idx(*pos) {
                    mat(ops, p, br, 1.0);
                    mat(ops, br, p, 1.0);
                }
                if let Some(ng) = idx(*neg) {
                    mat(ops, ng, br, -1.0);
                    mat(ops, br, ng, -1.0);
                }
                mat(ops, br, ctrl_col, -*ohms);
            }
        }
    }
}

/// A precompiled assembly schedule for one [`Circuit`].
///
/// Building the plan resolves node ids to matrix slots, assigns branch
/// rows and splits every device into constant matrix contributions,
/// waveform-driven right-hand-side contributions and nonlinear (MOSFET)
/// linearization sites. Replaying it is a single flat pass — the hot
/// loop of every analysis.
///
/// Plans are *patchable*: replacing a stimulus waveform
/// ([`with_wave`](StampPlan::with_wave)) or appending a device whose
/// nodes already exist ([`patched_with_device`](StampPlan::patched_with_device),
/// the delta-stamp path bridge-fault injection rides) derives the
/// successor plan from the compiled one instead of recompiling from the
/// netlist. A wave patch even keeps the cached sparse template and
/// canonical symbolic analysis — the matrix structure and values are
/// stimulus-independent.
#[derive(Debug, Clone)]
pub(crate) struct StampPlan {
    n: usize,
    n_nodes: usize,
    ops: Vec<PlanOp>,
    mos_sites: Vec<MosSite>,
    diode_sites: Vec<DiodeSite>,
    bjt_sites: Vec<BjtSite>,
    /// Branch row by device name (see [`PlanBuilder::branch_rows`]);
    /// carried on the plan so a device patch can resolve the sensing
    /// column of a patched-in current-controlled source.
    branch_rows: HashMap<Arc<str>, usize>,
    /// The rhs-writing subset of `ops` (`Current`/`SourceRow`), in op
    /// order: [`assemble_rhs_only`](StampPlan::assemble_rhs_only) walks
    /// this instead of scanning every matrix op — a transient step of a
    /// linear circuit touches a handful of sources, not thousands of
    /// conductances.
    rhs_ops: Vec<PlanOp>,
    waves: Vec<Waveform>,
    /// `damped[i]` is true when unknown `i` is a terminal of a nonlinear
    /// device (MOSFET, diode, BJT — each site declares its terminals,
    /// see [`register_nonlinear_site`]): only those update components
    /// need Newton damping. Linear nodes (and branch currents) take the
    /// full, exact Newton step — clamping them would just make a supply
    /// node crawl to its source voltage half a volt per iteration.
    damped: Vec<bool>,
    /// Whether the plan has no nonlinear (MOSFET/diode/BJT)
    /// linearization sites: the assembled matrix is then independent of
    /// the candidate solution, which the Newton loops exploit to skip
    /// refactorizations (Shamanskii-style, exact for linear plans).
    linear: bool,
    /// Every matrix slot the static (DC/Jacobian) assembly can touch:
    /// gmin diagonal, constant stamps, nonlinear linearization sites.
    static_slots: Vec<(usize, usize)>,
    /// Slots touched only by capacitive stamps: transient companion
    /// conductances and the AC `C` matrix (explicit capacitors plus MOS
    /// gate capacitances).
    dynamic_slots: Vec<(usize, usize)>,
    /// Per-[`PatternScope`] lazy caches: the sparse template, canonical
    /// symbolic analyses, orderings and stamp indices all come in a
    /// `Static` (DC) and a `Full` (transient / AC) flavor, because the
    /// two scopes factor different sparsity patterns. When the static
    /// and full slot sets produce the same pattern (no off-diagonal
    /// capacitive coupling — ladders, meshes), the static template
    /// shares the full pattern's `Arc` and every `Static` lookup is
    /// transparently redirected to the `Full` caches, so such plans pay
    /// for one scope exactly as before the split.
    caches: [ScopeCaches; 2],
}

/// Which slot set an analysis's matrices (and therefore its symbolic
/// analyses and orderings) live on.
///
/// DC solves factor the **static** (resistive/Jacobian) pattern only:
/// capacitors are open in DC, so their slots would be structural zeros
/// that still cost fill. Measured on canonical symbolic analyses, a
/// 512-unknown OTA chain's natural-order `L+U` is 1,276 nonzeros on the
/// static pattern against 2,037 on the full one (the gate capacitances
/// couple every stage back to its driver), and a seeded 580-unknown
/// resistive mesh with MOS loads factors to 12,107 (static) against
/// 12,222 (full) under AMD. The RC ladder of
/// `tests/fixtures/ladder_param.sp` shunts its capacitors to ground, so
/// they touch only diagonal slots and its two patterns coincide.
/// Transient solves stamp companion conductances into the dynamic slots
/// and need the **full** union; the AC engine stamps `G` and `C` over
/// the full template too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PatternScope {
    /// Static (DC/Jacobian) slots only.
    Static = 0,
    /// Static ∪ dynamic slots (transient companions, AC reactances).
    Full = 1,
}

/// The per-scope half of a [`StampPlan`]'s lazy state; see the `caches`
/// field for the redirection rule that keeps single-pattern plans on
/// one copy.
#[derive(Debug, Clone, Default)]
struct ScopeCaches {
    /// Lazily built all-zero sparse matrix over this scope's slot set;
    /// cloned (pattern shared, one value vector each) by every sparse
    /// solver instance for this circuit, so the pattern construction is
    /// paid once per plan.
    template: OnceLock<SparseMatrix>,
    /// Lazily computed shared symbolic analyses of the canonical MNA
    /// matrix (assembled at `x = 0` with the default gmin), one per
    /// column ordering; `None` inside when the canonical matrix is
    /// singular. Every sparse solver instance for this circuit seeds
    /// from the one its analysis ordering resolves to, so a whole fault
    /// campaign pays one symbolic analysis (and at most one AMD run)
    /// per circuit variant and scope.
    canonical_natural: OnceLock<Option<Arc<SparseSymbolic>>>,
    canonical_amd: OnceLock<Option<Arc<SparseSymbolic>>>,
    /// Lazily computed AMD permutation of this scope's pattern: one
    /// ordering construction per plan and scope, shared by the Auto
    /// comparison, the canonical AMD factorization, and solver
    /// instances that must order their own analysis (singular
    /// canonical).
    amd_perm: OnceLock<Vec<usize>>,
    /// Lazily resolved `OrderingKind::Auto` verdict (`Natural` or
    /// `Amd`); see [`resolve_ordering`](StampPlan::resolve_ordering)
    /// for the two-gate rule. Every input is reproduced
    /// bit-identically by a delta-patched plan — and the verdict is
    /// never inherited across device patches — so delta-patched and
    /// rebuilt variants of one faulted circuit always resolve
    /// identically.
    auto_ordering: OnceLock<OrderingKind>,
    /// Lazily resolved value-array indices of every static stamp the
    /// replay performs against this scope's template, in replay order
    /// (gmin diagonal first, then per-op adds). The sparse assembly
    /// fast path walks this with a cursor instead of binary-searching
    /// each `(row, col)` — same adds, same order, same bits.
    sparse_index: OnceLock<Vec<u32>>,
}

impl StampPlan {
    /// Compiles the assembly schedule for `circuit`.
    pub(crate) fn build(circuit: &Circuit) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let n = circuit.unknown_count();
        let mut builder = PlanBuilder {
            ops: Vec::new(),
            waves: Vec::new(),
            mos_sites: Vec::new(),
            diode_sites: Vec::new(),
            bjt_sites: Vec::new(),
            dynamic_slots: Vec::new(),
            branch: n_nodes,
            branch_rows: HashMap::new(),
        };
        for dev in circuit.devices() {
            builder.emit(dev);
        }
        StampPlan::finalize(builder, n, n_nodes)
    }

    /// Completes a plan from emitted ops: derives the damping mask and
    /// the static slot list (both functions of the op list alone).
    fn finalize(builder: PlanBuilder, n: usize, n_nodes: usize) -> Self {
        let PlanBuilder { ops, waves, mos_sites, diode_sites, bjt_sites, dynamic_slots, branch_rows, .. } =
            builder;
        let mut damped = vec![false; n];
        let mut linear = true;
        let mut static_slots: Vec<(usize, usize)> = (0..n_nodes).map(|i| (i, i)).collect();
        for op in &ops {
            match op {
                PlanOp::Mos { site } => {
                    let s = &mos_sites[*site];
                    register_nonlinear_site(
                        &mut damped,
                        &mut linear,
                        &mut static_slots,
                        &s.written_rows(),
                        &s.terminals(),
                    );
                }
                PlanOp::Diode { site } => {
                    let s = &diode_sites[*site];
                    register_nonlinear_site(
                        &mut damped,
                        &mut linear,
                        &mut static_slots,
                        &s.written_rows(),
                        &s.terminals(),
                    );
                }
                PlanOp::Bjt { site } => {
                    let s = &bjt_sites[*site];
                    register_nonlinear_site(
                        &mut damped,
                        &mut linear,
                        &mut static_slots,
                        &s.written_rows(),
                        &s.terminals(),
                    );
                }
                PlanOp::Mat { row, col, .. } => static_slots.push((*row, *col)),
                PlanOp::Current { .. } | PlanOp::SourceRow { .. } => {}
            }
        }
        let rhs_ops = ops
            .iter()
            .filter(|op| matches!(op, PlanOp::Current { .. } | PlanOp::SourceRow { .. }))
            .cloned()
            .collect();
        StampPlan {
            n,
            n_nodes,
            ops,
            mos_sites,
            diode_sites,
            bjt_sites,
            branch_rows,
            rhs_ops,
            waves,
            damped,
            linear,
            static_slots,
            dynamic_slots,
            caches: [ScopeCaches::default(), ScopeCaches::default()],
        }
    }

    /// The cache set `scope` resolves to, applying the redirection rule:
    /// when the static slot set produces the same pattern as the full
    /// one, `Static` lookups land on the `Full` caches so the plan pays
    /// for one scope only.
    fn scope_caches(&self, scope: PatternScope) -> &ScopeCaches {
        let scope = match scope {
            PatternScope::Full => PatternScope::Full,
            PatternScope::Static => {
                if Arc::ptr_eq(
                    self.sparse_template(PatternScope::Static).pattern(),
                    self.sparse_template(PatternScope::Full).pattern(),
                ) {
                    PatternScope::Full
                } else {
                    PatternScope::Static
                }
            }
        };
        &self.caches[scope as usize]
    }

    /// Derives the plan with stimulus waveform slot `wave` replaced.
    ///
    /// Waveforms only enter through
    /// [`source_values`](StampPlan::source_values) — the matrix
    /// structure and values are untouched — so the cached sparse
    /// template *and* the canonical symbolic analysis carry over. This
    /// is what makes `Circuit::set_stimulus` free of recompilation.
    pub(crate) fn with_wave(&self, wave_slot: usize, wave: Waveform) -> Self {
        let mut patched = self.clone();
        patched.waves[wave_slot] = wave;
        patched
    }

    /// Derives the plan for the circuit extended by `dev`, whose nodes
    /// must all exist already (callers guarantee this: creating a node
    /// drops the plan). The device's ops are appended exactly as a full
    /// recompile would emit them — the patched plan is bit-for-bit
    /// equivalent to `StampPlan::build` of the extended circuit — but
    /// no netlist walk, node interning or waveform re-clone happens.
    ///
    /// The sparse template and canonical symbolic analysis are reset:
    /// the sparsity pattern may have changed.
    pub(crate) fn patched_with_device(&self, dev: &Device) -> Self {
        let base_dynamic = self.dynamic_slots.len();
        let mut builder = PlanBuilder {
            ops: self.ops.clone(),
            waves: self.waves.clone(),
            mos_sites: self.mos_sites.clone(),
            diode_sites: self.diode_sites.clone(),
            bjt_sites: self.bjt_sites.clone(),
            dynamic_slots: self.dynamic_slots.clone(),
            // Branch rows already assigned occupy n_nodes..n; the next
            // one goes at n.
            branch: self.n,
            branch_rows: self.branch_rows.clone(),
        };
        builder.emit(dev);
        let n = if dev.has_branch_current() { self.n + 1 } else { self.n };
        let plan = StampPlan::finalize(builder, n, self.n_nodes);
        // Template fast path: when the base template is built and the
        // dimension is unchanged (no new branch row), the successor's
        // pattern is the base pattern merged with the new device's few
        // slots — identical content to a from-scratch rebuild, without
        // re-sorting thousands of slots. `finalize` derives slot lists
        // deterministically (diagonal, then ops in order), so the new
        // device's static slots are exactly the tail beyond the base
        // plan's list.
        if n == self.n {
            let new_static: Vec<(usize, usize)> =
                plan.static_slots[self.static_slots.len()..].to_vec();
            let full_idx = PatternScope::Full as usize;
            let static_idx = PatternScope::Static as usize;
            if let Some(base) = self.caches[full_idx].template.get() {
                let mut new_slots = new_static.clone();
                new_slots.extend_from_slice(&plan.dynamic_slots[base_dynamic..]);
                let pattern = base.pattern().merged_with(&new_slots);
                let _ = plan.caches[full_idx].template.set(SparseMatrix::with_pattern(pattern));
            }
            if let Some(base) = self.caches[static_idx].template.get() {
                // Same merge for the static scope; re-establish the
                // Arc-sharing redirection when the merged static
                // pattern still matches the (pre-seeded) full one, so a
                // patched variant collapses its scopes exactly like a
                // rebuild would.
                let pattern = base.pattern().merged_with(&new_static);
                let shared = plan.caches[full_idx]
                    .template
                    .get()
                    .filter(|full| full.pattern().as_ref() == pattern.as_ref())
                    .map(|full| Arc::clone(full.pattern()));
                let _ = plan.caches[static_idx]
                    .template
                    .set(SparseMatrix::with_pattern(shared.unwrap_or(pattern)));
            }
            // `auto_ordering` is deliberately *not* carried over: the
            // Auto verdict must stay a pure function of the (possibly
            // extended) pattern, so a delta-patched variant and a
            // from-scratch rebuild of the same faulted circuit resolve
            // identically — the bit-identity contract of the campaign
            // differential harness. Near the fill margin an inherited
            // verdict would diverge from the rebuild's.
        }
        plan
    }

    /// Slots only capacitive stamps (companions, AC `C`) can touch.
    pub(crate) fn dynamic_slots(&self) -> &[(usize, usize)] {
        &self.dynamic_slots
    }

    /// The all-zero sparse assembly matrix over `scope`'s slot set —
    /// `Full` is every slot any analysis of this circuit can stamp
    /// (static + dynamic), `Static` the DC/Jacobian subset. Built on
    /// first use and cached; callers clone it (the pattern is shared by
    /// `Arc`, so a clone allocates only the value vector) and stamp
    /// into the clone. A static pattern identical to the full one
    /// shares the full pattern's `Arc` (see [`PatternScope`]).
    pub(crate) fn sparse_template(&self, scope: PatternScope) -> &SparseMatrix {
        match scope {
            PatternScope::Full => {
                self.caches[PatternScope::Full as usize].template.get_or_init(|| {
                    let mut slots = self.static_slots.clone();
                    slots.extend_from_slice(&self.dynamic_slots);
                    SparseMatrix::from_entries(self.n, &slots)
                })
            }
            PatternScope::Static => {
                self.caches[PatternScope::Static as usize].template.get_or_init(|| {
                    let full = self.sparse_template(PatternScope::Full);
                    let mat = SparseMatrix::from_entries(self.n, &self.static_slots);
                    if mat.pattern().as_ref() == full.pattern().as_ref() {
                        SparseMatrix::with_pattern(Arc::clone(full.pattern()))
                    } else {
                        mat
                    }
                })
            }
        }
    }

    /// Shared symbolic analysis of the canonical MNA matrix — the
    /// system assembled at `x = 0` with the default gmin and DC source
    /// values — under the column ordering `ordering` resolves to.
    /// Computed once per plan *per ordering* (deterministically —
    /// independent of which analysis or thread asks first) and seeded
    /// into every sparse solver instance, which then refactors
    /// numerically under the recorded permutation; a solve whose values
    /// make the canonical pivot order unacceptable falls back to its
    /// own pivoting factorization (keeping the ordering). `None` when
    /// the canonical matrix is singular (a grossly broken faulted
    /// variant) — instances then analyze on their own.
    pub(crate) fn canonical_symbolic(
        &self,
        ordering: OrderingKind,
        scope: PatternScope,
    ) -> Option<Arc<SparseSymbolic>> {
        match self.resolve_ordering(ordering, scope) {
            OrderingKind::Amd => self.amd_symbolic(scope),
            _ => self.natural_symbolic(scope),
        }
    }

    /// The AMD permutation of `scope`'s sparse pattern, constructed
    /// once and shared by every consumer (Auto fill prediction,
    /// canonical AMD factorization, instances analyzing on their own).
    pub(crate) fn amd_permutation(&self, scope: PatternScope) -> &Vec<usize> {
        self.scope_caches(scope)
            .amd_perm
            .get_or_init(|| self.sparse_template(scope).pattern().amd_ordering())
    }

    /// Resolves an [`OrderingKind`] against this plan: `Natural` and
    /// `Amd` pass through; `Auto`'s verdict is computed once from the
    /// canonical factorizations' fill. The natural-order canonical
    /// symbolic — which the common Natural outcome seeds solvers from
    /// anyway, so the gate is free for it — must show genuine fill
    /// blow-up
    /// ([`AMD_AUTO_MIN_BLOWUP`](crate::solver::AMD_AUTO_MIN_BLOWUP) ×
    /// the pattern's nnz; chain/ladder structure fills ~1.3× and
    /// early-outs here, paying exactly one factorization per campaign
    /// variant) before the AMD construction and trial factorization
    /// run at all; AMD then wins only by
    /// [`AMD_AUTO_MARGIN`](crate::solver::AMD_AUTO_MARGIN). A plan
    /// whose verdict lands on `Amd` therefore pays one discarded
    /// natural-order factorization — a deliberate trade: gating on a
    /// value-free fill *prediction* instead was measured slower on the
    /// (far more common) chain-shaped campaign variants, whose
    /// early-out here is free, and the discarded factor is a few
    /// percent of a fill-blown variant's evaluation cost. Every input
    /// is a pure function of the plan's pattern and canonical values,
    /// both of which a delta-patched plan reproduces bit-identically
    /// to a rebuild — so the two always resolve the same way. Never
    /// returns `Auto`.
    pub(crate) fn resolve_ordering(
        &self,
        ordering: OrderingKind,
        scope: PatternScope,
    ) -> OrderingKind {
        match ordering {
            OrderingKind::Auto => *self.scope_caches(scope).auto_ordering.get_or_init(|| {
                let nnz = self.sparse_template(scope).pattern().nnz();
                let natural_fill = match self.natural_symbolic(scope) {
                    Some(s) => s.fill_nnz(),
                    // Singular canonical matrix: no fill to compare;
                    // instances analyze on their own in natural order.
                    None => return OrderingKind::Natural,
                };
                if (natural_fill as f64) < crate::solver::AMD_AUTO_MIN_BLOWUP * nnz as f64 {
                    return OrderingKind::Natural;
                }
                match self.amd_symbolic(scope) {
                    Some(a)
                        if (a.fill_nnz() as f64)
                            <= crate::solver::AMD_AUTO_MARGIN * natural_fill as f64 =>
                    {
                        OrderingKind::Amd
                    }
                    _ => OrderingKind::Natural,
                }
            }),
            other => other,
        }
    }

    /// The natural-order canonical symbolic analysis (cached).
    fn natural_symbolic(&self, scope: PatternScope) -> Option<Arc<SparseSymbolic>> {
        self.scope_caches(scope)
            .canonical_natural
            .get_or_init(|| self.factor_canonical(scope, |_| {}))
            .clone()
    }

    /// The AMD-ordered canonical symbolic analysis (cached).
    fn amd_symbolic(&self, scope: PatternScope) -> Option<Arc<SparseSymbolic>> {
        self.scope_caches(scope)
            .canonical_amd
            .get_or_init(|| {
                let perm = self.amd_permutation(scope).clone();
                self.factor_canonical(scope, |lu| lu.set_ordering(perm))
            })
            .clone()
    }

    /// Assembles the canonical matrix and factors it with a workspace
    /// prepared by `setup` (ordering installation; the empty closure =
    /// natural order), returning the symbolic skeleton
    /// or `None` on singularity.
    fn factor_canonical(
        &self,
        scope: PatternScope,
        setup: impl FnOnce(&mut SparseLu),
    ) -> Option<Arc<SparseSymbolic>> {
        let mut mat = self.sparse_template(scope).clone();
        let mut rhs = vec![0.0; self.n];
        let x0 = vec![0.0; self.n];
        let mut src_vals = Vec::new();
        self.source_values(&mut src_vals, |w| w.dc_value());
        // The default-options gmin: what virtually every solve of this
        // plan will stamp, so the canonical pivot order matches the
        // real matrices (a custom-gmin solve still works — the
        // refactorization stability fallback covers it, just without
        // the amortization).
        let gmin = crate::analysis::AnalysisOptions::default().gmin;
        self.assemble_into(&x0, &mut mat, &mut rhs, gmin, &src_vals);
        let mut lu = SparseLu::new();
        setup(&mut lu);
        match lu.factor(&mat) {
            Ok(()) => lu.symbolic(),
            Err(_) => None,
        }
    }

    /// Whether the plan contains no nonlinear linearization sites, i.e.
    /// the assembled matrix depends only on gmin and any extra
    /// (companion) stamps — never on the candidate solution or the
    /// stimulus values.
    pub(crate) fn is_linear(&self) -> bool {
        self.linear
    }

    /// Value-array indices of every static matrix add the replay
    /// performs against `scope`'s sparse template, in replay order.
    /// Built on first use; every slot is guaranteed present in either
    /// scope (static stamps touch static slots only, which both
    /// patterns contain).
    fn sparse_index(&self, scope: PatternScope) -> &[u32] {
        self.scope_caches(scope).sparse_index.get_or_init(|| {
            let pattern = Arc::clone(self.sparse_template(scope).pattern());
            let slot = |r: usize, c: usize| {
                pattern.slot(r, c).expect("static stamp slot missing from template") as u32
            };
            let mut index = Vec::new();
            for i in 0..self.n_nodes {
                index.push(slot(i, i));
            }
            for op in &self.ops {
                match op {
                    PlanOp::Mat { row, col, .. } => index.push(slot(*row, *col)),
                    PlanOp::Mos { site } => {
                        let MosSite { d, g, s, b, .. } = &self.mos_sites[*site];
                        // Exactly the conditional add order of the
                        // `Mos` arm of `assemble_into`.
                        if let Some(di) = *d {
                            if let Some(gi) = *g {
                                index.push(slot(di, gi));
                            }
                            index.push(slot(di, di));
                            if let Some(bi) = *b {
                                index.push(slot(di, bi));
                            }
                            if let Some(si) = *s {
                                index.push(slot(di, si));
                            }
                        }
                        if let Some(si) = *s {
                            if let Some(gi) = *g {
                                index.push(slot(si, gi));
                            }
                            if let Some(di) = *d {
                                index.push(slot(si, di));
                            }
                            if let Some(bi) = *b {
                                index.push(slot(si, bi));
                            }
                            index.push(slot(si, si));
                        }
                    }
                    PlanOp::Diode { site } => {
                        let DiodeSite { a, k, .. } = &self.diode_sites[*site];
                        // Exactly the conditional add order of the
                        // `Diode` arm of `assemble_into`.
                        if let Some(ai) = *a {
                            index.push(slot(ai, ai));
                            if let Some(ki) = *k {
                                index.push(slot(ai, ki));
                            }
                        }
                        if let Some(ki) = *k {
                            index.push(slot(ki, ki));
                            if let Some(ai) = *a {
                                index.push(slot(ki, ai));
                            }
                        }
                    }
                    PlanOp::Bjt { site } => {
                        let BjtSite { c, b, e, .. } = &self.bjt_sites[*site];
                        // Exactly the conditional add order of the
                        // `Bjt` arm of `assemble_into` (row-major over
                        // collector, base, emitter).
                        if let Some(ci) = *c {
                            index.push(slot(ci, ci));
                            if let Some(bi) = *b {
                                index.push(slot(ci, bi));
                            }
                            if let Some(ei) = *e {
                                index.push(slot(ci, ei));
                            }
                        }
                        if let Some(bi) = *b {
                            if let Some(ci) = *c {
                                index.push(slot(bi, ci));
                            }
                            index.push(slot(bi, bi));
                            if let Some(ei) = *e {
                                index.push(slot(bi, ei));
                            }
                        }
                        if let Some(ei) = *e {
                            if let Some(ci) = *c {
                                index.push(slot(ei, ci));
                            }
                            if let Some(bi) = *b {
                                index.push(slot(ei, bi));
                            }
                            index.push(slot(ei, ei));
                        }
                    }
                    PlanOp::Current { .. } | PlanOp::SourceRow { .. } => {}
                }
            }
            index
        })
    }

    /// [`assemble_into`](StampPlan::assemble_into), specialized for a
    /// sparse matrix cloned from this plan's template: every matrix add
    /// lands through the precomputed slot-index list instead of a
    /// binary search per add. Performs the identical adds in the
    /// identical order — the result is bit-for-bit the generic path's.
    /// Falls back to the generic path for any other pattern.
    pub(crate) fn assemble_into_sparse(
        &self,
        x: &[f64],
        mat: &mut SparseMatrix,
        rhs: &mut [f64],
        gmin: f64,
        source_vals: &[f64],
    ) {
        let scope = if Arc::ptr_eq(mat.pattern(), self.sparse_template(PatternScope::Full).pattern())
        {
            PatternScope::Full
        } else if Arc::ptr_eq(mat.pattern(), self.sparse_template(PatternScope::Static).pattern()) {
            PatternScope::Static
        } else {
            self.assemble_into(x, mat, rhs, gmin, source_vals);
            return;
        };
        let index = self.sparse_index(scope);
        mat.clear();
        rhs.fill(0.0);
        let values = mat.values_mut();
        let mut cursor = 0usize;
        let mut add = |values: &mut [f64], v: f64| {
            values[index[cursor] as usize] += v;
            cursor += 1;
        };
        for _ in 0..self.n_nodes {
            add(values, gmin);
        }
        for op in &self.ops {
            match op {
                PlanOp::Mat { value, .. } => add(values, *value),
                PlanOp::Current { from, to, wave } => {
                    let i = source_vals[*wave];
                    if let Some(a) = from {
                        rhs[*a] -= i;
                    }
                    if let Some(b) = to {
                        rhs[*b] += i;
                    }
                }
                PlanOp::SourceRow { row, wave } => {
                    rhs[*row] = source_vals[*wave];
                }
                PlanOp::Mos { site } => {
                    let MosSite { d, g, s, b, polarity, params } = &self.mos_sites[*site];
                    let vd = slot_voltage(x, *d);
                    let vg = slot_voltage(x, *g);
                    let vs = slot_voltage(x, *s);
                    let vb = slot_voltage(x, *b);
                    let op = mos::evaluate(params, *polarity, vd, vg, vs, vb);
                    let gsum = op.gm + op.gds + op.gmb;
                    let i_rhs =
                        op.ids - op.gm * (vg - vs) - op.gds * (vd - vs) - op.gmb * (vb - vs);
                    if let Some(di) = *d {
                        if g.is_some() {
                            add(values, op.gm);
                        }
                        add(values, op.gds);
                        if b.is_some() {
                            add(values, op.gmb);
                        }
                        if s.is_some() {
                            add(values, -gsum);
                        }
                        rhs[di] -= i_rhs;
                    }
                    if let Some(si) = *s {
                        if g.is_some() {
                            add(values, -op.gm);
                        }
                        if d.is_some() {
                            add(values, -op.gds);
                        }
                        if b.is_some() {
                            add(values, -op.gmb);
                        }
                        add(values, gsum);
                        rhs[si] += i_rhs;
                    }
                }
                PlanOp::Diode { site } => {
                    let DiodeSite { a, k, params } = &self.diode_sites[*site];
                    let va = slot_voltage(x, *a);
                    let vk = slot_voltage(x, *k);
                    let op = diode::evaluate(params, va, vk);
                    let i_rhs = op.id - op.gd * (va - vk);
                    if let Some(ai) = *a {
                        add(values, op.gd);
                        if k.is_some() {
                            add(values, -op.gd);
                        }
                        rhs[ai] -= i_rhs;
                    }
                    if let Some(ki) = *k {
                        add(values, op.gd);
                        if a.is_some() {
                            add(values, -op.gd);
                        }
                        rhs[ki] += i_rhs;
                    }
                }
                PlanOp::Bjt { site } => {
                    let BjtSite { c, b, e, polarity, params } = &self.bjt_sites[*site];
                    let vc = slot_voltage(x, *c);
                    let vb = slot_voltage(x, *b);
                    let ve = slot_voltage(x, *e);
                    let op = bjt::evaluate(params, *polarity, vc, vb, ve);
                    let gcc = -op.dic_dvbc;
                    let gcb = op.dic_dvbe + op.dic_dvbc;
                    let gce = -op.dic_dvbe;
                    let gbc = -op.dib_dvbc;
                    let gbb = op.dib_dvbe + op.dib_dvbc;
                    let gbe = -op.dib_dvbe;
                    let ic_rhs = op.ic - (gcc * vc + gcb * vb + gce * ve);
                    let ib_rhs = op.ib - (gbc * vc + gbb * vb + gbe * ve);
                    if let Some(ci) = *c {
                        add(values, gcc);
                        if b.is_some() {
                            add(values, gcb);
                        }
                        if e.is_some() {
                            add(values, gce);
                        }
                        rhs[ci] -= ic_rhs;
                    }
                    if let Some(bi) = *b {
                        if c.is_some() {
                            add(values, gbc);
                        }
                        add(values, gbb);
                        if e.is_some() {
                            add(values, gbe);
                        }
                        rhs[bi] -= ib_rhs;
                    }
                    if let Some(ei) = *e {
                        if c.is_some() {
                            add(values, -(gcc + gbc));
                        }
                        if b.is_some() {
                            add(values, -(gcb + gbb));
                        }
                        add(values, -(gce + gbe));
                        rhs[ei] += ic_rhs + ib_rhs;
                    }
                }
            }
        }
        debug_assert_eq!(cursor, index.len(), "slot-index cursor out of sync with replay");
    }

    /// Which unknowns are nonlinear-device terminals and therefore
    /// subject to per-iteration update damping.
    pub(crate) fn damped(&self) -> &[bool] {
        &self.damped
    }

    /// Number of MNA unknowns the plan assembles.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Evaluates every stimulus waveform through `f` into `vals` (a
    /// reused buffer). Source values are constant across the Newton
    /// iterations of one solve, so callers evaluate once per
    /// solve/timestep and replay the cached values every iteration.
    pub(crate) fn source_values<F: Fn(&Waveform) -> f64>(&self, vals: &mut Vec<f64>, f: F) {
        vals.clear();
        vals.extend(self.waves.iter().map(f));
    }

    /// Re-derives only the right-hand side of the static assembly:
    /// exactly the `rhs` writes [`assemble_into`](StampPlan::assemble_into)
    /// would perform, without touching any matrix. Valid only for
    /// linear plans (MOSFET linearization couples `rhs` to the
    /// candidate solution); the Newton loops use it to refresh stimulus
    /// terms while skipping a refactorization of a provably unchanged
    /// Jacobian.
    pub(crate) fn assemble_rhs_only(&self, rhs: &mut [f64], source_vals: &[f64]) {
        debug_assert!(self.linear, "rhs-only assembly requires a linear plan");
        rhs.fill(0.0);
        for op in &self.rhs_ops {
            match op {
                PlanOp::Current { from, to, wave } => {
                    let i = source_vals[*wave];
                    if let Some(a) = from {
                        rhs[*a] -= i;
                    }
                    if let Some(b) = to {
                        rhs[*b] += i;
                    }
                }
                PlanOp::SourceRow { row, wave } => {
                    rhs[*row] = source_vals[*wave];
                }
                PlanOp::Mat { .. }
                | PlanOp::Mos { .. }
                | PlanOp::Diode { .. }
                | PlanOp::Bjt { .. } => {}
            }
        }
    }

    /// Replays the schedule: assembles the static (non-capacitive) MNA
    /// system into `mat`/`rhs`, linearizing MOSFETs around the candidate
    /// solution `x`.
    ///
    /// * `source_vals` holds the present value of every stimulus
    ///   waveform, as produced by
    ///   [`source_values`](StampPlan::source_values) — DC analysis uses
    ///   `|w| scale * w.dc_value()`, transient `|w| w.eval(t)`.
    /// * `gmin` is stamped from every non-ground node to ground.
    ///
    /// Capacitors are *not* stamped here: DC treats them as open, and
    /// the transient engine stamps their companion models itself (it
    /// also owns the MOS intrinsic capacitances).
    pub(crate) fn assemble_into<M: StampTarget + ?Sized>(
        &self,
        x: &[f64],
        mat: &mut M,
        rhs: &mut [f64],
        gmin: f64,
        source_vals: &[f64],
    ) {
        mat.clear();
        rhs.fill(0.0);
        for i in 0..self.n_nodes {
            mat.add(i, i, gmin);
        }
        for op in &self.ops {
            match op {
                PlanOp::Mat { row, col, value } => mat.add(*row, *col, *value),
                PlanOp::Current { from, to, wave } => {
                    let i = source_vals[*wave];
                    if let Some(a) = from {
                        rhs[*a] -= i;
                    }
                    if let Some(b) = to {
                        rhs[*b] += i;
                    }
                }
                PlanOp::SourceRow { row, wave } => {
                    rhs[*row] = source_vals[*wave];
                }
                PlanOp::Mos { site } => {
                    let MosSite { d, g, s, b, polarity, params } = &self.mos_sites[*site];
                    let vd = slot_voltage(x, *d);
                    let vg = slot_voltage(x, *g);
                    let vs = slot_voltage(x, *s);
                    let vb = slot_voltage(x, *b);
                    let op = mos::evaluate(params, *polarity, vd, vg, vs, vb);
                    // Linearization: id ≈ gm·vg + gds·vd + gmb·vb
                    //                    − (gm+gds+gmb)·vs + i_rhs
                    let gsum = op.gm + op.gds + op.gmb;
                    let i_rhs =
                        op.ids - op.gm * (vg - vs) - op.gds * (vd - vs) - op.gmb * (vb - vs);
                    if let Some(di) = *d {
                        if let Some(gi) = *g {
                            mat.add(di, gi, op.gm);
                        }
                        mat.add(di, di, op.gds);
                        if let Some(bi) = *b {
                            mat.add(di, bi, op.gmb);
                        }
                        if let Some(si) = *s {
                            mat.add(di, si, -gsum);
                        }
                    }
                    if let Some(si) = *s {
                        if let Some(gi) = *g {
                            mat.add(si, gi, -op.gm);
                        }
                        if let Some(di) = *d {
                            mat.add(si, di, -op.gds);
                        }
                        if let Some(bi) = *b {
                            mat.add(si, bi, -op.gmb);
                        }
                        mat.add(si, si, gsum);
                    }
                    // Drain-to-source RHS current (stamp_current inlined
                    // on resolved slots).
                    if let Some(di) = *d {
                        rhs[di] -= i_rhs;
                    }
                    if let Some(si) = *s {
                        rhs[si] += i_rhs;
                    }
                }
                PlanOp::Diode { site } => {
                    let DiodeSite { a, k, params } = &self.diode_sites[*site];
                    let va = slot_voltage(x, *a);
                    let vk = slot_voltage(x, *k);
                    let op = diode::evaluate(params, va, vk);
                    // Linearization: id ≈ gd·(va − vk) + i_rhs.
                    let i_rhs = op.id - op.gd * (va - vk);
                    if let Some(ai) = *a {
                        mat.add(ai, ai, op.gd);
                        if let Some(ki) = *k {
                            mat.add(ai, ki, -op.gd);
                        }
                        rhs[ai] -= i_rhs;
                    }
                    if let Some(ki) = *k {
                        mat.add(ki, ki, op.gd);
                        if let Some(ai) = *a {
                            mat.add(ki, ai, -op.gd);
                        }
                        rhs[ki] += i_rhs;
                    }
                }
                PlanOp::Bjt { site } => {
                    let BjtSite { c, b, e, polarity, params } = &self.bjt_sites[*site];
                    let vc = slot_voltage(x, *c);
                    let vb = slot_voltage(x, *b);
                    let ve = slot_voltage(x, *e);
                    let op = bjt::evaluate(params, *polarity, vc, vb, ve);
                    // Terminal conductances from the junction partials
                    // (vbe = vb − ve, vbc = vb − vc); the emitter row is
                    // the negated sum of the collector and base rows so
                    // KCL holds exactly.
                    let gcc = -op.dic_dvbc;
                    let gcb = op.dic_dvbe + op.dic_dvbc;
                    let gce = -op.dic_dvbe;
                    let gbc = -op.dib_dvbc;
                    let gbb = op.dib_dvbe + op.dib_dvbc;
                    let gbe = -op.dib_dvbe;
                    let ic_rhs = op.ic - (gcc * vc + gcb * vb + gce * ve);
                    let ib_rhs = op.ib - (gbc * vc + gbb * vb + gbe * ve);
                    if let Some(ci) = *c {
                        mat.add(ci, ci, gcc);
                        if let Some(bi) = *b {
                            mat.add(ci, bi, gcb);
                        }
                        if let Some(ei) = *e {
                            mat.add(ci, ei, gce);
                        }
                        rhs[ci] -= ic_rhs;
                    }
                    if let Some(bi) = *b {
                        if let Some(ci) = *c {
                            mat.add(bi, ci, gbc);
                        }
                        mat.add(bi, bi, gbb);
                        if let Some(ei) = *e {
                            mat.add(bi, ei, gbe);
                        }
                        rhs[bi] -= ib_rhs;
                    }
                    if let Some(ei) = *e {
                        if let Some(ci) = *c {
                            mat.add(ei, ci, -(gcc + gbc));
                        }
                        if let Some(bi) = *b {
                            mat.add(ei, bi, -(gcb + gbb));
                        }
                        mat.add(ei, ei, -(gce + gbe));
                        rhs[ei] += ic_rhs + ib_rhs;
                    }
                }
            }
        }
    }
}

/// Assembles the static (non-capacitive) part of the MNA system,
/// linearizing nonlinear devices around the candidate solution `x`.
///
/// One-shot convenience over [`StampPlan`]: builds the plan and replays
/// it once. Repeated assemblies of the same circuit (every Newton loop)
/// should build the plan once and call
/// [`StampPlan::assemble_into`] directly.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn assemble_static<F: Fn(&Waveform) -> f64>(
    circuit: &Circuit,
    x: &[f64],
    mat: &mut Matrix,
    rhs: &mut [f64],
    gmin: f64,
    source_value: F,
) {
    let plan = StampPlan::build(circuit);
    let mut vals = Vec::new();
    plan.source_values(&mut vals, source_value);
    plan.assemble_into(x, mat, rhs, gmin, &vals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::{MosParams, MosPolarity};
    use crate::Circuit;

    /// DC factors the static pattern because capacitor slots are
    /// structural zeros that still cost fill: on a common-source MOS
    /// cascade the gate capacitances add a `(gate, drain)` slot per
    /// stage, which the natural-order canonical factorization of the
    /// full pattern has to carry.
    #[test]
    fn static_pattern_fills_less_than_full_on_a_mos_cascade() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        c.add_vsource("VIN", vin, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        let mut prev = vin;
        for i in 0..8 {
            let g = c.node(&format!("g{i}"));
            let d = c.node(&format!("d{i}"));
            c.add_resistor(&format!("RC{i}"), prev, g, 100e3).unwrap();
            c.add_resistor(&format!("RB{i}"), g, Circuit::GROUND, 500e3).unwrap();
            c.add_isource(&format!("ID{i}"), Circuit::GROUND, d, Waveform::dc(100e-6)).unwrap();
            c.add_resistor(&format!("RD{i}"), d, Circuit::GROUND, 50e3).unwrap();
            c.add_mosfet(
                &format!("M{i}"),
                d,
                g,
                Circuit::GROUND,
                Circuit::GROUND,
                MosPolarity::Nmos,
                MosParams::nmos_default(10e-6, 1e-6),
            )
            .unwrap();
            prev = d;
        }
        let plan = c.plan();
        let fill = |scope| {
            plan.canonical_symbolic(OrderingKind::Natural, scope)
                .expect("canonical matrix is nonsingular")
                .fill_nnz()
        };
        let (static_fill, full_fill) = (fill(PatternScope::Static), fill(PatternScope::Full));
        assert!(
            static_fill < full_fill,
            "static fill {static_fill} should be below full fill {full_fill}"
        );
    }

    #[test]
    fn idx_maps_ground_to_none() {
        assert_eq!(idx(NodeId::GROUND), None);
        assert_eq!(idx(NodeId(3)), Some(2));
    }

    #[test]
    fn conductance_stamp_is_symmetric() {
        let mut m = Matrix::zeros(2, 2);
        stamp_conductance(&mut m, NodeId(1), NodeId(2), 0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], -0.5);
        assert_eq!(m[(1, 0)], -0.5);
    }

    #[test]
    fn conductance_to_ground_only_touches_diagonal() {
        let mut m = Matrix::zeros(1, 1);
        stamp_conductance(&mut m, NodeId(1), NodeId::GROUND, 2.0);
        assert_eq!(m[(0, 0)], 2.0);
    }

    #[test]
    fn current_stamp_signs() {
        let mut rhs = vec![0.0, 0.0];
        stamp_current(&mut rhs, NodeId(1), NodeId(2), 1e-3);
        assert_eq!(rhs, vec![-1e-3, 1e-3]);
        stamp_current(&mut rhs, NodeId::GROUND, NodeId(1), 1e-3);
        assert_eq!(rhs, vec![0.0, 1e-3]);
    }

    #[test]
    fn resistor_divider_assembly_matches_hand_stamp() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(10.0)).unwrap();
        c.add_resistor("R1", a, b, 1000.0).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1000.0).unwrap();
        let n = c.unknown_count();
        let mut mat = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        assemble_static(&c, &vec![0.0; n], &mut mat, &mut rhs, 0.0, |w| w.dc_value());
        // Node a row: g(R1) + vsource branch column.
        assert!((mat[(0, 0)] - 1e-3).abs() < 1e-15);
        assert!((mat[(0, 1)] + 1e-3).abs() < 1e-15);
        assert_eq!(mat[(0, 2)], 1.0);
        // Node b row: both resistors.
        assert!((mat[(1, 1)] - 2e-3).abs() < 1e-15);
        // Branch row: v(a) = 10.
        assert_eq!(mat[(2, 0)], 1.0);
        assert_eq!(rhs[2], 10.0);
    }

    /// Replays `plan` against `x` and returns the dense system.
    fn replay(plan: &StampPlan, x: &[f64], gmin: f64) -> (Matrix, Vec<f64>) {
        let n = plan.dim();
        let mut mat = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());
        plan.assemble_into(x, &mut mat, &mut rhs, gmin, &vals);
        (mat, rhs)
    }

    fn assert_plans_replay_identically(a: &StampPlan, b: &StampPlan) {
        assert_eq!(a.dim(), b.dim());
        let n = a.dim();
        let x: Vec<f64> = (0..n).map(|i| 0.17 * i as f64 - 0.6).collect();
        let (ma, ra) = replay(a, &x, 1e-12);
        let (mb, rb) = replay(b, &x, 1e-12);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(ma[(r, c)].to_bits(), mb[(r, c)].to_bits(), "slot ({r},{c})");
            }
            assert_eq!(ra[r].to_bits(), rb[r].to_bits(), "rhs {r}");
        }
        assert_eq!(a.damped(), b.damped());
        assert_eq!(a.is_linear(), b.is_linear());
        // Same sparsity pattern, independently constructed.
        assert_eq!(
            a.sparse_template(PatternScope::Full).pattern(),
            b.sparse_template(PatternScope::Full).pattern(),
            "patterns diverged"
        );
        assert_eq!(
            a.sparse_template(PatternScope::Static).pattern(),
            b.sparse_template(PatternScope::Static).pattern(),
            "static patterns diverged"
        );
    }

    fn patch_fixture() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_isource("IB", Circuit::GROUND, g, Waveform::dc(1e-5)).unwrap();
        c.add_resistor("RD", vdd, d, 50e3).unwrap();
        c.add_resistor("RG", g, Circuit::GROUND, 200e3).unwrap();
        c.add_capacitor("CL", d, Circuit::GROUND, 1e-12).unwrap();
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_default(10e-6, 1e-6),
        )
        .unwrap();
        c
    }

    /// A wave patch must replay exactly like a recompile of the
    /// stimulus-substituted circuit, and keep the cached sparse
    /// template (pointer-equal pattern).
    #[test]
    fn wave_patch_matches_recompile_and_keeps_template() {
        let c = patch_fixture();
        let base = StampPlan::build(&c);
        let base_pattern =
            std::sync::Arc::clone(base.sparse_template(PatternScope::Full).pattern());
        let patched = base.with_wave(0, Waveform::dc(3.3));

        let mut direct = c.clone();
        direct.set_stimulus("VDD", Waveform::dc(3.3)).unwrap();
        let rebuilt = StampPlan::build(&direct);

        assert_plans_replay_identically(&patched, &rebuilt);
        assert!(
            std::sync::Arc::ptr_eq(
                patched.sparse_template(PatternScope::Full).pattern(),
                &base_pattern
            ),
            "a wave patch must not reset the sparse template"
        );
    }

    /// A device-add patch (the bridge-fault delta-stamp path) must
    /// replay exactly like a recompile of the extended circuit — for a
    /// plain two-node resistor and for a branch-adding voltage source.
    #[test]
    fn device_patch_matches_recompile() {
        let c = patch_fixture();
        let base = StampPlan::build(&c);

        // Bridge resistor between two existing nodes.
        let mut bridged = c.clone();
        let (g, d) = (c.find_node("g").unwrap(), c.find_node("d").unwrap());
        bridged.add_resistor("F_bridge", g, d, 10e3).unwrap();
        let patched = base.patched_with_device(bridged.device("F_bridge").unwrap());
        assert_plans_replay_identically(&patched, &StampPlan::build(&bridged));

        // A branch-current device grows the system by one unknown.
        let mut extended = bridged.clone();
        extended.add_vsource("VX", d, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        let patched2 = patched.patched_with_device(extended.device("VX").unwrap());
        assert_eq!(patched2.dim(), patched.dim() + 1);
        assert_plans_replay_identically(&patched2, &StampPlan::build(&extended));

        // A nonlinear device patch (junction-pinhole shorts ride this
        // for diode/BJT circuits) must register its damped slots too.
        let mut dioded = extended.clone();
        dioded.add_diode("DX", d, g, crate::diode::DiodeParams::signal_default()).unwrap();
        let patched3 = patched2.patched_with_device(dioded.device("DX").unwrap());
        assert_plans_replay_identically(&patched3, &StampPlan::build(&dioded));

        // A patched-in current-controlled source resolves its sensing
        // column from the carried-over branch-row table.
        let mut sensed = dioded.clone();
        sensed.add_cccs("FX", g, Circuit::GROUND, "VX", 0.5).unwrap();
        let patched4 = patched3.patched_with_device(sensed.device("FX").unwrap());
        assert_plans_replay_identically(&patched4, &StampPlan::build(&sensed));
    }

    /// Regression (device-zoo PR): the damped mask used to be populated
    /// from MOSFET terminal slots only, so a diode- or BJT-only circuit
    /// ran every ladder rung unclamped. Each nonlinear site now
    /// declares its limited unknowns.
    #[test]
    fn diode_and_bjt_circuits_register_damped_junction_slots() {
        let mut c = Circuit::new();
        let inn = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inn, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_resistor("RS", inn, out, 1e3).unwrap();
        c.add_diode("D1", out, Circuit::GROUND, crate::diode::DiodeParams::signal_default())
            .unwrap();
        let plan = StampPlan::build(&c);
        assert!(!plan.is_linear());
        // v(in) is purely linear, v(out) is a junction terminal, and the
        // source branch current is never damped.
        assert_eq!(plan.damped(), &[false, true, false]);

        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let e = c.node("e");
        c.add_vsource("VCC", vcc, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_resistor("RB", vcc, b, 100e3).unwrap();
        c.add_resistor("RE", e, Circuit::GROUND, 1e3).unwrap();
        c.add_bjt("Q1", vcc, b, e, BjtPolarity::Npn, crate::bjt::BjtParams::signal_default())
            .unwrap();
        let plan = StampPlan::build(&c);
        assert!(!plan.is_linear());
        // All three BJT terminals (vcc, b, e) are limited unknowns.
        assert_eq!(plan.damped(), &[true, true, true, false]);
    }

    /// The slot-indexed sparse assembly must reproduce the generic
    /// (binary-searched) sparse assembly bit for bit, on a circuit with
    /// every device kind.
    #[test]
    fn indexed_sparse_assembly_matches_generic_bitwise() {
        let c = patch_fixture();
        let plan = StampPlan::build(&c);
        let n = plan.dim();
        let x: Vec<f64> = (0..n).map(|i| 0.23 * i as f64 - 0.7).collect();
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());

        let mut generic = plan.sparse_template(PatternScope::Full).clone();
        let mut rhs_g = vec![0.0; n];
        plan.assemble_into(&x, &mut generic, &mut rhs_g, 1e-12, &vals);

        let mut fast = plan.sparse_template(PatternScope::Full).clone();
        let mut rhs_f = vec![f64::NAN; n];
        plan.assemble_into_sparse(&x, &mut fast, &mut rhs_f, 1e-12, &vals);

        for ((r, cc, vg), (_, _, vf)) in generic.entries().zip(fast.entries()) {
            assert_eq!(vg.to_bits(), vf.to_bits(), "slot ({r},{cc})");
        }
        for (a, b) in rhs_g.iter().zip(&rhs_f) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `assemble_rhs_only` must reproduce the rhs of a full assembly
    /// bit for bit on a linear plan.
    #[test]
    fn rhs_only_assembly_matches_full() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.5)).unwrap();
        c.add_isource("I1", Circuit::GROUND, b, Waveform::dc(1e-3)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 2e3).unwrap();
        let plan = StampPlan::build(&c);
        assert!(plan.is_linear());
        let (_, rhs_full) = replay(&plan, &vec![0.0; plan.dim()], 1e-12);
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());
        let mut rhs = vec![f64::NAN; plan.dim()];
        plan.assemble_rhs_only(&mut rhs, &vals);
        for (x, y) in rhs.iter().zip(&rhs_full) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The compiled plan must replay to the bit-identical system a
    /// direct device walk produces, for a circuit exercising every
    /// device kind (including a MOSFET linearized off a nonzero
    /// candidate solution).
    #[test]
    fn plan_replay_matches_direct_assembly_bitwise() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        let o = c.node("o");
        c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_resistor("RD", vdd, d, 50e3).unwrap();
        c.add_isource("IB", Circuit::GROUND, g, Waveform::dc(1e-5)).unwrap();
        c.add_resistor("RG", g, Circuit::GROUND, 200e3).unwrap();
        c.add_capacitor("CL", d, Circuit::GROUND, 1e-12).unwrap();
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_default(10e-6, 1e-6),
        )
        .unwrap();
        c.add_vcvs("E1", o, Circuit::GROUND, d, Circuit::GROUND, -3.0).unwrap();
        c.add_inductor("L1", o, g, 1e-6).unwrap();
        let ak = c.node("ak");
        c.add_diode("D1", d, ak, crate::diode::DiodeParams::signal_default()).unwrap();
        c.add_resistor("RK", ak, Circuit::GROUND, 1e3).unwrap();
        c.add_bjt("Q1", vdd, g, o, BjtPolarity::Npn, crate::bjt::BjtParams::signal_default())
            .unwrap();
        c.add_vccs("G1", d, Circuit::GROUND, g, Circuit::GROUND, 1e-3).unwrap();
        c.add_cccs("F1", o, Circuit::GROUND, "VDD", 2.0).unwrap();
        c.add_ccvs("H1", ak, g, "L1", 50.0).unwrap();

        let n = c.unknown_count();
        let x: Vec<f64> = (0..n).map(|i| 0.3 * i as f64 - 0.4).collect();
        let gmin = 1e-12;

        // Direct device-by-device walk (the pre-plan reference).
        let mut mat_ref = Matrix::zeros(n, n);
        let mut rhs_ref = vec![0.0; n];
        mat_ref.clear();
        rhs_ref.fill(0.0);
        for i in 0..c.node_count() - 1 {
            mat_ref.add(i, i, gmin);
        }
        let mut branch = c.node_count() - 1;
        let mut branch_rows: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for dev in c.devices() {
            if dev.has_branch_current() {
                branch_rows.insert(dev.name().to_string(), branch);
            }
            match dev.kind() {
                DeviceKind::Resistor { a, b, ohms } => {
                    stamp_conductance(&mut mat_ref, *a, *b, 1.0 / ohms);
                }
                DeviceKind::Capacitor { .. } => {}
                DeviceKind::Inductor { a, b, .. } => {
                    let br = branch;
                    branch += 1;
                    if let Some(i) = idx(*a) {
                        mat_ref.add(i, br, 1.0);
                        mat_ref.add(br, i, 1.0);
                    }
                    if let Some(j) = idx(*b) {
                        mat_ref.add(j, br, -1.0);
                        mat_ref.add(br, j, -1.0);
                    }
                }
                DeviceKind::Isource { from, to, wave } => {
                    stamp_current(&mut rhs_ref, *from, *to, wave.dc_value());
                }
                DeviceKind::Vsource { pos, neg, wave } => {
                    let br = branch;
                    branch += 1;
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, br, 1.0);
                        mat_ref.add(br, p, 1.0);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, br, -1.0);
                        mat_ref.add(br, ng, -1.0);
                    }
                    rhs_ref[br] = wave.dc_value();
                }
                DeviceKind::Vcvs { pos, neg, cp, cn, gain } => {
                    let br = branch;
                    branch += 1;
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, br, 1.0);
                        mat_ref.add(br, p, 1.0);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, br, -1.0);
                        mat_ref.add(br, ng, -1.0);
                    }
                    if let Some(cc) = idx(*cp) {
                        mat_ref.add(br, cc, -gain);
                    }
                    if let Some(cc) = idx(*cn) {
                        mat_ref.add(br, cc, *gain);
                    }
                }
                DeviceKind::Mosfet { d, g, s, b, polarity, params } => {
                    let vd = voltage_of(&x, *d);
                    let vg = voltage_of(&x, *g);
                    let vs = voltage_of(&x, *s);
                    let vb = voltage_of(&x, *b);
                    let op = mos::evaluate(params, *polarity, vd, vg, vs, vb);
                    let gsum = op.gm + op.gds + op.gmb;
                    let i_rhs =
                        op.ids - op.gm * (vg - vs) - op.gds * (vd - vs) - op.gmb * (vb - vs);
                    if let Some(di) = idx(*d) {
                        if let Some(gi) = idx(*g) {
                            mat_ref.add(di, gi, op.gm);
                        }
                        mat_ref.add(di, di, op.gds);
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(di, bi, op.gmb);
                        }
                        if let Some(si) = idx(*s) {
                            mat_ref.add(di, si, -gsum);
                        }
                    }
                    if let Some(si) = idx(*s) {
                        if let Some(gi) = idx(*g) {
                            mat_ref.add(si, gi, -op.gm);
                        }
                        if let Some(di) = idx(*d) {
                            mat_ref.add(si, di, -op.gds);
                        }
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(si, bi, -op.gmb);
                        }
                        mat_ref.add(si, si, gsum);
                    }
                    stamp_current(&mut rhs_ref, *d, *s, i_rhs);
                }
                DeviceKind::Diode { a, k, params } => {
                    let va = voltage_of(&x, *a);
                    let vk = voltage_of(&x, *k);
                    let op = diode::evaluate(params, va, vk);
                    let i_rhs = op.id - op.gd * (va - vk);
                    stamp_conductance(&mut mat_ref, *a, *k, op.gd);
                    stamp_current(&mut rhs_ref, *a, *k, i_rhs);
                }
                DeviceKind::Bjt { c: tc, b, e, polarity, params } => {
                    let vc = voltage_of(&x, *tc);
                    let vb = voltage_of(&x, *b);
                    let ve = voltage_of(&x, *e);
                    let op = bjt::evaluate(params, *polarity, vc, vb, ve);
                    let gcc = -op.dic_dvbc;
                    let gcb = op.dic_dvbe + op.dic_dvbc;
                    let gce = -op.dic_dvbe;
                    let gbc = -op.dib_dvbc;
                    let gbb = op.dib_dvbe + op.dib_dvbc;
                    let gbe = -op.dib_dvbe;
                    let ic_rhs = op.ic - (gcc * vc + gcb * vb + gce * ve);
                    let ib_rhs = op.ib - (gbc * vc + gbb * vb + gbe * ve);
                    if let Some(ci) = idx(*tc) {
                        mat_ref.add(ci, ci, gcc);
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(ci, bi, gcb);
                        }
                        if let Some(ei) = idx(*e) {
                            mat_ref.add(ci, ei, gce);
                        }
                        rhs_ref[ci] -= ic_rhs;
                    }
                    if let Some(bi) = idx(*b) {
                        if let Some(ci) = idx(*tc) {
                            mat_ref.add(bi, ci, gbc);
                        }
                        mat_ref.add(bi, bi, gbb);
                        if let Some(ei) = idx(*e) {
                            mat_ref.add(bi, ei, gbe);
                        }
                        rhs_ref[bi] -= ib_rhs;
                    }
                    if let Some(ei) = idx(*e) {
                        if let Some(ci) = idx(*tc) {
                            mat_ref.add(ei, ci, -(gcc + gbc));
                        }
                        if let Some(bi) = idx(*b) {
                            mat_ref.add(ei, bi, -(gcb + gbb));
                        }
                        mat_ref.add(ei, ei, -(gce + gbe));
                        rhs_ref[ei] += ic_rhs + ib_rhs;
                    }
                }
                DeviceKind::Vccs { pos, neg, cp, cn, gm } => {
                    if let Some(p) = idx(*pos) {
                        if let Some(cc) = idx(*cp) {
                            mat_ref.add(p, cc, *gm);
                        }
                        if let Some(cc) = idx(*cn) {
                            mat_ref.add(p, cc, -*gm);
                        }
                    }
                    if let Some(ng) = idx(*neg) {
                        if let Some(cc) = idx(*cp) {
                            mat_ref.add(ng, cc, -*gm);
                        }
                        if let Some(cc) = idx(*cn) {
                            mat_ref.add(ng, cc, *gm);
                        }
                    }
                }
                DeviceKind::Cccs { pos, neg, ctrl, gain } => {
                    let col = branch_rows[ctrl.as_ref()];
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, col, *gain);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, col, -*gain);
                    }
                }
                DeviceKind::Ccvs { pos, neg, ctrl, ohms } => {
                    let col = branch_rows[ctrl.as_ref()];
                    let br = branch;
                    branch += 1;
                    if let Some(p) = idx(*pos) {
                        mat_ref.add(p, br, 1.0);
                        mat_ref.add(br, p, 1.0);
                    }
                    if let Some(ng) = idx(*neg) {
                        mat_ref.add(ng, br, -1.0);
                        mat_ref.add(br, ng, -1.0);
                    }
                    mat_ref.add(br, col, -*ohms);
                }
            }
        }

        let plan = StampPlan::build(&c);
        assert_eq!(plan.dim(), n);
        let mut mat = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        let mut vals = Vec::new();
        plan.source_values(&mut vals, |w| w.dc_value());
        // Replay twice into dirty buffers: the plan must clear them.
        for _ in 0..2 {
            plan.assemble_into(&x, &mut mat, &mut rhs, gmin, &vals);
        }

        for r in 0..n {
            for cidx in 0..n {
                assert_eq!(
                    mat[(r, cidx)].to_bits(),
                    mat_ref[(r, cidx)].to_bits(),
                    "matrix mismatch at ({r},{cidx})"
                );
            }
            assert_eq!(rhs[r].to_bits(), rhs_ref[r].to_bits(), "rhs mismatch at {r}");
        }
    }
}
