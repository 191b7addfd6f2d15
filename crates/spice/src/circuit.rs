use std::collections::HashMap;

use crate::bjt::{BjtParams, BjtPolarity};
use crate::device::{Device, DeviceKind};
use crate::diode::DiodeParams;
use crate::mos::{MosParams, MosPolarity};
use crate::node::NodeId;
use crate::stimulus::Waveform;
use crate::SpiceError;

/// A netlist: interned named nodes plus named devices.
///
/// Node `0` is always ground (named `"0"`). Device names are unique and
/// are the handle used for probing, stimulus substitution, and fault
/// injection.
///
/// # Example
///
/// ```
/// use castg_spice::{Circuit, Waveform};
///
/// let mut c = Circuit::new();
/// let vdd = c.node("vdd");
/// let out = c.node("out");
/// c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0))?;
/// c.add_resistor("RL", vdd, out, 10e3)?;
/// assert_eq!(c.node_count(), 3); // ground, vdd, out
/// assert!(c.device("RL").is_some());
/// # Ok::<(), castg_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    node_names: Vec<std::sync::Arc<str>>,
    node_index: HashMap<std::sync::Arc<str>, NodeId>,
    devices: Vec<Device>,
    device_index: HashMap<std::sync::Arc<str>, usize>,
    /// Lazily compiled assembly schedule, shared by every analysis of
    /// this circuit and invalidated by any mutation. Compiling resolves
    /// node ids to matrix slots and splits devices into constant /
    /// stimulus / nonlinear contributions once, so repeated solves
    /// (sensitivity sweeps hammer the same circuit thousands of times)
    /// skip straight to the flat replay.
    plan: PlanCache,
}

/// Interior cache for the compiled [`StampPlan`]. Equality-transparent:
/// two circuits are equal regardless of which has compiled its plan.
#[derive(Debug, Clone, Default)]
struct PlanCache(std::sync::OnceLock<std::sync::Arc<crate::stamp::StampPlan>>);

impl PartialEq for PlanCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Circuit {
    /// The ground node, present in every circuit.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let ground: std::sync::Arc<str> = std::sync::Arc::from("0");
        let mut node_index = HashMap::new();
        node_index.insert(std::sync::Arc::clone(&ground), NodeId::GROUND);
        Circuit {
            node_names: vec![ground],
            node_index,
            devices: Vec::new(),
            device_index: HashMap::new(),
            plan: PlanCache::default(),
        }
    }

    /// The compiled assembly schedule for this circuit, building it on
    /// first use. Cheap to call afterwards (one `Arc` clone).
    pub(crate) fn plan(&self) -> std::sync::Arc<crate::stamp::StampPlan> {
        std::sync::Arc::clone(
            self.plan.0.get_or_init(|| std::sync::Arc::new(crate::stamp::StampPlan::build(self))),
        )
    }

    /// Drops any compiled assembly schedule, forcing the next analysis
    /// to recompile from the netlist.
    ///
    /// Analyses never need this — patches keep the plan consistent —
    /// but differential test harnesses use it to pin the patched plan
    /// against a from-scratch recompilation, and long-lived circuit
    /// stores can use it to shed cached state.
    pub fn drop_compiled_plan(&mut self) {
        self.invalidate_plan();
    }

    /// Compiles the assembly schedule (and whatever it caches lazily)
    /// now instead of at the first analysis.
    ///
    /// Useful before fanning a shared circuit out to worker threads, or
    /// before injecting faulted variants: a variant derived from a
    /// compiled circuit patches the compiled plan (delta-stamps)
    /// instead of recompiling its own from the netlist.
    pub fn compile_plan(&self) {
        let _ = self.plan();
    }

    /// Drops the compiled plan; called by the structural `&mut self`
    /// entry points (node creation, device removal, arbitrary device
    /// mutation) so a mutated circuit recompiles on its next analysis.
    /// Additive mutations patch the plan instead — see
    /// [`Circuit::add`] and [`Circuit::set_stimulus`].
    fn invalidate_plan(&mut self) {
        self.plan.0.take();
    }

    /// Replaces the compiled plan with a patched successor, if one is
    /// compiled at all.
    fn patch_plan<F>(&mut self, patch: F)
    where
        F: FnOnce(&crate::stamp::StampPlan) -> crate::stamp::StampPlan,
    {
        if let Some(plan) = self.plan.0.take() {
            let _ = self.plan.0.set(std::sync::Arc::new(patch(&plan)));
        }
    }

    /// Returns the node with the given name, creating it if needed.
    /// `"0"` and `"gnd"` both resolve to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let canonical = if name.eq_ignore_ascii_case("gnd") { "0" } else { name };
        if let Some(&id) = self.node_index.get(canonical) {
            return id;
        }
        self.invalidate_plan();
        let id = NodeId(self.node_names.len());
        let name: std::sync::Arc<str> = std::sync::Arc::from(canonical);
        self.node_names.push(std::sync::Arc::clone(&name));
        self.node_index.insert(name, id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let canonical = if name.eq_ignore_ascii_case("gnd") { "0" } else { name };
        self.node_index.get(canonical).copied()
    }

    /// Name of a node id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All node ids except ground.
    pub fn non_ground_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.node_names.len()).map(NodeId)
    }

    /// The devices in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Looks up a device by name.
    pub fn device(&self, name: &str) -> Option<&Device> {
        self.device_index.get(name).map(|&i| &self.devices[i])
    }

    /// Mutable lookup of a device by name.
    pub fn device_mut(&mut self, name: &str) -> Option<&mut Device> {
        match self.device_index.get(name) {
            Some(&i) => {
                // The returned reference is the only mutation path, so
                // only a successful lookup needs to drop the plan.
                self.invalidate_plan();
                Some(&mut self.devices[i])
            }
            None => None,
        }
    }

    /// Adds a fully-formed device, validating its nodes and name
    /// uniqueness.
    ///
    /// If the circuit's assembly schedule is already compiled, the new
    /// device is *patched into it* (its ops appended, exactly as a
    /// recompile would emit them) instead of dropping the plan — this
    /// is the delta-stamp path that makes bridge-fault injection an
    /// O(device) plan patch rather than a full recompilation plus
    /// sparse-pattern re-analysis.
    ///
    /// # Errors
    ///
    /// [`SpiceError::DuplicateDevice`] if the name exists,
    /// [`SpiceError::UnknownNode`] if a terminal references a node that
    /// was never interned.
    pub fn add(&mut self, device: Device) -> Result<(), SpiceError> {
        if self.device_index.contains_key(device.name()) {
            return Err(SpiceError::DuplicateDevice { name: device.name().to_string() });
        }
        for n in device.nodes() {
            if n.0 >= self.node_names.len() {
                return Err(SpiceError::UnknownNode {
                    node: n.0,
                    device: device.name().to_string(),
                });
            }
        }
        // Current-controlled sources sense the branch current of an
        // earlier device, so the controller must already be present and
        // voltage-defined. Validating here (rather than at plan build,
        // which is infallible) also guarantees F/H never dangle.
        if let Some(ctrl) = device.controlling_device() {
            match self.device(ctrl) {
                Some(d) if d.has_branch_current() => {}
                Some(_) => {
                    return Err(SpiceError::InvalidValue {
                        device: device.name().to_string(),
                        reason: format!(
                            "controlling device {ctrl} carries no branch current \
                             (must be a V/E/H source or an inductor)"
                        ),
                    });
                }
                None => {
                    return Err(SpiceError::InvalidValue {
                        device: device.name().to_string(),
                        reason: format!(
                            "controlling device {ctrl} not found (it must be added first)"
                        ),
                    });
                }
            }
        }
        // All nodes of the device exist (just validated), so a compiled
        // plan can absorb it as a patch.
        self.patch_plan(|plan| plan.patched_with_device(&device));
        self.device_index.insert(device.name_arc(), self.devices.len());
        self.devices.push(device);
        Ok(())
    }

    /// Removes a device by name, returning it.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownDevice`] if no such device exists.
    pub fn remove(&mut self, name: &str) -> Result<Device, SpiceError> {
        if let Some(dependent) =
            self.devices.iter().find(|d| d.controlling_device() == Some(name))
        {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!(
                    "cannot remove: {} senses this device's branch current",
                    dependent.name()
                ),
            });
        }
        self.invalidate_plan();
        let idx = self
            .device_index
            .remove(name)
            .ok_or_else(|| SpiceError::UnknownDevice { name: name.to_string() })?;
        let dev = self.devices.remove(idx);
        // Reindex devices after the removed one.
        for (i, d) in self.devices.iter().enumerate().skip(idx) {
            self.device_index.insert(d.name_arc(), i);
        }
        Ok(dev)
    }

    /// Adds a resistor (`ohms > 0` and finite).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive or non-finite value,
    /// plus the errors of [`Circuit::add`].
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!("resistance must be positive and finite, got {ohms}"),
            });
        }
        self.add(Device::new(name, DeviceKind::Resistor { a, b, ohms }))
    }

    /// Adds a capacitor (`farads > 0` and finite).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive or non-finite value,
    /// plus the errors of [`Circuit::add`].
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), SpiceError> {
        if !(farads.is_finite() && farads > 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!("capacitance must be positive and finite, got {farads}"),
            });
        }
        self.add(Device::new(name, DeviceKind::Capacitor { a, b, farads }))
    }

    /// Adds an inductor (`henries > 0` and finite). In DC it behaves as
    /// a short (its branch equation forces `v(a) = v(b)`), transient
    /// analysis integrates `v = L·di/dt` with the same companion-model
    /// machinery capacitors use, and AC stamps `−jωL` on its branch row.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive or non-finite value,
    /// plus the errors of [`Circuit::add`].
    pub fn add_inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<(), SpiceError> {
        if !(henries.is_finite() && henries > 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!("inductance must be positive and finite, got {henries}"),
            });
        }
        self.add(Device::new(name, DeviceKind::Inductor { a, b, henries }))
    }

    /// Adds an independent voltage source (`pos` → `neg`).
    ///
    /// # Errors
    ///
    /// See [`Circuit::add`].
    pub fn add_vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Vsource { pos, neg, wave }))
    }

    /// Adds an independent current source pulling current out of `from`
    /// and pushing it into `to`.
    ///
    /// # Errors
    ///
    /// See [`Circuit::add`].
    pub fn add_isource(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Isource { from, to, wave }))
    }

    /// Adds a Level-1 MOSFET. Width and length must be positive.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on non-positive geometry, plus the
    /// errors of [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        polarity: MosPolarity,
        params: MosParams,
    ) -> Result<(), SpiceError> {
        if !(params.w > 0.0 && params.l > 0.0) {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!("W and L must be positive, got W={} L={}", params.w, params.l),
            });
        }
        self.add(Device::new(name, DeviceKind::Mosfet { d, g, s, b, polarity, params }))
    }

    /// Adds a voltage-controlled voltage source.
    ///
    /// # Errors
    ///
    /// See [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_vcvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Vcvs { pos, neg, cp, cn, gain }))
    }

    /// Adds a junction diode from anode `a` to cathode `k`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive `Is`/`n`, a
    /// negative `rs`/`cj0`, or any non-finite parameter, plus the
    /// errors of [`Circuit::add`].
    pub fn add_diode(
        &mut self,
        name: &str,
        a: NodeId,
        k: NodeId,
        params: DiodeParams,
    ) -> Result<(), SpiceError> {
        if !(params.is_sat.is_finite()
            && params.is_sat > 0.0
            && params.n.is_finite()
            && params.n > 0.0
            && params.rs.is_finite()
            && params.rs >= 0.0
            && params.cj0.is_finite()
            && params.cj0 >= 0.0)
        {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!(
                    "diode needs is>0, n>0, rs>=0, cj0>=0 (finite), got is={} n={} rs={} cj0={}",
                    params.is_sat, params.n, params.rs, params.cj0
                ),
            });
        }
        self.add(Device::new(name, DeviceKind::Diode { a, k, params }))
    }

    /// Adds a bipolar junction transistor (collector, base, emitter).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive `Is`/`βf`/`βr`, a
    /// negative junction capacitance, or any non-finite parameter, plus
    /// the errors of [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_bjt(
        &mut self,
        name: &str,
        c: NodeId,
        b: NodeId,
        e: NodeId,
        polarity: BjtPolarity,
        params: BjtParams,
    ) -> Result<(), SpiceError> {
        if !(params.is_sat.is_finite()
            && params.is_sat > 0.0
            && params.bf.is_finite()
            && params.bf > 0.0
            && params.br.is_finite()
            && params.br > 0.0
            && params.cje.is_finite()
            && params.cje >= 0.0
            && params.cjc.is_finite()
            && params.cjc >= 0.0)
        {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!(
                    "bjt needs is>0, bf>0, br>0, cje>=0, cjc>=0 (finite), \
                     got is={} bf={} br={} cje={} cjc={}",
                    params.is_sat, params.bf, params.br, params.cje, params.cjc
                ),
            });
        }
        self.add(Device::new(name, DeviceKind::Bjt { c, b, e, polarity, params }))
    }

    /// Adds a voltage-controlled current source (`gm` finite).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-finite transconductance,
    /// plus the errors of [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_vccs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<(), SpiceError> {
        if !gm.is_finite() {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!("transconductance must be finite, got {gm}"),
            });
        }
        self.add(Device::new(name, DeviceKind::Vccs { pos, neg, cp, cn, gm }))
    }

    /// Adds a current-controlled current source sensing the branch
    /// current of the already-added device `ctrl`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-finite gain or a missing /
    /// non-branch controlling device, plus the errors of
    /// [`Circuit::add`].
    pub fn add_cccs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        ctrl: &str,
        gain: f64,
    ) -> Result<(), SpiceError> {
        if !gain.is_finite() {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!("current gain must be finite, got {gain}"),
            });
        }
        self.add(Device::new(
            name,
            DeviceKind::Cccs { pos, neg, ctrl: std::sync::Arc::from(ctrl), gain },
        ))
    }

    /// Adds a current-controlled voltage source sensing the branch
    /// current of the already-added device `ctrl`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-finite transresistance or a
    /// missing / non-branch controlling device, plus the errors of
    /// [`Circuit::add`].
    pub fn add_ccvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        ctrl: &str,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        if !ohms.is_finite() {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!("transresistance must be finite, got {ohms}"),
            });
        }
        self.add(Device::new(
            name,
            DeviceKind::Ccvs { pos, neg, ctrl: std::sync::Arc::from(ctrl), ohms },
        ))
    }

    /// Replaces the waveform of a named independent source; used by test
    /// configurations to attach their stimulus to the macro's input node.
    ///
    /// A compiled assembly schedule survives this: only its waveform
    /// table is patched (the matrix structure is stimulus-independent),
    /// so parameter sweeps that re-aim the stimulus never recompile the
    /// plan, its sparse template, or its symbolic analysis.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownDevice`] if the device does not exist or is
    /// not an independent source.
    pub fn set_stimulus(&mut self, name: &str, wave: Waveform) -> Result<(), SpiceError> {
        let slot = match self.wave_slot(name) {
            Some(slot) => slot,
            None if self.device_index.contains_key(name) => {
                return Err(SpiceError::InvalidValue {
                    device: name.to_string(),
                    reason: "set_stimulus requires an independent source".to_string(),
                })
            }
            None => return Err(SpiceError::UnknownDevice { name: name.to_string() }),
        };
        let di = self.device_index[name];
        match self.devices[di].kind_mut() {
            DeviceKind::Vsource { wave: w, .. } | DeviceKind::Isource { wave: w, .. } => {
                *w = wave.clone();
            }
            _ => unreachable!("wave_slot only resolves independent sources"),
        }
        self.patch_plan(|plan| plan.with_wave(slot, wave));
        Ok(())
    }

    /// Stimulus-slot index of a named independent source: its position
    /// among the circuit's independent sources in device order, which
    /// is exactly the waveform-table index of the compiled plan.
    /// `None` when the device is missing or not an independent source —
    /// callers map that to their own error (the analyses' stimulus
    /// overrides reuse this).
    pub(crate) fn wave_slot(&self, name: &str) -> Option<usize> {
        let di = *self.device_index.get(name)?;
        if !matches!(
            self.devices[di].kind(),
            DeviceKind::Vsource { .. } | DeviceKind::Isource { .. }
        ) {
            return None;
        }
        Some(
            self.devices[..di]
                .iter()
                .filter(|d| {
                    matches!(d.kind(), DeviceKind::Vsource { .. } | DeviceKind::Isource { .. })
                })
                .count(),
        )
    }

    /// Names of all MOSFET devices (in insertion order); the pinhole fault
    /// universe of the paper is one fault per transistor.
    pub fn mosfet_names(&self) -> Vec<String> {
        self.devices
            .iter()
            .filter(|d| matches!(d.kind(), DeviceKind::Mosfet { .. }))
            .map(|d| d.name().to_string())
            .collect()
    }

    /// Names of all diode devices (in insertion order); each contributes
    /// one junction-pinhole fault site (anode–cathode short).
    pub fn diode_names(&self) -> Vec<String> {
        self.devices
            .iter()
            .filter(|d| matches!(d.kind(), DeviceKind::Diode { .. }))
            .map(|d| d.name().to_string())
            .collect()
    }

    /// Names of all BJT devices (in insertion order); each contributes
    /// two junction-pinhole fault sites (base–emitter and base–collector
    /// shorts).
    pub fn bjt_names(&self) -> Vec<String> {
        self.devices
            .iter()
            .filter(|d| matches!(d.kind(), DeviceKind::Bjt { .. }))
            .map(|d| d.name().to_string())
            .collect()
    }

    /// Number of MNA unknowns: non-ground nodes plus branch currents.
    pub fn unknown_count(&self) -> usize {
        self.node_count() - 1 + self.branch_count()
    }

    /// Whether the circuit has no nonlinear device (MOSFET, diode, BJT):
    /// its MNA matrix then does not depend on the solution, so a DC
    /// solve converges in one factorization from any start. Compiles
    /// the plan if it is not compiled yet.
    pub fn is_linear(&self) -> bool {
        self.plan().is_linear()
    }

    /// Number of branch-current unknowns (voltage-defined devices).
    pub fn branch_count(&self) -> usize {
        self.devices.iter().filter(|d| d.has_branch_current()).count()
    }

    /// Index of the branch-current unknown belonging to a voltage-defined
    /// device, if it has one. Indices are assigned in device insertion
    /// order.
    pub fn branch_index(&self, name: &str) -> Option<usize> {
        let mut idx = 0;
        for d in &self.devices {
            if d.has_branch_current() {
                if d.name() == name {
                    return Some(idx);
                }
                idx += 1;
            }
        }
        None
    }

    /// Human-readable name of MNA unknown `i`: `v(<node>)` for the
    /// node-voltage unknowns (`0..node_count()-1`, in node-interning
    /// order), `i(<device>)` for the branch-current unknowns that
    /// follow (in device insertion order). Diagnostics use this to turn
    /// a singular pivot column into the circuit element it belongs to.
    pub fn unknown_name(&self, i: usize) -> Option<String> {
        let n_nodes = self.node_count() - 1;
        if i < n_nodes {
            return self.non_ground_nodes().nth(i).map(|id| format!("v({})", self.node_name(id)));
        }
        let want = i - n_nodes;
        let mut idx = 0;
        for d in &self.devices {
            if d.has_branch_current() {
                if idx == want {
                    return Some(format!("i({})", d.name()));
                }
                idx += 1;
            }
        }
        None
    }

    /// Promote a numeric failure to a circuit-level diagnostic:
    /// [`NumericError::SingularMatrix`] becomes [`SpiceError::Singular`]
    /// naming the unknown via [`Circuit::unknown_name`]; anything else
    /// (or an unnameable pivot) passes through as
    /// [`SpiceError::Numeric`]. The pivot is reduced modulo
    /// [`Circuit::unknown_count`] so analyses that factor a stacked
    /// embedding of the MNA system (the AC sweep's 2n×2n real form) can
    /// use the same helper.
    pub fn singular_error(&self, e: castg_numeric::NumericError) -> SpiceError {
        if let castg_numeric::NumericError::SingularMatrix { pivot } = e {
            let n = self.unknown_count();
            if n > 0 {
                if let Some(unknown) = self.unknown_name(pivot % n) {
                    return SpiceError::Singular { unknown };
                }
            }
        }
        SpiceError::Numeric(e)
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_exists_and_gnd_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node_count(), 1);
    }

    #[test]
    fn node_interning_is_stable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_ne!(a, b);
        assert_eq!(c.node("a"), a);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let err = c.add_resistor("R1", a, Circuit::GROUND, 2.0).unwrap_err();
        assert!(matches!(err, SpiceError::DuplicateDevice { .. }));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor("R1", a, Circuit::GROUND, 0.0).is_err());
        assert!(c.add_resistor("R2", a, Circuit::GROUND, -5.0).is_err());
        assert!(c.add_resistor("R3", a, Circuit::GROUND, f64::NAN).is_err());
        assert!(c.add_capacitor("C1", a, Circuit::GROUND, 0.0).is_err());
        let bad = MosParams { w: 0.0, ..MosParams::nmos_default(1e-6, 1e-6) };
        assert!(c
            .add_mosfet("M1", a, a, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, bad)
            .is_err());
    }

    #[test]
    fn remove_reindexes_lookup() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R2", a, Circuit::GROUND, 2.0).unwrap();
        c.add_resistor("R3", a, Circuit::GROUND, 3.0).unwrap();
        let removed = c.remove("R2").unwrap();
        assert_eq!(removed.name(), "R2");
        assert!(c.device("R2").is_none());
        // R3 must still resolve correctly after reindexing.
        match c.device("R3").unwrap().kind() {
            DeviceKind::Resistor { ohms, .. } => assert_eq!(*ohms, 3.0),
            other => panic!("unexpected kind {other:?}"),
        }
        assert!(matches!(c.remove("R2"), Err(SpiceError::UnknownDevice { .. })));
    }

    #[test]
    fn set_stimulus_replaces_waveform() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource("Iin", a, Circuit::GROUND, Waveform::dc(0.0)).unwrap();
        c.set_stimulus("Iin", Waveform::dc(1e-6)).unwrap();
        match c.device("Iin").unwrap().kind() {
            DeviceKind::Isource { wave, .. } => assert_eq!(wave, &Waveform::dc(1e-6)),
            other => panic!("unexpected kind {other:?}"),
        }
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(c.set_stimulus("R1", Waveform::dc(0.0)).is_err());
        assert!(c.set_stimulus("nope", Waveform::dc(0.0)).is_err());
    }

    #[test]
    fn unknown_and_branch_counts() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_resistor("R1", a, b, 1.0).unwrap();
        c.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0).unwrap();
        assert_eq!(c.branch_count(), 2);
        assert_eq!(c.unknown_count(), 2 + 2);
        assert_eq!(c.branch_index("V1"), Some(0));
        assert_eq!(c.branch_index("E1"), Some(1));
        assert_eq!(c.branch_index("R1"), None);
        // The unknown layout mirrored by MNA assembly: node voltages in
        // interning order, then branch currents in device order.
        assert_eq!(c.unknown_name(0).as_deref(), Some("v(a)"));
        assert_eq!(c.unknown_name(1).as_deref(), Some("v(b)"));
        assert_eq!(c.unknown_name(2).as_deref(), Some("i(V1)"));
        assert_eq!(c.unknown_name(3).as_deref(), Some("i(E1)"));
        assert_eq!(c.unknown_name(4), None);
    }

    /// `set_stimulus` must keep the compiled plan (patching only its
    /// waveform table) and still produce correct solves — while
    /// structural mutations after patching must drop the patched plan.
    #[test]
    fn stimulus_patch_keeps_plan_and_solves_correctly() {
        use crate::DcAnalysis;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c.compile_plan();
        let before = c.plan();
        c.set_stimulus("V1", Waveform::dc(8.0)).unwrap();
        let after = c.plan();
        assert!(!std::sync::Arc::ptr_eq(&before, &after), "patched plan is a successor");
        assert_eq!(before.dim(), after.dim());
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(b) - 4.0).abs() < 1e-6, "patched stimulus must be live, got {}", sol.voltage(b));
    }

    /// A device added to a compiled circuit rides the delta-stamp plan
    /// patch; the solve must reflect it exactly.
    #[test]
    fn device_add_patches_compiled_plan() {
        use crate::DcAnalysis;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c.compile_plan();
        // Bridge the lower leg: 1k ∥ 1k = 500 Ω → v(b) = 2·(1/3).
        c.add_resistor("F_bridge", b, Circuit::GROUND, 1e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(b) - 2.0 / 3.0).abs() < 1e-6);
    }

    /// Regression: a patched plan must never survive a *structural*
    /// mutation of the circuit. Mutating a device through `device_mut`
    /// (or removing one / interning a new node) after a patch must drop
    /// the patched plan and recompile from the netlist.
    #[test]
    fn patched_plan_does_not_survive_structural_mutation() {
        use crate::DcAnalysis;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c.compile_plan();
        // Patch path: stimulus swap plus an added bridge.
        c.set_stimulus("V1", Waveform::dc(6.0)).unwrap();
        c.add_resistor("F_bridge", b, Circuit::GROUND, 1e3).unwrap();
        assert!((DcAnalysis::new(&c).solve().unwrap().voltage(b) - 2.0).abs() < 1e-6);

        // Structural mutation via device_mut: change R1's resistance.
        match c.device_mut("R1").unwrap().kind_mut() {
            DeviceKind::Resistor { ohms, .. } => *ohms = 500.0,
            _ => unreachable!(),
        }
        // 6 V over 500 Ω into 500 Ω → v(b) = 3 V: a stale patched plan
        // (still stamping 1 kΩ) would report 2 V.
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(b) - 3.0).abs() < 1e-6, "stale plan survived device_mut");

        // Removal also invalidates: 6 V over 500 Ω into the bare 1 kΩ
        // leg is 4 V.
        c.remove("F_bridge").unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(b) - 4.0).abs() < 1e-6, "stale plan survived remove");

        // New node interning invalidates (plan dims change with it).
        c.compile_plan();
        let extra = c.node("extra");
        c.add_resistor("R3", b, extra, 1e3).unwrap();
        c.add_resistor("R4", extra, Circuit::GROUND, 1e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!(sol.voltage(extra) > 0.0, "new node must participate in the solve");
    }

    #[test]
    fn wave_slot_counts_sources_in_device_order() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R0", a, Circuit::GROUND, 1.0).unwrap();
        c.add_isource("I1", Circuit::GROUND, a, Waveform::dc(1e-3)).unwrap();
        c.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0).unwrap();
        c.add_vsource("V1", b, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        assert_eq!(c.wave_slot("I1"), Some(0));
        assert_eq!(c.wave_slot("V1"), Some(1));
        assert_eq!(c.wave_slot("E1"), None, "VCVS has no stimulus waveform");
        assert_eq!(c.wave_slot("R0"), None);
        assert_eq!(c.wave_slot("missing"), None);
    }

    #[test]
    fn mosfet_names_lists_transistors_in_order() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let p = MosParams::nmos_default(1e-6, 1e-6);
        c.add_mosfet("M2", a, a, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, p).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_mosfet("M1", a, a, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, p).unwrap();
        assert_eq!(c.mosfet_names(), vec!["M2".to_string(), "M1".to_string()]);
    }
}
