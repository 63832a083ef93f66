//! Newton–Raphson DC operating-point analysis.
//!
//! The solver assembles the exact MNA Jacobian from [`crate::mna::mos_stamp`]
//! and iterates with per-component step damping. If plain Newton from a
//! zero start fails, it falls back to `gmin` stepping and then source
//! stepping — the same continuation tricks production SPICE uses — so the
//! op-amp circuits OASYS synthesizes converge reliably. Sweeps warm-start
//! Newton from a neighbouring solution first and fall back to that same
//! chain. Each solve binds its MOSFETs once and reuses one Jacobian and
//! one set of LU buffers across every iteration.

use crate::linalg::{LuWorkspace, Matrix};
use crate::mna::{bound_mosfets, mos_instances, mos_stamp, MnaIndex};
use oasys_faults::{fail_point, Deadline, DeadlineExceeded};
use oasys_mos::{Mosfet, OperatingPoint};
use oasys_netlist::{Circuit, Element, NodeId};
use oasys_process::Process;
use oasys_telemetry::{sym, sym_display, sym_u64, Sym, Telemetry};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Pre-interned symbols for the DC solver's span and counter names, so
/// the per-solve telemetry path never hashes a string.
struct DcSyms {
    span: Sym,
    solves: Sym,
    newton: Sym,
    failures: Sym,
    iterations: Sym,
    error: Sym,
}

fn dc_syms() -> &'static DcSyms {
    static SYMS: std::sync::OnceLock<DcSyms> = std::sync::OnceLock::new();
    SYMS.get_or_init(|| DcSyms {
        span: sym("sim:dc"),
        solves: sym("sim.dc.solves"),
        newton: sym("sim.dc.newton_iterations"),
        failures: sym("sim.dc.failures"),
        iterations: sym("iterations"),
        error: sym("error"),
    })
}

/// Error returned when DC analysis fails. Every variant that comes out
/// of a solve names the circuit it failed on, so the message survives
/// verbatim through batch records and `--explain`.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveDcError {
    /// The circuit failed structural validation first.
    Invalid(String),
    /// No continuation strategy converged.
    NotConverged {
        /// Title of the circuit that failed to converge.
        circuit: String,
        /// Residual norm of the best attempt.
        residual: f64,
    },
    /// The Jacobian was singular even with `gmin` regularization.
    Singular {
        /// Title of the circuit with the singular Jacobian.
        circuit: String,
    },
    /// The cooperative deadline fired inside the solve.
    DeadlineExceeded {
        /// Title of the circuit being solved when the deadline fired.
        circuit: String,
        /// Whether the budget ran out or the job was cancelled.
        exceeded: DeadlineExceeded,
    },
}

impl fmt::Display for SolveDcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveDcError::Invalid(detail) => write!(f, "invalid circuit: {detail}"),
            SolveDcError::NotConverged { circuit, residual } => {
                write!(
                    f,
                    "dc analysis of `{circuit}` did not converge (residual {residual:.3e} A)"
                )
            }
            SolveDcError::Singular { circuit } => {
                write!(f, "dc jacobian of `{circuit}` is singular")
            }
            SolveDcError::DeadlineExceeded { circuit, exceeded } => {
                write!(f, "dc analysis of `{circuit}` stopped: {exceeded}")
            }
        }
    }
}

impl Error for SolveDcError {}

/// A converged DC operating point.
///
/// # Examples
///
/// See the crate-level example; key accessors are
/// [`DcSolution::voltage`], [`DcSolution::source_current`],
/// [`DcSolution::device_op`] and [`DcSolution::supply_power`].
#[derive(Clone, Debug)]
pub struct DcSolution {
    node_voltages: Vec<f64>,
    branch_currents: HashMap<String, f64>,
    device_ops: HashMap<String, OperatingPoint>,
    iterations: usize,
}

impl DcSolution {
    /// Voltage of a node, volts (ground reads 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` did not come from the analyzed circuit.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.node_voltages[node.index()]
    }

    /// All node voltages indexed by [`NodeId::index`].
    #[must_use]
    pub fn node_voltages(&self) -> &[f64] {
        &self.node_voltages
    }

    /// Branch current of a voltage source (positive flowing from the `pos`
    /// terminal through the source to `neg`), amperes.
    #[must_use]
    pub fn source_current(&self, name: &str) -> Option<f64> {
        self.branch_currents.get(name).copied()
    }

    /// Bias point of a MOSFET by instance name.
    #[must_use]
    pub fn device_op(&self, name: &str) -> Option<&OperatingPoint> {
        self.device_ops.get(name)
    }

    /// All device bias points.
    #[must_use]
    pub fn device_ops(&self) -> &HashMap<String, OperatingPoint> {
        &self.device_ops
    }

    /// Newton iterations the successful strategy used.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total power delivered by all sources, watts. For a circuit whose
    /// only stimuli are its supplies this equals the dissipated power.
    #[must_use]
    pub fn supply_power(&self, circuit: &Circuit) -> f64 {
        let mut power = 0.0;
        for v in circuit.vsources() {
            if let Some(i) = self.source_current(&v.name) {
                // Source delivers P = V·(−i) with i defined pos→neg
                // through the source.
                power += v.value.dc_value() * (-i);
            }
        }
        for i in circuit.isources() {
            let v = self.voltage(i.pos) - self.voltage(i.neg);
            // Current i flows pos→neg through the source: it delivers
            // −v·I into the external circuit.
            power += -v * i.value.dc_value();
        }
        power
    }
}

/// Floor conductance from every node to ground, for regularization.
const GMIN_FLOOR: f64 = 1e-12;
/// Newton iteration cap per continuation stage.
const MAX_ITERS: usize = 300;
/// Per-component Newton step clamp, volts.
const MAX_STEP: f64 = 0.5;
/// Voltage convergence tolerance.
const VTOL: f64 = 1e-9;
/// Residual (current) convergence tolerance.
const ITOL: f64 = 1e-10;

/// Computes the DC operating point of `circuit` under `process`.
///
/// # Errors
///
/// Returns [`SolveDcError::Invalid`] for structurally broken circuits and
/// [`SolveDcError::NotConverged`]/[`SolveDcError::Singular`] if every
/// continuation strategy fails.
pub fn solve(circuit: &Circuit, process: &Process) -> Result<DcSolution, SolveDcError> {
    solve_inner(circuit, process, &Deadline::none(), &mut Vec::new())
}

/// [`solve`] warm-started from `x`, the MNA unknown vector of a nearby
/// operating point of the same circuit (the previous point of a sweep).
/// Newton runs from `x` first; only if that stage stalls does the solve
/// fall back to the cold chain of [`solve`]. An `x` whose length is not
/// the circuit's unknown count (e.g. empty) is no guess at all. On
/// success `x` holds this solution's unknown vector, ready to seed the
/// next solve; on failure it is left as it was.
pub(crate) fn solve_warm(
    circuit: &Circuit,
    process: &Process,
    x: &mut Vec<f64>,
) -> Result<DcSolution, SolveDcError> {
    solve_inner(circuit, process, &Deadline::none(), x)
}

/// [`solve`] with run telemetry recorded into `tel`: a `sim:dc` span plus
/// the `sim.dc.solves` / `sim.dc.newton_iterations` / `sim.dc.failures`
/// counters.
///
/// # Errors
///
/// Same failure modes as [`solve`].
pub fn solve_with(
    circuit: &Circuit,
    process: &Process,
    tel: &Telemetry,
) -> Result<DcSolution, SolveDcError> {
    solve_with_deadline(circuit, process, tel, &Deadline::none())
}

/// [`solve_with`] under a cooperative [`Deadline`], checked at every
/// Newton iteration and continuation stage — a diverging operating
/// point aborts with [`SolveDcError::DeadlineExceeded`] instead of
/// burning the whole iteration budget.
///
/// # Errors
///
/// Same failure modes as [`solve`], plus
/// [`SolveDcError::DeadlineExceeded`].
pub fn solve_with_deadline(
    circuit: &Circuit,
    process: &Process,
    tel: &Telemetry,
    deadline: &Deadline,
) -> Result<DcSolution, SolveDcError> {
    let s = dc_syms();
    let span = tel.span_sym(s.span);
    tel.incr_sym(s.solves);
    let result = solve_inner(circuit, process, deadline, &mut Vec::new());
    if tel.is_enabled() {
        match &result {
            Ok(solution) => {
                let iters = solution.iterations() as u64;
                tel.add_sym(s.newton, iters);
                tel.observe_sym(s.newton, iters);
                span.annotate_sym(s.iterations, sym_u64(solution.iterations() as u64));
            }
            Err(e) => {
                tel.incr_sym(s.failures);
                span.annotate_sym(s.error, sym_display("", e));
            }
        }
    }
    result
}

fn solve_inner(
    circuit: &Circuit,
    process: &Process,
    deadline: &Deadline,
    guess: &mut Vec<f64>,
) -> Result<DcSolution, SolveDcError> {
    fail_point!("sim.dc.solve", |msg: String| SolveDcError::Invalid(msg));
    circuit
        .validate()
        .map_err(|e| SolveDcError::Invalid(e.to_string()))?;

    let mut newton = Newton::new(circuit, process, deadline);
    let (x, iterations) = converge(&mut newton, guess)?;
    let solution = newton.package(&x, iterations);
    *guess = x;
    Ok(solution)
}

/// Runs the continuation strategies in order until one converges:
/// Newton from `guess` (when it fits the circuit), then the cold chain
/// of plain Newton from zero, `gmin` stepping and source stepping.
fn converge(newton: &mut Newton, guess: &[f64]) -> Result<(Vec<f64>, usize), SolveDcError> {
    let circuit = newton.circuit;
    let deadline_err = |exceeded: DeadlineExceeded| SolveDcError::DeadlineExceeded {
        circuit: circuit.title().to_owned(),
        exceeded,
    };
    let dim = newton.index.dim();

    // Strategy 0: plain Newton from the caller's guess. A stall only
    // costs the attempt; the cold chain below starts afresh.
    if guess.len() == dim {
        match newton.run(GMIN_FLOOR, 1.0, guess.to_vec()) {
            Ok(converged) => return Ok(converged),
            Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
            Err(StageFailure::Stuck { .. }) => {}
        }
    }

    let mut best_residual = f64::INFINITY;

    // Strategy 1: plain Newton from zero.
    let x0 = vec![0.0; dim];
    match newton.run(GMIN_FLOOR, 1.0, x0.clone()) {
        Ok(converged) => return Ok(converged),
        Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
        Err(StageFailure::Stuck { residual, .. }) => best_residual = best_residual.min(residual),
    }

    // Strategy 2: gmin stepping.
    let mut x = x0.clone();
    let mut gmin = 1e-3;
    let mut ok = true;
    let mut total_iters = 0;
    while gmin >= GMIN_FLOOR {
        match newton.run(gmin, 1.0, x.clone()) {
            Ok((next, iters)) => {
                x = next;
                total_iters += iters;
            }
            Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
            Err(StageFailure::Stuck { residual, .. }) => {
                best_residual = best_residual.min(residual);
                ok = false;
                break;
            }
        }
        if gmin <= GMIN_FLOOR {
            break;
        }
        gmin = (gmin / 100.0).max(GMIN_FLOOR);
    }
    if ok {
        return Ok((x, total_iters));
    }

    // Strategy 3: source stepping.
    let mut x = x0;
    let mut total_iters = 0;
    let mut ok = true;
    for step in 1..=10 {
        let scale = f64::from(step) / 10.0;
        match newton.run(GMIN_FLOOR, scale, x.clone()) {
            Ok((next, iters)) => {
                x = next;
                total_iters += iters;
            }
            Err(StageFailure::Deadline(exceeded)) => return Err(deadline_err(exceeded)),
            Err(StageFailure::Stuck { residual, singular }) => {
                best_residual = best_residual.min(residual);
                if singular {
                    return Err(SolveDcError::Singular {
                        circuit: circuit.title().to_owned(),
                    });
                }
                ok = false;
                break;
            }
        }
    }
    if ok {
        return Ok((x, total_iters));
    }

    Err(SolveDcError::NotConverged {
        circuit: circuit.title().to_owned(),
        residual: best_residual,
    })
}

enum StageFailure {
    /// The stage stalled: best residual reached, and whether the
    /// Jacobian went singular.
    Stuck { residual: f64, singular: bool },
    /// The cooperative deadline fired mid-stage.
    Deadline(DeadlineExceeded),
}

/// Everything the Newton stages of one solve share: the circuit, its
/// MNA layout, its MOSFETs bound once (through [`crate::mismatch::bind`],
/// so the caller's Monte-Carlo scope applies), and the Jacobian, residual
/// and LU buffers every iteration reuses.
struct Newton<'a> {
    circuit: &'a Circuit,
    index: MnaIndex,
    devices: Vec<Mosfet>,
    deadline: &'a Deadline,
    jac: Matrix<f64>,
    residual: Vec<f64>,
    lu: LuWorkspace<f64>,
}

impl<'a> Newton<'a> {
    fn new(circuit: &'a Circuit, process: &Process, deadline: &'a Deadline) -> Self {
        let index = MnaIndex::new(circuit);
        let dim = index.dim();
        Self {
            circuit,
            devices: bound_mosfets(circuit, process).map(|(_, d)| d).collect(),
            index,
            deadline,
            jac: Matrix::zeros(dim),
            residual: vec![0.0; dim],
            lu: LuWorkspace::new(dim),
        }
    }

    /// One Newton continuation stage from `x`. Returns the solution and
    /// iteration count, or the best residual reached.
    fn run(
        &mut self,
        gmin: f64,
        source_scale: f64,
        mut x: Vec<f64>,
    ) -> Result<(Vec<f64>, usize), StageFailure> {
        let mut best_residual = f64::INFINITY;

        for iter in 0..MAX_ITERS {
            fail_point!("sim.dc.newton");
            if let Err(exceeded) = self.deadline.check() {
                return Err(StageFailure::Deadline(exceeded));
            }
            self.jac.clear();
            self.residual.fill(0.0);
            assemble(
                self.circuit,
                &self.devices,
                &self.index,
                gmin,
                source_scale,
                &x,
                &mut self.jac,
                &mut self.residual,
            );

            let res_norm = self.residual.iter().fold(0.0f64, |m, r| m.max(r.abs()));
            best_residual = best_residual.min(res_norm);

            // Solve J·δ = −f, factoring the freshly assembled Jacobian
            // in place.
            for r in &mut self.residual {
                *r = -*r;
            }
            let Ok(delta) = self.jac.solve_in_place(&self.residual, &mut self.lu) else {
                return Err(StageFailure::Stuck {
                    residual: best_residual,
                    singular: true,
                });
            };

            // Damped update.
            let max_delta = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            let damp = if max_delta > MAX_STEP {
                MAX_STEP / max_delta
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(delta) {
                *xi += damp * di;
            }
            if !x.iter().all(|v| v.is_finite()) {
                return Err(StageFailure::Stuck {
                    residual: best_residual,
                    singular: false,
                });
            }

            if damp == 1.0 && max_delta < VTOL && res_norm < ITOL {
                return Ok((x, iter + 1));
            }
        }

        Err(StageFailure::Stuck {
            residual: best_residual,
            singular: false,
        })
    }

    /// Wraps a converged unknown vector into a [`DcSolution`].
    fn package(&self, x: &[f64], iterations: usize) -> DcSolution {
        let circuit = self.circuit;
        let mut node_voltages = vec![0.0; circuit.node_count()];
        node_voltages[1..circuit.node_count()].copy_from_slice(&x[..circuit.node_count() - 1]);

        let mut branch_currents = HashMap::new();
        for k in 0..self.index.vsource_count() {
            branch_currents.insert(
                self.index.vsource_name(k).to_owned(),
                x[self.index.branch_var(k)],
            );
        }

        let volt = |node: NodeId| node_voltages[node.index()];
        let mut device_ops = HashMap::new();
        for (inst, device) in mos_instances(circuit).zip(&self.devices) {
            let op = device.operating_point(
                volt(inst.gate) - volt(inst.source),
                volt(inst.drain) - volt(inst.source),
                volt(inst.source) - volt(inst.bulk),
            );
            device_ops.insert(inst.name.clone(), op);
        }

        DcSolution {
            node_voltages,
            branch_currents,
            device_ops,
            iterations,
        }
    }
}

/// Assembles the Jacobian and residual at the point `x`; `devices` are
/// the circuit's MOSFETs bound in element order.
#[allow(clippy::too_many_arguments)]
fn assemble(
    circuit: &Circuit,
    devices: &[Mosfet],
    index: &MnaIndex,
    gmin: f64,
    source_scale: f64,
    x: &[f64],
    jac: &mut Matrix<f64>,
    residual: &mut [f64],
) {
    let volt = |node: NodeId| index.node_var(node).map_or(0.0, |i| x[i]);

    // gmin from every node to ground.
    for node_idx in 0..circuit.node_count() - 1 {
        jac.stamp(node_idx, node_idx, gmin);
        residual[node_idx] += gmin * x[node_idx];
    }

    let mut vsrc_k = 0usize;
    let mut mos_k = 0usize;
    for element in circuit.elements() {
        match element {
            Element::Resistor(r) => {
                let g = 1.0 / r.ohms;
                let (va, vb) = (volt(r.a), volt(r.b));
                let ia = index.node_var(r.a);
                let ib = index.node_var(r.b);
                if let Some(i) = ia {
                    residual[i] += g * (va - vb);
                    jac.stamp(i, i, g);
                    if let Some(j) = ib {
                        jac.stamp(i, j, -g);
                    }
                }
                if let Some(i) = ib {
                    residual[i] += g * (vb - va);
                    jac.stamp(i, i, g);
                    if let Some(j) = ia {
                        jac.stamp(i, j, -g);
                    }
                }
            }
            Element::Capacitor(_) => {
                // Open at DC.
            }
            Element::Isource(src) => {
                let i0 = src.value.dc_value() * source_scale;
                if let Some(i) = index.node_var(src.pos) {
                    residual[i] += i0;
                }
                if let Some(i) = index.node_var(src.neg) {
                    residual[i] -= i0;
                }
            }
            Element::Vsource(src) => {
                let branch = index.branch_var(vsrc_k);
                vsrc_k += 1;
                let i_branch = x[branch];
                if let Some(i) = index.node_var(src.pos) {
                    residual[i] += i_branch;
                    jac.stamp(i, branch, 1.0);
                }
                if let Some(i) = index.node_var(src.neg) {
                    residual[i] -= i_branch;
                    jac.stamp(i, branch, -1.0);
                }
                // Branch equation: v_pos − v_neg − V = 0.
                residual[branch] =
                    volt(src.pos) - volt(src.neg) - src.value.dc_value() * source_scale;
                if let Some(i) = index.node_var(src.pos) {
                    jac.stamp(branch, i, 1.0);
                }
                if let Some(i) = index.node_var(src.neg) {
                    jac.stamp(branch, i, -1.0);
                }
            }
            Element::Mos(m) => {
                let device = &devices[mos_k];
                mos_k += 1;
                let stamp = mos_stamp(
                    device,
                    volt(m.drain),
                    volt(m.gate),
                    volt(m.source),
                    volt(m.bulk),
                );
                let terminals = [
                    (m.drain, stamp.d_dvd),
                    (m.gate, stamp.d_dvg),
                    (m.source, stamp.d_dvs),
                    (m.bulk, stamp.d_dvb),
                ];
                if let Some(i) = index.node_var(m.drain) {
                    residual[i] += stamp.id;
                    for (node, deriv) in terminals {
                        if let Some(j) = index.node_var(node) {
                            jac.stamp(i, j, deriv);
                        }
                    }
                }
                if let Some(i) = index.node_var(m.source) {
                    residual[i] -= stamp.id;
                    for (node, deriv) in terminals {
                        if let Some(j) = index.node_var(node) {
                            jac.stamp(i, j, -deriv);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_mos::Geometry;
    use oasys_netlist::SourceValue;
    use oasys_process::{builtin, Polarity};

    fn process() -> Process {
        builtin::cmos_5um()
    }

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new("div");
        let top = c.node("top");
        let mid = c.node("mid");
        c.add_vsource("V1", top, c.ground(), SourceValue::dc(10.0))
            .unwrap();
        c.add_resistor("R1", top, mid, 3e3).unwrap();
        c.add_resistor("R2", mid, c.ground(), 1e3).unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!((sol.voltage(mid) - 2.5).abs() < 1e-6);
        // Source current: 10 V across 4 kΩ = 2.5 mA flowing out of the
        // source's positive terminal into the circuit, so the branch
        // current (pos→neg through the source) is −2.5 mA.
        assert!((sol.source_current("V1").unwrap() + 2.5e-3).abs() < 1e-8);
        // Power delivered = 25 mW.
        assert!((sol.supply_power(&c) - 25e-3).abs() < 1e-7);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new("ir");
        let n = c.node("n");
        // 1 mA pulled from ground into node n (pos=gnd, neg=n means
        // current flows gnd→n through the source, i.e. into n).
        c.add_isource("I1", c.ground(), n, SourceValue::dc(1e-3))
            .unwrap();
        c.add_resistor("R1", n, c.ground(), 2e3).unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!((sol.voltage(n) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos_bias() {
        // IB from VDD into a diode-connected NMOS: solves VGS such that
        // Id = IB.
        let mut c = Circuit::new("diode");
        let vdd = c.node("vdd");
        let g = c.node("gate");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_isource("IB", vdd, g, SourceValue::dc(20e-6)).unwrap();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(50.0, 5.0).unwrap(),
            g,
            g,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        let sol = solve(&c, &process()).unwrap();
        let vgs = sol.voltage(g);
        // Square law: 20µ = ½·25µ·10·Vov² → Vov ≈ 0.4 → VGS ≈ 1.4.
        assert!((vgs - 1.4).abs() < 0.05, "vgs = {vgs}");
        let op = sol.device_op("M1").unwrap();
        assert!(op.region().is_saturation());
        assert!((op.id() - 20e-6).abs() < 1e-7);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        let mut c = Circuit::new("cs");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VIN", inp, c.ground(), SourceValue::new(1.5, 1.0))
            .unwrap();
        c.add_resistor("RL", vdd, out, 100e3).unwrap();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(10.0, 5.0).unwrap(),
            out,
            inp,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        let sol = solve(&c, &process()).unwrap();
        let vout = sol.voltage(out);
        // Id ≈ ½·25µ·2·0.25 = 6.25µ (before λ), drop ≈ 0.64 V.
        assert!(vout > 3.5 && vout < 4.8, "vout = {vout}");
        let op = sol.device_op("M1").unwrap();
        assert!(op.region().is_saturation());
    }

    /// A CMOS inverter with both gates at mid-supply; node 2 is `out`.
    fn inverter() -> Circuit {
        let mut c = Circuit::new("inv");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(2.5))
            .unwrap();
        c.add_mosfet(
            "MN",
            Polarity::Nmos,
            Geometry::new_um(10.0, 5.0).unwrap(),
            out,
            inp,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        c.add_mosfet(
            "MP",
            Polarity::Pmos,
            Geometry::new_um(25.0, 5.0).unwrap(),
            out,
            inp,
            vdd,
            vdd,
        )
        .unwrap();
        c
    }

    #[test]
    fn cmos_inverter_midpoint() {
        // Both gates at mid-supply with matched strengths: output settles
        // between the rails.
        let c = inverter();
        let sol = solve(&c, &process()).unwrap();
        let vout = sol.voltage(c.find_node("out").unwrap());
        assert!(vout > 0.5 && vout < 4.5, "vout = {vout}");
    }

    #[test]
    fn warm_start_from_a_stalling_guess_returns_the_cold_answer() {
        let c = inverter();
        let cold = solve(&c, &process()).unwrap();
        // 1 kV on every unknown: the 0.5 V step clamp cannot walk back
        // inside the iteration cap, so Newton from the guess stalls and
        // the cold chain answers.
        let mut x = vec![1e3; MnaIndex::new(&c).dim()];
        let warm = solve_warm(&c, &process(), &mut x).unwrap();
        assert_eq!(warm.node_voltages(), cold.node_voltages());
        assert_eq!(warm.iterations(), cold.iterations());
        // `x` now holds the solution: re-solving from it is one step.
        let again = solve_warm(&c, &process(), &mut x).unwrap();
        assert_eq!(again.iterations(), 1);
        assert!((again.node_voltages()[2] - cold.node_voltages()[2]).abs() < 1e-9);
    }

    #[test]
    fn invalid_circuit_reported() {
        let c = Circuit::new("empty");
        let err = solve(&c, &process()).unwrap_err();
        assert!(matches!(err, SolveDcError::Invalid(_)));
    }

    #[test]
    fn floating_gate_regularized_by_gmin() {
        // A capacitively-coupled gate has no DC path; gmin must keep the
        // matrix nonsingular and pull it to ground.
        let mut c = Circuit::new("floatgate");
        let vdd = c.node("vdd");
        let out = c.node("out");
        let gate = c.node("gate");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_capacitor("CG", gate, c.ground(), 1e-12).unwrap();
        c.add_capacitor("CG2", gate, vdd, 1e-12).unwrap();
        c.add_resistor("RL", vdd, out, 100e3).unwrap();
        c.add_mosfet(
            "M1",
            Polarity::Nmos,
            Geometry::new_um(10.0, 5.0).unwrap(),
            out,
            gate,
            c.ground(),
            c.ground(),
        )
        .unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!(sol.voltage(gate).abs() < 1e-3);
        // Gate at 0 → device off → no drop across RL.
        assert!((sol.voltage(out) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn iterations_reported() {
        let mut c = Circuit::new("r");
        let a = c.node("a");
        c.add_vsource("V", a, c.ground(), SourceValue::dc(1.0))
            .unwrap();
        c.add_resistor("R", a, c.ground(), 1e3).unwrap();
        let sol = solve(&c, &process()).unwrap();
        assert!(sol.iterations() >= 1);
    }
}
