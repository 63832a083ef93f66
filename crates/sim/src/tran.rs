//! Transient analysis: fixed-step backward Euler with chord Newton.
//!
//! Adds the time axis the slew-rate measurement needs. Capacitors (both
//! explicit elements and the MOSFET Meyer capacitances, the latter frozen
//! at their `t = 0` operating-point values) become backward-Euler
//! companion models: a conductance `C/h` in parallel with a history
//! current source. Every step solves the full nonlinear system by Newton,
//! warm-started from the previous step, so large-signal behaviour (the
//! slewing of an op amp) is captured exactly as the level-1 model allows.
//!
//! The Newton loop is a chord (Shamanskii) iteration, as in Nagel's
//! SPICE2: the LU factors of the Jacobian are kept across iterations and
//! across timesteps, and an iteration that reuses them assembles only the
//! residual. The Jacobian is re-assembled and refactored at the current
//! point in four cases:
//!
//! * at the first iteration of a run;
//! * when an update from stale factors would need damping
//!   (`max|δ|` above the per-iteration step limit) — that update is
//!   discarded, not applied;
//! * when `max|δ|` exceeds a quarter of the previous iteration's within
//!   the same step (the iteration is contracting too slowly);
//! * at the first iteration of a step after one that needed more than
//!   three updates to converge (the factors have aged).
//!
//! Convergence is unchanged from full Newton: an undamped update whose
//! largest component is below the voltage tolerance. A chord iterate
//! converges linearly, so it stops with a remainder of a fraction of that
//! tolerance where full Newton's is quadratically small; through the
//! slow modes of a compensated amplifier those remainders add up from
//! step to step. The aged-factor refresh bounds that drift — on the slew
//! benches of the synthesized op amps every node stays within 0.1 µV of
//! full Newton, against about 1 µV with the first three triggers alone —
//! and it also cuts the chord iterations a slewing step takes. Away from
//! the transitions the matrix hardly changes, so a run of about 900
//! steps factors tens of times instead of at every iteration.
//!
//! Time-varying stimuli are supplied per source name through [`Stimuli`];
//! sources without an override hold their DC value. Each source's value
//! is resolved once per step, so the Newton loop does no name lookups.

use crate::dc::{self, DcSolution, SolveDcError};
use crate::linalg::{LuWorkspace, Matrix};
use crate::mna::{bound_mosfets, mos_instances, mos_stamp, MnaIndex};
use oasys_mos::Mosfet;
use oasys_netlist::{Circuit, Element, NodeId};
use oasys_process::Process;
use oasys_telemetry::{sym, sym_display, sym_u64, Sym, Telemetry};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Pre-interned symbols for the transient solver's span and counter
/// names.
struct TranSyms {
    span: Sym,
    runs: Sym,
    steps: Sym,
    newton: Sym,
    factorizations: Sym,
    failures: Sym,
    steps_key: Sym,
    newton_key: Sym,
    factorizations_key: Sym,
    rejected_key: Sym,
    error: Sym,
}

fn tran_syms() -> &'static TranSyms {
    static SYMS: std::sync::OnceLock<TranSyms> = std::sync::OnceLock::new();
    SYMS.get_or_init(|| TranSyms {
        span: sym("sim:tran"),
        runs: sym("sim.tran.runs"),
        steps: sym("sim.tran.steps"),
        newton: sym("sim.tran.newton_iterations"),
        factorizations: sym("sim.tran.factorizations"),
        failures: sym("sim.tran.failures"),
        steps_key: sym("steps"),
        newton_key: sym("newton_iterations"),
        factorizations_key: sym("factorizations"),
        rejected_key: sym("rejected_updates"),
        error: sym("error"),
    })
}

/// Error returned by transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveTranError {
    /// The initial operating point failed.
    InitialDc(SolveDcError),
    /// Newton failed to converge at a timestep.
    StepNotConverged {
        /// Simulation time of the failing step, seconds.
        time: f64,
    },
    /// The timestep specification was invalid.
    BadSpec(String),
}

impl fmt::Display for SolveTranError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveTranError::InitialDc(e) => write!(f, "transient initial point: {e}"),
            SolveTranError::StepNotConverged { time } => {
                write!(f, "transient step at t = {time:.3e} s did not converge")
            }
            SolveTranError::BadSpec(detail) => write!(f, "bad transient spec: {detail}"),
        }
    }
}

impl Error for SolveTranError {}

impl From<SolveDcError> for SolveTranError {
    fn from(e: SolveDcError) -> Self {
        SolveTranError::InitialDc(e)
    }
}

/// Timestep specification for a transient run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TranSpec {
    /// Total simulated time, seconds.
    pub t_stop: f64,
    /// Fixed timestep, seconds.
    pub dt: f64,
}

impl TranSpec {
    /// Creates a spec, validating the time parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SolveTranError::BadSpec`] for non-positive times or runs
    /// longer than 10 million steps.
    pub fn new(t_stop: f64, dt: f64) -> Result<Self, SolveTranError> {
        if !(t_stop > 0.0 && dt > 0.0 && t_stop.is_finite() && dt.is_finite()) {
            return Err(SolveTranError::BadSpec(format!(
                "need positive finite times, got t_stop = {t_stop}, dt = {dt}"
            )));
        }
        if t_stop / dt > 1e7 {
            return Err(SolveTranError::BadSpec(format!(
                "{:.0} steps is beyond the fixed-step engine's budget",
                t_stop / dt
            )));
        }
        Ok(Self { t_stop, dt })
    }
}

/// Per-source time-varying stimuli.
///
/// # Examples
///
/// ```
/// use oasys_sim::tran::Stimuli;
/// let mut stimuli = Stimuli::new();
/// stimuli.step("VIN", 0.0, 1.0, 1e-6);
/// assert_eq!(stimuli.value_at("VIN", 0.5e-6), Some(0.0));
/// assert_eq!(stimuli.value_at("VIN", 2e-6), Some(1.0));
/// assert_eq!(stimuli.value_at("VOTHER", 0.0), None);
/// ```
#[derive(Default)]
pub struct Stimuli {
    overrides: HashMap<String, Box<dyn Fn(f64) -> f64 + Send + Sync>>,
}

impl Stimuli {
    /// No overrides: every source holds its DC value.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides a source with an arbitrary waveform.
    pub fn waveform(
        &mut self,
        source: impl Into<String>,
        f: impl Fn(f64) -> f64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.overrides.insert(source.into(), Box::new(f));
        self
    }

    /// Overrides a source with an ideal step from `v0` to `v1` at
    /// `t_step`.
    pub fn step(&mut self, source: impl Into<String>, v0: f64, v1: f64, t_step: f64) -> &mut Self {
        self.waveform(source, move |t| if t < t_step { v0 } else { v1 })
    }

    /// The override value for `source` at time `t`, if one exists.
    #[must_use]
    pub fn value_at(&self, source: &str, t: f64) -> Option<f64> {
        self.overrides.get(source).map(|f| f(t))
    }
}

/// The result of a transient run.
#[derive(Clone, Debug)]
pub struct TranSolution {
    times: Vec<f64>,
    /// `voltages[k][node_index]`.
    voltages: Vec<Vec<f64>>,
}

impl TranSolution {
    /// The time axis, seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The waveform of one node across the run.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit.
    #[must_use]
    pub fn waveform(&self, node: NodeId) -> Vec<f64> {
        self.voltages.iter().map(|v| v[node.index()]).collect()
    }

    /// Number of stored time points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the run produced no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Maximum `|dv/dt|` of a node's waveform, V/s — the raw slew
    /// measurement.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit.
    #[must_use]
    pub fn max_slope(&self, node: NodeId) -> f64 {
        let w = self.waveform(node);
        w.windows(2)
            .zip(self.times.windows(2))
            .map(|(v, t)| ((v[1] - v[0]) / (t[1] - t[0])).abs())
            .fold(0.0, f64::max)
    }

    /// 10%–90% average slope of a transition from `v_from` to `v_to`
    /// observed on `node`, V/s — the datasheet slew-rate definition.
    /// Returns `None` if the waveform never crosses both thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit.
    #[must_use]
    pub fn slew_10_90(&self, node: NodeId, v_from: f64, v_to: f64) -> Option<f64> {
        self.slew_between(node, v_from, v_to, 0.1, 0.9)
    }

    /// Average slope between two fractional crossings of a transition —
    /// e.g. 15% to 65%, the window that stays inside the slew-limited
    /// portion of an op-amp step response (the 10–90 window includes the
    /// final linear settling and understates the slew rate).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the analyzed circuit or the fractions
    /// are not ordered in `(0, 1)`.
    #[must_use]
    pub fn slew_between(
        &self,
        node: NodeId,
        v_from: f64,
        v_to: f64,
        frac_a: f64,
        frac_b: f64,
    ) -> Option<f64> {
        assert!(0.0 < frac_a && frac_a < frac_b && frac_b < 1.0);
        let w = self.waveform(node);
        let v10 = v_from + frac_a * (v_to - v_from);
        let v90 = v_from + frac_b * (v_to - v_from);
        let rising = v_to > v_from;
        let crossed = |v: f64, threshold: f64| {
            if rising {
                v >= threshold
            } else {
                v <= threshold
            }
        };
        let t10 = self
            .times
            .iter()
            .zip(&w)
            .find(|&(_, &v)| crossed(v, v10))
            .map(|(&t, _)| t)?;
        let t90 = self
            .times
            .iter()
            .zip(&w)
            .find(|&(_, &v)| crossed(v, v90))
            .map(|(&t, _)| t)?;
        if t90 <= t10 {
            return None;
        }
        Some((v90 - v10).abs() / (t90 - t10))
    }
}

const MAX_NEWTON: usize = 100;
const GMIN: f64 = 1e-12;
const VTOL: f64 = 1e-7;
const MAX_STEP_V: f64 = 1.0;
/// A step that needs more updates than this to converge leaves the
/// factors it used aged; the next step refactors at its first iteration.
const AGED_AFTER_UPDATES: usize = 3;

/// Runs a transient analysis.
///
/// The initial condition is the DC operating point with every stimulus
/// evaluated at `t = 0`. Device capacitances are frozen at that operating
/// point (a documented approximation — the explicit load and compensation
/// capacitors dominate slewing behaviour).
///
/// # Errors
///
/// Returns [`SolveTranError`] if the initial DC point fails or any step's
/// Newton iteration does not converge.
pub fn solve(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
) -> Result<TranSolution, SolveTranError> {
    solve_with(circuit, process, spec, stimuli, &Telemetry::disabled())
}

/// [`solve`] with run telemetry recorded into `tel`: a `sim:tran` span
/// plus the `sim.tran.runs` / `sim.tran.steps` /
/// `sim.tran.newton_iterations` / `sim.tran.factorizations` /
/// `sim.tran.failures` counters. The span carries the same step,
/// iteration and factorization counts as annotations, plus
/// `rejected_updates`: the stale-factor updates discarded for a refactor.
///
/// # Errors
///
/// Same failure modes as [`solve`].
pub fn solve_with(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
    tel: &Telemetry,
) -> Result<TranSolution, SolveTranError> {
    let s = tran_syms();
    let span = tel.span_sym(s.span);
    tel.incr_sym(s.runs);
    let mut work = NewtonWork::default();
    let result = solve_inner(circuit, process, spec, stimuli, &mut work);
    if tel.is_enabled() {
        tel.add_sym(s.newton, work.iterations);
        tel.add_sym(s.factorizations, work.factorizations);
        span.annotate_sym(s.newton_key, sym_u64(work.iterations));
        span.annotate_sym(s.factorizations_key, sym_u64(work.factorizations));
        span.annotate_sym(s.rejected_key, sym_u64(work.rejected));
        match &result {
            Ok(solution) => {
                tel.add_sym(s.steps, solution.times().len() as u64);
                span.annotate_sym(s.steps_key, sym_u64(solution.times().len() as u64));
            }
            Err(e) => {
                tel.incr_sym(s.failures);
                span.annotate_sym(s.error, sym_display("", e));
            }
        }
    }
    result
}

/// The Newton work of one run: every assembled-and-solved iteration
/// (discarded ones included), every Jacobian factorization, and the
/// stale-factor updates discarded.
#[derive(Debug, Default)]
struct NewtonWork {
    iterations: u64,
    factorizations: u64,
    /// Updates from stale factors that were discarded for a refactor.
    rejected: u64,
}

/// What drives one source during a run.
enum Drive<'s> {
    /// No stimulus: the source holds its DC value.
    Dc(f64),
    /// A stimulus waveform overrides the source.
    Waveform(&'s (dyn Fn(f64) -> f64 + Send + Sync)),
}

impl Drive<'_> {
    fn at(&self, t: f64) -> f64 {
        match self {
            Drive::Dc(value) => *value,
            Drive::Waveform(f) => f(t),
        }
    }
}

/// Every source's drive, looked up by name once per run, and its value
/// at the current step, resolved once per step. Both lists run in
/// element order of their source kind, which is the order
/// [`assemble_tran`] meets the sources in.
struct SourceValues<'s> {
    vsource_drives: Vec<Drive<'s>>,
    isource_drives: Vec<Drive<'s>>,
    vsources: Vec<f64>,
    isources: Vec<f64>,
}

impl<'s> SourceValues<'s> {
    fn new(circuit: &Circuit, stimuli: &'s Stimuli) -> Self {
        let drive = |name: &str, dc: f64| match stimuli.overrides.get(name) {
            Some(f) => Drive::Waveform(f.as_ref()),
            None => Drive::Dc(dc),
        };
        let vsource_drives: Vec<Drive<'s>> = circuit
            .vsources()
            .map(|v| drive(&v.name, v.value.dc_value()))
            .collect();
        let isource_drives: Vec<Drive<'s>> = circuit
            .isources()
            .map(|i| drive(&i.name, i.value.dc_value()))
            .collect();
        Self {
            vsources: vec![0.0; vsource_drives.len()],
            isources: vec![0.0; isource_drives.len()],
            vsource_drives,
            isource_drives,
        }
    }

    /// Resolves every source's value at time `t`.
    fn resolve(&mut self, t: f64) {
        for (value, drive) in self.vsources.iter_mut().zip(&self.vsource_drives) {
            *value = drive.at(t);
        }
        for (value, drive) in self.isources.iter_mut().zip(&self.isource_drives) {
            *value = drive.at(t);
        }
    }
}

fn solve_inner(
    circuit: &Circuit,
    process: &Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
    work: &mut NewtonWork,
) -> Result<TranSolution, SolveTranError> {
    // Initial condition at t = 0 with the stimuli applied.
    let mut init = circuit.clone();
    for v in circuit.vsources() {
        if let Some(value) = stimuli.value_at(&v.name, 0.0) {
            init.set_source_dc(&v.name, value)
                .map_err(|e| SolveTranError::BadSpec(e.to_string()))?;
        }
    }
    for i in circuit.isources() {
        if let Some(value) = stimuli.value_at(&i.name, 0.0) {
            init.set_source_dc(&i.name, value)
                .map_err(|e| SolveTranError::BadSpec(e.to_string()))?;
        }
    }
    // The initial point's unknown vector seeds the first step.
    let mut x = Vec::new();
    let dc0 = dc::solve_warm(&init, process, &mut x)?;

    // Bind every MOSFET once for the whole run.
    let devices: Vec<Mosfet> = bound_mosfets(circuit, process).map(|(_, d)| d).collect();

    // Collect all capacitances as (node_a, node_b, farads): explicit
    // capacitors plus frozen device capacitances.
    let caps = collect_capacitances(circuit, &devices, &dc0);

    let index = MnaIndex::new(circuit);
    let dim = index.dim();
    let mut sources = SourceValues::new(circuit, stimuli);

    let steps = (spec.t_stop / spec.dt).ceil() as usize;
    let mut times = Vec::with_capacity(steps + 1);
    let mut voltages = Vec::with_capacity(steps + 1);
    let push_state = |times: &mut Vec<f64>, voltages: &mut Vec<Vec<f64>>, t: f64, x: &[f64]| {
        let mut v = vec![0.0; circuit.node_count()];
        v[1..circuit.node_count()].copy_from_slice(&x[..circuit.node_count() - 1]);
        times.push(t);
        voltages.push(v);
    };
    push_state(&mut times, &mut voltages, 0.0, &x);

    // The Jacobian buffer holds its LU factors between refactorizations;
    // `factored` says whether those factors may be reused.
    let mut jac: Matrix<f64> = Matrix::zeros(dim);
    let mut factored = false;
    let mut residual = vec![0.0; dim];
    let mut lu = LuWorkspace::new(dim);
    let mut x_prev = x.clone();

    for step in 1..=steps {
        let t = step as f64 * spec.dt;
        sources.resolve(t);
        // Chord Newton at this timestep, warm-started from the previous
        // one. Discarded updates do not count against the budget; each is
        // followed by a fresh factorization, whose update is applied.
        let mut converged = false;
        let mut applied = 0;
        let mut last_delta = f64::INFINITY;
        while applied < MAX_NEWTON {
            work.iterations += 1;
            let refactor = !factored;
            residual.fill(0.0);
            if refactor {
                jac.clear();
            }
            assemble_tran(
                circuit,
                &devices,
                &index,
                &sources,
                spec.dt,
                &caps,
                &x,
                &x_prev,
                refactor.then_some(&mut jac),
                &mut residual,
            );
            for r in &mut residual {
                *r = -*r;
            }
            if refactor {
                if jac.factor_in_place(&mut lu).is_err() {
                    return Err(SolveTranError::StepNotConverged { time: t });
                }
                work.factorizations += 1;
                factored = true;
            }
            let delta = jac.solve_factored(&residual, &mut lu);
            let max_delta = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            if !refactor && max_delta > MAX_STEP_V {
                // Stale factors asked for a damped step: refactor here.
                factored = false;
                work.rejected += 1;
                continue;
            }
            applied += 1;
            let damp = if max_delta > MAX_STEP_V {
                MAX_STEP_V / max_delta
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(delta) {
                *xi += damp * di;
            }
            if damp == 1.0 && max_delta < VTOL {
                converged = true;
                if applied > AGED_AFTER_UPDATES {
                    // Slow convergence means aged factors: refresh them
                    // at the next step's first iteration.
                    factored = false;
                }
                break;
            }
            if max_delta > 0.25 * last_delta {
                // Contracting too slowly: refactor at the new point.
                factored = false;
            }
            last_delta = max_delta;
        }
        if !converged {
            return Err(SolveTranError::StepNotConverged { time: t });
        }
        push_state(&mut times, &mut voltages, t, &x);
        x_prev.clone_from(&x);
    }

    Ok(TranSolution { times, voltages })
}

/// Gathers explicit and (frozen) device capacitances; `devices` are the
/// circuit's MOSFETs bound in element order.
fn collect_capacitances(
    circuit: &Circuit,
    devices: &[Mosfet],
    dc0: &DcSolution,
) -> Vec<(NodeId, NodeId, f64)> {
    let mut caps = Vec::new();
    for element in circuit.elements() {
        if let Element::Capacitor(c) = element {
            caps.push((c.a, c.b, c.farads));
        }
    }
    let volt = |n: NodeId| dc0.voltage(n);
    for (inst, device) in mos_instances(circuit).zip(devices) {
        let op = device.operating_point(
            volt(inst.gate) - volt(inst.source),
            volt(inst.drain) - volt(inst.source),
            volt(inst.source) - volt(inst.bulk),
        );
        let c = device.capacitances(&op);
        for (a, b, farads) in [
            (inst.gate, inst.source, c.cgs().farads()),
            (inst.gate, inst.drain, c.cgd().farads()),
            (inst.gate, inst.bulk, c.cgb().farads()),
            (inst.drain, inst.bulk, c.cdb().farads()),
            (inst.source, inst.bulk, c.csb().farads()),
        ] {
            if farads > 0.0 {
                caps.push((a, b, farads));
            }
        }
    }
    caps
}

/// Adds `value` to the Jacobian entry `(row, col)` when the Jacobian is
/// being assembled; a residual-only assembly passes `None`.
fn stamp(jac: &mut Option<&mut Matrix<f64>>, row: usize, col: usize, value: f64) {
    if let Some(jac) = jac {
        jac.stamp(row, col, value);
    }
}

/// Assembles the backward-Euler residual at the step whose source values
/// `sources` holds, plus the Jacobian when `jac` is given; `devices` are
/// the circuit's MOSFETs bound in element order.
#[allow(clippy::too_many_arguments)]
fn assemble_tran(
    circuit: &Circuit,
    devices: &[Mosfet],
    index: &MnaIndex,
    sources: &SourceValues<'_>,
    dt: f64,
    caps: &[(NodeId, NodeId, f64)],
    x: &[f64],
    x_prev: &[f64],
    mut jac: Option<&mut Matrix<f64>>,
    residual: &mut [f64],
) {
    let volt = |x: &[f64], node: NodeId| index.node_var(node).map_or(0.0, |i| x[i]);
    let jac = &mut jac;

    for node_idx in 0..circuit.node_count() - 1 {
        stamp(jac, node_idx, node_idx, GMIN);
        residual[node_idx] += GMIN * x[node_idx];
    }

    // Capacitor companions: i = C/h·(v − v_prev).
    for &(a, b, farads) in caps {
        let g = farads / dt;
        let v_now = volt(x, a) - volt(x, b);
        let v_old = volt(x_prev, a) - volt(x_prev, b);
        let i_cap = g * (v_now - v_old);
        if let Some(i) = index.node_var(a) {
            residual[i] += i_cap;
            stamp(jac, i, i, g);
            if let Some(j) = index.node_var(b) {
                stamp(jac, i, j, -g);
            }
        }
        if let Some(i) = index.node_var(b) {
            residual[i] -= i_cap;
            stamp(jac, i, i, g);
            if let Some(j) = index.node_var(a) {
                stamp(jac, i, j, -g);
            }
        }
    }

    let mut vsrc_k = 0usize;
    let mut isrc_k = 0usize;
    let mut mos_k = 0usize;
    for element in circuit.elements() {
        match element {
            Element::Resistor(r) => {
                let g = 1.0 / r.ohms;
                let (va, vb) = (volt(x, r.a), volt(x, r.b));
                if let Some(i) = index.node_var(r.a) {
                    residual[i] += g * (va - vb);
                    stamp(jac, i, i, g);
                    if let Some(j) = index.node_var(r.b) {
                        stamp(jac, i, j, -g);
                    }
                }
                if let Some(i) = index.node_var(r.b) {
                    residual[i] += g * (vb - va);
                    stamp(jac, i, i, g);
                    if let Some(j) = index.node_var(r.a) {
                        stamp(jac, i, j, -g);
                    }
                }
            }
            Element::Capacitor(_) => { /* handled via companions */ }
            Element::Isource(src) => {
                let i0 = sources.isources[isrc_k];
                isrc_k += 1;
                if let Some(i) = index.node_var(src.pos) {
                    residual[i] += i0;
                }
                if let Some(i) = index.node_var(src.neg) {
                    residual[i] -= i0;
                }
            }
            Element::Vsource(src) => {
                let branch = index.branch_var(vsrc_k);
                let v0 = sources.vsources[vsrc_k];
                vsrc_k += 1;
                let i_branch = x[branch];
                if let Some(i) = index.node_var(src.pos) {
                    residual[i] += i_branch;
                    stamp(jac, i, branch, 1.0);
                }
                if let Some(i) = index.node_var(src.neg) {
                    residual[i] -= i_branch;
                    stamp(jac, i, branch, -1.0);
                }
                residual[branch] = volt(x, src.pos) - volt(x, src.neg) - v0;
                if let Some(i) = index.node_var(src.pos) {
                    stamp(jac, branch, i, 1.0);
                }
                if let Some(i) = index.node_var(src.neg) {
                    stamp(jac, branch, i, -1.0);
                }
            }
            Element::Mos(m) => {
                let device = &devices[mos_k];
                mos_k += 1;
                let eval = mos_stamp(
                    device,
                    volt(x, m.drain),
                    volt(x, m.gate),
                    volt(x, m.source),
                    volt(x, m.bulk),
                );
                let terminals = [
                    (m.drain, eval.d_dvd),
                    (m.gate, eval.d_dvg),
                    (m.source, eval.d_dvs),
                    (m.bulk, eval.d_dvb),
                ];
                if let Some(i) = index.node_var(m.drain) {
                    residual[i] += eval.id;
                    for (node, deriv) in terminals {
                        if let Some(j) = index.node_var(node) {
                            stamp(jac, i, j, deriv);
                        }
                    }
                }
                if let Some(i) = index.node_var(m.source) {
                    residual[i] -= eval.id;
                    for (node, deriv) in terminals {
                        if let Some(j) = index.node_var(node) {
                            stamp(jac, i, j, -deriv);
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
    use oasys_netlist::SourceValue;
    use oasys_process::builtin;

    #[test]
    fn rc_charging_curve() {
        // R = 1 kΩ, C = 1 nF: τ = 1 µs. Step 0 → 1 V.
        let mut c = Circuit::new("rc");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(0.0))
            .unwrap();
        c.add_resistor("R", inp, out, 1e3).unwrap();
        c.add_capacitor("C", out, c.ground(), 1e-9).unwrap();

        let mut stimuli = Stimuli::new();
        stimuli.step("VIN", 0.0, 1.0, 1e-9);
        let spec = TranSpec::new(5e-6, 5e-9).unwrap();
        let process = builtin::cmos_5um();
        let sol = solve(&c, &process, &spec, &stimuli).unwrap();

        let w = sol.waveform(out);
        // Starts discharged, ends charged.
        assert!(w[0].abs() < 1e-6);
        assert!((w.last().unwrap() - 1.0).abs() < 1e-2);
        // Value at t ≈ τ is 1 − 1/e (backward Euler is first-order, allow
        // a few percent).
        let k_tau = sol.times().iter().position(|&t| t >= 1e-6).unwrap();
        assert!(
            (w[k_tau] - 0.632).abs() < 0.03,
            "v(τ) = {} expected ≈ 0.632",
            w[k_tau]
        );
    }

    #[test]
    fn slope_measurements() {
        // Current source into a capacitor: perfect ramp at I/C = 1 V/µs.
        let mut c = Circuit::new("ramp");
        let out = c.node("out");
        c.add_isource("ISTEP", c.ground(), out, SourceValue::dc(0.0))
            .unwrap();
        c.add_capacitor("C", out, c.ground(), 1e-12).unwrap();
        // Bleeder to keep the DC point defined.
        c.add_resistor("RB", out, c.ground(), 1e9).unwrap();

        let mut stimuli = Stimuli::new();
        stimuli.step("ISTEP", 0.0, 1e-6, 1e-9); // 1 µA into 1 pF
        let spec = TranSpec::new(5e-6, 1e-8).unwrap();
        let sol = solve(&c, &builtin::cmos_5um(), &spec, &stimuli).unwrap();
        let slope = sol.max_slope(out);
        assert!(
            (slope / 1e6 - 1.0).abs() < 0.05,
            "ramp slope {slope:.3e} ≈ 1 V/µs"
        );
        // And the 10–90 measurement over the 0 → 4.x V ramp portion.
        let final_v = *sol.waveform(out).last().unwrap();
        assert!(final_v > 3.0);
        let sr = sol.slew_10_90(out, 0.0, 4.0).unwrap();
        assert!((sr / 1e6 - 1.0).abs() < 0.1, "10-90 slew {sr:.3e}");
    }

    /// A CMOS inverter driving 1 pF, its input stepped 0 → 5 V at
    /// 100 ns, simulated for 2 µs at 2 ns per step.
    fn inverter_bench() -> (Circuit, NodeId, Stimuli, TranSpec) {
        use oasys_mos::Geometry;
        use oasys_process::Polarity;
        let mut c = Circuit::new("inv");
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("VDD", vdd, c.ground(), SourceValue::dc(5.0))
            .unwrap();
        c.add_vsource("VIN", inp, c.ground(), SourceValue::dc(0.0))
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
        c.add_capacitor("CL", out, c.ground(), 1e-12).unwrap();

        let mut stimuli = Stimuli::new();
        stimuli.step("VIN", 0.0, 5.0, 1e-7);
        let spec = TranSpec::new(2e-6, 2e-9).unwrap();
        (c, out, stimuli, spec)
    }

    #[test]
    fn mosfet_inverter_switches() {
        let (c, out, stimuli, spec) = inverter_bench();
        let sol = solve(&c, &builtin::cmos_5um(), &spec, &stimuli).unwrap();
        let w = sol.waveform(out);
        assert!(w[0] > 4.5, "output starts high: {}", w[0]);
        assert!(*w.last().unwrap() < 0.5, "output ends low");
    }

    /// The Newton loop the chord iteration replaced: the Jacobian
    /// re-assembled and factored at every iteration of every step.
    fn full_newton(
        circuit: &Circuit,
        process: &Process,
        spec: &TranSpec,
        stimuli: &Stimuli,
    ) -> Vec<Vec<f64>> {
        let mut init = circuit.clone();
        for name in circuit
            .vsources()
            .map(|v| &v.name)
            .chain(circuit.isources().map(|i| &i.name))
        {
            if let Some(value) = stimuli.value_at(name, 0.0) {
                init.set_source_dc(name, value).unwrap();
            }
        }
        let mut x = Vec::new();
        let dc0 = dc::solve_warm(&init, process, &mut x).unwrap();
        let devices: Vec<Mosfet> = bound_mosfets(circuit, process).map(|(_, d)| d).collect();
        let caps = collect_capacitances(circuit, &devices, &dc0);
        let index = MnaIndex::new(circuit);
        let mut sources = SourceValues::new(circuit, stimuli);
        let mut jac: Matrix<f64> = Matrix::zeros(index.dim());
        let mut residual = vec![0.0; index.dim()];
        let mut states = vec![x.clone()];
        let steps = (spec.t_stop / spec.dt).ceil() as usize;
        for step in 1..=steps {
            sources.resolve(step as f64 * spec.dt);
            let x_prev = x.clone();
            let mut converged = false;
            for _ in 0..MAX_NEWTON {
                jac.clear();
                residual.fill(0.0);
                assemble_tran(
                    circuit,
                    &devices,
                    &index,
                    &sources,
                    spec.dt,
                    &caps,
                    &x,
                    &x_prev,
                    Some(&mut jac),
                    &mut residual,
                );
                let minus_f: Vec<f64> = residual.iter().map(|r| -r).collect();
                let delta = jac.solve(&minus_f).unwrap();
                let max_delta = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
                let damp = (MAX_STEP_V / max_delta).min(1.0);
                for (xi, di) in x.iter_mut().zip(&delta) {
                    *xi += damp * di;
                }
                if damp == 1.0 && max_delta < VTOL {
                    converged = true;
                    break;
                }
            }
            assert!(converged, "full Newton converges at step {step}");
            states.push(x.clone());
        }
        states
    }

    /// A 5 V input edge lands on factors from the flat input: the stale
    /// update is far beyond the step limit, is discarded, and the step
    /// refactors — and the run still matches full Newton at every stored
    /// point, in a small fraction of its factorizations.
    #[test]
    fn stale_update_at_an_edge_is_rejected_and_matches_full_newton() {
        let (c, out, stimuli, spec) = inverter_bench();
        let process = builtin::cmos_5um();
        let mut work = NewtonWork::default();
        let chord = solve_inner(&c, &process, &spec, &stimuli, &mut work).unwrap();
        assert!(work.rejected >= 1, "the input edge rejects a stale update");
        let steps = chord.len() as u64 - 1;
        assert!(
            work.factorizations * 10 <= steps,
            "{} factorizations over {steps} steps",
            work.factorizations
        );

        let reference = full_newton(&c, &process, &spec, &stimuli);
        assert_eq!(reference.len(), chord.len());
        let node_count = c.node_count();
        for (k, (x_ref, v)) in reference.iter().zip(&chord.voltages).enumerate() {
            for node in 1..node_count {
                let (a, b) = (v[node], x_ref[node - 1]);
                assert!(
                    (a - b).abs() <= 1e-6,
                    "sample {k}, node {node}: chord {a} vs full Newton {b}"
                );
            }
        }
        let w = chord.waveform(out);
        assert!(
            w[0] > 4.5 && *w.last().unwrap() < 0.5,
            "the inverter switches"
        );
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(TranSpec::new(-1.0, 1e-9).is_err());
        assert!(TranSpec::new(1.0, 0.0).is_err());
        assert!(TranSpec::new(1.0, 1e-9).is_err(), "too many steps");
    }

    #[test]
    fn constant_circuit_stays_at_dc() {
        let mut c = Circuit::new("hold");
        let a = c.node("a");
        c.add_vsource("V", a, c.ground(), SourceValue::dc(2.0))
            .unwrap();
        c.add_resistor("R", a, c.ground(), 1e3).unwrap();
        let spec = TranSpec::new(1e-6, 1e-8).unwrap();
        let sol = solve(&c, &builtin::cmos_5um(), &spec, &Stimuli::new()).unwrap();
        for v in sol.waveform(a) {
            assert!((v - 2.0).abs() < 1e-9);
        }
    }
}
