//! Cross-crate checks of the simulator against hand-calculable circuits
//! built from the block designers — the "does sizing meet simulation"
//! property the paper validates with SPICE — and differential checks of
//! the warm-started sweeps against cold, solve-every-point-from-zero
//! references, and of the chord-Newton transient against a full-Newton
//! reference, on synthesized op amps.

use oasys_blocks::diffpair::{DiffPair, DiffPairSpec};
use oasys_blocks::mirror::{CurrentMirror, MirrorSpec, MirrorStyle};
use oasys_netlist::NodeId;
use oasys_netlist::{Circuit, Element, SourceValue};
use oasys_process::{builtin, Polarity};
use oasys_sim::ac::AcSweepSpec;
use oasys_sim::linalg::Matrix;
use oasys_sim::metrics::{AcMetrics, Bode};
use oasys_sim::mismatch::{self, Mismatch};
use oasys_sim::mna::{bound_mosfets, mos_stamp, MnaIndex};
use oasys_sim::tran::{self, Stimuli, TranSpec};
use oasys_sim::{ac, dc, sweep};

/// A designed diff pair with ideal tail and resistor loads measures the
/// transconductance it was designed for.
#[test]
fn designed_diffpair_gm_measures_back() {
    let process = builtin::cmos_5um();
    let spec = DiffPairSpec::new(Polarity::Nmos, 100e-6, 20e-6);
    let pair = DiffPair::design(&spec, &process).unwrap();

    let mut c = Circuit::new("gm check");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let outp = c.node("outp");
    let outn = c.node("outn");
    let tail = c.node("tail");
    let gnd = c.ground();
    c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
        .unwrap();
    c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
        .unwrap();
    c.add_vsource("VIP", inp, gnd, SourceValue::new(0.0, 1.0))
        .unwrap();
    c.add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
        .unwrap();
    // Ideal tail.
    c.add_isource("ITAIL", tail, vss, SourceValue::dc(20e-6))
        .unwrap();
    // Resistor loads small enough that gm·RL is measurable but the pair
    // stays saturated.
    let rl = 20e3;
    c.add_resistor("RLP", vdd, outp, rl).unwrap();
    c.add_resistor("RLN", vdd, outn, rl).unwrap();
    pair.emit(&mut c, "DP_", inp, inn, outp, outn, tail, vss)
        .unwrap();

    let solution = dc::solve(&c, &process).unwrap();
    // Balanced: both sides carry half the tail current.
    let op1 = solution.device_op("DP_M1").unwrap();
    assert!((op1.id() - 10e-6).abs() / 10e-6 < 0.05, "id = {}", op1.id());

    // Differential gain at low frequency ≈ gm·RL/… per side: the single-
    // ended gain at outn is gm/2·RL… measure |v(outn)| with 1 V at inp.
    let sweep = AcSweepSpec::new(10.0, 1e3, 2).unwrap();
    let acs = ac::solve(&c, &process, &sweep).unwrap();
    let gain = acs.transfer(outn)[0].abs();
    let expected = pair.gm() / 2.0 * rl;
    assert!(
        (gain / expected - 1.0).abs() < 0.1,
        "measured {gain}, expected {expected}"
    );
}

/// A cascode mirror measured in simulation presents (at least) orders of
/// magnitude more output resistance than a simple one.
#[test]
fn mirror_rout_ordering_in_simulation() {
    let process = builtin::cmos_5um();
    let rout_of = |style: MirrorStyle| -> f64 {
        let spec = MirrorSpec::new(Polarity::Nmos, 20e-6)
            .with_headroom(2.5)
            .with_only_style(style);
        let m = CurrentMirror::design(&spec, &process).unwrap();
        let mut c = Circuit::new("rout");
        let vdd = c.node("vdd");
        let input = c.node("in");
        let output = c.node("out");
        let gnd = c.ground();
        c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
            .unwrap();
        c.add_isource("IIN", vdd, input, SourceValue::dc(20e-6))
            .unwrap();
        // AC probe current into the output at a fixed DC voltage.
        c.add_vsource("VOUT", output, gnd, SourceValue::new(3.0, 1.0))
            .unwrap();
        m.emit(&mut c, "M_", input, output, gnd, None).unwrap();
        let sweep = AcSweepSpec::new(1.0, 10.0, 1).unwrap();
        let dc_sol = dc::solve(&c, &process).unwrap();
        let acs = ac::solve_at(&c, &process, &dc_sol, &sweep).unwrap();
        // r_out = v/i with the 1 V AC stimulus: branch current of VOUT.
        // The AC solution exposes node voltages only, so instead drive
        // with the voltage source and infer current from a series sense
        // resistor — simpler: measure with a Norton equivalent below.
        drop(acs);
        // DC-based measurement: ΔV/ΔI around the bias point.
        let mut c2 = c.clone();
        c2.set_source_dc("VOUT", 3.1).unwrap();
        let sol2 = dc::solve(&c2, &process).unwrap();
        // Raising VOUT makes the NMOS mirror sink more current, which the
        // source supplies (its pos→neg branch current goes more negative),
        // so the device current change is −Δi_branch.
        let i1 = dc_sol.source_current("VOUT").unwrap();
        let i2 = sol2.source_current("VOUT").unwrap();
        0.1 / (i1 - i2)
    };
    let r_simple = rout_of(MirrorStyle::Simple);
    let r_cascode = rout_of(MirrorStyle::Cascode);
    assert!(r_simple > 1e5, "simple rout {r_simple}");
    assert!(
        r_cascode > 30.0 * r_simple,
        "cascode {r_cascode} vs simple {r_simple}"
    );
}

/// The square-law device model and the AC engine agree on a textbook
/// five-transistor OTA built directly from blocks: measured DC gain
/// matches gm1/(gds2+gds4) within modeling tolerance.
#[test]
fn hand_built_ota_gain_matches_hand_analysis() {
    let process = builtin::cmos_5um();
    let i_tail = 20e-6;
    let gm = 100e-6;
    let pair = DiffPair::design(
        &DiffPairSpec::new(Polarity::Nmos, gm, i_tail).with_length_um(10.0),
        &process,
    )
    .unwrap();
    let load = CurrentMirror::design(
        &MirrorSpec::new(Polarity::Pmos, i_tail / 2.0)
            .with_headroom(2.0)
            .with_only_style(MirrorStyle::Simple),
        &process,
    )
    .unwrap();

    let mut c = Circuit::new("5T OTA");
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let inp = c.node("inp");
    let inn = c.node("inn");
    let out = c.node("out");
    let d1 = c.node("d1");
    let tail = c.node("tail");
    let gnd = c.ground();
    c.add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
        .unwrap();
    c.add_vsource("VSS", vss, gnd, SourceValue::dc(-5.0))
        .unwrap();
    c.add_vsource("VIP", inp, gnd, SourceValue::new(0.0, 1.0))
        .unwrap();
    c.add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
        .unwrap();
    c.add_isource("ITAIL", tail, vss, SourceValue::dc(i_tail))
        .unwrap();
    c.add_capacitor("CL", out, gnd, 5e-12).unwrap();
    pair.emit(&mut c, "DP_", inp, inn, out, d1, tail, vss)
        .unwrap();
    load.emit(&mut c, "LD_", d1, out, vdd, None).unwrap();

    // Null the offset first so the output is mid-range.
    let offset = oasys_sim::sweep::bisect_input(&c, &process, "VIP", out, 0.0, -0.5, 0.5).unwrap();
    c.set_source_dc("VIP", offset).unwrap();

    let sweep = AcSweepSpec::new(1.0, 1e8, 10).unwrap();
    let acs = ac::solve(&c, &process, &sweep).unwrap();
    let bode = Bode::from_ac(&acs, out);
    let metrics = AcMetrics::extract(&bode);

    // Hand analysis at the actual bias point.
    let dc_sol = {
        let mut c2 = c.clone();
        c2.set_source_dc("VIP", offset).unwrap();
        dc::solve(&c2, &process).unwrap()
    };
    let op2 = dc_sol.device_op("DP_M2").unwrap();
    let op4 = dc_sol.device_op("LD_MOUT").unwrap();
    let expected = op2.gm() / (op2.gds() + op4.gds());
    let expected_db = 20.0 * expected.log10();
    assert!(
        (metrics.dc_gain.db() - expected_db).abs() < 1.5,
        "measured {:.1} dB, hand analysis {expected_db:.1} dB",
        metrics.dc_gain.db()
    );

    // And the unity-gain frequency tracks gm/2πC within parasitics.
    let fu = metrics.unity_gain_freq.unwrap().hertz();
    let fu_expected = op2.gm() / (2.0 * std::f64::consts::PI * 5e-12);
    assert!(
        (fu / fu_expected - 1.0).abs() < 0.3,
        "fu {fu:.3e} vs gm/2πC {fu_expected:.3e}"
    );
}

// ---------------------------------------------------------------------------
// Warm-started sweeps vs. the cold reference path
// ---------------------------------------------------------------------------

/// One synthesized op amp to verify: a Table-1 pair or a Monte-Carlo
/// point of the bundled dataset manifest (with its mismatch draw).
struct Case {
    label: String,
    design: oasys::OpAmpDesign,
    process: oasys_process::Process,
    load_f: f64,
    mismatch: Mismatch,
}

impl Case {
    /// Runs `f` under this case's Monte-Carlo draw.
    fn scoped<T>(&self, f: impl FnOnce() -> T) -> T {
        mismatch::scoped(self.mismatch, f)
    }
}

fn data_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(name)
}

/// The Table-1 pairs (`data/spec-{a,b,c}.txt` × `data/generic-*.tech`)
/// that synthesize: seven of the nine (b and c are infeasible on 1.2 µm).
fn table1_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for spec_name in ["spec-a", "spec-b", "spec-c"] {
        let spec_text = std::fs::read_to_string(data_path(&format!("{spec_name}.txt"))).unwrap();
        let spec = oasys::specfile::parse(&spec_text).unwrap();
        for tech_name in ["generic-5um", "generic-3um", "generic-1.2um"] {
            let tech_text =
                std::fs::read_to_string(data_path(&format!("{tech_name}.tech"))).unwrap();
            let process = oasys_process::techfile::parse(&tech_text).unwrap();
            if let Ok(synthesis) = oasys::synthesize(&spec, &process) {
                cases.push(Case {
                    label: format!("{spec_name} x {tech_name}"),
                    design: synthesis.selected().clone(),
                    process,
                    load_f: spec.load().farads(),
                    mismatch: Mismatch::disabled(),
                });
            }
        }
    }
    assert_eq!(cases.len(), 7, "seven feasible Table-1 pairs");
    cases
}

/// Three Monte-Carlo points of `data/dataset.manifest` (sampled specs
/// around case A at derived corners), spread across the plan.
fn dataset_cases() -> Vec<Case> {
    let manifest = oasys::batch::Manifest::load(data_path("dataset.manifest")).unwrap();
    let plan = oasys::dataset::DatasetPlan::expand(&manifest).unwrap();
    let cases: Vec<Case> = plan
        .points
        .iter()
        .filter(|point| point.mc_index == 1)
        .step_by(97)
        .filter_map(|point| {
            let spec = oasys::specfile::parse(&point.spec_text).unwrap();
            let process = oasys_process::techfile::parse(&point.tech_text).unwrap();
            let synthesis = oasys::synthesize(&spec, &process).ok()?;
            Some(Case {
                label: format!("dataset point {}", point.id),
                design: synthesis.selected().clone(),
                process,
                load_f: spec.load().farads(),
                mismatch: plan.mismatch_for(point)?,
            })
        })
        .take(3)
        .collect();
    assert_eq!(cases.len(), 3, "three sampled dataset designs");
    cases
}

/// Adds the ±supplies to a design's circuit.
fn with_supplies(case: &Case) -> Circuit {
    let mut bench = case.design.circuit().clone();
    let (vdd, vss, gnd) = (
        bench.port("vdd").unwrap(),
        bench.port("vss").unwrap(),
        bench.ground(),
    );
    let (v_hi, v_lo) = (case.process.vdd().volts(), case.process.vss().volts());
    bench
        .add_vsource("VDD", vdd, gnd, SourceValue::dc(v_hi))
        .unwrap();
    bench
        .add_vsource("VSS", vss, gnd, SourceValue::dc(v_lo))
        .unwrap();
    bench
}

/// The swing bench of `verify`: an inverting gain-of-10 stage driven
/// by `VSW`, with the 241 sweep values across ±1.2 × half the supply
/// span referred to the input.
fn swing_bench(case: &Case) -> (Circuit, NodeId, Vec<f64>) {
    let mut bench = with_supplies(case);
    let (inp, inn, out, gnd) = (
        bench.port("inp").unwrap(),
        bench.port("inn").unwrap(),
        bench.port("out").unwrap(),
        bench.ground(),
    );
    let vin = bench.node("swing_vin");
    bench
        .add_vsource("VINP", inp, gnd, SourceValue::dc(0.0))
        .unwrap();
    bench
        .add_vsource("VSW", vin, gnd, SourceValue::dc(0.0))
        .unwrap();
    bench.add_resistor("R1", vin, inn, 1e6).unwrap();
    bench.add_resistor("R2", inn, out, 1e7).unwrap();
    let delta = 1.2 * case.process.supply_span().volts() / 20.0;
    (bench, out, sweep::linspace(-delta, delta, 241))
}

/// The open-loop bench of `verify`'s offset null.
fn open_loop_bench(case: &Case) -> (Circuit, NodeId) {
    let mut bench = with_supplies(case);
    let (inp, inn, out, gnd) = (
        bench.port("inp").unwrap(),
        bench.port("inn").unwrap(),
        bench.port("out").unwrap(),
        bench.ground(),
    );
    bench
        .add_vsource("VIP", inp, gnd, SourceValue::new(0.0, 1.0))
        .unwrap();
    bench
        .add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
        .unwrap();
    bench.add_capacitor("CLOAD", out, gnd, case.load_f).unwrap();
    (bench, out)
}

/// The cold reference of `sweep::bisect_input`: the same bisection with
/// every evaluation solved from zero by `dc::solve`.
fn cold_bisect(case: &Case, bench: &Circuit, out: NodeId) -> f64 {
    let mut work = bench.clone();
    let mut eval = |vin: f64| {
        work.set_source_dc("VIP", vin).unwrap();
        dc::solve(&work, &case.process).unwrap().voltage(out)
    };
    let (mut a, mut b) = (-0.5, 0.5);
    let mut f_lo = eval(a);
    let f_hi = eval(b);
    assert!(f_lo.signum() != f_hi.signum(), "{}: bracket", case.label);
    for _ in 0..80 {
        let mid = 0.5 * (a + b);
        let f_mid = eval(mid);
        if f_mid == 0.0 || (b - a).abs() < 1e-12 {
            return mid;
        }
        if f_mid.signum() == f_lo.signum() {
            a = mid;
            f_lo = f_mid;
        } else {
            b = mid;
        }
    }
    0.5 * (a + b)
}

/// Runs the warm swing sweep and its cold per-point reference, asserts
/// every node voltage agrees within 1 µV, and returns the summed Newton
/// iterations of (warm, cold).
fn compare_swing_sweep(case: &Case) -> (usize, usize) {
    let (bench, _, values) = swing_bench(case);
    let warm = sweep::dc_transfer(&bench, &case.process, "VSW", &values).unwrap();
    assert_eq!(
        warm.len(),
        values.len(),
        "{}: every point converges",
        case.label
    );
    let mut work = bench.clone();
    let mut cold_iterations = 0;
    for point in &warm {
        work.set_source_dc("VSW", point.input).unwrap();
        let cold = dc::solve(&work, &case.process).unwrap();
        cold_iterations += cold.iterations();
        for (k, (w, c)) in point
            .solution
            .node_voltages()
            .iter()
            .zip(cold.node_voltages())
            .enumerate()
        {
            assert!(
                (w - c).abs() <= 1e-6,
                "{} at VSW = {}: node {k} warm {w} vs cold {c}",
                case.label,
                point.input
            );
        }
    }
    let warm_iterations = warm.iter().map(|p| p.solution.iterations()).sum();
    (warm_iterations, cold_iterations)
}

/// The warm-started swing sweep lands on the cold operating point at
/// every one of its 241 points, and the warm-started offset bisection on
/// the cold bisection's answer — on the Table-1 designs and on sampled
/// dataset designs under their Monte-Carlo draw.
#[test]
fn warm_sweeps_and_bisection_match_cold_solves() {
    for case in table1_cases().iter().chain(&dataset_cases()) {
        case.scoped(|| {
            compare_swing_sweep(case);
            let (bench, out) = open_loop_bench(case);
            let warm =
                sweep::bisect_input(&bench, &case.process, "VIP", out, 0.0, -0.5, 0.5).unwrap();
            let cold = cold_bisect(case, &bench, out);
            assert!(
                (warm - cold).abs() <= 1e-9,
                "{}: warm offset {warm} vs cold {cold}",
                case.label
            );
        });
    }
}

/// Work-count guard (deterministic, no timing): over the seven Table-1
/// designs the warm-started 241-point swing sweeps take at most a
/// quarter of the Newton iterations that solving every point from zero
/// takes.
#[test]
fn warm_swing_sweep_takes_a_quarter_of_the_cold_newton_work() {
    let (mut warm, mut cold) = (0, 0);
    for case in &table1_cases() {
        let (w, c) = compare_swing_sweep(case);
        warm += w;
        cold += c;
    }
    assert!(
        4 * warm <= cold,
        "warm sweeps took {warm} Newton iterations, cold {cold}"
    );
}

// ---------------------------------------------------------------------------
// Chord-Newton transient vs. a full-Newton reference
// ---------------------------------------------------------------------------

/// The slew bench of `verify`: the amp in inverting unity gain driven by
/// `VSW`, the load on the output, and the time axis budgeted from the
/// predicted slew rate (six transitions, 150 steps per transition).
fn slew_bench(case: &Case) -> (Circuit, TranSpec) {
    let mut bench = with_supplies(case);
    let (inp, inn, out, gnd) = (
        bench.port("inp").unwrap(),
        bench.port("inn").unwrap(),
        bench.port("out").unwrap(),
        bench.ground(),
    );
    let vin = bench.node("slew_vin");
    bench
        .add_vsource("VINP", inp, gnd, SourceValue::dc(0.0))
        .unwrap();
    bench
        .add_vsource("VSW", vin, gnd, SourceValue::dc(0.0))
        .unwrap();
    bench.add_resistor("R1", vin, inn, 1e6).unwrap();
    bench.add_resistor("R2", inn, out, 1e6).unwrap();
    bench.add_capacitor("CLOAD", out, gnd, case.load_f).unwrap();
    let transition = 2.0 * 2.0 / case.design.predicted().slew_v_per_s.max(1e4);
    let spec = TranSpec::new(6.0 * transition, transition / 150.0).unwrap();
    (bench, spec)
}

/// The transient the chord iteration replaced, rebuilt from the public
/// MNA pieces: backward Euler from the DC point with the stimuli at
/// `t = 0`, device capacitances frozen there, and at every iteration of
/// every step the Jacobian assembled in full and factored afresh.
/// Returns the unknown vector at every stored time point.
fn full_newton_tran(
    bench: &Circuit,
    process: &oasys_process::Process,
    spec: &TranSpec,
    stimuli: &Stimuli,
) -> Vec<Vec<f64>> {
    const GMIN: f64 = 1e-12;
    const VTOL: f64 = 1e-7;
    const MAX_STEP_V: f64 = 1.0;
    let mut init = bench.clone();
    for v in bench.vsources() {
        if let Some(value) = stimuli.value_at(&v.name, 0.0) {
            init.set_source_dc(&v.name, value).unwrap();
        }
    }
    let dc0 = dc::solve(&init, process).unwrap();
    let index = MnaIndex::new(bench);
    let nodes = bench.node_count() - 1;
    let mut x: Vec<f64> = dc0.node_voltages()[1..].to_vec();
    x.extend((0..index.vsource_count()).map(|k| {
        dc0.source_current(index.vsource_name(k))
            .expect("every source has a branch current")
    }));

    let devices: Vec<_> = bound_mosfets(bench, process).collect();
    let var = |node: NodeId| index.node_var(node);
    let mut caps: Vec<(NodeId, NodeId, f64)> = bench
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Capacitor(c) => Some((c.a, c.b, c.farads)),
            _ => None,
        })
        .collect();
    for (inst, device) in &devices {
        let v = |n: NodeId| dc0.voltage(n);
        let op = device.operating_point(
            v(inst.gate) - v(inst.source),
            v(inst.drain) - v(inst.source),
            v(inst.source) - v(inst.bulk),
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

    let steps = (spec.t_stop / spec.dt).ceil() as usize;
    let mut states = vec![x.clone()];
    for step in 1..=steps {
        let t = step as f64 * spec.dt;
        let x_prev = x.clone();
        let mut converged = false;
        for _ in 0..100 {
            let mut jac: Matrix<f64> = Matrix::zeros(index.dim());
            let mut f = vec![0.0; index.dim()];
            let at = |x: &[f64], node: NodeId| var(node).map_or(0.0, |i| x[i]);
            // A conductance `g` carrying `current` from `a` to `b`.
            let branch =
                |jac: &mut Matrix<f64>, f: &mut [f64], a: NodeId, b: NodeId, g: f64, current| {
                    if let Some(i) = var(a) {
                        f[i] += current;
                        jac.stamp(i, i, g);
                        if let Some(j) = var(b) {
                            jac.stamp(i, j, -g);
                        }
                    }
                    if let Some(i) = var(b) {
                        f[i] -= current;
                        jac.stamp(i, i, g);
                        if let Some(j) = var(a) {
                            jac.stamp(i, j, -g);
                        }
                    }
                };
            for (i, fi) in f.iter_mut().enumerate().take(nodes) {
                jac.stamp(i, i, GMIN);
                *fi += GMIN * x[i];
            }
            for &(a, b, farads) in &caps {
                let g = farads / spec.dt;
                let dv = (at(&x, a) - at(&x, b)) - (at(&x_prev, a) - at(&x_prev, b));
                branch(&mut jac, &mut f, a, b, g, g * dv);
            }
            let mut vsrc_k = 0;
            let mut mos_k = 0;
            for element in bench.elements() {
                match element {
                    Element::Resistor(r) => {
                        let g = 1.0 / r.ohms;
                        branch(
                            &mut jac,
                            &mut f,
                            r.a,
                            r.b,
                            g,
                            g * (at(&x, r.a) - at(&x, r.b)),
                        );
                    }
                    Element::Capacitor(_) => {}
                    Element::Isource(src) => {
                        let i0 = stimuli
                            .value_at(&src.name, t)
                            .unwrap_or_else(|| src.value.dc_value());
                        if let Some(i) = var(src.pos) {
                            f[i] += i0;
                        }
                        if let Some(i) = var(src.neg) {
                            f[i] -= i0;
                        }
                    }
                    Element::Vsource(src) => {
                        let k = index.branch_var(vsrc_k);
                        vsrc_k += 1;
                        let v0 = stimuli
                            .value_at(&src.name, t)
                            .unwrap_or_else(|| src.value.dc_value());
                        for (node, sign) in [(src.pos, 1.0), (src.neg, -1.0)] {
                            if let Some(i) = var(node) {
                                f[i] += sign * x[k];
                                jac.stamp(i, k, sign);
                                jac.stamp(k, i, sign);
                            }
                        }
                        f[k] = at(&x, src.pos) - at(&x, src.neg) - v0;
                    }
                    Element::Mos(m) => {
                        let (_, device) = &devices[mos_k];
                        mos_k += 1;
                        let eval = mos_stamp(
                            device,
                            at(&x, m.drain),
                            at(&x, m.gate),
                            at(&x, m.source),
                            at(&x, m.bulk),
                        );
                        let terminals = [
                            (m.drain, eval.d_dvd),
                            (m.gate, eval.d_dvg),
                            (m.source, eval.d_dvs),
                            (m.bulk, eval.d_dvb),
                        ];
                        for (row, sign) in [(m.drain, 1.0), (m.source, -1.0)] {
                            if let Some(i) = var(row) {
                                f[i] += sign * eval.id;
                                for (node, deriv) in terminals {
                                    if let Some(j) = var(node) {
                                        jac.stamp(i, j, sign * deriv);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let minus_f: Vec<f64> = f.iter().map(|r| -r).collect();
            let delta = jac.solve(&minus_f).expect("nonsingular transient Jacobian");
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
        assert!(converged, "full Newton converges at t = {t:e}");
        states.push(x.clone());
    }
    states
}

/// On the slew benches of the Table-1 designs and sampled dataset
/// designs (under their Monte-Carlo draw), both step directions, every
/// stored sample of every node of the chord-Newton transient lies within
/// 1 µV of the full-Newton reference.
#[test]
fn chord_transient_matches_full_newton_on_the_slew_benches() {
    for case in table1_cases().iter().chain(&dataset_cases()) {
        case.scoped(|| {
            let (bench, spec) = slew_bench(case);
            let nodes: std::collections::BTreeSet<NodeId> = bench
                .elements()
                .iter()
                .flat_map(|e| e.terminals())
                .filter(|n| !n.is_ground())
                .collect();
            for (v0, v1) in [(2.0, -2.0), (-2.0, 2.0)] {
                let mut stimuli = Stimuli::new();
                stimuli.step("VSW", v0, v1, 2.0 * spec.dt);
                let chord = tran::solve(&bench, &case.process, &spec, &stimuli).unwrap();
                let reference = full_newton_tran(&bench, &case.process, &spec, &stimuli);
                assert_eq!(chord.len(), reference.len(), "{}", case.label);
                for &node in &nodes {
                    for (k, (a, x_ref)) in chord.waveform(node).iter().zip(&reference).enumerate() {
                        let b = x_ref[node.index() - 1];
                        assert!(
                            (a - b).abs() <= 1e-6,
                            "{} step {v0} -> {v1}, sample {k}, node {node}: chord {a} vs full {b}",
                            case.label
                        );
                    }
                }
            }
        });
    }
}

/// The `Measured` fields in declaration order, each rendered with `{:?}`
/// (shortest round-trip, so string equality is bit equality).
fn measured_fields(m: &oasys::Measured) -> [(&'static str, String); 10] {
    [
        ("dc_gain_db", format!("{:?}", m.dc_gain_db)),
        ("unity_gain_hz", format!("{:?}", m.unity_gain_hz)),
        ("phase_margin_deg", format!("{:?}", m.phase_margin_deg)),
        ("slew_v_per_s", format!("{:?}", m.slew_v_per_s)),
        ("swing_symmetric_v", format!("{:?}", m.swing_symmetric_v)),
        ("offset_v", format!("{:?}", m.offset_v)),
        ("power_w", format!("{:?}", m.power_w)),
        ("cmrr_db", format!("{:?}", m.cmrr_db)),
        ("noise_v_rthz", format!("{:?}", m.noise_v_rthz)),
        ("psrr_db", format!("{:?}", m.psrr_db)),
    ]
}

/// Fields the warm starts may move, with their absolute tolerance:
/// swing comes from the warm DC sweep (1 µV per point), the offset from
/// the warm bisection (1 nV).
const WARM_TOLERANCES: [(&str, f64); 2] = [("swing_symmetric_v", 1e-6), ("offset_v", 1e-9)];

fn parse_some(text: &str) -> f64 {
    text.strip_prefix("Some(")
        .and_then(|t| t.strip_suffix(')'))
        .unwrap_or(text)
        .parse()
        .unwrap_or_else(|e| panic!("{text:?}: {e}"))
}

/// Every verified figure of the Table-1 designs and sampled dataset
/// designs matches `tests/golden/measured_cold.txt`, the figures the
/// cold path (every DC solve from zero, devices rebound per Newton
/// iteration, a cloned Jacobian factored per iteration) measured on the
/// same designs: bit for bit, except the two warm-started figures,
/// which agree within [`WARM_TOLERANCES`].
///
/// Regenerate with `OASYS_BLESS=1 cargo test -p oasys-suite --test
/// simulator_cross_checks` only for an intentional change of what the
/// simulator computes.
#[test]
fn verified_figures_match_the_cold_reference() {
    let mut rendered = String::new();
    for case in table1_cases().iter().chain(&dataset_cases()) {
        let verification = case
            .scoped(|| oasys::verify(&case.design, &case.process, case.load_f))
            .unwrap();
        for (field, value) in measured_fields(&verification.measured) {
            rendered.push_str(&format!("{}\t{field}\t{value}\n", case.label));
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/measured_cold.txt");
    if std::env::var_os("OASYS_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    assert_eq!(rendered.lines().count(), golden.lines().count());
    for (now, cold) in rendered.lines().zip(golden.lines()) {
        let now: Vec<&str> = now.split('\t').collect();
        let cold: Vec<&str> = cold.split('\t').collect();
        assert_eq!(now[..2], cold[..2]);
        match WARM_TOLERANCES.iter().find(|(field, _)| *field == now[1]) {
            Some(&(_, tolerance)) if now[2] != cold[2] => {
                let (a, b) = (parse_some(now[2]), parse_some(cold[2]));
                assert!(
                    (a - b).abs() <= tolerance,
                    "{} {}: {a} vs cold {b}",
                    now[0],
                    now[1]
                );
            }
            _ => assert_eq!(now[2], cold[2], "{} {}", now[0], now[1]),
        }
    }
}
