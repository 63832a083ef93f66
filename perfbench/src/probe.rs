//! Layer probes: timed calls into one layer's public functions on a
//! workload's own inputs.
//!
//! The verification probe rebuilds the testbenches of `oasys::verify`
//! through the public netlist API and times each phase's simulator call
//! on its own, so the phase times can be summed and set against one
//! `verify` call on the same design (`verify.coverage`). If that ratio
//! drifts, these mirrors no longer match `verify`.

use crate::stats::median;
use crate::trace::Tracer;
use oasys::styles::OpAmpDesign;
use oasys_netlist::{Circuit, Element, NodeId, SourceValue};
use oasys_process::Process;
use oasys_sim::ac::{self, AcSweepSpec};
use oasys_sim::mismatch::{self, Mismatch};
use oasys_sim::{dc, noise, sweep, tran};
use oasys_telemetry::Telemetry;
use std::time::Instant;

/// The verification phases, in `verify` order.
pub const PHASES: [&str; 9] = [
    "sim.erc_ms",
    "sim.offset_ms",
    "sim.dc_ms",
    "sim.ac_ms",
    "sim.swing_ms",
    "sim.slew_ms",
    "sim.cmrr_ms",
    "sim.noise_ms",
    "sim.psrr_ms",
];

/// Per-phase wall times of one mirrored verification, ms, in
/// [`PHASES`] order.
pub type PhaseTimes = [f64; 9];

/// Mismatch draw used for `sim.mismatch_ratio`: the Pelgrom
/// coefficients of the dataset workload's manifest.
pub const PROBE_MISMATCH: Mismatch = Mismatch {
    avt_v_um: 0.015,
    akp_frac_um: 0.02,
    seed: 0x5EED,
};

fn supplies(bench: &mut Circuit, process: &Process) -> Option<()> {
    let gnd = bench.ground();
    let vdd = bench.port("vdd")?;
    let vss = bench.port("vss")?;
    bench
        .add_vsource("VDD", vdd, gnd, SourceValue::dc(process.vdd().volts()))
        .ok()?;
    bench
        .add_vsource("VSS", vss, gnd, SourceValue::dc(process.vss().volts()))
        .ok()?;
    Some(())
}

fn open_loop_bench(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
) -> Option<(Circuit, NodeId)> {
    let mut bench = design.circuit().clone();
    let inp = bench.port("inp")?;
    let inn = bench.port("inn")?;
    let out = bench.port("out")?;
    let gnd = bench.ground();
    supplies(&mut bench, process)?;
    bench
        .add_vsource("VIP", inp, gnd, SourceValue::new(0.0, 1.0))
        .ok()?;
    bench
        .add_vsource("VIN", inn, gnd, SourceValue::dc(0.0))
        .ok()?;
    bench.add_capacitor("CLOAD", out, gnd, load_f).ok()?;
    Some((bench, out))
}

/// The inverting closed-loop bench of the swing (gain 10) and slew
/// (unity gain) phases.
fn inverting_bench(
    design: &OpAmpDesign,
    process: &Process,
    input: &str,
    gain: f64,
) -> Option<(Circuit, NodeId)> {
    let mut bench = design.circuit().clone();
    let inp = bench.port("inp")?;
    let inn = bench.port("inn")?;
    let out = bench.port("out")?;
    let gnd = bench.ground();
    let vin = bench.node(input);
    supplies(&mut bench, process)?;
    bench
        .add_vsource("VINP", inp, gnd, SourceValue::dc(0.0))
        .ok()?;
    bench
        .add_vsource("VSW", vin, gnd, SourceValue::dc(0.0))
        .ok()?;
    bench.add_resistor("R1", vin, inn, 1e6).ok()?;
    bench.add_resistor("R2", inn, out, 1e6 * gain).ok()?;
    Some((bench, out))
}

fn set_ac(bench: &mut Circuit, source: &str, ac: f64) -> Option<()> {
    match bench.element_mut(source) {
        Some(Element::Vsource(v)) => {
            v.value = SourceValue::new(v.value.dc_value(), ac);
            Some(())
        }
        _ => None,
    }
}

fn low_frequency_gain(bench: &Circuit, process: &Process, out: NodeId) -> Option<f64> {
    let spec = AcSweepSpec::new(1.0, 100.0, 1).ok()?;
    let solution = ac::solve(bench, process, &spec).ok()?;
    Some(solution.transfer(out)[0].abs())
}

/// Times each phase of one verification of `design`, mirroring
/// `oasys::verify::verify_with` call for call. Each phase is recorded as
/// a span under `parent`. Returns `None` when a bench cannot be built
/// or the DC point fails, as `verify` would.
pub fn mirror_phases(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
    tracer: &mut Tracer,
    parent: Option<usize>,
    request: u64,
) -> Option<PhaseTimes> {
    let mut times = [0.0; 9];
    let mut timed = |slot: usize, tracer: &mut Tracer, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let end = Instant::now();
        tracer.record(PHASES[slot], parent, request, start, end);
        times[slot] = (end - start).as_secs_f64() * 1e3;
    };

    timed(0, tracer, &mut || {
        std::hint::black_box(oasys_netlist::lint::lint(design.circuit(), Some(process)));
    });
    let (mut bench, out) = open_loop_bench(design, process, load_f)?;
    let mut offset = None;
    timed(1, tracer, &mut || {
        offset = sweep::bisect_input(&bench, process, "VIP", out, 0.0, -0.5, 0.5).ok();
    });
    if let Some(v) = offset {
        bench.set_source_dc("VIP", v).ok()?;
    }
    let mut dc_solution = None;
    timed(2, tracer, &mut || {
        dc_solution = dc::solve(&bench, process).ok()
    });
    let dc_solution = dc_solution?;
    timed(3, tracer, &mut || {
        std::hint::black_box(
            ac::solve_at(&bench, process, &dc_solution, &AcSweepSpec::standard()).ok(),
        );
    });
    timed(4, tracer, &mut || {
        let swept = inverting_bench(design, process, "swing_vin", 10.0).and_then(|(b, _)| {
            let span = process.supply_span().volts();
            let delta = 1.2 * span / 20.0;
            sweep::dc_transfer(&b, process, "VSW", &sweep::linspace(-delta, delta, 241)).ok()
        });
        std::hint::black_box(swept);
    });
    timed(5, tracer, &mut || {
        std::hint::black_box(slew(design, process, load_f));
    });
    timed(6, tracer, &mut || {
        let mut cm = bench.clone();
        if set_ac(&mut cm, "VIN", 1.0).is_some() {
            std::hint::black_box(low_frequency_gain(&cm, process, out));
        }
    });
    timed(7, tracer, &mut || {
        std::hint::black_box(noise::analyze(&bench, process, &dc_solution, out, 1e3).ok());
    });
    timed(8, tracer, &mut || {
        let mut sr = bench.clone();
        if set_ac(&mut sr, "VIP", 0.0).is_some() && set_ac(&mut sr, "VDD", 1.0).is_some() {
            std::hint::black_box(low_frequency_gain(&sr, process, out));
        }
    });
    Some(times)
}

/// The slew phase: two transient runs of the inverting unity-gain bench.
fn slew(design: &OpAmpDesign, process: &Process, load_f: f64) -> Option<()> {
    const STEP_V: f64 = 2.0;
    let (mut bench, out) = inverting_bench(design, process, "slew_vin", 1.0)?;
    let gnd = bench.ground();
    bench.add_capacitor("CLOAD", out, gnd, load_f).ok()?;
    let sr = design.predicted().slew_v_per_s.max(1e4);
    let transition = 2.0 * STEP_V / sr;
    let dt = transition / 150.0;
    let spec = tran::TranSpec::new(6.0 * transition, dt).ok()?;
    for (v0, v1) in [(STEP_V, -STEP_V), (-STEP_V, STEP_V)] {
        let mut stimuli = tran::Stimuli::new();
        stimuli.step("VSW", v0, v1, 2.0 * dt);
        std::hint::black_box(tran::solve(&bench, process, &spec, &stimuli).ok()?);
    }
    Some(())
}

/// What one design's verification probe measured.
#[derive(Clone, Debug, Default)]
pub struct VerifyProbe {
    /// `verify` call time, ms.
    pub verify_ms: f64,
    /// Mirrored phase times, ms.
    pub phases: PhaseTimes,
    /// Sum of the mirrored phase times under [`PROBE_MISMATCH`], ms.
    pub mismatch_ms: f64,
    /// Telemetry counters of one traced `verify_with`.
    pub newton_iterations: u64,
    /// Transient steps.
    pub tran_steps: u64,
    /// AC frequency points.
    pub ac_points: u64,
}

/// Probes one design: one untraced `verify` call, the mirrored phases
/// nominal and under a mismatch draw, and one `verify_with` carrying
/// program telemetry for the simulator's own counters.
pub fn verify_probe(
    design: &OpAmpDesign,
    process: &Process,
    load_f: f64,
    mismatch: Option<Mismatch>,
    tracer: &mut Tracer,
    request: u64,
) -> Option<VerifyProbe> {
    let root = tracer.open("probe.verify", None, request);
    let start = Instant::now();
    let verified = oasys::verify(design, process, load_f).ok();
    let end = Instant::now();
    tracer.record("verify.call", Some(root), request, start, end);
    verified?;
    let phases = mirror_phases(design, process, load_f, tracer, Some(root), request)?;
    let draw = mismatch.unwrap_or(PROBE_MISMATCH);
    let mm = tracer.open("probe.mismatch", Some(root), request);
    let mismatch_phases = mismatch::scoped(draw, || {
        let mut scratch = Tracer::new(start);
        mirror_phases(design, process, load_f, &mut scratch, None, request)
    })?;
    tracer.close(mm);
    let tel = Telemetry::new();
    oasys::verify_with(design, process, load_f, &tel).ok()?;
    tracer.close(root);
    Some(VerifyProbe {
        verify_ms: (end - start).as_secs_f64() * 1e3,
        phases,
        mismatch_ms: mismatch_phases.iter().sum(),
        newton_iterations: tel.counter("sim.dc.newton_iterations"),
        tran_steps: tel.counter("sim.tran.steps"),
        ac_points: tel.counter("sim.ac.points"),
    })
}

/// Median parse times, µs, of the given tech and spec texts (each parsed
/// `reps` times).
#[must_use]
pub fn parse_times_us(techs: &[&str], specs: &[&str], reps: usize) -> (f64, f64) {
    let time = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let tech = median(
        &techs
            .iter()
            .map(|t| time(&|| drop(std::hint::black_box(oasys_process::techfile::parse(t)))))
            .collect::<Vec<_>>(),
    );
    let spec = median(
        &specs
            .iter()
            .map(|s| time(&|| drop(std::hint::black_box(oasys::specfile::parse(s)))))
            .collect::<Vec<_>>(),
    );
    (tech, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    /// The mirrored phases account for `verify` on one design: their sum
    /// is within 0.8–1.2 of the `verify` call time. Outside that band the
    /// mirrors no longer match what `verify` runs.
    #[test]
    fn coverage_of_case_a_is_within_band() {
        let process = oasys_process::builtin::cmos_5um();
        let spec = oasys::spec::test_cases::spec_a();
        let synthesis = oasys::synthesize(&spec, &process).expect("case A synthesizes");
        let mut tracer = Tracer::new(Instant::now());
        let probes: Vec<VerifyProbe> = (0..5)
            .map(|i| {
                verify_probe(
                    synthesis.selected(),
                    &process,
                    spec.load().farads(),
                    None,
                    &mut tracer,
                    i,
                )
                .expect("case A verifies")
            })
            .collect();
        let verify = median(&probes.iter().map(|p| p.verify_ms).collect::<Vec<_>>());
        let phases = median(
            &probes
                .iter()
                .map(|p| p.phases.iter().sum())
                .collect::<Vec<_>>(),
        );
        let coverage = phases / verify;
        assert!((0.8..=1.2).contains(&coverage), "coverage {coverage:.3}");
        assert!(probes
            .iter()
            .all(|p| p.newton_iterations > 0 && p.ac_points > 0));
    }
}
