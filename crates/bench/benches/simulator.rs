//! Simulator micro-benchmark: one Newton DC solve of a nonlinear chain.
//! The full verification cost per synthesized op amp is the
//! `verify/case_a_full` row of the synthesis bench, which lands in
//! `BENCH_synthesis.json`.

use oasys_bench::harness::Bencher;
use oasys_process::builtin;
use std::hint::black_box;

fn main() {
    let process = builtin::cmos_5um();
    let mut b = Bencher::new();

    let circuit = dc_chain();
    b.bench("sim/dc_newton_chain", || {
        oasys_sim::dc::solve(black_box(&circuit), black_box(&process)).unwrap()
    });
    b.finish();
}

/// A representative nonlinear bench: diode-connected device chain.
fn dc_chain() -> oasys_netlist::Circuit {
    use oasys_netlist::{Circuit, SourceValue};
    use oasys_process::Polarity;

    let mut circuit = Circuit::new("dc bench");
    let vdd = circuit.node("vdd");
    let gnd = circuit.ground();
    circuit
        .add_vsource("VDD", vdd, gnd, SourceValue::dc(5.0))
        .unwrap();
    let mut prev = vdd;
    for k in 0..8 {
        let node = circuit.node(format!("n{k}"));
        circuit
            .add_mosfet(
                format!("M{k}"),
                Polarity::Nmos,
                oasys_mos::Geometry::new_um(20.0, 5.0).unwrap(),
                prev,
                prev,
                node,
                gnd,
            )
            .unwrap();
        circuit
            .add_resistor(format!("R{k}"), node, gnd, 50e3)
            .unwrap();
        prev = node;
    }
    circuit
}
