//! OASYS: knowledge-based synthesis of sized CMOS op-amp schematics.
//!
//! This crate reproduces the system described in *"A Prototype Framework
//! for Knowledge-Based Analog Circuit Synthesis"* (Harjani, Rutenbar,
//! Carley — DAC 1987): from a set of performance specifications
//! ([`OpAmpSpec`]) and a fabrication process description
//! ([`oasys_process::Process`]), produce a sized transistor-level
//! schematic.
//!
//! The architecture follows the paper:
//!
//! * **Fixed, hierarchical topology templates** ([`styles`]) — a one-stage
//!   operational transconductance amplifier and a two-stage unbuffered op
//!   amp (plus a folded-cascode extension), each an interconnection of
//!   reusable sub-blocks from [`oasys_blocks`];
//! * **Plan-driven translation** — each style owns a plan
//!   ([`oasys_plan::Plan`]) of ~20 algorithmic steps that translate op-amp
//!   specifications into sub-block specifications, with ~10 patch rules
//!   that fire on failures (cascode a stage, skew the gain partition,
//!   insert a level shifter, re-run from an earlier step);
//! * **Breadth-first design-style selection** ([`synth`]) — every style is
//!   designed; among the successes the smallest estimated area (active +
//!   compensation capacitor) wins;
//! * **Verification** ([`mod@verify`]) — every synthesized design is
//!   re-measured end-to-end with the [`oasys_sim`] analog simulator, the
//!   reproduction's stand-in for the paper's SPICE runs.
//!
//! # Examples
//!
//! Synthesize the paper's "ordinary" test case A:
//!
//! ```
//! use oasys::{synthesize, OpAmpSpec};
//! use oasys_process::builtin;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = OpAmpSpec::builder()
//!     .dc_gain_db(60.0)
//!     .unity_gain_mhz(0.5)
//!     .phase_margin_deg(45.0)
//!     .load_pf(5.0)
//!     .slew_rate_v_per_us(2.0)
//!     .build()?;
//! let process = builtin::cmos_5um();
//! let result = synthesize(&spec, &process)?;
//! println!("selected: {}", result.selected().style());
//! println!("{}", result.selected().predicted());
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod comparator;
pub mod dataset;
pub mod datasheet;
pub mod fully_differential;
pub mod hierarchy;
pub mod integrity;
pub mod serve;
pub mod spec;
pub mod specfile;
pub mod styles;
pub mod synth;
pub mod verify;

pub use datasheet::{Datasheet, Predicted};
pub use oasys_plan::SearchOptions;
pub use spec::{OpAmpSpec, OpAmpSpecBuilder, SpecError};
pub use styles::{analyze_all_plans, analyze_plan, OpAmpDesign, OpAmpStyle, StyleError};
pub use synth::{
    synthesize, synthesize_with, synthesize_with_cache, synthesize_with_options, OpAmpDesigner,
    StyleOutcome, Synthesis, SynthesisError,
};
pub use verify::{verify, verify_with, Measured, VerifyError};
