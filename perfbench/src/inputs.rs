//! The paper's Table-1 inputs and the benchmark's reference answers.

use oasys::{Datasheet, OpAmpSpec, SearchOptions};
use oasys_plan::MemoCache;
use oasys_process::Process;
use oasys_telemetry::Telemetry;
use std::path::Path;
use std::time::Instant;

/// Table-1 specification files, in `data/`.
pub const SPECS: [&str; 3] = ["spec-a", "spec-b", "spec-c"];
/// Bundled process files, in `data/`.
pub const TECHS: [&str; 3] = ["generic-5um", "generic-3um", "generic-1.2um"];

/// One spec × process pair, as text and parsed.
pub struct Pair {
    /// `spec-a` … `spec-c`.
    pub spec_name: &'static str,
    /// `generic-5um` … `generic-1.2um`.
    pub tech_name: &'static str,
    /// Spec file text.
    pub spec_text: String,
    /// Tech file text.
    pub tech_text: String,
    /// Parsed spec.
    pub spec: OpAmpSpec,
    /// Parsed process.
    pub process: Process,
}

impl Pair {
    /// `spec-a × generic-5um`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} × {}", self.spec_name, self.tech_name)
    }
}

/// Reads and parses the nine Table-1 pairs (spec-major order).
///
/// # Errors
///
/// A missing or malformed input file.
pub fn table1(root: &Path) -> Result<Vec<Pair>, String> {
    let read = |name: &str, ext: &str| {
        let path = root.join("data").join(format!("{name}.{ext}"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut pairs = Vec::new();
    for spec_name in SPECS {
        let spec_text = read(spec_name, "txt")?;
        for tech_name in TECHS {
            let tech_text = read(tech_name, "tech")?;
            let spec =
                oasys::specfile::parse(&spec_text).map_err(|e| format!("{spec_name}: {e}"))?;
            let process = oasys_process::techfile::parse(&tech_text)
                .map_err(|e| format!("{tech_name}: {e}"))?;
            pairs.push(Pair {
                spec_name,
                tech_name,
                spec_text: spec_text.clone(),
                tech_text,
                spec,
                process,
            });
        }
    }
    Ok(pairs)
}

/// A synthesized answer: the selected style and its estimated area.
#[derive(Clone, Debug, PartialEq)]
pub enum Design {
    /// No style meets the spec.
    Infeasible,
    /// The selected design.
    Selected {
        /// Style display name.
        style: String,
        /// Total estimated area, µm².
        area_um2: f64,
    },
}

impl Design {
    /// One reference-file field: `infeasible` or `<style>|<area>`.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Design::Infeasible => "infeasible".to_owned(),
            Design::Selected { style, area_um2 } => format!("{style}|{area_um2:?}"),
        }
    }

    /// Inverse of [`Design::render`].
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        if text == "infeasible" {
            return Some(Design::Infeasible);
        }
        let (style, area) = text.split_once('|')?;
        Some(Design::Selected {
            style: style.to_owned(),
            area_um2: area.parse().ok()?,
        })
    }
}

/// What one synthesis call did, for the synthesis-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthCounts {
    /// Style attempts.
    pub attempts: u64,
    /// Style attempts rejected by the static feasibility check.
    pub pruned: u64,
}

/// One timed synthesis call, reduced to its [`Design`]. The selected
/// design is kept for callers that go on to verify it.
pub struct Synth {
    /// The answer.
    pub answer: Design,
    /// The selected design, when feasible.
    pub selected: Option<oasys::OpAmpDesign>,
    /// Style attempts and static rejections.
    pub counts: SynthCounts,
    /// When the `synthesize_with_cache` call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Synth {
    /// Call time, ms.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Synthesizes `spec` on `process` through `cache`, timing only the
/// `synthesize_with_cache` call.
pub fn synthesize(
    spec: &OpAmpSpec,
    process: &Process,
    options: &SearchOptions,
    cache: &MemoCache,
) -> Synth {
    let pruned = |reason: &str| u64::from(reason.starts_with("statically-infeasible"));
    let start = Instant::now();
    let result =
        oasys::synthesize_with_cache(spec, process, options, &Telemetry::disabled(), cache);
    let end = Instant::now();
    match result {
        Ok(synthesis) => {
            let counts = SynthCounts {
                attempts: synthesis.outcomes().len() as u64,
                pruned: synthesis
                    .outcomes()
                    .iter()
                    .filter_map(oasys::StyleOutcome::rejection)
                    .map(|r| pruned(&r))
                    .sum(),
            };
            let design = synthesis.selected().clone();
            let answer = Design::Selected {
                style: design.style().to_string(),
                area_um2: design.area().total_um2(),
            };
            Synth {
                answer,
                selected: Some(design),
                counts,
                start,
                end,
            }
        }
        Err(e) => Synth {
            answer: Design::Infeasible,
            selected: None,
            counts: SynthCounts {
                attempts: e.rejections().len() as u64,
                pruned: e.rejections().iter().map(|(_, r)| pruned(r)).sum(),
            },
            start,
            end,
        },
    }
}

/// Whether the design meets every verified spec, as the CLI's datasheet
/// judges it.
#[must_use]
pub fn meets_spec(
    spec: &OpAmpSpec,
    design: &oasys::OpAmpDesign,
    measured: &oasys::Measured,
) -> bool {
    Datasheet::new("check", spec, design.predicted(), Some(measured)).all_measured_pass()
}

/// Reads a reference file of `key<TAB>fields…` lines, skipping `#`
/// comments.
///
/// # Errors
///
/// The file is missing.
pub fn read_reference(path: &Path) -> Result<Vec<(String, Vec<String>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut fields = l.split('\t').map(str::to_owned);
            let key = fields.next().unwrap_or_default();
            (key, fields.collect())
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designs_round_trip() {
        for d in [
            Design::Infeasible,
            Design::Selected {
                style: "one-stage OTA".to_owned(),
                area_um2: 26_397.123_456_789,
            },
        ] {
            assert_eq!(Design::parse(&d.render()), Some(d));
        }
        assert_eq!(Design::parse("two-stage|abc"), None);
    }
}
