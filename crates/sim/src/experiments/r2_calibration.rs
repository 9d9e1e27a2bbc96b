//! R2 — calibration of synthetic traces against real-program traces:
//! branch-class mix and basic-block-size distributions side by side.
//!
//! The synthetic generator was tuned to the 1999 paper's reported
//! workload statistics; the `fdip-isa` programs execute actual code.
//! This report puts both populations on the same axes so drift between
//! the suites is visible at a glance (and regression-tested): if the
//! synthetic mix wanders away from what executed programs produce, the
//! headline experiments quietly lose their grounding.
//!
//! Trace statistics only — no simulation cells.

use fdip_types::BranchClass;

use crate::experiments::ExperimentResult;
use crate::harness::Harness;
use crate::report::{f3, pct, Table};
use crate::workload::{program_suite, scenario_suite, suite, SuiteKind, WorkloadSpec};
use crate::Scale;

/// Experiment id.
pub const ID: &str = "r2";
/// Experiment title.
pub const TITLE: &str = "synthetic vs real-program trace calibration";

/// Registry entry.
pub struct Def;

impl super::Experiment for Def {
    fn id(&self) -> &'static str {
        ID
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn run(&self, harness: &Harness, scale: Scale) -> ExperimentResult {
        run_with(harness, scale)
    }
}

/// Runs the experiment on the process-wide shared harness.
pub fn run(scale: Scale) -> ExperimentResult {
    run_with(Harness::global(), scale)
}

fn populations(scale: Scale) -> Vec<(&'static str, Vec<WorkloadSpec>)> {
    vec![
        ("synthetic", suite(SuiteKind::All, scale)),
        ("program", program_suite()),
        (
            "scenario",
            scenario_suite(super::r1_real_programs::SCENARIO_SEED),
        ),
    ]
}

fn run_with(harness: &Harness, scale: Scale) -> ExperimentResult {
    let mut mix = Table::new(
        format!("{ID}: {TITLE} — dynamic branch-class mix"),
        &[
            "workload",
            "kind",
            "br PKI",
            "cond",
            "cond taken",
            "uncond",
            "call",
            "ret",
            "ind",
        ],
    );
    let mut blocks = Table::new(
        format!("{ID}b: basic-block sizes (instructions per branch-ended run)"),
        &["workload", "kind", "mean", "p50", "p90", "max"],
    );
    for (kind, specs) in populations(scale) {
        for w in &specs {
            let summary = harness.trace_summary(w, scale.trace_len);
            let s = &summary.stats;
            let total = s.mix.total().max(1) as f64;
            let frac = |c: BranchClass| s.mix.count(c) as f64 / total;
            mix.row([
                w.name.clone(),
                kind.to_string(),
                f3(s.branch_pki()),
                pct(frac(BranchClass::CondDirect)),
                pct(s.mix.cond_taken_ratio()),
                pct(frac(BranchClass::UncondDirect)),
                pct(frac(BranchClass::Call) + frac(BranchClass::IndirectCall)),
                pct(frac(BranchClass::Return)),
                pct(frac(BranchClass::IndirectCall) + frac(BranchClass::IndirectJump)),
            ]);
            blocks.row([
                w.name.clone(),
                kind.to_string(),
                f3(s.blocks.mean()),
                s.blocks.percentile(0.5).unwrap_or(0).to_string(),
                s.blocks.percentile(0.9).unwrap_or(0).to_string(),
                s.blocks.max_size().unwrap_or(0).to_string(),
            ]);
        }
    }
    ExperimentResult::tables(vec![mix, blocks])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_populations_appear_and_look_like_programs() {
        let result = run(Scale::quick());
        let mix = &result.tables[0];
        let kinds: Vec<&str> = mix.rows.iter().map(|r| r[1].as_str()).collect();
        assert!(kinds.contains(&"synthetic"));
        assert!(kinds.contains(&"program"));
        assert!(kinds.contains(&"scenario"));
        for row in &mix.rows {
            // Branch PKI in a plausible band for all populations: traces
            // dominated by straight-line or by branches would both signal
            // a calibration bug.
            let pki: f64 = row[2].parse().unwrap();
            assert!((20.0..=450.0).contains(&pki), "{row:?}");
        }
        let blocks = &result.tables[1];
        for row in &blocks.rows {
            let mean: f64 = row[2].parse().unwrap();
            assert!((2.0..=50.0).contains(&mean), "{row:?}");
        }
        // Statistics-only: nothing simulated.
        assert!(result.cells.is_empty());
    }
}
