//! X1 — branch target offset distribution ("Revisited" Figure 3): the
//! insight motivating the partitioned BTB.

use crate::experiments::ExperimentResult;
use crate::harness::Harness;
use crate::report::{pct, Table};
use crate::workload::{suite, SuiteKind};
use crate::Scale;

/// Experiment id.
pub const ID: &str = "x1";
/// Experiment title.
pub const TITLE: &str = "branch target offset distribution (Fig. 3)";

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

fn run_with(harness: &Harness, scale: Scale) -> ExperimentResult {
    let workloads = suite(SuiteKind::All, scale);

    let mut table = Table::new(
        format!("{ID}: {TITLE} — dynamic taken branches by offset width"),
        &[
            "workload",
            "<=8 bits",
            "9-13 bits",
            "14-23 bits",
            ">23 bits",
            "max bits",
        ],
    );
    let mut detail = Table::new(
        format!("{ID}b: per-width fractions (server suite, first workload)"),
        &["bits", "fraction"],
    );
    for (index, w) in workloads.iter().enumerate() {
        let summary = harness.trace_summary(w, scale.trace_len);
        let stats = &summary.stats;
        let c8 = stats.offsets.cumulative_fraction(8);
        let c13 = stats.offsets.cumulative_fraction(13);
        let c23 = stats.offsets.cumulative_fraction(23);
        table.row([
            w.name.clone(),
            pct(c8),
            pct(c13 - c8),
            pct(c23 - c13),
            pct(1.0 - c23),
            stats.offsets.max_bits().unwrap_or(0).to_string(),
        ]);
        if index == workloads.len() - 1 {
            let max = stats.offsets.max_bits().unwrap_or(0);
            for bits in 0..=max {
                let fraction = stats.offsets.fraction(bits);
                if fraction > 0.0005 {
                    detail.row([bits.to_string(), pct(fraction)]);
                }
            }
        }
    }
    ExperimentResult::tables(vec![table, detail])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_offsets_dominate_and_long_ones_are_rare() {
        let result = run(Scale::quick());
        for row in &result.tables[0].rows {
            let short: f64 = row[1].trim_end_matches('%').parse().unwrap();
            let long: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(short > 50.0, "{row:?}");
            assert!(long < 15.0, "{row:?}");
        }
    }
}
