//! The `catalogue` phase: the researcher's path, all 27 registry
//! experiments on a fresh harness, so trace generation, the cell cache and
//! the batch pass do real work on every pass.

use std::time::Instant;

use fdip_sim::experiments::{self, r1_real_programs::SCENARIO_SEED, Experiment, ExperimentResult};
use fdip_sim::harness::{Harness, HarnessStats};
use fdip_sim::workload::{program_suite, scenario_suite, suite, SuiteKind};
use fdip_sim::Scale;
use fdip_trace::TraceStats;

use crate::refs::{self, Counters};
use crate::spans::SpanId;
use crate::stats::digest;
use crate::{Ctx, Recorder};

/// The harness counters a catalogue pass checks against its reference.
pub const COUNTERS: [&str; 5] = [
    "traces_generated",
    "cells_simulated",
    "cells_batched",
    "cell_hits",
    "cells_failed",
];

fn counters(stats: &HarnessStats) -> Counters {
    [
        stats.traces_generated,
        stats.cells_simulated,
        stats.cells_batched,
        stats.cell_hits,
        stats.cells_failed,
    ]
}

fn result_digest(exp: &dyn Experiment, result: &ExperimentResult) -> u64 {
    digest(result.to_json(exp.id(), exp.title()).to_string().as_bytes())
}

/// Runs the catalogue on a fresh harness and checks every result digest
/// and the harness counters. `catalogue_s` is the sum of the experiments'
/// own times.
pub fn pass(ctx: &Ctx, rec: &mut Recorder, parent: SpanId) {
    let scale = ctx.sizes.catalogue;
    let harness = Harness::with_threads(ctx.nproc);
    let experiments = experiments::all();
    let mut done = Vec::new();
    for exp in &experiments {
        let span = ctx.tracer.span(format!("harness.exp.{}", exp.id()), parent);
        let started = Instant::now();
        let result = exp.run(&harness, scale);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        drop(span);
        done.push((*exp, result, ms));
    }
    rec.sample("catalogue_s", done.iter().map(|d| d.2).sum::<f64>() / 1e3);

    for (exp, result, ms) in &done {
        let id = exp.id();
        rec.sample(format!("harness.exp_ms.{id}"), *ms);
        let d = result_digest(*exp, result);
        let what = format!("catalogue {id}");
        ctx.tally.record(refs::check(
            &what,
            d,
            ctx.refs.catalogue(scale.trace_len, id),
        ));
    }
    let stats = harness.stats();
    let actual = counters(&stats);
    ctx.tally.record(match ctx.refs.counters(scale.trace_len) {
        Some(r) if r == actual => Ok(()),
        Some(r) => Err(format!("catalogue counters {actual:?} != reference {r:?}")),
        None => Err("catalogue counters: no reference".to_string()),
    });
    for (name, value) in COUNTERS.iter().zip(actual) {
        rec.sample(format!("harness.{name}"), value as f64);
    }
    let requests = stats.cell_requests().max(1) as f64;
    rec.sample("harness.cell_hit_ratio", stats.cell_hits as f64 / requests);
    let simulated = stats.cells_simulated.max(1) as f64;
    rec.sample(
        "harness.batched_share",
        stats.cells_batched as f64 / simulated,
    );
}

/// The trace layer on its own: generates and measures the catalogue's
/// traces, by source kind, outside any harness. The harness of a
/// catalogue pass generates exactly these, so their cost is its share of
/// `catalogue_s`.
pub fn trace_layer(ctx: &Ctx, rec: &mut Recorder, parent: SpanId) {
    let scale = ctx.sizes.catalogue;
    let groups = [
        ("profile", suite(SuiteKind::All, scale)),
        ("program", program_suite()),
        ("scenario", scenario_suite(SCENARIO_SEED)),
    ];
    let mut measure_ms = 0.0;
    let mut instrs = 0usize;
    let mut specs = 0u64;
    for (kind, group) in groups {
        let mut generate_ms = 0.0;
        for spec in group {
            specs += 1;
            let span = ctx.tracer.span(format!("trace.generate.{kind}"), parent);
            let started = Instant::now();
            let trace = spec.generate(scale.trace_len);
            generate_ms += started.elapsed().as_secs_f64() * 1e3;
            drop(span);
            instrs += trace.len();
            let _span = ctx.tracer.span("trace.measure", parent);
            let started = Instant::now();
            std::hint::black_box(TraceStats::measure(&trace));
            measure_ms += started.elapsed().as_secs_f64() * 1e3;
        }
        rec.sample(format!("trace.generate_ms.{kind}"), generate_ms);
    }
    rec.sample("trace.measure_ms", measure_ms);
    rec.sample("trace.instrs_generated", instrs as f64);
    // The catalogue's own trace count: a drift here means these spans no
    // longer measure what the catalogue generates.
    ctx.tally.record(match ctx.refs.counters(scale.trace_len) {
        Some(r) if r[0] == specs => Ok(()),
        Some(r) => Err(format!(
            "trace layer generated {specs} traces, catalogue {}",
            r[0]
        )),
        None => Err("trace layer: no reference".to_string()),
    });
}

/// Reference digests and counters of the catalogue at `scale`.
pub fn reference(scale: Scale) -> (Vec<(&'static str, u64)>, Counters) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let harness = Harness::with_threads(threads);
    let digests = experiments::all()
        .into_iter()
        .map(|exp| (exp.id(), result_digest(exp, &exp.run(&harness, scale))))
        .collect();
    (digests, counters(&harness.stats()))
}
