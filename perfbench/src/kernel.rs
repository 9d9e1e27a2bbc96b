//! The `kernel` phase: the simulator alone, without harness or trace
//! generation in the timed region. Seven configs run solo through
//! `Simulator::run_trace` and together through one `run_batch`, over a
//! large-footprint `server` trace (memory hierarchy and prefetch engines
//! busy) and a tiny-footprint `microloop` trace (they idle), so a change
//! to the memory side shows on the first and should not on the second.

use std::hint::black_box;
use std::time::Instant;

use fdip::{
    run_batch, BtbVariant, CpfMode, FrontendConfig, PrefetcherKind, SharedWalk, SimStats, Simulator,
};
use fdip_trace::gen::{GeneratorConfig, Profile};
use fdip_trace::Trace;
use fdip_types::ToJson;

use crate::refs;
use crate::spans::SpanId;
use crate::stats::digest;
use crate::{Ctx, Recorder};

/// The kernel traces: name, generator profile, generator seed (the seed
/// `core_bench` uses) and rounds per pass. The traces are fixed rather than
/// drawn from the workload seed: across generator seeds the simulation
/// rate of a trace moves by up to ±20%, more than any bound on these
/// metrics could absorb. `microloop` simulates about 4x faster than
/// `server`, so it runs 4 rounds and both take a similar share of a pass.
pub const TRACES: [(&str, Profile, u64, usize); 2] = [
    ("server", Profile::Server, 5, 1),
    ("microloop", Profile::MicroLoop, 5, 4),
];

/// The seven configuration classes `core_bench` tracks, including the
/// partitioned FDIP-X BTB and the basic-block BTB.
pub fn configs() -> Vec<(&'static str, FrontendConfig)> {
    let base = FrontendConfig::default;
    vec![
        ("baseline", base()),
        ("fdip", base().with_prefetcher(PrefetcherKind::fdip())),
        (
            "fdip_cpf",
            base().with_prefetcher(PrefetcherKind::fdip_with_cpf(CpfMode::Both)),
        ),
        (
            "fdip_x",
            base()
                .with_btb(BtbVariant::partitioned(2048))
                .with_prefetcher(PrefetcherKind::fdip()),
        ),
        (
            "ftb_fdip",
            base()
                .with_btb(BtbVariant::basic_block(2048))
                .with_prefetcher(PrefetcherKind::fdip()),
        ),
        (
            "stream",
            base().with_prefetcher(PrefetcherKind::StreamBuffers(Default::default())),
        ),
        (
            "pif",
            base().with_prefetcher(PrefetcherKind::Pif(Default::default())),
        ),
    ]
}

fn generate(profile: Profile, seed: u64, len: usize) -> Trace {
    GeneratorConfig::profile(profile)
        .seed(seed)
        .target_len(len)
        .generate()
}

/// The kernel traces of one run, with their rounds per pass.
pub struct Inputs {
    pub traces: Vec<(&'static str, Trace, usize)>,
}

impl Inputs {
    /// Builds the traces (part of set-up).
    pub fn generate(ctx: &Ctx, parent: SpanId) -> Inputs {
        let traces = TRACES
            .iter()
            .map(|&(name, profile, seed, rounds)| {
                let _span = ctx
                    .tracer
                    .span(format!("trace.generate.kernel_{name}"), parent);
                (name, generate(profile, seed, ctx.sizes.kernel_len), rounds)
            })
            .collect();
        Inputs { traces }
    }
}

/// One kernel pass: per trace and round, each config solo through
/// `run_trace` and then the whole set through one `run_batch`, which must
/// agree with the solo runs and with the reference.
pub fn pass(ctx: &Ctx, inputs: &Inputs, rec: &mut Recorder, parent: SpanId) {
    let configs = configs();
    let all: Vec<FrontendConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
    for (t, trace, rounds) in &inputs.traces {
        for _ in 0..*rounds {
            let mut solo: Vec<SimStats> = Vec::new();
            for (c, config) in &configs {
                let span = ctx.tracer.span(format!("core.run_trace.{c}.{t}"), parent);
                let started = Instant::now();
                let stats = black_box(Simulator::run_trace(config, black_box(trace)));
                let secs = started.elapsed().as_secs_f64();
                drop(span);
                rec.sample(format!("core.run_trace_ms.{c}.{t}"), secs * 1e3);
                rec.sample(format!("core.sim_cycles.{c}.{t}"), stats.cycles as f64);
                rec.sample(
                    format!("core.ns_per_cycle.{c}.{t}"),
                    secs * 1e9 / stats.cycles.max(1) as f64,
                );
                let d = digest(stats.to_json().to_string().as_bytes());
                let reference = ctx.refs.kernel(ctx.sizes.kernel_len, t, c);
                ctx.tally
                    .record(refs::check(&format!("kernel {t} {c}"), d, reference));
                solo.push(stats);
            }

            let span = ctx.tracer.span(format!("core.run_batch.{t}"), parent);
            let started = Instant::now();
            let batch = black_box(run_batch(&all, black_box(trace)));
            let secs = started.elapsed().as_secs_f64();
            drop(span);
            rec.sample(format!("core.run_batch_ms.{t}"), secs * 1e3);
            let mismatched: Vec<&str> = (configs.iter().zip(solo.iter().zip(&batch)))
                .filter(|(_, (s, b))| s != b)
                .map(|((c, _), _)| *c)
                .collect();
            ctx.tally
                .record(if batch.len() == solo.len() && mismatched.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "kernel {t}: run_batch differs from run_trace for {mismatched:?}"
                    ))
                });
        }
    }
}

/// The kernel rates of a run: 7 x the trace's instructions over the
/// summed mean solo time of the configs, and over the mean batch time —
/// all the instructions a run simulated over all the time it took.
pub fn rates(inputs: &Inputs, rec: &mut Recorder) {
    let configs = configs();
    for (t, trace, _) in &inputs.traces {
        let solo: Option<f64> = (configs.iter())
            .map(|(c, _)| rec.mean(&format!("core.run_trace_ms.{c}.{t}")))
            .sum();
        let (Some(solo), Some(batch)) = (solo, rec.mean(&format!("core.run_batch_ms.{t}"))) else {
            continue;
        };
        let instrs = (configs.len() * trace.len()) as f64;
        rec.sample(format!("sim_minstr_per_s.{t}"), instrs / solo / 1e3);
        rec.sample(format!("batch_minstr_per_s.{t}"), instrs / batch / 1e3);
        rec.sample(format!("core.batch_multiple.{t}"), solo / batch);
    }
}

/// Times the shared BPU walk capture the batch pass starts with (traced
/// runs only: the batch already includes it).
pub fn walk_capture(ctx: &Ctx, inputs: &Inputs, rec: &mut Recorder, parent: SpanId) {
    let config = FrontendConfig::default();
    for (t, trace, _) in &inputs.traces {
        let _span = ctx.tracer.span(format!("core.walk_capture.{t}"), parent);
        let started = Instant::now();
        black_box(SharedWalk::capture(&config, trace));
        rec.sample(
            format!("core.walk_capture_ms.{t}"),
            started.elapsed().as_secs_f64() * 1e3,
        );
    }
}

/// Reference digests of every config over each kernel trace of `len`.
pub fn reference(len: usize) -> Vec<(&'static str, &'static str, u64)> {
    let mut out = Vec::new();
    for &(t, profile, seed, _) in &TRACES {
        let trace = generate(profile, seed, len);
        for (c, config) in configs() {
            let stats = Simulator::run_trace(&config, &trace);
            out.push((t, c, digest(stats.to_json().to_string().as_bytes())));
        }
    }
    out
}
