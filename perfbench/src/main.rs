//! `perfbench`: the repository benchmark.
//!
//! One run drives every user-facing path of the reproduction from outside,
//! through public entry points only, in passes of four phases:
//!
//! * `catalogue` — all 27 registry experiments on a fresh
//!   `Harness::with_threads(nproc)` (trace generation, harness, batch pass);
//! * `kernel` — seven simulator configs over a large-footprint `server`
//!   trace and a tiny-footprint `microloop` trace, each solo through
//!   `Simulator::run_trace` and together through `run_batch`;
//! * `serve` — an in-process `fdip_serve::Server` driven over loopback by a
//!   closed loop of `nproc` keep-alive clients: cold and warm `/v1/run`,
//!   cold `/v1/compare`, `/healthz`;
//! * `dispatch` — small distinct cells, each through its own `run_matrix`
//!   call on an in-process, an isolated (`enable_isolation`) and a fleet
//!   (`enable_fleet`, one self-exec'd loopback `workerd`) harness.
//!
//! The workloads `large` and `small` run the same phases at two input
//! sizes (see [`Sizes`]). Every input is derived from `--seed`; every
//! output is checked (reference digests, batch-vs-solo and
//! transport-vs-in-process identity, warm-vs-cold bodies), and a mismatch
//! counts as a failed operation. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a traced run.
//!
//! Usage: `perfbench --workload large|small --seed N --seconds S --trace 0|1
//! [--corrupt-reference]`, or `perfbench --print-references` to regenerate
//! `references.txt` after an intended change of simulated output.

mod catalogue;
mod components;
mod dispatch;
mod http;
mod kernel;
mod refs;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fdip_sim::Scale;

use crate::refs::Refs;
use crate::spans::Tracer;
use crate::stats::Latencies;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Input sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Catalogue scale (trace length and workloads per suite).
    pub catalogue: Scale,
    /// Instructions in each kernel trace.
    pub kernel_len: usize,
    /// `trace_len` of every `/v1/run` and `/v1/compare` request.
    pub serve_len: usize,
    /// Cold `/v1/run` requests per pass (distinct, never-seen seeds).
    pub serve_cold: usize,
    /// Warm `/v1/run` requests per pass (replays of the cold seeds), a
    /// multiple of 500 (one timed round).
    pub serve_warm: usize,
    /// Cold `/v1/compare` requests per pass.
    pub serve_compare: usize,
    /// `/healthz` probes per pass.
    pub healthz: usize,
    /// Instructions per dispatch cell.
    pub dispatch_len: usize,
    /// Cells per pass, each through all three transports.
    pub dispatch_cells: usize,
    /// Seconds one pass takes on the reference host (2-core Xeon): sets
    /// the pass count for `--seconds`, so every run of a workload does the
    /// same work whatever the host's speed of the moment.
    pub nominal_pass_s: f64,
}

/// The workloads: the same phases at two input sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Medium-scale catalogue and 2M-instruction kernel traces:
    /// per-instruction simulation dominates every path.
    Large,
    /// Quick-scale catalogue and short traces: fixed per-call costs
    /// (threads, process and TCP hops, HTTP) weigh more.
    Small,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Large, Workload::Small];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Large => "large",
            Workload::Small => "small",
        }
    }

    /// Every size is one a user path of the repository already uses:
    /// `Scale::medium` and `Scale::quick` for the catalogue, `core_bench
    /// --full` and `--medium` trace lengths for the kernel (60K-instruction
    /// `--quick` traces time too briefly to read steadily), and
    /// `fdip-loadgen` and `fdip-loadgen --quick` request lengths for serve
    /// and (large) the dispatch cells. Small dispatch cells are 2K
    /// instructions, short enough that the process or TCP hop is most of
    /// an isolated or fleet cell.
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::Large => Sizes {
                catalogue: Scale::medium(),
                kernel_len: Scale::full().trace_len,
                serve_len: 60_000,
                serve_cold: 150,
                serve_warm: 6_000,
                serve_compare: 40,
                healthz: 20,
                dispatch_len: 20_000,
                dispatch_cells: 50,
                nominal_pass_s: 15.0,
            },
            Workload::Small => Sizes {
                catalogue: Scale::quick(),
                kernel_len: Scale::medium().trace_len,
                serve_len: 20_000,
                serve_cold: 100,
                serve_warm: 1_500,
                serve_compare: 10,
                healthz: 10,
                dispatch_len: 2_000,
                dispatch_cells: 20,
                nominal_pass_s: 2.4,
            },
        }
    }
}

/// Everything a phase needs to know about the run.
pub struct Ctx<'a> {
    pub sizes: Sizes,
    pub seed: u64,
    pub nproc: usize,
    pub tracer: &'a Tracer,
    pub refs: &'a Refs,
    pub tally: &'a Tally,
}

/// Operations attempted and failed, shared by every thread of the run.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Tally {
    /// Counts one operation; an `Err` is a failed one, with its reason.
    pub fn record(&self, outcome: Result<(), String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Err(why) = outcome {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut notes = self.notes.lock().expect("tally poisoned");
            if notes.len() < 20 {
                notes.push(why);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Measurements of one or more passes: one value per pass per name, and
/// latency pools.
#[derive(Default)]
pub struct Recorder {
    samples: BTreeMap<String, Vec<f64>>,
    pools: BTreeMap<String, Latencies>,
}

impl Recorder {
    pub fn sample(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    pub fn pool(&mut self, name: &str) -> &mut Latencies {
        self.pools.entry(name.to_string()).or_default()
    }

    fn merge(&mut self, other: Recorder) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
        for (name, pool) in other.pools {
            self.pools.entry(name).or_default().extend(&pool);
        }
    }

    /// Mean over passes (or rounds). Not the median: this host switches
    /// between a fast and a slow state every few seconds, so a median over
    /// passes reads whichever state held most passes and jumps by the whole
    /// gap between runs, where the mean moves with the share of each.
    fn mean(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| stats::mean(v))
    }

    /// Percentile `p` of a pool; `None` when the pool is empty.
    fn pct(&self, pool: &str, p: f64) -> Option<f64> {
        self.pools.get(pool)?.at(p)
    }

    /// The deepest supported percentile of a pool, else its maximum.
    fn tail(&self, pool: &str) -> Option<f64> {
        let pool = self.pools.get(pool)?;
        pool.tail().map(|(_, v)| v).or_else(|| pool.at(100.0))
    }
}

/// The set-up state every pass uses.
struct Rigs {
    kernel: kernel::Inputs,
    serve: serve::Rig,
    dispatch: dispatch::Rig,
}

fn set_up(ctx: &Ctx, index: usize) -> std::io::Result<Rigs> {
    let span = ctx.tracer.span("bench.setup", 0);
    let kernel = kernel::Inputs::generate(ctx, span.id());
    let serve = serve::Rig::start(ctx, index)?;
    let dispatch = match dispatch::Rig::start(ctx, index) {
        Ok(rig) => rig,
        Err(e) => {
            serve.stop();
            return Err(e);
        }
    };
    Ok(Rigs {
        kernel,
        serve,
        dispatch,
    })
}

fn tear_down(rigs: Rigs) {
    rigs.serve.stop();
    rigs.dispatch.stop();
}

/// One pass of the four phases; returns its wall time in seconds.
fn pass(ctx: &Ctx, rigs: &Rigs, index: usize, rec: &mut Recorder) -> f64 {
    let started = Instant::now();
    let span = ctx.tracer.span("bench.pass", 0);
    let parent = span.id();
    catalogue::pass(ctx, rec, parent);
    kernel::pass(ctx, &rigs.kernel, rec, parent);
    serve::pass(ctx, &rigs.serve, index, rec, parent);
    dispatch::pass(ctx, &rigs.dispatch, index, rec, parent);
    started.elapsed().as_secs_f64()
}

/// Layer measurements that only the traced run takes, outside the timed
/// pass so that they do not count as tracing overhead.
fn traced_extras(ctx: &Ctx, rigs: &Rigs, rec: &mut Recorder) {
    let span = ctx.tracer.span("bench.extras", 0);
    catalogue::trace_layer(ctx, rec, span.id());
    kernel::walk_capture(ctx, &rigs.kernel, rec, span.id());
    components::replay(ctx, &rigs.kernel, rec, span.id());
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-references") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut corrupt_reference = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?} (large|small)"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        corrupt_reference,
    }))
}

fn main() {
    // Isolation workers and the fleet's workerd are this binary, self-exec'd.
    fdip_sim::worker::maybe_worker_entry();
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            refs::print_references();
            return;
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload large|small --seed N --seconds S --trace 0|1 \
                 [--corrupt-reference] | --print-references"
            );
            std::process::exit(2);
        }
    };
    let refs = Refs::committed(args.corrupt_reference);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_id = stats::mix(args.seed, u64::from(std::process::id()));
    // Set-up and untraced passes use the silent tracer; traced passes
    // record into `tracer`.
    let tracer = Tracer::new(true, run_id);
    let quiet = Tracer::new(false, run_id);
    let tally = Tally::default();
    let ctx = Ctx {
        sizes: args.workload.sizes(),
        seed: args.seed,
        nproc,
        tracer: &quiet,
        refs: &refs,
        tally: &tally,
    };
    println!("{}", host_block(args.workload, args.seed, nproc));

    // Set up several times so set-up cost is a median, not one sample;
    // the last set-up serves the run.
    let mut setup_s = Vec::new();
    let mut rigs = None;
    for index in 0..SETUPS {
        let started = Instant::now();
        let fresh = match set_up(&ctx, index) {
            Ok(fresh) => fresh,
            Err(e) => {
                if let Some(old) = rigs.take() {
                    tear_down(old);
                }
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(1);
            }
        };
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = rigs.replace(fresh) {
            tear_down(old);
        }
    }
    let rigs = rigs.expect("at least one set-up");

    // A traced run starts with one warm-up pass (checked, not measured),
    // then runs pairs of a plain and a traced pass, the order alternating
    // from pair to pair; the tracing overhead is the median over pairs of
    // traced time over plain time. A host more than 2.5x slower than the
    // reference stops early rather than overrun; a merely slow spell of
    // this host still runs every pass, so every run does the same work.
    let passes = (args.seconds / ctx.sizes.nominal_pass_s).round().max(1.0) as usize;
    let (warm_up, passes) = if args.trace {
        (1, 1 + 2 * (passes.saturating_sub(1) / 2).max(1))
    } else {
        (0, passes)
    };
    let cpu_before = cpu_ticks();
    let started = Instant::now();
    let mut plain = Recorder::default();
    let mut traced = Recorder::default();
    let mut plain_s = Vec::new();
    let mut overhead = Vec::new();
    let mut pair_s = (0.0, 0.0);
    for index in 0..passes {
        let min_passes = warm_up + if args.trace { 2 } else { 1 };
        if index >= min_passes
            && (!args.trace || (index - warm_up) % 2 == 0)
            && started.elapsed().as_secs_f64() > 2.5 * args.seconds
        {
            break;
        }
        let mut rec = Recorder::default();
        if index < warm_up {
            pass(&ctx, &rigs, index, &mut rec);
            continue;
        }
        let k = index - warm_up;
        let traced_turn = args.trace && (k % 2 == 1) == (k / 2 % 2 == 0);
        if traced_turn {
            let traced_ctx = Ctx {
                tracer: &tracer,
                ..ctx
            };
            pair_s.1 = pass(&traced_ctx, &rigs, index, &mut rec);
            traced_extras(&traced_ctx, &rigs, &mut rec);
            traced.merge(rec);
        } else {
            pair_s.0 = pass(&ctx, &rigs, index, &mut rec);
            plain_s.push(pair_s.0);
            plain.merge(rec);
        }
        if args.trace && k % 2 == 1 {
            overhead.push((pair_s.1 / pair_s.0 - 1.0) * 100.0);
        }
    }
    kernel::rates(&rigs.kernel, &mut plain);
    kernel::rates(&rigs.kernel, &mut traced);
    tear_down(rigs);

    let peak_rss_mb = peak_rss_mb();
    // Time the hypervisor gave to other guests while this run's passes ran:
    // the figures of a run with much of it are slow for reasons outside
    // the code.
    if let (Some((steal0, all0)), Some((steal1, all1))) = (cpu_before, cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64;
        println!("host_steal_pct {:.2}", share * 100.0);
    }
    let (metrics, report) = if args.trace {
        per_layer_metrics(&traced, &tracer, stats::median(&overhead))
    } else {
        end_to_end_metrics(&plain, stats::median(&setup_s), peak_rss_mb)
    };
    for line in &report {
        println!("{line}");
    }
    println!(
        "passes {} ({warm_up} warm-up, {} traced), setup_s samples {setup_s:?}, \
         tracing overhead per pair {overhead:?} %, peak_rss_mb {peak_rss_mb:.1}",
        warm_up + plain_s.len() + overhead.len(),
        overhead.len(),
    );
    if args.trace {
        let path = std::path::PathBuf::from("perfbench-out").join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for note in tally.notes.lock().expect("tally poisoned").iter() {
        eprintln!("perfbench: FAILED {note}");
    }
    let failed = tally.failed();
    let well_formed = metrics
        .iter()
        .all(|(name, v, _)| v.is_finite() && stats::valid_metric_name(name));
    let correct = failed == 0 && well_formed;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        tally.attempted().max(1),
        body.join(", ")
    );
}

type Metric = (String, f64, &'static str);

/// The end-to-end metrics: (name, unit), in report order. Every workload
/// reports all of them.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("catalogue_s", "s"),
    ("sim_minstr_per_s.server", "Minstr/s"),
    ("sim_minstr_per_s.microloop", "Minstr/s"),
    ("batch_minstr_per_s.server", "Minstr/s"),
    ("batch_minstr_per_s.microloop", "Minstr/s"),
    ("run_cold_p50_ms", "ms"),
    ("run_cold_p90_ms", "ms"),
    ("run_warm_p50_ms", "ms"),
    ("run_warm_rps", "1/s"),
    ("compare_p50_ms", "ms"),
    ("cell_p50_ms.inproc", "ms"),
    ("cell_p50_ms.isolate", "ms"),
    ("cell_p50_ms.fleet", "ms"),
];

fn end_to_end_metrics(
    rec: &Recorder,
    setup_s: f64,
    peak_rss_mb: f64,
) -> (Vec<Metric>, Vec<String>) {
    let value = |name: &str| -> Option<f64> {
        match name {
            "setup_s" => Some(setup_s),
            "peak_rss_mb" => Some(peak_rss_mb),
            _ => rec.mean(name),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), value(name).unwrap_or(f64::NAN), unit))
        .collect();
    (metrics, describe(rec))
}

/// The per-layer metrics: (name, unit), in report order. Names carry the
/// layer as their first word; `layers.json` maps each to the end-to-end
/// metric it should move.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for kind in ["profile", "program", "scenario"] {
        add(format!("trace.generate_ms.{kind}"), "ms");
    }
    add("trace.measure_ms".into(), "ms");
    add("trace.instrs_generated".into(), "count");
    for (t, _, _, _) in kernel::TRACES {
        for (c, _) in kernel::configs() {
            add(format!("core.run_trace_ms.{c}.{t}"), "ms");
            add(format!("core.sim_cycles.{c}.{t}"), "count");
            add(format!("core.ns_per_cycle.{c}.{t}"), "ns");
        }
        add(format!("core.walk_capture_ms.{t}"), "ms");
        add(format!("core.run_batch_ms.{t}"), "ms");
        add(format!("core.batch_multiple.{t}"), "x");
    }
    for b in components::BTBS {
        add(format!("btb.lookup_ns.{b}"), "ns");
    }
    for p in components::PREDICTORS {
        add(format!("bpred.predict_update_ns.{p}"), "ns");
    }
    add("mem.l1i_access_ns".into(), "ns");
    for exp in fdip_sim::experiments::all() {
        add(format!("harness.exp_ms.{}", exp.id()), "ms");
    }
    for counter in catalogue::COUNTERS {
        add(format!("harness.{counter}"), "count");
    }
    add("harness.cell_hit_ratio".into(), "ratio");
    add("harness.batched_share".into(), "ratio");
    for t in dispatch::TRANSPORTS {
        add(format!("dispatch.cell_ms.{t}.p50"), "ms");
        add(format!("dispatch.cell_ms.{t}.p90"), "ms");
    }
    add("dispatch.hop_ms.isolate".into(), "ms");
    add("dispatch.hop_ms.fleet".into(), "ms");
    for counter in dispatch::COUNTERS {
        add(format!("dispatch.{counter}"), "count");
    }
    for route in serve::ROUTES {
        add(format!("serve.{route}_ms.p50"), "ms");
        add(format!("serve.{route}_ms.tail"), "ms");
    }
    for counter in serve::COUNTERS {
        add(format!("serve.{counter}"), "count");
    }
    for layer in LAYERS {
        add(format!("self_ms.{layer}"), "ms");
    }
    add("tracing_overhead_pct".into(), "%");
    out
}

/// The layers spans are attributed to.
pub const LAYERS: [&str; 8] = [
    "trace", "core", "btb", "bpred", "mem", "harness", "dispatch", "serve",
];

fn per_layer_metrics(
    rec: &Recorder,
    tracer: &Tracer,
    overhead_pct: f64,
) -> (Vec<Metric>, Vec<String>) {
    let self_ns = spans::self_time_by_layer(&tracer.spans());
    let traced_passes = rec.samples.get("catalogue_s").map_or(1, Vec::len).max(1) as f64;
    let value = |name: &str| -> Option<f64> {
        if let Some(layer) = name.strip_prefix("self_ms.") {
            // Per traced pass, so the figure does not grow with run length.
            return Some(self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / traced_passes);
        }
        if name == "tracing_overhead_pct" {
            return Some(overhead_pct);
        }
        if let Some(rest) = name.strip_prefix("dispatch.hop_ms.") {
            let inproc = rec.pct("dispatch.cell.inproc", 50.0)?;
            return Some(rec.pct(&format!("dispatch.cell.{rest}"), 50.0)? - inproc);
        }
        if let Some(rest) = name.strip_prefix("dispatch.cell_ms.") {
            let (transport, p) = rest.rsplit_once('.')?;
            let p = if p == "p50" { 50.0 } else { 90.0 };
            return rec.pct(&format!("dispatch.cell.{transport}"), p);
        }
        if let Some(rest) = name.strip_prefix("serve.") {
            if let Some((route, which)) = rest.split_once("_ms.") {
                let pool = format!("serve.{route}");
                return if which == "p50" {
                    rec.pct(&pool, 50.0)
                } else {
                    rec.tail(&pool)
                };
            }
        }
        rec.mean(name)
    };
    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = value(&name).unwrap_or(f64::NAN);
            (name, v, unit)
        })
        .collect();
    (metrics, describe(rec))
}

/// Report lines: every sampled value with its quartiles over passes, and
/// every latency pool with its count, median and supported tail.
fn describe(rec: &Recorder) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, values) in &rec.samples {
        let (q1, med, q3) = stats::quartiles(values);
        lines.push(format!(
            "sample {name} n={} q1={q1:.6} median={med:.6} q3={q3:.6}",
            values.len()
        ));
    }
    for (name, pool) in &rec.pools {
        lines.push(format!("timing {name}_ms {}", pool.describe()));
    }
    lines
}

/// The host block: what the numbers of this run depend on.
fn host_block(workload: Workload, seed: u64, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host {{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}, \"cpu\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
        workload.name(),
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_DIGEST"),
    )
}

/// The machine's stolen and total CPU ticks so far (`/proc/stat`).
fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_types::Json;

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn every_metric_name_fits_the_grammar_once() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        assert!(names.len() <= 16 + 128);
        for name in &names {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
    }
}
