//! The `dispatch` phase: small, distinct cells, each through its own
//! `run_matrix` call on three harnesses — in-process, isolated in
//! supervised worker processes, and dispatched to one loopback `workerd`
//! over TCP. The cells are short, so the process and TCP hop dominate the
//! isolated and fleet cells; the in-process cell is the floor.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fdip::{FrontendConfig, PrefetcherKind};
use fdip_sim::fleet::FleetConfig;
use fdip_sim::harness::Harness;
use fdip_sim::supervisor::SupervisorConfig;
use fdip_sim::worker::{WORKERD_LISTEN_ENV, WORKERD_SLOTS_ENV, WORKER_ENV};
use fdip_sim::workload::{WorkloadSource, WorkloadSpec};
use fdip_trace::gen::Profile;
use fdip_types::ToJson;

use crate::spans::SpanId;
use crate::stats::mix;
use crate::{Ctx, Recorder};

/// Transports, in the order each cell visits them.
pub const TRANSPORTS: [&str; 3] = ["inproc", "isolate", "fleet"];

/// Harness counters reported per traced pass (each pass has fresh
/// harnesses, so these are the pass's own).
pub const COUNTERS: [&str; 3] = ["worker_restarts", "cells_redispatched", "node_losses"];

/// Seed stream of the dispatch cells.
const STREAM: u64 = 3;

fn cell(run_seed: u64, offset: u64) -> WorkloadSpec {
    let seed = mix(run_seed, STREAM) % (1 << 40) + offset;
    WorkloadSpec {
        name: format!("microloop~c{seed}"),
        source: WorkloadSource::Profile(Profile::MicroLoop),
        seed,
    }
}

fn configs() -> Vec<(String, FrontendConfig)> {
    vec![(
        "fdip".to_string(),
        FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
    )]
}

/// A `workerd` self-exec'd from this binary, listening on loopback.
struct Workerd {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Workerd {
    fn spawn(slots: usize) -> std::io::Result<Workerd> {
        let mut child = Command::new(std::env::current_exe()?)
            .env(WORKERD_LISTEN_ENV, "127.0.0.1:0")
            .env(WORKERD_SLOTS_ENV, slots.to_string())
            .env_remove(WORKER_ENV)
            .env_remove("FDIP_FAULTS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut banner = String::new();
        let read = reader.read_line(&mut banner);
        let addr = banner
            .strip_prefix("fdip-workerd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "unexpected workerd banner {banner:?}"
            )));
        };
        // Keep the pipe drained so the daemon never blocks on it; the
        // thread ends when the daemon does.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Ok(Workerd {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Worker processes the daemon still has running.
    fn children(&self) -> usize {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.child.id())) else {
            return 0;
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
            .map(|list| list.split_whitespace().count())
            .sum()
    }

    /// Waits (bounded) for the daemon to retire its workers — it kills
    /// them once their fleet connections close — then stops it.
    fn stop(self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.children() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Workerd {
    /// Also runs when a panic unwinds past the rig, so the daemon never
    /// outlives the run.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The daemon behind the fleet harnesses; it lives for the whole run.
pub struct Rig {
    workerd: Workerd,
}

impl Rig {
    /// Spawns the daemon and proves all three transports with one warm-up
    /// cell each.
    pub fn start(ctx: &Ctx, index: usize) -> std::io::Result<Rig> {
        let rig = Rig {
            workerd: Workerd::spawn(ctx.nproc)?,
        };
        match rig.harnesses(ctx, index as u64) {
            Ok(_) => Ok(rig),
            Err(e) => {
                rig.stop();
                Err(e)
            }
        }
    }

    /// Fresh in-process, isolated and fleet harnesses, each warmed up with
    /// one cell so worker processes and connections exist before timing.
    /// A pass drops them at its end, so no pass inherits another's traces.
    fn harnesses(&self, ctx: &Ctx, warm_up: u64) -> std::io::Result<[Harness; 3]> {
        let inproc = Harness::with_threads(ctx.nproc);
        let isolate = Harness::with_threads(ctx.nproc);
        isolate.enable_isolation(SupervisorConfig {
            workers: ctx.nproc,
            ..SupervisorConfig::default()
        });
        let fleet = Harness::with_threads(ctx.nproc);
        fleet.enable_fleet(FleetConfig::new(vec![self.workerd.addr.clone()]))?;
        let harnesses = [inproc, isolate, fleet];
        let spec = cell(ctx.seed, warm_up);
        for (name, harness) in TRANSPORTS.iter().zip(&harnesses) {
            let results = harness.run_matrix(
                std::slice::from_ref(&spec),
                ctx.sizes.dispatch_len,
                &configs(),
            );
            let failure = results.failures().next().map(|r| format!("{:?}", r.error));
            if let Some(err) = failure {
                return Err(std::io::Error::other(format!(
                    "dispatch warm-up on {name}: {err}"
                )));
            }
        }
        Ok(harnesses)
    }

    /// Stops the daemon once it has retired its workers.
    pub fn stop(self) {
        self.workerd.stop();
    }
}

fn counters(harness: &Harness) -> [u64; 3] {
    let s = harness.stats();
    [s.worker_restarts, s.cells_redispatched, s.node_losses]
}

/// Sends the pass's cells, each through every transport in turn, on
/// fresh harnesses (dropped at the end, so no pass inherits another's
/// traces), and checks each isolated and fleet result against in-process.
pub fn pass(ctx: &Ctx, rig: &Rig, index: usize, rec: &mut Recorder, parent: SpanId) {
    let base = (index as u64 + 1) * 1_000_000;
    let harnesses = match rig.harnesses(ctx, base + 999_999) {
        Ok(harnesses) => harnesses,
        Err(e) => return ctx.tally.record(Err(format!("dispatch pass {index}: {e}"))),
    };
    let span = ctx.tracer.span("bench.dispatch", parent);
    let configs = configs();
    for i in 0..ctx.sizes.dispatch_cells {
        let spec = cell(ctx.seed, base + i as u64);
        let mut inproc: Option<String> = None;
        for (name, harness) in TRANSPORTS.iter().zip(&harnesses) {
            let cell_span = ctx.tracer.span(format!("dispatch.cell.{name}"), span.id());
            let started = Instant::now();
            let results = harness.run_matrix(
                std::slice::from_ref(&spec),
                ctx.sizes.dispatch_len,
                &configs,
            );
            let ms = started.elapsed().as_secs_f64() * 1e3;
            drop(cell_span);
            rec.pool(&format!("dispatch.cell.{name}")).push(ms);
            let outcome = match results.first() {
                Some(r) if r.error.is_some() => {
                    Err(format!("dispatch {name} cell {i}: {:?}", r.error))
                }
                Some(r) => {
                    let doc = r.to_json().to_string();
                    match &inproc {
                        None => {
                            inproc = Some(doc);
                            Ok(())
                        }
                        Some(local) if *local == doc => Ok(()),
                        Some(_) => Err(format!("dispatch {name} cell {i}: differs from inproc")),
                    }
                }
                None => Err(format!("dispatch {name} cell {i}: no result")),
            };
            ctx.tally.record(outcome);
        }
    }
    drop(span);
    for name in TRANSPORTS {
        let pool = format!("dispatch.cell.{name}");
        if let Some(p50) = rec.pool(&pool).at(50.0) {
            rec.sample(format!("cell_p50_ms.{name}"), p50);
        }
    }
    let mut total = [0u64; 3];
    for harness in &harnesses {
        for (k, n) in counters(harness).iter().enumerate() {
            total[k] += n;
        }
    }
    for (name, n) in COUNTERS.iter().zip(total) {
        rec.sample(format!("dispatch.{name}"), n as f64);
    }
}
