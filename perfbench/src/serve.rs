//! The `serve` phase: an in-process `fdip_serve::Server` with `nproc`
//! workers, driven over loopback HTTP by a closed loop of `nproc`
//! keep-alive clients (each sends its next request when the previous
//! answer arrives).
//!
//! * cold `/v1/run` on seeds this server has never seen: trace generation
//!   and simulation dominate;
//! * warm `/v1/run` replaying those seeds: the serve layer dominates
//!   (parse, admission, cell-cache hit, encode, write);
//! * cold `/v1/compare`: a batched four-config matrix behind HTTP;
//! * `/healthz`, answered by the event loop itself.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use fdip_serve::{ServeConfig, Server, ShutdownHandle};

use crate::http::{self, Client};
use crate::spans::SpanId;
use crate::stats::{mix, Latencies};
use crate::{Ctx, Recorder};

/// Latency pools, named `serve.<route>`.
pub const ROUTES: [&str; 4] = ["run_cold", "run_warm", "compare", "healthz"];

/// `/metrics` counter deltas reported per traced pass.
pub const COUNTERS: [&str; 4] = ["coalesced", "shed", "cells_simulated", "cell_hits"];

const METRIC_NAMES: [&str; 4] = [
    "fdip_serve_coalesced_total",
    "fdip_serve_shed_total",
    "fdip_serve_harness_cells_simulated_total",
    "fdip_serve_harness_cell_hits_total",
];

/// Candidate configs of every `/v1/compare` (the server adds the baseline).
const COMPARE_CONFIGS: &str = r#"[{"label": "fdip", "prefetcher": "fdip"}, {"label": "fdip_cpf", "prefetcher": "fdip", "cpf": "both"}, {"label": "stream", "prefetcher": "stream"}]"#;

/// Warm `/v1/run` requests per timed round.
const WARM_ROUND: usize = 500;

/// Cells one `/v1/compare` simulates: the baseline plus each candidate.
const COMPARE_CELLS: u64 = 4;

/// Seed stream of the serve phase.
const STREAM: u64 = 2;

/// Workload seeds: a seed-derived base plus disjoint offsets per use, so
/// no two requests of a run share a seed unless they mean to. Kept below
/// 2^41 so JSON numbers carry them exactly.
fn workload_seed(run_seed: u64, offset: u64) -> u64 {
    mix(run_seed, STREAM) % (1 << 40) + offset
}

fn cold_offset(pass: usize, i: usize) -> u64 {
    (pass as u64 + 1) * 1_000_000 + i as u64
}

fn compare_offset(pass: usize, i: usize) -> u64 {
    (pass as u64 + 1) * 1_000_000 + 500_000 + i as u64
}

/// Every `/v1/run` and `/v1/compare` asks for a seeded `microloop`
/// profile, the request `fdip-loadgen` sends; the workload sizes take its
/// `trace_len` too.
fn workload(seed: u64) -> String {
    format!(r#"{{"profile": "microloop", "seed": {seed}}}"#)
}

fn run_body(seed: u64, trace_len: usize) -> String {
    format!(
        r#"{{"workload": {}, "trace_len": {trace_len}}}"#,
        workload(seed)
    )
}

fn compare_body(seed: u64, trace_len: usize) -> String {
    format!(
        r#"{{"workload": {}, "trace_len": {trace_len}, "configs": {COMPARE_CONFIGS}}}"#,
        workload(seed)
    )
}

/// The simulation result of a `/v1/run` body: everything before the
/// server-wide harness counter snapshot, which every response appends and
/// which changes between any two requests.
fn result_part(body: &str) -> &str {
    body.split_once(",\"harness\":")
        .map_or(body, |(head, _)| head)
}

/// A running in-process server.
pub struct Rig {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Rig {
    /// Binds a loopback port, starts the event loop and waits for one
    /// warm-up `/v1/run` so lazy start-up is done before any timing.
    pub fn start(ctx: &Ctx, index: usize) -> std::io::Result<Rig> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: ctx.nproc,
            ..ServeConfig::default()
        };
        let server = Server::bind(config)?;
        let rig = Rig {
            addr: server.local_addr()?,
            handle: server.shutdown_handle(),
            thread: std::thread::spawn(move || server.run()),
        };
        let body = run_body(workload_seed(ctx.seed, index as u64), ctx.sizes.serve_len);
        let warm_up =
            Client::connect(rig.addr).and_then(|mut c| c.request("POST", "/v1/run", &body));
        match warm_up {
            Ok((200, _)) => Ok(rig),
            other => {
                rig.stop();
                Err(std::io::Error::other(format!(
                    "serve warm-up failed: {other:?}"
                )))
            }
        }
    }

    /// Stops the server and waits for its loop and workers to end.
    pub fn stop(self) {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: server loop failed: {e}"),
            Err(_) => eprintln!("perfbench: server thread panicked"),
        }
    }
}

fn scrape(addr: SocketAddr) -> Result<[u64; 4], String> {
    let (status, text) = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/metrics", ""))
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics: status {status}"));
    }
    let mut out = [0; 4];
    for (slot, name) in out.iter_mut().zip(METRIC_NAMES) {
        *slot = http::counter(&text, name).ok_or_else(|| format!("/metrics lacks {name}"))?;
    }
    Ok(out)
}

/// Runs `per_client(client index, connection)` on one thread per client
/// and pools the latencies they return.
fn on_clients<F>(conns: &mut [Client], per_client: F) -> Latencies
where
    F: Fn(usize, &mut Client) -> Latencies + Sync,
{
    let mut all = Latencies::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let per_client = &per_client;
                scope.spawn(move || per_client(c, conn))
            })
            .collect();
        for h in handles {
            all.extend(&h.join().expect("serve client panicked"));
        }
    });
    all
}

/// Sends one request, timing it and recording it as an operation. Returns
/// the body of a 200.
fn timed(
    ctx: &Ctx,
    conn: &mut Client,
    span: (&str, SpanId),
    request: (&str, &str, &str),
    lat: &mut Latencies,
) -> Option<String> {
    let (method, path, body) = request;
    let guard = ctx.tracer.span(span.0, span.1);
    let started = Instant::now();
    let response = conn.request(method, path, body);
    lat.push(started.elapsed().as_secs_f64() * 1e3);
    drop(guard);
    let outcome = match response {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("{method} {path}: status {status}: {body}")),
        Err(e) => Err(format!("{method} {path}: {e}")),
    };
    match outcome {
        Ok(body) => {
            ctx.tally.record(Ok(()));
            Some(body)
        }
        Err(why) => {
            ctx.tally.record(Err(why));
            None
        }
    }
}

/// Sends requests `0..n` on every client, clients pulling the next index
/// from a shared counter. Returns the latencies and, for each index, the
/// body of a 200.
fn spread(
    ctx: &Ctx,
    conns: &mut [Client],
    n: usize,
    span: (&str, SpanId),
    request: &(dyn Fn(usize) -> (&'static str, String) + Sync),
) -> (Latencies, Vec<Option<String>>) {
    let next = AtomicUsize::new(0);
    let bodies: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; n]);
    let lat = on_clients(conns, |_, conn| {
        let mut lat = Latencies::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return lat;
            }
            let (path, body) = request(i);
            let answer = timed(ctx, conn, span, ("POST", path, &body), &mut lat);
            bodies.lock().expect("bodies poisoned")[i] = answer;
        }
    });
    (lat, bodies.into_inner().expect("bodies poisoned"))
}

/// One serve pass: cold `/v1/run`, cold `/v1/compare`, warm `/v1/run` and
/// `/healthz`, each a continuous closed loop on every client, checked
/// against `/metrics` at the end.
pub fn pass(ctx: &Ctx, rig: &Rig, index: usize, rec: &mut Recorder, parent: SpanId) {
    let span = ctx.tracer.span("bench.serve", parent);
    let parent = span.id();
    let sizes = ctx.sizes;
    let before = scrape(rig.addr);
    let mut conns: Vec<Client> = (0..ctx.nproc)
        .filter_map(|c| match Client::connect(rig.addr) {
            Ok(conn) => Some(conn),
            Err(e) => {
                ctx.tally
                    .record(Err(format!("serve client {c}: connect: {e}")));
                None
            }
        })
        .collect();
    let clients = conns.len().max(1);

    let (cold_lat, cold) = spread(
        ctx,
        &mut conns,
        sizes.serve_cold,
        ("serve.run_cold", parent),
        &|i| {
            let seed = workload_seed(ctx.seed, cold_offset(index, i));
            ("/v1/run", run_body(seed, sizes.serve_len))
        },
    );
    let (compare_lat, _) = spread(
        ctx,
        &mut conns,
        sizes.serve_compare,
        ("serve.compare", parent),
        &|i| {
            let seed = workload_seed(ctx.seed, compare_offset(index, i));
            ("/v1/compare", compare_body(seed, sizes.serve_len))
        },
    );

    // Warm: client c replays the cold seeds i ≡ c (mod clients), so no two
    // clients send the same request at once and none coalesce. Requests go
    // in rounds of WARM_ROUND, each timed on its own, so `run_warm_rps` is
    // a median over rounds that a short slow spell of the host cannot move.
    let per_client = WARM_ROUND / clients;
    let mut warm_lat = Latencies::default();
    for round in 0..sizes.serve_warm / WARM_ROUND {
        let started = Instant::now();
        let lat = on_clients(&mut conns, |c, conn| {
            let mut lat = Latencies::default();
            let mine: Vec<usize> = (c..cold.len()).step_by(clients).collect();
            if mine.is_empty() {
                return lat;
            }
            for k in round * per_client..(round + 1) * per_client {
                let i = mine[k % mine.len()];
                let body = run_body(
                    workload_seed(ctx.seed, cold_offset(index, i)),
                    sizes.serve_len,
                );
                let guard = ctx.tracer.span("serve.run_warm", parent);
                let t = Instant::now();
                let response = conn.request("POST", "/v1/run", &body);
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                drop(guard);
                ctx.tally.record(match (response, &cold[i]) {
                    (Ok((200, warm)), Some(cold)) if result_part(&warm) == result_part(cold) => {
                        Ok(())
                    }
                    (Ok((200, _)), Some(_)) => {
                        Err(format!("warm /v1/run {i}: body differs from cold"))
                    }
                    (Ok((200, _)), None) => Err(format!("warm /v1/run {i}: cold request failed")),
                    (Ok((status, body)), _) => {
                        Err(format!("warm /v1/run: status {status}: {body}"))
                    }
                    (Err(e), _) => Err(format!("warm /v1/run: {e}")),
                });
            }
            lat
        });
        rec.sample(
            "run_warm_rps",
            lat.len() as f64 / started.elapsed().as_secs_f64(),
        );
        warm_lat.extend(&lat);
    }

    let healthz_lat = on_clients(&mut conns, |_, conn| {
        let mut lat = Latencies::default();
        for _ in 0..sizes.healthz / clients {
            let request = ("GET", "/healthz", "");
            timed(ctx, conn, ("serve.healthz", parent), request, &mut lat);
        }
        lat
    });
    drop(span);

    // Each end-to-end latency is a median over passes of the pass's own
    // percentile, so one pass that meets a slow spell of the host does
    // not move it.
    let percentiles = [
        ("run_cold_p50_ms", &cold_lat, 50.0),
        ("run_cold_p90_ms", &cold_lat, 90.0),
        ("run_warm_p50_ms", &warm_lat, 50.0),
        ("compare_p50_ms", &compare_lat, 50.0),
    ];
    for (name, lat, p) in percentiles {
        if let Some(v) = lat.at(p) {
            rec.sample(name, v);
        }
    }
    let pools = [&cold_lat, &warm_lat, &compare_lat, &healthz_lat];
    for (route, lat) in ROUTES.iter().zip(pools) {
        rec.pool(&format!("serve.{route}")).extend(lat);
    }
    let after = scrape(rig.addr);
    let expected_cells = sizes.serve_cold as u64 + sizes.serve_compare as u64 * COMPARE_CELLS;
    ctx.tally.record(match (before, after) {
        (Ok(b), Ok(a)) => {
            let delta: Vec<u64> = a.iter().zip(&b).map(|(a, b)| a - b).collect();
            for (name, d) in COUNTERS.iter().zip(&delta) {
                rec.sample(format!("serve.{name}"), *d as f64);
            }
            let (shed, simulated) = (delta[1], delta[2]);
            if shed != 0 {
                Err(format!("serve: {shed} request(s) shed"))
            } else if simulated != expected_cells {
                Err(format!(
                    "serve: /metrics cells_simulated delta {simulated}, expected {expected_cells}"
                ))
            } else {
                Ok(())
            }
        }
        (Err(e), _) | (_, Err(e)) => Err(e),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_part_stops_at_the_counter_snapshot() {
        let body = r#"{"workload":"w","cell":{"a":1},"harness":{"cell_hits":3}}"#;
        assert_eq!(result_part(body), r#"{"workload":"w","cell":{"a":1}"#);
        assert_eq!(result_part("{}"), "{}");
    }

    #[test]
    fn seeds_of_one_run_never_collide() {
        let mut seeds: Vec<u64> = (0..50)
            .flat_map(|pass| {
                (0..200).flat_map(move |i| {
                    [
                        workload_seed(9, cold_offset(pass, i)),
                        workload_seed(9, compare_offset(pass, i)),
                    ]
                })
            })
            .chain((0..3).map(|setup| workload_seed(9, setup)))
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
        assert!(seeds.iter().all(|&s| s < 1 << 53));
    }
}
