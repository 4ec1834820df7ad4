//! The `serve-repeat` workload: one client connection, one request in
//! flight, against a resident `SweepServer`.
//!
//! Requests are `run`s at smoke scale cycling through `claim2-scan`,
//! `resilient-boundary` and `language-matrix` in equal shares; request `i`
//! runs with seed `seed + i`. The server listens on a Unix socket (the
//! documented `sweep-serve` transport) at a relative path in the working
//! directory, and removes it when it shuts down.

use crate::reference::{check_digests, SERVE_KINDS};
use crate::report::{band_quantile, describe, fnv1a64, median, peak_rss_bytes, timed, Report};
use crate::Bench;
use rlnc_par::Scale;
use rlnc_serve::{connect, Connection, Endpoint, RunOutcome, SweepServer};
use rlnc_sweep::emit::to_json;
use rlnc_sweep::{Registry, SweepExecutor, SweepRun};
use std::thread::JoinHandle;
use std::time::Instant;

/// A resident server on its own thread plus the client's connection.
pub struct Served {
    pub conn: Connection,
    thread: JoinHandle<Result<(), String>>,
}

impl Served {
    /// Binds a fresh server (cold shared plan cache) and connects to it.
    /// The client connects before the accept loop starts, so the first
    /// accept finds it and start-up never waits out a poll interval.
    pub fn start() -> Result<Served, String> {
        rlnc_engine::set_shared_plan_cache(false);
        let socket = format!(".perfbench-serve-{}.sock", std::process::id());
        let bound = SweepServer::new().bind(&Endpoint::Unix(socket.into()))?;
        let conn = connect(bound.endpoint())?;
        let thread = std::thread::spawn(move || bound.serve());
        Ok(Served { conn, thread })
    }

    /// Shuts the server down and waits for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.conn.shutdown()?;
        drop(self.conn);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// One request of the closed loop.
pub struct Request {
    pub kind: &'static str,
    pub seed: u64,
    pub secs: f64,
    pub outcome: Result<Reply, String>,
}

/// What the benchmark keeps of a reply: the digest of its reassembled
/// export, its trial count, and the whole outcome only when asked to, so
/// a long loop's memory stays the server's.
pub struct Reply {
    pub digest: u64,
    pub trials: u64,
    pub kept: Option<RunOutcome>,
}

fn request(conn: &mut Connection, index: u64, base_seed: u64, keep: bool) -> Request {
    let kind = SERVE_KINDS[(index % SERVE_KINDS.len() as u64) as usize];
    let seed = base_seed.wrapping_add(index);
    let (outcome, secs) = timed(|| conn.run(kind, Scale::Smoke, seed, None, |_| {}));
    let outcome = outcome.map(|o| Reply {
        digest: fnv1a64(to_json(&o.run).as_bytes()),
        trials: o.run.records.iter().map(|r| r.trials).sum(),
        kept: keep.then_some(o),
    });
    Request {
        kind,
        seed,
        secs,
        outcome,
    }
}

/// One whole cycle of the request kinds; returns its summed round trips.
/// The first cycle of a loop keeps its outcomes (the default-seed digest
/// check reads them), and so does every cycle when `keep` is set.
pub fn cycle(
    conn: &mut Connection,
    requests: &mut Vec<Request>,
    base_seed: u64,
    keep: bool,
) -> f64 {
    let mut secs = 0.0;
    for _ in 0..SERVE_KINDS.len() {
        let keep = keep || requests.len() < SERVE_KINDS.len();
        let req = request(conn, requests.len() as u64, base_seed, keep);
        secs += req.secs;
        requests.push(req);
    }
    secs
}

/// Server start to first answered request, and the server left running.
pub fn start_and_first_request(seed: u64) -> Result<(f64, Served), String> {
    let start = Instant::now();
    let mut served = Served::start()?;
    let first = request(&mut served.conn, 0, seed, false);
    first.outcome?;
    Ok((start.elapsed().as_secs_f64(), served))
}

/// Checks one request: it must have succeeded, and its reassembled export
/// must equal an in-process `stream_where` of the same (scenario, scale,
/// seed) byte for byte. On the default seed the first cycle must also
/// match the recorded digests. Returns the verdict and the in-process
/// seconds.
pub fn check(req: &Request, index: usize, base_seed: u64) -> (bool, f64) {
    let registry = Registry::builtin();
    let spec = registry.get(req.kind).expect("serve kind is registered");
    let exec = SweepExecutor::new(Scale::Smoke).with_seed(req.seed);
    let mut records = Vec::new();
    let (streamed, secs) = timed(|| {
        exec.stream_where(
            spec,
            &[],
            |_| true,
            |r| {
                records.push(r);
                Ok::<(), ()>(())
            },
        )
    });
    let Ok(reply) = &req.outcome else {
        return (false, secs);
    };
    let points = spec.grid(Scale::Smoke).len() as u64;
    let local = SweepRun {
        scenario: spec.name.clone(),
        description: spec.description.clone(),
        workload: spec.workload.name().to_string(),
        scale: Scale::Smoke.name().to_string(),
        master_seed: req.seed,
        records,
    };
    let mut ok = streamed == Ok(points) && fnv1a64(to_json(&local).as_bytes()) == reply.digest;
    if base_seed == crate::DEFAULT_SEED && index < SERVE_KINDS.len() {
        ok &= reply
            .kept
            .as_ref()
            .and_then(|o| check_digests(&o.run, points))
            .is_some_and(|v| v.iter().all(|b| *b));
    }
    (ok, secs)
}

pub fn run(bench: &Bench) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "workload serve-repeat: closed loop, 1 connection, smoke-scale runs cycling {:?}, seed {}, pool width {}",
        SERVE_KINDS,
        bench.seed,
        rlnc_par::pool::thread_count()
    ));
    // Set-up: server start to first answered request, several cold starts.
    let reps = if bench.tiny { 2 } else { 25 };
    let mut setups = Vec::new();
    let mut served = None;
    for rep in 0..reps {
        match start_and_first_request(bench.seed) {
            Ok((secs, s)) => {
                setups.push(secs);
                if rep + 1 == reps {
                    served = Some(s);
                } else if let Err(e) = s.stop() {
                    report.problems.push(e);
                }
            }
            Err(e) => {
                report.problems.push(format!("server start failed: {e}"));
                report.count(1, 1);
                return report;
            }
        }
    }
    let mut served = served.expect("the last start keeps its server");
    report.note(format!("setup_s: median of {reps} cold server starts"));

    // The measured window: whole cycles of the three request kinds.
    let window = Instant::now();
    let mut requests = Vec::new();
    let mut cycles = Vec::new();
    while cycles.is_empty() || window.elapsed().as_secs_f64() < bench.seconds {
        cycles.push(cycle(&mut served.conn, &mut requests, bench.seed, false));
    }
    let elapsed = window.elapsed().as_secs_f64();
    if let Err(e) = served.stop() {
        report.problems.push(e);
    }

    let failed = requests
        .iter()
        .enumerate()
        .filter(|(i, req)| !check(req, *i, bench.seed).0)
        .count();
    report.count(requests.len() as u64, failed as u64);

    let latencies: Vec<f64> = requests.iter().map(|r| r.secs * 1e3).collect();
    let trials: u64 = requests
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|reply| reply.trials)
        .sum();
    report.note(describe("request latency", "ms", &latencies));
    for kind in SERVE_KINDS {
        let of_kind: Vec<f64> = requests
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.secs * 1e3)
            .collect();
        report.note(describe(&format!("  {kind} latency"), "ms", &of_kind));
    }
    report.note(describe("cycle wall", "s", &cycles));
    report.metric("wall_s", median(&cycles), "s");
    report.metric("trials_per_s", trials as f64 / elapsed, "1/s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("latency_p50_ms", band_quantile(&latencies, 0.5), "ms");
    report.metric("latency_p90_ms", band_quantile(&latencies, 0.9), "ms");
    report.metric("requests_per_s", requests.len() as f64 / elapsed, "1/s");
    match peak_rss_bytes() {
        Ok(bytes) => report.metric("peak_rss_bytes", bytes as f64, "bytes"),
        Err(e) => report.problems.push(e),
    }
    report
}
