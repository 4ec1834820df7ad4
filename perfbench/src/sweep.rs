//! The three CLI-sweep workloads, measured with tracing off.
//!
//! A run times whole parallel sweeps back to back for the measured window
//! (the `rlnc-experiments sweep` path, `SweepExecutor::run`), with set-up
//! repetitions (`Workload::prepare` over the whole grid) interleaved
//! between them, so set-up and sweeps sample the same stretch of host
//! time. A sweep is the operation a user waits for, so the latency
//! percentiles are those of the sweep walls. After the window, one
//! `SweepExecutor::sequential()` run is the correctness reference.

use crate::reference::{check_against, check_digests, parses_back};
use crate::report::{band_quantile, describe, median, peak_rss_bytes, timed, Report};
use crate::Bench;
use rlnc_sweep::{GridPoint, ScenarioSpec, SweepExecutor, SweepRun};
use std::time::Instant;

/// Prepares every grid point once, in grid order, the way the executor
/// does before it dispatches trials. Returns the elapsed seconds.
pub fn prepare_all(spec: &ScenarioSpec, grid: &[GridPoint], exec: &SweepExecutor) -> f64 {
    let scenario = exec.scenario_sequence(&spec.name);
    let (prepared, secs) = timed(|| {
        grid.iter()
            .map(|p| spec.workload.prepare(p, scenario.child(p.index)))
            .collect::<Vec<_>>()
    });
    drop(std::hint::black_box(prepared));
    secs
}

/// Counts the points of `run` that differ from `reference` (or from the
/// recorded digests, on the default seed).
pub fn count_failures(
    report: &mut Report,
    run: &SweepRun,
    reference: &SweepRun,
    points: u64,
    default_seed: bool,
) {
    let mut ok = check_against(run, reference, points);
    if default_seed {
        match check_digests(run, points) {
            Some(digests) => ok.iter_mut().zip(digests).for_each(|(a, b)| *a &= b),
            None => report
                .problems
                .push("no reference digests recorded for the default seed".into()),
        }
    }
    report.count(points, ok.iter().filter(|v| !**v).count() as u64);
}

pub fn run(bench: &Bench, spec: &ScenarioSpec) -> Report {
    let mut report = Report::default();
    let scale = bench.scale();
    let exec = SweepExecutor::new(scale).with_seed(bench.seed);
    let grid = spec.grid(scale);
    let points = grid.len() as u64;
    let trials: u64 = grid.iter().map(|p| p.trials).sum();
    report.note(format!(
        "workload {} = scenario '{}' at {} scale: {points} points, {trials} trials, seed {}, pool width {}",
        bench.workload.name(),
        spec.name,
        scale.name(),
        bench.seed,
        rlnc_par::pool::thread_count()
    ));

    // Size the interleaving from one set-up and one warm-up sweep: set-up
    // repetitions worth about a second in total (at least 15), spread
    // over the sweeps the window will hold. The warm-up sweep counts
    // toward the window but not toward the medians.
    let mut setups = vec![prepare_all(spec, &grid, &exec)];
    let window = Instant::now();
    let (first, first_wall) = timed(|| exec.run(spec));
    let sweeps = ((bench.seconds - first_wall) / first_wall).floor().max(1.0);
    let setup_total = if bench.tiny {
        3.0
    } else {
        (1.0 / setups[0]).clamp(15.0, 2000.0)
    };
    let setups_per_sweep = (setup_total / sweeps).ceil() as usize;

    let mut walls = Vec::new();
    let mut runs: Vec<SweepRun> = vec![first];
    while walls.is_empty() || window.elapsed().as_secs_f64() < bench.seconds {
        for _ in 0..setups_per_sweep {
            setups.push(prepare_all(spec, &grid, &exec));
        }
        let (run, secs) = timed(|| exec.run(spec));
        walls.push(secs);
        runs.push(run);
    }
    let setup = median(&setups);
    report.note(format!(
        "setup_s: median of {} full-grid preparations",
        setups.len()
    ));
    report.note("the warm-up sweep sized the interleaving and is not in the medians");

    // Correctness: every parallel sweep must equal a sequential run byte
    // for byte, and on the default seed match the recorded digests too;
    // exports must parse back.
    let default_seed = bench.seed == crate::DEFAULT_SEED;
    let reference = SweepExecutor::new(scale)
        .with_seed(bench.seed)
        .sequential()
        .run(spec);
    if default_seed {
        match check_digests(&reference, points) {
            Some(ok) => report.count(points, ok.iter().filter(|v| !**v).count() as u64),
            None => report
                .problems
                .push("no reference digests recorded for the default seed".into()),
        }
    }
    for run in &runs {
        count_failures(&mut report, run, &reference, points, default_seed);
    }
    if !parses_back(&runs[0]) {
        report
            .problems
            .push("export does not parse back byte-identically".into());
    }

    let wall = median(&walls);
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    report.note(describe("wall_s", "s", &walls));
    report.metric("wall_s", wall, "s");
    report.metric("trials_per_s", trials as f64 / wall, "1/s");
    report.metric("setup_s", setup, "s");
    report.metric("latency_p50_ms", band_quantile(&walls_ms, 0.5), "ms");
    report.metric("latency_p90_ms", band_quantile(&walls_ms, 0.9), "ms");
    report.metric("requests_per_s", points as f64 / wall, "1/s");
    match peak_rss_bytes() {
        Ok(bytes) => report.metric("peak_rss_bytes", bytes as f64, "bytes"),
        Err(e) => report.problems.push(e),
    }
    report
}
