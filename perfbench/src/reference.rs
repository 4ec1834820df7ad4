//! Reference digests and output checks.
//!
//! `reference.txt` pins, for the default seed, the FNV-1a digest of every
//! record's exact export bytes (`emit::record_json`), one line per grid
//! point: `<scenario> <scale> <master seed> <point> <digest>`. It is
//! produced by `--print-reference` and checked on every default-seed run.

use crate::report::fnv1a64;
use rlnc_par::Scale;
use rlnc_sweep::emit::{from_json, record_json, to_json};
use rlnc_sweep::{Registry, RunRecord, SweepExecutor, SweepRun};
use std::collections::HashMap;

const TABLE: &str = include_str!("../reference.txt");

/// The smoke-scale requests the serve workload cycles through, in order.
pub const SERVE_KINDS: [&str; 3] = ["claim2-scan", "resilient-boundary", "language-matrix"];

pub fn record_digest(record: &RunRecord) -> u64 {
    fnv1a64(record_json(record).as_bytes())
}

type Key = (String, String, u64);

fn table() -> HashMap<Key, HashMap<u64, u64>> {
    let mut map: HashMap<Key, HashMap<u64, u64>> = HashMap::new();
    for line in TABLE.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 5, "malformed reference line: {line}");
        let seed: u64 = f[2].parse().expect("reference seed is an integer");
        let point: u64 = f[3].parse().expect("reference point is an integer");
        let digest = u64::from_str_radix(f[4], 16).expect("reference digest is hex");
        map.entry((f[0].to_string(), f[1].to_string(), seed))
            .or_default()
            .insert(point, digest);
    }
    map
}

/// Per-point verdicts of `run` against the recorded digests, or `None`
/// when nothing is recorded for its `(scenario, scale, seed)`.
pub fn check_digests(run: &SweepRun, grid_points: u64) -> Option<Vec<bool>> {
    let key = (run.scenario.clone(), run.scale.clone(), run.master_seed);
    let table = table();
    let expected = table.get(&key)?;
    Some(
        (0..grid_points)
            .map(|point| {
                let actual = run.records.iter().find(|r| r.point == point);
                match (actual, expected.get(&point)) {
                    (Some(r), Some(d)) => record_digest(r) == *d,
                    _ => false,
                }
            })
            .collect(),
    )
}

/// Per-point verdicts of `run` against `reference` (byte-identical record
/// exports, no missing points).
pub fn check_against(run: &SweepRun, reference: &SweepRun, grid_points: u64) -> Vec<bool> {
    (0..grid_points)
        .map(|point| {
            let a = run.records.iter().find(|r| r.point == point);
            let b = reference.records.iter().find(|r| r.point == point);
            match (a, b) {
                (Some(a), Some(b)) => record_json(a) == record_json(b),
                _ => false,
            }
        })
        .collect()
}

/// Whether `run`'s export parses back into the same run, byte for byte.
pub fn parses_back(run: &SweepRun) -> bool {
    let json = to_json(run);
    match from_json(&json) {
        Ok(back) => to_json(&back) == json,
        Err(_) => false,
    }
}

/// Prints the reference table for the default seed: every benchmarked
/// sweep at standard and smoke scale, and the first cycle of serve
/// requests.
pub fn print_reference(default_seed: u64) {
    let registry = Registry::builtin();
    let mut jobs: Vec<(&str, Scale, u64)> = Vec::new();
    for scale in [Scale::Standard, Scale::Smoke] {
        for name in ["fault-matrix", "language-matrix", "slack-topologies"] {
            jobs.push((name, scale, default_seed));
        }
    }
    for (i, name) in SERVE_KINDS.iter().enumerate() {
        jobs.push((name, Scale::Smoke, default_seed.wrapping_add(i as u64)));
    }
    for (name, scale, seed) in jobs {
        let spec = registry
            .get(name)
            .expect("benchmarked scenario is registered");
        let run = SweepExecutor::new(scale).with_seed(seed).run(spec);
        for r in &run.records {
            println!(
                "{} {} {} {} {:016x}",
                name,
                scale.name(),
                seed,
                r.point,
                record_digest(r)
            );
        }
    }
}
