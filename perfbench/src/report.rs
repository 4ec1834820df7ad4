//! The benchmark's result line, summary statistics, and small helpers.

use std::time::Instant;

/// One measured metric: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark invocation reports: the correctness verdict, the
/// operation counts behind it, and the metrics of the requested pass.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are not a single operation's (replay parity, export
    /// parse-back); they make the run incorrect without adding to `failed`.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line (sample
    /// counts, pool width, ...).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `ops` operations of which `bad` failed.
    pub fn count(&mut self, ops: u64, bad: u64) {
        self.attempted += ops;
        self.failed += bad;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints the notes, then the result object as the last stdout line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for problem in &self.problems {
            println!("# PROBLEM: {problem}");
        }
        for m in &self.metrics {
            println!("# {:<40} {:>22} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(
                    m.value.is_finite(),
                    "metric {} is not finite: {}",
                    m.name,
                    m.value
                );
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile smoothed over a band of ranks: the mean of the sorted
/// samples ranked within ±0.05 of `q`. A single order statistic jumps
/// when `q` falls on the boundary between two latency modes (grid points
/// of different cases, requests of different kinds); the band mean moves
/// smoothly. Falls back to [`quantile`] when no rank lies in the band.
pub fn band_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = (sorted.len() - 1) as f64;
    let lo = ((q - 0.05).max(0.0) * last).ceil() as usize;
    let hi = ((q + 0.05).min(1.0) * last).floor() as usize;
    if lo > hi {
        return quantile(values, q);
    }
    let band = &sorted[lo..=hi];
    band.iter().sum::<f64>() / band.len() as f64
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// 64-bit FNV-1a of a byte string (the reference digests).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line '{line}': {e}"))?;
    Ok(kb * 1024)
}

/// Describes a sample set the way every timing is reported: median, the
/// highest percentile with at least ten samples beyond it, and the count.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let n = values.len();
    let tail = [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| ((1.0 - q) * n as f64) >= 10.0);
    match tail {
        Some(q) => format!(
            "{name}: median {:.6} {unit}, p{} {:.6} {unit}, n={n}",
            median(values),
            (q * 100.0).round(),
            quantile(values, q)
        ),
        None => format!(
            "{name}: median {:.6} {unit}, n={n} (too few samples for a tail)",
            median(values)
        ),
    }
}
