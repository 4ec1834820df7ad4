//! `rlnc-perfbench`: the end-to-end sweep + serve benchmark with a
//! per-layer breakdown. See `perfbench/README.md` for the workloads, the
//! metrics, and how to run it (`python3 perfbench/run.py`).
//!
//! ```text
//! rlnc-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! rlnc-perfbench --print-reference
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it (prefixed `#`) describe
//! the samples behind each number.

mod layers;
mod reference;
mod report;
mod serve;
mod sweep;

use rlnc_par::Scale;
use rlnc_sweep::Registry;

/// The default seed: the sweep engine's own default, so a default-seed
/// run reproduces `rlnc-experiments sweep` exports.
pub const DEFAULT_SEED: u64 = rlnc_sweep::DEFAULT_SWEEP_SEED;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FaultMatrix,
    LanguageMatrix,
    SlackTopologies,
    ServeRepeat,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FaultMatrix,
        Workload::LanguageMatrix,
        Workload::SlackTopologies,
        Workload::ServeRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FaultMatrix => "sweep-fault-matrix",
            Workload::LanguageMatrix => "sweep-language-matrix",
            Workload::SlackTopologies => "sweep-slack-topologies",
            Workload::ServeRepeat => "serve-repeat",
        }
    }

    /// The registry scenario a sweep workload runs.
    pub fn scenario(self) -> Option<&'static str> {
        match self {
            Workload::FaultMatrix => Some("fault-matrix"),
            Workload::LanguageMatrix => Some("language-matrix"),
            Workload::SlackTopologies => Some("slack-topologies"),
            Workload::ServeRepeat => None,
        }
    }
}

/// One benchmark invocation.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-scale sweeps and minimal repetitions, for the self-test.
    pub tiny: bool,
}

impl Bench {
    /// The scale the sweep workloads run at.
    pub fn scale(&self) -> Scale {
        if self.tiny {
            Scale::Smoke
        } else {
            Scale::Standard
        }
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: rlnc-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]\n       \
         rlnc-perfbench --print-reference\nworkloads: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Bench> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut tiny = false;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--print-reference" => return None,
            "--tiny" => tiny = true,
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(seconds > 0.0 && seconds <= 120.0) {
                    usage("--seconds must lie in (0, 120]");
                }
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Some(Bench {
        workload,
        seed,
        seconds,
        trace,
        tiny,
    })
}

fn main() {
    let Some(bench) = parse_args() else {
        reference::print_reference(DEFAULT_SEED);
        return;
    };
    let report = match bench.workload.scenario() {
        Some(name) => {
            let registry = Registry::builtin();
            let spec = registry
                .get(name)
                .expect("benchmarked scenario is registered");
            if bench.trace {
                layers::run_sweep(&bench, spec)
            } else {
                sweep::run(&bench, spec)
            }
        }
        None if bench.trace => layers::run_serve(&bench),
        None => serve::run(&bench),
    };
    report.print();
}
