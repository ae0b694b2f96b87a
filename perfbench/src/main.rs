//! The repository's benchmark: four workloads over the sweep engine.
//!
//! ```text
//! python3 perfbench/run.py --workload <sweep|serve_small|serve_mixed|dist_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1> [--short]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics and writes its spans out. Every
//! result is checked against a reference before any number counts; the last
//! line of standard output is the JSON result. `README.md` beside this file
//! defines the workloads and every metric.

mod digest;
mod dist;
mod layers;
mod report;
mod serve;
mod sweep;
mod trace;
mod window;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, reported by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_per_s", "1/s"),
    ("sweeps_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p99_ms", "ms"),
    ("big_sweep_ms", "ms"),
    ("first_cell_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run, with their units.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("soc.slices", "count"),
    ("soc.slices_per_s", "1/s"),
    ("soc.slice_loop_share", "share"),
    ("soc.platform_build_us", "us"),
    ("core.governor_decides", "count"),
    ("core.governor_share", "share"),
    ("core.fold_share", "share"),
    ("core.cell_ms_p50", "ms"),
    ("core.cell_ms_p99", "ms"),
    ("core.session_platforms", "count"),
    ("core.effective_config_us", "us"),
    ("exec.busy_share", "share"),
    ("exec.imbalance", "ratio"),
    ("workloads.schedule_compile_us", "us"),
    ("dist.recipe.encode_us", "us"),
    ("dist.recipe.decode_us", "us"),
    ("dist.recipe.build_us", "us"),
    ("dist.serve.exec_ms_p50", "ms"),
    ("dist.serve.client_ms_p50", "ms"),
    ("dist.serve.queue_ms_p50", "ms"),
    ("dist.serve.queue_ms_p99", "ms"),
    ("dist.serve.queue_share", "share"),
    ("dist.serve.max_queue_depth", "count"),
    ("dist.serve.cached_platforms", "count"),
    ("dist.serve.busy_shed", "count"),
    ("dist.serve.frames_rejected", "count"),
    ("dist.dispatcher.leases", "count"),
    ("dist.dispatcher.result_frames", "count"),
    ("dist.dispatcher.workers_spawned", "count"),
    ("dist.dispatcher.retries", "count"),
    ("dist.dispatcher.first_fold_ms", "ms"),
    ("dist.dispatcher.overhead_share", "share"),
    ("trace_overhead_frac", "share"),
    ("trace.accounted_share", "share"),
];

/// Fold threads of the in-process sweep, service workers, and worker
/// processes of the distributed sweep.
pub const WIDTH: usize = 2;

/// The command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// A brief run of every phase, for the benchmark's own test.
    pub short: bool,
    /// The `sysscale-dist-worker` executable for `dist_sweep`.
    pub worker: Option<PathBuf>,
    /// Where a traced run writes its spans.
    pub out: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut short = false;
        let mut worker = None;
        let mut out = PathBuf::from(".bench_build/perfbench-spans");
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    });
                }
                "--short" => short = true,
                "--worker" => worker = Some(PathBuf::from(value()?)),
                "--out" => out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            // A short run measures briefly, whatever it was asked for.
            seconds: if short {
                seconds.min(Duration::from_millis(400))
            } else {
                seconds
            },
            trace: trace.ok_or("--trace is required")?,
            short,
            worker,
            out,
        })
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the simulated statistics of every input's reference result.
    pub digest: u64,
    pub metrics: Metrics,
    /// Prefixes of per-layer metrics for layers the workload does not pass
    /// through; a traced run reports them as 0.
    pub off_path: &'static [&'static str],
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum Failure {
    /// An output differed from its reference.
    Mismatch(String),
    /// The benchmark could not be set up.
    Setup(String),
}

impl From<sysscale::types::SimError> for Failure {
    fn from(error: sysscale::types::SimError) -> Self {
        Failure::Setup(format!(
            "simulation failed outside the measured window: {error}"
        ))
    }
}

/// `--trace 0`: measures one window and inserts the end-to-end metrics.
pub fn untraced<M: window::Measured>(
    args: &Args,
    setup_s: f64,
    outcome: &mut Outcome,
    measure: impl FnOnce(&window::Window) -> Result<M, Failure>,
) -> Result<(), Failure> {
    let measured = measure(&window::Window::open(args.seconds))?;
    window::insert_end_to_end(&mut outcome.metrics, setup_s, &measured);
    (outcome.attempted, outcome.failed) = measured.attempted_failed();
    outcome
        .notes
        .push(format!("{} ops timed", outcome.attempted));
    Ok(())
}

/// `--trace 1`: measures an untraced half window, then a traced half, and
/// inserts `trace_overhead_frac` — how much slower the traced half ran, as
/// a share of the untraced cell rate. Returns both halves and the tracer;
/// the workload derives its per-layer metrics from them and then calls
/// [`write_trace`].
pub fn traced_halves<M: window::Measured>(
    args: &Args,
    outcome: &mut Outcome,
    mut measure: impl FnMut(&window::Window, Option<&trace::Tracer>) -> Result<M, Failure>,
) -> Result<(M, M, trace::Tracer), Failure> {
    let half = args.seconds / 2;
    let plain = measure(&window::Window::open(half), None)?;
    let tracer = trace::Tracer::new();
    let traced = measure(&window::Window::open(half), Some(&tracer))?;
    outcome.metrics.insert(
        "trace_overhead_frac",
        1.0 - report::ratio(traced.cells_per_s(), plain.cells_per_s()),
    );
    let (plain_attempted, plain_failed) = plain.attempted_failed();
    let (traced_attempted, traced_failed) = traced.attempted_failed();
    (outcome.attempted, outcome.failed) = (
        plain_attempted + traced_attempted,
        plain_failed + traced_failed,
    );
    Ok((plain, traced, tracer))
}

/// Writes the spans to `<out>/<workload>-seed<seed>.jsonl`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) -> Result<(), Failure> {
    let path = args
        .out
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| tracer.write_jsonl(&path))
        .map_err(|e| Failure::Setup(format!("cannot write spans to {}: {e}", path.display())))
}

fn run(args: &Args) -> Result<Outcome, Failure> {
    match args.workload.as_str() {
        "sweep" => sweep::run(args),
        "serve_small" => serve::run(args, false),
        "serve_mixed" => serve::run(args, true),
        "dist_sweep" => dist::run(args),
        other => Err(Failure::Setup(format!(
            "unknown workload {other} (sweep, serve_small, serve_mixed, dist_sweep)"
        ))),
    }
}

/// Checks that the outcome carries exactly the metrics of its mode, filling
/// the off-path layers with 0, and attaches their units.
fn labelled(args: &Args, outcome: &Outcome) -> BTreeMap<&'static str, (f64, &'static str)> {
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the {} table",
            if args.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(value) => *value,
                None => {
                    assert!(
                        args.trace && outcome.off_path.iter().any(|p| name.starts_with(p)),
                        "workload {} did not measure {name}",
                        args.workload
                    );
                    0.0
                }
            };
            (name, (value, unit))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{}: {note}", args.workload);
            }
            println!(
                "{}: seed {} outputs digest {:016x}",
                args.workload, args.seed, outcome.digest
            );
            let metrics = labelled(&args, &outcome);
            println!(
                "{}",
                report::result_line(true, outcome.attempted, outcome.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Mismatch(message)) => {
            // The run stops at the first op whose output is wrong; the result
            // reports that op alone.
            eprintln!("perfbench: output check failed, run aborted: {message}");
            println!("{}", report::result_line(false, 1, 1, &BTreeMap::new()));
            ExitCode::from(1)
        }
        Err(Failure::Setup(message)) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
