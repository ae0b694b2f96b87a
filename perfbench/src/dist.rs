//! `dist_sweep`: the Fig. 10 `SweepRecipe` (SPEC × {baseline, sysscale} at
//! the paper's four TDP points) through `run_distributed_fold` at
//! [`WIDTH`] worker processes over pipes. One op is one whole distributed
//! sweep, worker spawn included; ops run back to back.

use std::path::PathBuf;

use sysscale::workloads::spec_cpu2006_suite;
use sysscale::SessionPool;
use sysscale_dist::{run_distributed_fold, sweep_from_sets, DistOptions, DistStats, SweepRecipe};

use crate::digest::{check, outputs_digest, sorted, CellDigest, DigestFold};
use crate::layers::{self, ProbeInput};
use crate::report::{median, ratio};
use crate::sweep::FIG10_TDPS;
use crate::trace::Tracer;
use crate::window::{fold_ops, timed_setups, Measured, OpLog, Window};
use crate::{traced_halves, untraced, write_trace, Args, Failure, Outcome, WIDTH};

/// The worker executable, which must exist: a missing binary would
/// otherwise surface as a spawn error in the middle of a sweep.
fn worker_binary(args: &Args) -> Result<PathBuf, Failure> {
    let path = args.worker.clone().ok_or_else(|| {
        Failure::Setup("dist_sweep needs --worker <path to sysscale-dist-worker>".to_string())
    })?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(Failure::Setup(format!(
            "worker binary {} not found; build it with \
             `cargo build --release -p sysscale-dist --bin sysscale-dist-worker`",
            path.display()
        )))
    }
}

/// Distributed sweeps run back to back in one window, with each traced
/// op's dispatcher statistics.
struct Sweeps {
    log: OpLog,
    stats: Vec<DistStats>,
}

impl Measured for Sweeps {
    fn sweeps(&self) -> &OpLog {
        &self.log
    }
}

fn measure(
    recipe: &SweepRecipe,
    options: &DistOptions,
    window: &Window,
    reference: &[CellDigest],
    tracer: Option<&Tracer>,
) -> Result<Sweeps, Failure> {
    let (log, stats) = fold_ops("dist", window, reference, tracer, |consumer| {
        run_distributed_fold(recipe, options, consumer)
    })?;
    Ok(Sweeps { log, stats })
}

pub fn run(args: &Args) -> Result<Outcome, Failure> {
    let worker = worker_binary(args)?;
    let recipe = SweepRecipe::fig10(&FIG10_TDPS);
    let sets = recipe.build()?;
    // The reference: the same recipe folded in-process.
    let reference = sorted(sweep_from_sets(&sets).run_parallel_fold_sharded(
        &mut SessionPool::new(),
        WIDTH,
        recipe.sharding,
        &DigestFold::new(),
    )?);
    let (setup_s, (recipe, options)) = timed_setups(args.short, || {
        let recipe = SweepRecipe::fig10(&FIG10_TDPS);
        let options = DistOptions {
            procs: Some(WIDTH),
            worker_binary: Some(worker.clone()),
            ..DistOptions::default()
        };
        let (warm, _) = run_distributed_fold(&recipe, &options, &DigestFold::new())?;
        check("warm-up distributed sweep", &sorted(warm), &reference).map_err(Failure::Mismatch)?;
        Ok((recipe, options))
    })?;
    let mut outcome = Outcome {
        digest: outputs_digest(&reference),
        off_path: &["dist.serve."],
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "{} cells per sweep, {WIDTH} worker processes",
        reference.len()
    ));

    if !args.trace {
        untraced(args, setup_s, &mut outcome, |window| {
            measure(&recipe, &options, window, &reference, None)
        })?;
        return Ok(outcome);
    }

    // The traced half records dispatcher-side fold spans. Then the same
    // recipe runs in-process, untraced for the dispatcher's overhead and
    // traced for the layers under it.
    let (plain, traced, tracer) = traced_halves(args, &mut outcome, |window, tracer| {
        measure(&recipe, &options, window, &reference, tracer)
    })?;
    let reps = if args.short { 1 } else { 5 };
    let probe_input = ProbeInput {
        sets: &sets,
        sharding: recipe.sharding,
        reference: &reference,
    };
    let in_process_ms = median(&layers::fold_walls_ms(
        &mut SessionPool::new(),
        &probe_input,
        reps,
        None,
    )?);

    let metrics = &mut outcome.metrics;
    let stat = |f: fn(&DistStats) -> f64| median(&traced.stats.iter().map(f).collect::<Vec<_>>());
    metrics.insert("dist.dispatcher.leases", stat(|s| s.leases as f64));
    metrics.insert(
        "dist.dispatcher.result_frames",
        stat(|s| s.result_frames as f64),
    );
    metrics.insert(
        "dist.dispatcher.workers_spawned",
        stat(|s| s.workers_spawned as f64),
    );
    metrics.insert("dist.dispatcher.retries", stat(|s| s.retries as f64));
    metrics.insert(
        "dist.dispatcher.first_fold_ms",
        traced.log.median_first_cell_ms(),
    );
    let dist_ms = plain.log.median_latency_ms();
    metrics.insert(
        "dist.dispatcher.overhead_share",
        ratio(dist_ms - in_process_ms, dist_ms),
    );
    layers::probe(metrics, &tracer, &[probe_input], reps)?;
    layers::direct(
        metrics,
        || recipe.members[0].platform.build(),
        &spec_cpu2006_suite(),
        &recipe,
        args.short,
    )?;
    write_trace(args, &tracer)?;
    outcome.notes.push(format!(
        "distributed sweep {dist_ms:.1} ms vs in-process {in_process_ms:.1} ms (medians)"
    ));
    Ok(outcome)
}
