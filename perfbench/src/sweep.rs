//! `sweep`: the paper's evaluation as one in-process `SweepSet` fold at
//! [`WIDTH`] threads — the SPEC CPU2006, graphics and battery-life suites ×
//! {baseline, sysscale, memscale, coscale} on the default platform, plus the
//! Fig. 10 members (SPEC × {baseline, sysscale}) at the paper's four TDP
//! points. One op is one whole fold; ops run back to back.

use sysscale::types::SimResult;
use sysscale::workloads::{battery_life_suite, graphics_suite, spec_cpu2006_suite};
use sysscale::{
    sysscale_factory, DemandPredictor, GovernorRegistry, ScenarioSet, SessionPool, SocConfig,
};
use sysscale_dist::{sweep_from_sets, SweepRecipe};

use crate::digest::{check, outputs_digest, sorted, DigestFold};
use crate::layers;
use crate::trace::{traced_set, FoldLayers};
use crate::window::{fold_ops, timed_setups};
use crate::{traced_halves, untraced, write_trace, Args, Failure, Outcome, WIDTH};

/// The evaluation's governor columns.
const GOVERNORS: [&str; 4] = ["baseline", "sysscale", "memscale", "coscale"];

/// The paper's Fig. 10 TDP points, in watts.
pub const FIG10_TDPS: [f64; 4] = [3.5, 4.5, 7.0, 15.0];

/// The sweep's member sets: the three evaluation suites, then the Fig. 10
/// members built from their recipe.
fn inputs() -> SimResult<Vec<ScenarioSet>> {
    let mut registry = GovernorRegistry::builtin();
    registry.register(sysscale_factory(DemandPredictor::skylake_default()));
    let config = SocConfig::skylake_default();
    let mut sets = Vec::new();
    for suite in [spec_cpu2006_suite(), graphics_suite(), battery_life_suite()] {
        sets.push(
            ScenarioSet::matrix_with(&registry, &config, &suite, &GOVERNORS)?
                .with_baseline("baseline"),
        );
    }
    sets.extend(SweepRecipe::fig10(&FIG10_TDPS).build()?);
    Ok(sets)
}

pub fn run(args: &Args) -> Result<Outcome, Failure> {
    // The reference: the same sweep folded by one thread.
    let reference = sorted(sweep_from_sets(&inputs()?).run_parallel_fold(
        &mut SessionPool::new(),
        1,
        &DigestFold::new(),
    )?);
    let (setup_s, (sets, mut pool)) = timed_setups(args.short, || {
        let sets = inputs()?;
        let mut pool = SessionPool::new();
        let warm =
            sweep_from_sets(&sets).run_parallel_fold(&mut pool, WIDTH, &DigestFold::new())?;
        check("warm-up sweep", &sorted(warm), &reference).map_err(Failure::Mismatch)?;
        Ok((sets, pool))
    })?;
    let sweep = sweep_from_sets(&sets);
    let mut outcome = Outcome {
        digest: outputs_digest(&reference),
        off_path: &["dist.serve.", "dist.dispatcher."],
        ..Outcome::default()
    };
    outcome
        .notes
        .push(format!("{} cells per sweep", reference.len()));

    if !args.trace {
        untraced(args, setup_s, &mut outcome, |window| {
            let (log, _) = fold_ops("sweep", window, &reference, None, |consumer| {
                Ok((sweep.run_parallel_fold(&mut pool, WIDTH, consumer)?, ()))
            })?;
            Ok(log)
        })?;
        return Ok(outcome);
    }

    // The traced half runs the same sweep on traced governor factories.
    let traced_sets: Vec<ScenarioSet> = sets.iter().map(traced_set).collect::<Result<_, _>>()?;
    let traced_sweep = sweep_from_sets(&traced_sets);
    let (_, _, tracer) = traced_halves(args, &mut outcome, |window, tracer| {
        let sweep = if tracer.is_some() {
            &traced_sweep
        } else {
            &sweep
        };
        let (log, _) = fold_ops("sweep", window, &reference, tracer, |consumer| {
            Ok((sweep.run_parallel_fold(&mut pool, WIDTH, consumer)?, ()))
        })?;
        Ok(log)
    })?;
    let metrics = &mut outcome.metrics;
    let layers = FoldLayers::from_spans(&tracer.spans(), "sweep", WIDTH);
    layers.insert(metrics);
    metrics.insert("core.session_platforms", pool.cached_platforms() as f64);
    let workloads: Vec<_> = [spec_cpu2006_suite(), graphics_suite(), battery_life_suite()].concat();
    layers::direct(
        metrics,
        SocConfig::skylake_default,
        &workloads,
        &SweepRecipe::fig10(&FIG10_TDPS),
        args.short,
    )?;
    write_trace(args, &tracer)?;
    outcome
        .notes
        .push(format!("{} traced sweeps analysed", layers.ops()));
    Ok(outcome)
}
