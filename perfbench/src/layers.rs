//! Per-layer measurements shared by the workloads: direct timed calls into
//! single layers, and traced in-process folds of a workload's inputs.

use std::hint::black_box;
use std::time::Instant;

use sysscale::workloads::{PhaseSchedule, Workload};
use sysscale::{ScenarioSet, SessionPool, SocConfig, SocSimulator, SweepSharding};
use sysscale_dist::{sweep_from_sets, SweepRecipe};

use crate::digest::{check, sorted, CellDigest, DigestFold};
use crate::report::{median, ms, us};
use crate::trace::{traced_set, FoldLayers, Tracer};
use crate::{Failure, Metrics, WIDTH};

/// Median time of one call, in microseconds.
fn median_us(reps: usize, mut call: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            call();
            us(start.elapsed())
        })
        .collect();
    median(&times)
}

/// Times platform build (configuration and simulator), schedule compile and
/// the recipe codec directly, on one of the workload's platforms, all of its
/// workloads and its recipe.
pub fn direct(
    metrics: &mut Metrics,
    platform: impl Fn() -> SocConfig,
    workloads: &[Workload],
    recipe: &SweepRecipe,
    short: bool,
) -> Result<(), Failure> {
    let reps = if short { 3 } else { 50 };
    let mut build_error = None;
    metrics.insert(
        "soc.platform_build_us",
        median_us(reps, || {
            if let Err(error) = black_box(SocSimulator::new(platform())) {
                build_error = Some(error);
            }
        }),
    );
    if let Some(error) = build_error {
        return Err(error.into());
    }
    let mut compiles = Vec::new();
    for _ in 0..reps.min(10) {
        for workload in workloads {
            let start = Instant::now();
            black_box(PhaseSchedule::compile(black_box(workload)));
            compiles.push(us(start.elapsed()));
        }
    }
    metrics.insert("workloads.schedule_compile_us", median(&compiles));
    let bytes = recipe.encode();
    metrics.insert(
        "dist.recipe.encode_us",
        median_us(reps * 4, || {
            black_box(black_box(recipe).encode());
        }),
    );
    metrics.insert(
        "dist.recipe.decode_us",
        median_us(reps * 4, || {
            black_box(SweepRecipe::decode(black_box(&bytes)).ok());
        }),
    );
    metrics.insert(
        "dist.recipe.build_us",
        median_us(reps, || {
            black_box(black_box(recipe).build().ok());
        }),
    );
    Ok(())
}

/// One input of a traced probe: its member sets, sharding and reference.
pub struct ProbeInput<'a> {
    pub sets: &'a [ScenarioSet],
    pub sharding: SweepSharding,
    pub reference: &'a [CellDigest],
}

/// Folds `input` in-process at [`WIDTH`] threads on `pool`, warmed by one
/// fold, then `reps` more times, checking each result. With a tracer the
/// timed folds run on traced governor factories, each under a `probe` op
/// span. Returns each timed fold's wall time, in milliseconds.
pub fn fold_walls_ms(
    pool: &mut SessionPool,
    input: &ProbeInput<'_>,
    reps: usize,
    tracer: Option<&Tracer>,
) -> Result<Vec<f64>, Failure> {
    let traced: Vec<ScenarioSet>;
    let sets = match tracer {
        Some(_) => {
            traced = input
                .sets
                .iter()
                .map(traced_set)
                .collect::<Result<_, _>>()?;
            &traced
        }
        None => input.sets,
    };
    let sweep = sweep_from_sets(sets);
    // Warm the pool so platform builds stay out of the timed folds.
    sweep.run_parallel_fold_sharded(pool, WIDTH, input.sharding, &DigestFold::new())?;
    let mut walls = Vec::new();
    for _ in 0..reps.max(1) {
        let op = tracer.map(Tracer::begin_op);
        let consumer = match (tracer, op) {
            (Some(tracer), Some(op)) => DigestFold::traced(tracer, op),
            _ => DigestFold::new(),
        };
        let start = Instant::now();
        let acc = sweep.run_parallel_fold_sharded(pool, WIDTH, input.sharding, &consumer)?;
        let end = Instant::now();
        if let (Some(tracer), Some(op)) = (tracer, op) {
            tracer.end_op(op, "probe", start, end, &[]);
        }
        walls.push(ms(end - start));
        check("in-process fold", &sorted(acc), input.reference).map_err(Failure::Mismatch)?;
    }
    Ok(walls)
}

/// Folds every input traced on one pool (see [`fold_walls_ms`]) and inserts
/// the `soc.*`/`core.*`/`exec.*` layers and `trace.accounted_share`.
pub fn probe(
    metrics: &mut Metrics,
    tracer: &Tracer,
    inputs: &[ProbeInput<'_>],
    reps: usize,
) -> Result<(), Failure> {
    let mut pool = SessionPool::new();
    for input in inputs {
        fold_walls_ms(&mut pool, input, reps, Some(tracer))?;
    }
    FoldLayers::from_spans(&tracer.spans(), "probe", WIDTH).insert(metrics);
    metrics.insert("core.session_platforms", pool.cached_platforms() as f64);
    Ok(())
}
