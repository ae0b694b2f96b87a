//! The main evaluation: Fig. 7 (SPEC CPU2006), Fig. 8 (3DMark), and Fig. 9
//! (battery-life workloads), comparing SysScale against the projected
//! MemScale-Redist and CoScale-Redist baselines.
//!
//! Every figure is one [`ScenarioSet`] execution: the full
//! `workloads × {baseline, sysscale, memscale, coscale}` matrix runs through
//! a single [`ScenarioSet::run`] call and the rows are read off the
//! resulting [`RunSet`].

use sysscale_compute::CpuModel;
use sysscale_soc::SocConfig;
use sysscale_types::{exec, stats, Freq, SimResult, SimTime};
use sysscale_workloads::{battery_life_suite, graphics_suite, spec_cpu2006_suite, Workload};

use crate::baselines::project_redistributed_speedup;
use crate::predictor::DemandPredictor;
use crate::scenario::{
    sysscale_factory, CellId, GovernorRegistry, GroupFold, RunRecord, RunSet, ScenarioSet,
    SessionPool, SweepSet,
};

/// Per-workload comparison row (Figs. 7 and 8).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// Projected MemScale-Redist improvement, percent.
    pub memscale_redist_pct: f64,
    /// Projected CoScale-Redist improvement, percent.
    pub coscale_redist_pct: f64,
    /// Measured SysScale improvement, percent.
    pub sysscale_pct: f64,
}

/// A full evaluation figure: per-workload rows plus suite averages.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupFigure {
    /// Per-workload rows.
    pub rows: Vec<SpeedupRow>,
    /// Average MemScale-Redist improvement, percent.
    pub memscale_avg_pct: f64,
    /// Average CoScale-Redist improvement, percent.
    pub coscale_avg_pct: f64,
    /// Average SysScale improvement, percent.
    pub sysscale_avg_pct: f64,
    /// Maximum SysScale improvement, percent.
    pub sysscale_max_pct: f64,
}

impl SpeedupFigure {
    fn from_rows(rows: Vec<SpeedupRow>) -> Self {
        let mem: Vec<f64> = rows.iter().map(|r| r.memscale_redist_pct).collect();
        let co: Vec<f64> = rows.iter().map(|r| r.coscale_redist_pct).collect();
        let sys: Vec<f64> = rows.iter().map(|r| r.sysscale_pct).collect();
        Self {
            memscale_avg_pct: stats::mean(&mem),
            coscale_avg_pct: stats::mean(&co),
            sysscale_avg_pct: stats::mean(&sys),
            sysscale_max_pct: sys.iter().copied().fold(0.0, f64::max),
            rows,
        }
    }
}

/// Measures the frequency scalability of a CPU workload (Sec. 6 footnote 8)
/// from its phase descriptors at typical loaded-memory conditions.
#[must_use]
pub fn cpu_scalability(config: &SocConfig, workload: &Workload) -> f64 {
    let cpu = CpuModel::new(config.cpu).expect("validated config");
    let total = workload.iteration_length().as_secs();
    if total == 0.0 {
        return 0.0;
    }
    workload
        .phases
        .iter()
        .map(|p| {
            cpu.frequency_scalability(&p.cpu, Freq::from_ghz(1.8), SimTime::from_nanos(75.0))
                * p.duration.as_secs()
        })
        .sum::<f64>()
        / total
}

/// The evaluation's governor columns: the measured baseline and SysScale
/// plus the restricted-platform MemScale/CoScale power savers whose
/// `-Redist` performance is projected afterwards.
pub const EVALUATION_GOVERNORS: [&str; 4] = ["baseline", "sysscale", "memscale", "coscale"];

/// Runs the full `workloads × {baseline, SysScale, MemScale, CoScale}`
/// matrix through one parallel [`ScenarioSet::run_parallel`] batch on a
/// fresh [`SessionPool`], with `predictor` wired into the SysScale column
/// and the baseline designated for relative deltas.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluation_matrix(
    config: &SocConfig,
    predictor: &DemandPredictor,
    workloads: &[Workload],
) -> SimResult<RunSet> {
    evaluation_matrix_in(&mut SessionPool::new(), config, predictor, workloads)
}

/// Like [`evaluation_matrix`], but reuses a caller-provided pool so
/// consecutive matrices on the same platforms share their cached
/// simulators. The worker count comes from
/// [`exec::default_threads`] (`SYSSCALE_THREADS` overrides it; `1` is the
/// sequential path and produces a bit-identical [`RunSet`]).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluation_matrix_in(
    pool: &mut SessionPool,
    config: &SocConfig,
    predictor: &DemandPredictor,
    workloads: &[Workload],
) -> SimResult<RunSet> {
    let mut runs = evaluation_sweep_in(
        pool,
        exec::default_threads(),
        config,
        predictor,
        &[workloads],
    )?;
    Ok(runs.pop().expect("single-suite sweep"))
}

/// Runs several suites' evaluation matrices as **one** sharded [`SweepSet`]
/// batch and returns one [`RunSet`] per suite, in suite order.
///
/// The evaluation's governor columns span two platforms (the full platform
/// for baseline/SysScale, the restricted one for MemScale/CoScale), so the
/// sweep's platform sharding keeps each platform's simulator on one worker
/// across every suite. Each returned `RunSet` is byte-identical to
/// [`evaluation_matrix`] run on that suite alone, at any thread count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluation_sweep_in(
    pool: &mut SessionPool,
    threads: usize,
    config: &SocConfig,
    predictor: &DemandPredictor,
    suites: &[&[Workload]],
) -> SimResult<Vec<RunSet>> {
    let mut registry = GovernorRegistry::builtin();
    registry.register(sysscale_factory(*predictor));
    let mut sweep = SweepSet::new();
    for suite in suites {
        sweep.push_set(
            ScenarioSet::matrix_with(&registry, config, suite, &EVALUATION_GOVERNORS)?
                .with_baseline("baseline"),
        );
    }
    sweep.run_parallel(pool, threads)
}

/// The record-level speedup-row reduction — the single definition shared by
/// the materialized ([`fig7`]/[`fig8`]) and fold-based
/// ([`evaluation_figures_fold_in`]) aggregation paths, which is what keeps
/// their rows bit-identical.
fn speedup_row_from_records(
    config: &SocConfig,
    baseline: &RunRecord,
    sys: &RunRecord,
    mem: &RunRecord,
    co: &RunRecord,
    gfx_priority: bool,
    scalability: f64,
) -> SimResult<SpeedupRow> {
    // MemScale / CoScale ran power-save-only on the restricted platform;
    // project their -Redist performance from the measured savings (Sec. 6).
    let mem_proj = project_redistributed_speedup(
        config,
        &baseline.report,
        &mem.report,
        scalability,
        gfx_priority,
    )?;
    let co_proj = project_redistributed_speedup(
        config,
        &baseline.report,
        &co.report,
        scalability,
        gfx_priority,
    )?;
    Ok(SpeedupRow {
        workload: baseline.workload.clone(),
        memscale_redist_pct: mem_proj.projected_speedup_pct.max(0.0),
        coscale_redist_pct: co_proj.projected_speedup_pct.max(0.0),
        sysscale_pct: sys.report.speedup_pct_over(&baseline.report),
    })
}

fn row_from_runs(
    config: &SocConfig,
    runs: &RunSet,
    workload: &Workload,
    gfx_priority: bool,
    scalability: f64,
) -> SimResult<SpeedupRow> {
    let name = workload.name.as_str();
    speedup_row_from_records(
        config,
        runs.require(name, "baseline")?,
        runs.require(name, "sysscale")?,
        runs.require(name, "memscale")?,
        runs.require(name, "coscale")?,
        gfx_priority,
        scalability,
    )
}

fn fig7_from_runs(
    config: &SocConfig,
    runs: &RunSet,
    suite: &[Workload],
) -> SimResult<SpeedupFigure> {
    let rows = suite
        .iter()
        .map(|w| {
            let scalability = cpu_scalability(config, w);
            row_from_runs(config, runs, w, false, scalability)
        })
        .collect::<SimResult<Vec<_>>>()?;
    Ok(SpeedupFigure::from_rows(rows))
}

fn fig8_from_runs(
    config: &SocConfig,
    runs: &RunSet,
    suite: &[Workload],
) -> SimResult<SpeedupFigure> {
    let rows = suite
        .iter()
        .map(|w| {
            // Graphics FPS is assumed fully scalable with engine frequency as
            // long as bandwidth suffices (Sec. 7.2); the simulator itself
            // enforces the bandwidth limit for the measured SysScale numbers.
            row_from_runs(config, runs, w, true, 1.0)
        })
        .collect::<SimResult<Vec<_>>>()?;
    Ok(SpeedupFigure::from_rows(rows))
}

/// Fig. 7: SPEC CPU2006 performance improvements.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig7(config: &SocConfig, predictor: &DemandPredictor) -> SimResult<SpeedupFigure> {
    let suite = spec_cpu2006_suite();
    let runs = evaluation_matrix(config, predictor, &suite)?;
    fig7_from_runs(config, &runs, &suite)
}

/// Fig. 8: 3DMark performance improvements.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig8(config: &SocConfig, predictor: &DemandPredictor) -> SimResult<SpeedupFigure> {
    let suite = graphics_suite();
    let runs = evaluation_matrix(config, predictor, &suite)?;
    fig8_from_runs(config, &runs, &suite)
}

/// Per-workload battery-life row (Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReductionRow {
    /// Scenario name.
    pub workload: String,
    /// MemScale-R average power reduction, percent.
    pub memscale_redist_pct: f64,
    /// CoScale-R average power reduction, percent.
    pub coscale_redist_pct: f64,
    /// Measured SysScale average power reduction, percent.
    pub sysscale_pct: f64,
    /// Baseline average power, watts (for context).
    pub baseline_power_w: f64,
}

/// Fig. 9 result: rows plus averages.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReductionFigure {
    /// Per-scenario rows.
    pub rows: Vec<PowerReductionRow>,
    /// Average SysScale power reduction, percent.
    pub sysscale_avg_pct: f64,
    /// Maximum SysScale power reduction, percent.
    pub sysscale_max_pct: f64,
}

/// Fig. 9: battery-life average power reduction.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig9(config: &SocConfig, predictor: &DemandPredictor) -> SimResult<PowerReductionFigure> {
    let suite = battery_life_suite();
    let runs = evaluation_matrix(config, predictor, &suite)?;
    fig9_from_runs(&runs, &suite)
}

/// The record-level power-reduction-row reduction — like
/// [`speedup_row_from_records`], the single definition shared by the
/// materialized and fold-based paths.
fn power_row_from_records(
    baseline: &RunRecord,
    sys: &RunRecord,
    mem: &RunRecord,
    co: &RunRecord,
) -> PowerReductionRow {
    PowerReductionRow {
        workload: baseline.workload.clone(),
        memscale_redist_pct: mem.report.power_reduction_pct_vs(&baseline.report).max(0.0),
        coscale_redist_pct: co.report.power_reduction_pct_vs(&baseline.report).max(0.0),
        sysscale_pct: sys.report.power_reduction_pct_vs(&baseline.report),
        baseline_power_w: baseline.report.average_power().as_watts(),
    }
}

fn fig9_figure_from_rows(rows: Vec<PowerReductionRow>) -> PowerReductionFigure {
    let sys: Vec<f64> = rows.iter().map(|r| r.sysscale_pct).collect();
    PowerReductionFigure {
        sysscale_avg_pct: stats::mean(&sys),
        sysscale_max_pct: sys.iter().copied().fold(0.0, f64::max),
        rows,
    }
}

fn fig9_from_runs(runs: &RunSet, suite: &[Workload]) -> SimResult<PowerReductionFigure> {
    let rows = suite
        .iter()
        .map(|w| {
            let name = w.name.as_str();
            Ok(power_row_from_records(
                runs.require(name, "baseline")?,
                runs.require(name, "sysscale")?,
                runs.require(name, "memscale")?,
                runs.require(name, "coscale")?,
            ))
        })
        .collect::<SimResult<Vec<_>>>()?;
    Ok(fig9_figure_from_rows(rows))
}

/// Runs the whole main evaluation — Figs. 7, 8, and 9 — as **one** sharded
/// sweep: the three suites' matrices (SPEC CPU2006, 3DMark, battery life)
/// flatten into a single cell list on one pool, so no worker idles between
/// figures and the two evaluation platforms are each built once. Every
/// figure is byte-identical to its standalone [`fig7`]/[`fig8`]/[`fig9`]
/// counterpart at any thread count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluation_figures(
    config: &SocConfig,
    predictor: &DemandPredictor,
) -> SimResult<(SpeedupFigure, SpeedupFigure, PowerReductionFigure)> {
    let spec = spec_cpu2006_suite();
    let gfx = graphics_suite();
    let battery = battery_life_suite();
    let runs = evaluation_sweep_in(
        &mut SessionPool::new(),
        exec::default_threads(),
        config,
        predictor,
        &[&spec, &gfx, &battery],
    )?;
    Ok((
        fig7_from_runs(config, &runs[0], &spec)?,
        fig8_from_runs(config, &runs[1], &gfx)?,
        fig9_from_runs(&runs[2], &battery)?,
    ))
}

/// A fold-reduced evaluation row: Figs. 7/8 rows are speedups, Fig. 9 rows
/// power reductions.
enum EvalRow {
    Speedup(SpeedupRow),
    Power(PowerReductionRow),
}

/// [`evaluation_figures`] on a caller-provided pool and worker count,
/// through the fold-based result pipeline
/// ([`SweepSet::run_parallel_fold`]): the same three-suite sharded sweep,
/// but each workload's four governor runs reduce to its figure row the
/// moment the last one finishes — via the same record-level row reductions
/// the materialized path applies after collecting — so no `RunSet` is ever
/// materialized and the figures are **byte-identical** to
/// [`evaluation_figures`] at any thread count (the fold differential test
/// pins this).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluation_figures_fold_in(
    pool: &mut SessionPool,
    threads: usize,
    config: &SocConfig,
    predictor: &DemandPredictor,
) -> SimResult<(SpeedupFigure, SpeedupFigure, PowerReductionFigure)> {
    let spec = spec_cpu2006_suite();
    let gfx = graphics_suite();
    let battery = battery_life_suite();
    let suites: [&[Workload]; 3] = [&spec, &gfx, &battery];

    let mut registry = GovernorRegistry::builtin();
    registry.register(sysscale_factory(*predictor));
    let sets: Vec<ScenarioSet> = suites
        .iter()
        .map(|suite| {
            Ok(
                ScenarioSet::matrix_with(&registry, config, suite, &EVALUATION_GOVERNORS)?
                    .with_baseline("baseline"),
            )
        })
        .collect::<SimResult<_>>()?;
    let mut sweep = SweepSet::new();
    for set in &sets {
        sweep.push_set_ref(set);
    }

    // Group = flat workload index across the three suites; slot = governor
    // column in EVALUATION_GOVERNORS order (baseline, sysscale, memscale,
    // coscale). Member cell layout is governors outer, workloads inner.
    let widths = [spec.len(), gfx.len(), battery.len()];
    let offsets = [0, widths[0], widths[0] + widths[1]];
    let total: usize = widths.iter().sum();
    // Per-group row recipe: which figure the workload belongs to, and the
    // speedup rows' scalability input (a pure function of config and
    // workload, computed in the same order the materialized path does).
    enum RowSpec {
        Speedup {
            gfx_priority: bool,
            scalability: f64,
        },
        Power,
    }
    let specs: Vec<RowSpec> = spec
        .iter()
        .map(|w| RowSpec::Speedup {
            gfx_priority: false,
            scalability: cpu_scalability(config, w),
        })
        .chain(gfx.iter().map(|_| RowSpec::Speedup {
            // Graphics FPS is assumed fully scalable with engine frequency
            // as long as bandwidth suffices (Sec. 7.2).
            gfx_priority: true,
            scalability: 1.0,
        }))
        .chain(battery.iter().map(|_| RowSpec::Power))
        .collect();
    let row_config = config.clone();
    let consumer = GroupFold::new(
        total,
        EVALUATION_GOVERNORS.len(),
        move |cell: CellId| {
            (
                offsets[cell.member] + cell.local % widths[cell.member],
                cell.local / widths[cell.member],
            )
        },
        move |group, records: Vec<RunRecord>| -> SimResult<EvalRow> {
            let (baseline, sys, mem, co) = (&records[0], &records[1], &records[2], &records[3]);
            match specs[group] {
                RowSpec::Speedup {
                    gfx_priority,
                    scalability,
                } => Ok(EvalRow::Speedup(speedup_row_from_records(
                    &row_config,
                    baseline,
                    sys,
                    mem,
                    co,
                    gfx_priority,
                    scalability,
                )?)),
                RowSpec::Power => Ok(EvalRow::Power(power_row_from_records(
                    baseline, sys, mem, co,
                ))),
            }
        },
    );

    let acc = sweep.run_parallel_fold(pool, threads, &consumer)?;
    let mut rows = consumer
        .into_outputs(acc)
        .into_iter()
        .collect::<SimResult<Vec<EvalRow>>>()?
        .into_iter();
    let take_speedups = |rows: &mut dyn Iterator<Item = EvalRow>, n: usize| -> Vec<SpeedupRow> {
        rows.take(n)
            .map(|row| match row {
                EvalRow::Speedup(row) => row,
                EvalRow::Power(_) => unreachable!("speedup group produced a power row"),
            })
            .collect()
    };
    let fig7 = SpeedupFigure::from_rows(take_speedups(&mut rows, widths[0]));
    let fig8 = SpeedupFigure::from_rows(take_speedups(&mut rows, widths[1]));
    let fig9 = fig9_figure_from_rows(
        rows.map(|row| match row {
            EvalRow::Power(row) => row,
            EvalRow::Speedup(_) => unreachable!("power group produced a speedup row"),
        })
        .collect(),
    );
    Ok((fig7, fig8, fig9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_workloads::spec_workload;

    #[test]
    fn scalability_separates_compute_bound_from_memory_bound() {
        let config = SocConfig::skylake_default();
        let gamess = cpu_scalability(&config, &spec_workload("gamess").unwrap());
        let lbm = cpu_scalability(&config, &spec_workload("lbm").unwrap());
        assert!(gamess > 0.85, "gamess {gamess}");
        assert!(lbm < 0.6, "lbm {lbm}");
    }

    #[test]
    fn single_workload_evaluation_orders_the_techniques() {
        // The headline ordering of Fig. 7: SysScale > CoScale-R and
        // MemScale-R for a frequency-scalable workload.
        let config = SocConfig::skylake_default();
        let predictor = DemandPredictor::skylake_default();
        let w = spec_workload("gamess").unwrap();
        let scal = cpu_scalability(&config, &w);
        let runs = evaluation_matrix(&config, &predictor, std::slice::from_ref(&w)).unwrap();
        assert_eq!(runs.len(), EVALUATION_GOVERNORS.len());
        let row = row_from_runs(&config, &runs, &w, false, scal).unwrap();
        assert!(row.sysscale_pct > 3.0, "{row:?}");
        assert!(row.sysscale_pct > row.memscale_redist_pct, "{row:?}");
        assert!(row.sysscale_pct > row.coscale_redist_pct * 0.9, "{row:?}");
        assert!(row.memscale_redist_pct >= 0.0);
    }

    #[test]
    fn memory_bound_workload_sees_little_gain_but_no_large_loss() {
        let config = SocConfig::skylake_default();
        let predictor = DemandPredictor::skylake_default();
        let w = spec_workload("bwaves").unwrap();
        let scal = cpu_scalability(&config, &w);
        let runs = evaluation_matrix(&config, &predictor, std::slice::from_ref(&w)).unwrap();
        let row = row_from_runs(&config, &runs, &w, false, scal).unwrap();
        assert!(row.sysscale_pct > -2.0, "{row:?}");
        assert!(row.sysscale_pct < 6.0, "{row:?}");
    }

    #[test]
    fn battery_life_row_shape() {
        let config = SocConfig::skylake_default();
        let predictor = DemandPredictor::skylake_default();
        let fig = fig9(&config, &predictor).unwrap();
        assert_eq!(fig.rows.len(), 4);
        for row in &fig.rows {
            assert!(row.sysscale_pct > 1.0, "{row:?}");
            assert!(
                row.sysscale_pct > row.memscale_redist_pct,
                "SysScale should save more than MemScale-R: {row:?}"
            );
            assert!(row.baseline_power_w < 3.0);
        }
        assert!(fig.sysscale_avg_pct > 2.0);
        assert!(fig.sysscale_max_pct >= fig.sysscale_avg_pct);
    }
}
