//! # sysscale-bench
//!
//! Shared formatting helpers for the SysScale benchmark harness: the
//! `figures` binary regenerates every table and figure of the paper's
//! evaluation, and the Criterion benches time the experiment kernels on
//! reduced inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use sysscale::experiments::evaluation::{PowerReductionFigure, SpeedupFigure};
use sysscale::experiments::motivation::{Fig2aRow, Fig3bRow, Fig4Result, Table1Row};
use sysscale::experiments::predictor_study::PredictorPanel;
use sysscale::experiments::sensitivity::{AblationRow, DramSensitivity, Overheads, TdpPoint};
use sysscale::SocConfig;

/// Formats Table 1.
#[must_use]
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("Table 1 — experimental setups\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12}\n",
        "component", "baseline", "MD-DVFS"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>12} {:>12}\n",
            r.component, r.baseline, r.md_dvfs
        ));
    }
    out
}

/// Formats Table 2 (platform parameters) from a configuration.
#[must_use]
pub fn format_table2(config: &SocConfig) -> String {
    let mut out = String::from("Table 2 — SoC and memory parameters\n");
    out.push_str(&format!(
        "  CPU cores           : {} (x{} threads)\n",
        config.cpu.cores, config.cpu.threads_per_core
    ));
    out.push_str(&format!(
        "  LLC                 : {:.0} MiB\n",
        config.llc.size_mib
    ));
    out.push_str(&format!(
        "  TDP                 : {:.1} W\n",
        config.tdp.as_watts()
    ));
    out.push_str(&format!(
        "  DRAM                : {} dual-channel, {:.2} GHz default bin\n",
        config.dram().kind,
        config.uncore_ladder().highest().dram_freq.as_ghz()
    ));
    out.push_str(&format!(
        "  Uncore ladder       : {} operating points\n",
        config.uncore_ladder().len()
    ));
    out.push_str(&format!(
        "  Evaluation interval : {:.0} ms\n",
        config.evaluation_interval.as_millis()
    ));
    out
}

/// Formats the Fig. 2(a) rows.
#[must_use]
pub fn format_fig2a(rows: &[Fig2aRow]) -> String {
    let mut out = String::from("Fig. 2(a) — impact of static MD-DVFS (vs baseline)\n");
    out.push_str(&format!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>14}\n",
        "workload", "power", "energy", "perf", "EDP", "perf@redist"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>13.1}%\n",
            r.workload,
            -r.power_reduction_pct,
            -r.energy_reduction_pct,
            r.perf_change_pct,
            r.edp_improvement_pct,
            r.perf_change_with_redistribution_pct
        ));
    }
    out
}

/// Formats the Fig. 3(b) rows.
#[must_use]
pub fn format_fig3b(rows: &[Fig3bRow]) -> String {
    let mut out = String::from("Fig. 3(b) — static bandwidth demand per configuration\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<22} {:>7.2} GiB/s ({:>4.1}% of peak)\n",
            r.configuration,
            r.demand_gib_s,
            r.fraction_of_peak * 100.0
        ));
    }
    out
}

/// Formats the Fig. 4 result.
#[must_use]
pub fn format_fig4(result: &Fig4Result) -> String {
    format!(
        "Fig. 4 — unoptimized MRC values on the peak-bandwidth microbenchmark\n  \
         SoC power increase     : {:+.1}% (paper: +22% on the memory rail)\n  \
         memory power increase  : {:+.1}%\n  \
         performance degradation: {:+.1}% (paper: -10%)\n",
        result.power_increase_pct, result.memory_power_increase_pct, result.perf_degradation_pct
    )
}

/// Formats the Fig. 6 panels.
#[must_use]
pub fn format_fig6(panels: &[PredictorPanel]) -> String {
    let mut out = String::from("Fig. 6 — predictor accuracy (actual vs predicted impact)\n");
    out.push_str(&format!(
        "{:<10} {:>14} {:>10} {:>12} {:>10} {:>11}\n",
        "class", "freq pair", "workloads", "correlation", "accuracy", "false pos."
    ));
    for p in panels {
        out.push_str(&format!(
            "{:<10} {:>6.2}->{:<6.2} {:>10} {:>12.2} {:>9.1}% {:>10.1}%\n",
            p.class.name(),
            p.high_ghz,
            p.low_ghz,
            p.workloads,
            p.correlation,
            p.accuracy_pct,
            p.false_positive_pct
        ));
    }
    out
}

/// Formats a speedup figure (Figs. 7 and 8).
#[must_use]
pub fn format_speedup_figure(title: &str, figure: &SpeedupFigure) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>10}\n",
        "workload", "MemScale-R", "CoScale-R", "SysScale"
    ));
    for r in &figure.rows {
        out.push_str(&format!(
            "{:<18} {:>11.1}% {:>11.1}% {:>9.1}%\n",
            r.workload, r.memscale_redist_pct, r.coscale_redist_pct, r.sysscale_pct
        ));
    }
    out.push_str(&format!(
        "{:<18} {:>11.1}% {:>11.1}% {:>9.1}%   (max SysScale {:.1}%)\n",
        "average",
        figure.memscale_avg_pct,
        figure.coscale_avg_pct,
        figure.sysscale_avg_pct,
        figure.sysscale_max_pct
    ));
    out
}

/// Formats the Fig. 9 figure.
#[must_use]
pub fn format_fig9(figure: &PowerReductionFigure) -> String {
    let mut out = String::from("Fig. 9 — battery-life average power reduction\n");
    out.push_str(&format!(
        "{:<20} {:>10} {:>12} {:>12} {:>10}\n",
        "workload", "baseline W", "MemScale-R", "CoScale-R", "SysScale"
    ));
    for r in &figure.rows {
        out.push_str(&format!(
            "{:<20} {:>10.3} {:>11.1}% {:>11.1}% {:>9.1}%\n",
            r.workload,
            r.baseline_power_w,
            r.memscale_redist_pct,
            r.coscale_redist_pct,
            r.sysscale_pct
        ));
    }
    out.push_str(&format!(
        "SysScale average {:.1}% (max {:.1}%)\n",
        figure.sysscale_avg_pct, figure.sysscale_max_pct
    ));
    out
}

/// Formats the Fig. 10 TDP-sensitivity points.
#[must_use]
pub fn format_fig10(points: &[TdpPoint]) -> String {
    let mut out = String::from("Fig. 10 — SysScale SPEC speedup vs TDP (violin summaries)\n");
    out.push_str(&format!(
        "{:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "TDP", "mean", "median", "p25", "p75", "min", "max"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>6.1}W {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%\n",
            p.tdp_w,
            p.summary.mean,
            p.summary.median,
            p.summary.p25,
            p.summary.p75,
            p.summary.min,
            p.summary.max
        ));
    }
    out
}

/// Formats the DRAM sensitivity result.
#[must_use]
pub fn format_dram_sensitivity(result: &DramSensitivity) -> String {
    format!(
        "Sec. 7.4 — DRAM sensitivity\n  \
         LPDDR3 1.6->1.07 GHz battery power reduction : {:.1}%\n  \
         DDR4   1.87->1.33 GHz battery power reduction: {:.1}%\n  \
         DDR4 shortfall vs LPDDR3                      : {:.1}% (paper: ~7%)\n  \
         SPEC speedup, 2-point ladder                  : {:.1}%\n  \
         SPEC speedup, 3-point ladder (adds 0.8 GHz)   : {:.1}%\n",
        result.lpddr3_avg_power_reduction_pct,
        result.ddr4_avg_power_reduction_pct,
        result.ddr4_shortfall_pct,
        result.two_point_avg_speedup_pct,
        result.three_point_avg_speedup_pct
    )
}

/// Formats the overhead accounting.
#[must_use]
pub fn format_overheads(o: &Overheads) -> String {
    format!(
        "Sec. 5 — implementation overheads\n  \
         transition stall : {:.1} us (budget <10 us)\n  \
         MRC SRAM         : {} B (budget ~512 B)\n  \
         PMU firmware     : {} B (budget ~600 B)\n  \
         new counters     : {}\n",
        o.transition_stall_us, o.mrc_sram_bytes, o.firmware_bytes, o.new_counters
    )
}

/// Formats the ablation rows.
#[must_use]
pub fn format_ablations(rows: &[AblationRow]) -> String {
    let mut out =
        String::from("Ablations — SPEC-subset speedup / video-playback power reduction\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<24} {:>7.1}% {:>7.1}%\n",
            r.name, r.avg_speedup_pct, r.video_playback_power_reduction_pct
        ));
    }
    out
}

/// A minimal wall-clock benchmarking harness.
///
/// The workspace builds offline, so the Criterion dependency is replaced by
/// this deliberately small timer: each measurement runs one warm-up
/// iteration, then `iters` timed iterations, and prints the mean and
/// fastest time per iteration. Benches are wired with `harness = false`
/// and run through `cargo bench`.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Environment variable naming the JSONL file perf records are appended
    /// to (in addition to stdout). Unset = no history is written.
    pub const HISTORY_ENV: &str = "SYSSCALE_BENCH_HISTORY";

    /// Environment variable carrying the PR/commit tag stamped on each
    /// history record (defaults to `untagged`).
    pub const TAG_ENV: &str = "SYSSCALE_BENCH_TAG";

    /// The tag stamped on history records: `SYSSCALE_BENCH_TAG`, or
    /// `untagged`.
    #[must_use]
    pub fn history_tag() -> String {
        std::env::var(TAG_ENV).unwrap_or_else(|_| "untagged".to_string())
    }

    /// JSON-string-escapes a tag so a quote/backslash/control character in
    /// `SYSSCALE_BENCH_TAG` cannot corrupt the append-only history file.
    fn escape_tag(tag: &str) -> String {
        let mut out = String::with_capacity(tag.len());
        for c in tag.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Appends one perf JSON line to the `SYSSCALE_BENCH_HISTORY` file (if
    /// configured), prefixing it with the [`history_tag`]. `line` must be a
    /// one-line JSON object starting with `{`. IO errors are reported on
    /// stderr but never fail the bench.
    pub fn append_history(line: &str) {
        let Ok(path) = std::env::var(HISTORY_ENV) else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let tagged = format!(
            "{{\"tag\":\"{}\",{}\n",
            escape_tag(&history_tag()),
            line.trim_start_matches('{')
        );
        use std::io::Write;
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(tagged.as_bytes()));
        if let Err(e) = written {
            eprintln!("bench history append to {path} failed: {e}");
        }
    }

    /// Wall-clock measurement of one scenario-matrix execution, emitted as a
    /// machine-readable JSON line so the perf trajectory can be tracked
    /// across PRs (`grep '"kind":"matrix_perf"'` over bench logs).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MatrixPerf {
        /// Number of scenario cells in the matrix.
        pub cells: usize,
        /// Worker-thread count the matrix ran at.
        pub threads: usize,
        /// Wall-clock time of the execution.
        pub wall: Duration,
    }

    impl MatrixPerf {
        /// Cells executed per wall-clock second.
        #[must_use]
        pub fn cells_per_sec(&self) -> f64 {
            let secs = self.wall.as_secs_f64();
            if secs > 0.0 {
                self.cells as f64 / secs
            } else {
                0.0
            }
        }

        /// Prints the canonical one-line JSON record:
        /// `{"kind":"matrix_perf","bench":…,"matrix":…,"cells":…,"threads":…,
        /// "wall_clock_ms":…,"cells_per_sec":…}` — and appends it to the
        /// [`HISTORY_ENV`] file when configured.
        pub fn emit(&self, bench: &str, matrix: &str) {
            let line = format!(
                "{{\"kind\":\"matrix_perf\",\"bench\":\"{bench}\",\"matrix\":\"{matrix}\",\
                 \"cells\":{},\"threads\":{},\"wall_clock_ms\":{:.3},\"cells_per_sec\":{:.3}}}",
                self.cells,
                self.threads,
                self.wall.as_secs_f64() * 1e3,
                self.cells_per_sec(),
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Wall-clock measurement of the simulator's inner slice loop over one
    /// matrix execution, emitted as a machine-readable JSON line
    /// (`"kind":"slice_perf"`). Where [`MatrixPerf`] tracks whole-cell
    /// throughput, this tracks the per-slice hot path: slices per second
    /// and how many memory fixed-point iterations each slice paid.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SlicePerf {
        /// Number of scenario cells executed.
        pub cells: usize,
        /// Worker-thread count the matrix ran at.
        pub threads: usize,
        /// Total simulated slices across all cells.
        pub slices: u64,
        /// Total memory fixed-point iterations across all slices.
        pub fixed_point_iters: u64,
        /// Wall-clock time of the execution.
        pub wall: Duration,
    }

    impl SlicePerf {
        /// Simulated slices executed per wall-clock second.
        #[must_use]
        pub fn slices_per_sec(&self) -> f64 {
            let secs = self.wall.as_secs_f64();
            if secs > 0.0 {
                self.slices as f64 / secs
            } else {
                0.0
            }
        }

        /// Average memory fixed-point iterations per slice (delegates to
        /// [`sysscale::SliceLoopStats`], the single definition of the
        /// metric).
        #[must_use]
        pub fn iters_per_slice(&self) -> f64 {
            sysscale::SliceLoopStats {
                slices: self.slices,
                fixed_point_iters: self.fixed_point_iters,
            }
            .iters_per_slice()
        }

        /// Prints the canonical one-line JSON record:
        /// `{"kind":"slice_perf","bench":…,"matrix":…,"cells":…,"threads":…,
        /// "slices":…,"wall_clock_ms":…,"slices_per_sec":…,
        /// "fixed_point_iters_per_slice":…}` — and appends it to the
        /// [`HISTORY_ENV`] file when configured.
        pub fn emit(&self, bench: &str, matrix: &str) {
            let line = format!(
                "{{\"kind\":\"slice_perf\",\"bench\":\"{bench}\",\"matrix\":\"{matrix}\",\
                 \"cells\":{},\"threads\":{},\"slices\":{},\"wall_clock_ms\":{:.3},\
                 \"slices_per_sec\":{:.1},\"fixed_point_iters_per_slice\":{:.4}}}",
                self.cells,
                self.threads,
                self.slices,
                self.wall.as_secs_f64() * 1e3,
                self.slices_per_sec(),
                self.iters_per_slice(),
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Times `run` once, emits the JSON record, and returns the measurement
    /// together with `run`'s output. The recorded thread count is clamped to
    /// the cell count, mirroring what the executor actually uses.
    pub fn time_matrix<T>(
        bench: &str,
        matrix: &str,
        cells: usize,
        threads: usize,
        run: impl FnOnce() -> T,
    ) -> (MatrixPerf, T) {
        let start = Instant::now();
        let out = run();
        let perf = MatrixPerf {
            cells,
            threads: sysscale_types::exec::effective_workers(threads, cells),
            wall: start.elapsed(),
        };
        perf.emit(bench, matrix);
        (perf, out)
    }

    /// Wall-clock measurement of one whole-sweep execution — a multi-
    /// configuration study (e.g. the full Fig. 10 TDP sweep) flattened into
    /// a single sharded batch — emitted as a machine-readable JSON line
    /// (`"kind":"sweep_perf"`). Where [`MatrixPerf`] tracks one matrix,
    /// this tracks sweep-level throughput: cells/sec across every
    /// configuration point of the batch.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SweepPerf {
        /// Number of member batches (configuration points) in the sweep.
        pub members: usize,
        /// Total scenario cells across all members.
        pub cells: usize,
        /// Worker-thread count the sweep ran at.
        pub threads: usize,
        /// Wall-clock time of the execution.
        pub wall: Duration,
    }

    impl SweepPerf {
        /// Cells executed per wall-clock second over the whole sweep.
        #[must_use]
        pub fn cells_per_sec(&self) -> f64 {
            let secs = self.wall.as_secs_f64();
            if secs > 0.0 {
                self.cells as f64 / secs
            } else {
                0.0
            }
        }

        /// Prints the canonical one-line JSON record:
        /// `{"kind":"sweep_perf","bench":…,"sweep":…,"members":…,"cells":…,
        /// "threads":…,"wall_clock_ms":…,"cells_per_sec":…}` — and appends
        /// it to the [`HISTORY_ENV`] file when configured.
        pub fn emit(&self, bench: &str, sweep: &str) {
            let line = format!(
                "{{\"kind\":\"sweep_perf\",\"bench\":\"{bench}\",\"sweep\":\"{sweep}\",\
                 \"members\":{},\"cells\":{},\"threads\":{},\"wall_clock_ms\":{:.3},\
                 \"cells_per_sec\":{:.3}}}",
                self.members,
                self.cells,
                self.threads,
                self.wall.as_secs_f64() * 1e3,
                self.cells_per_sec(),
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Times `run` once, emits the sweep-perf JSON record, and returns the
    /// measurement together with `run`'s output. The recorded thread count
    /// is clamped to the cell count, mirroring the executor.
    pub fn time_sweep<T>(
        bench: &str,
        sweep: &str,
        members: usize,
        cells: usize,
        threads: usize,
        run: impl FnOnce() -> T,
    ) -> (SweepPerf, T) {
        let start = Instant::now();
        let out = run();
        let perf = SweepPerf {
            members,
            cells,
            threads: sysscale_types::exec::effective_workers(threads, cells),
            wall: start.elapsed(),
        };
        perf.emit(bench, sweep);
        (perf, out)
    }

    /// Wall-clock **and peak-result-memory** measurement of one fold-based
    /// (or materialized reference) sweep execution, emitted as a
    /// machine-readable JSON line (`"kind":"fold_perf"`). Where
    /// [`SweepPerf`] tracks sweep throughput alone, this additionally
    /// records the peak heap growth observed while the sweep's results were
    /// aggregated — the number the fold pipeline exists to hold flat. The
    /// `fold` bench emits one record per mode (`"fold"` vs
    /// `"materialized"`) so the memory and throughput deltas land in the
    /// same history file.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FoldPerf {
        /// Total scenario cells across the sweep.
        pub cells: usize,
        /// Worker-thread count the sweep ran at.
        pub threads: usize,
        /// Wall-clock time of the execution.
        pub wall: Duration,
        /// Peak heap growth (bytes above entry level) during the
        /// execution — result records, accumulators, and scheduling
        /// metadata; the bench binary measures it with a live-bytes
        /// tracking allocator.
        pub peak_result_bytes: u64,
    }

    impl FoldPerf {
        /// Cells executed per wall-clock second.
        #[must_use]
        pub fn cells_per_sec(&self) -> f64 {
            let secs = self.wall.as_secs_f64();
            if secs > 0.0 {
                self.cells as f64 / secs
            } else {
                0.0
            }
        }

        /// Prints the canonical one-line JSON record:
        /// `{"kind":"fold_perf","bench":…,"sweep":…,"mode":…,"cells":…,
        /// "threads":…,"wall_clock_ms":…,"cells_per_sec":…,
        /// "peak_result_bytes":…}` — and appends it to the [`HISTORY_ENV`]
        /// file when configured. `mode` distinguishes the fold pipeline
        /// from its materialized reference.
        pub fn emit(&self, bench: &str, sweep: &str, mode: &str) {
            let line = format!(
                "{{\"kind\":\"fold_perf\",\"bench\":\"{bench}\",\"sweep\":\"{sweep}\",\
                 \"mode\":\"{mode}\",\"cells\":{},\"threads\":{},\"wall_clock_ms\":{:.3},\
                 \"cells_per_sec\":{:.3},\"peak_result_bytes\":{}}}",
                self.cells,
                self.threads,
                self.wall.as_secs_f64() * 1e3,
                self.cells_per_sec(),
                self.peak_result_bytes,
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Wall-clock measurement of one *distributed* sweep execution
    /// (dispatcher + worker OS processes), emitted as a machine-readable
    /// JSON line (`"kind":"dist_perf"`). Where [`FoldPerf`] tracks the
    /// in-process fold, this tracks the cross-process executor: throughput
    /// *including* process spawn and wire-protocol overhead, plus the
    /// protocol traffic that produced it. The `dist` bench emits one record
    /// per mode (`"in_process"` reference vs `"procs<N>"`) so the
    /// distribution overhead lands in the same history file.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DistPerf {
        /// Total scenario cells across the sweep.
        pub cells: usize,
        /// Worker process count (1 for the in-process reference).
        pub procs: usize,
        /// Wall-clock time of the execution, including worker spawn,
        /// recipe shipping, and result streaming.
        pub wall: Duration,
        /// Result frames received over the wire (0 for the in-process
        /// reference).
        pub result_frames: u64,
        /// Leases re-issued after worker deaths (0 in a healthy run).
        pub reissued_leases: usize,
        /// Frames dropped as duplicates/stale (0 without wire faults).
        pub frames_rejected: u64,
        /// Cells quarantined into the partial-result manifest (0 outside
        /// quarantine mode).
        pub quarantined_cells: usize,
        /// Leases restored from a checkpoint journal (0 without a resume).
        pub journal_resumes: usize,
        /// Transient I/O retries absorbed (connect backoff, `WouldBlock`).
        pub retries: u64,
    }

    impl DistPerf {
        /// Cells executed per wall-clock second.
        #[must_use]
        pub fn cells_per_sec(&self) -> f64 {
            let secs = self.wall.as_secs_f64();
            if secs > 0.0 {
                self.cells as f64 / secs
            } else {
                0.0
            }
        }

        /// Prints the canonical one-line JSON record:
        /// `{"kind":"dist_perf","bench":…,"sweep":…,"mode":…,"cells":…,
        /// "procs":…,"wall_clock_ms":…,"cells_per_sec":…,"result_frames":…,
        /// "reissued_leases":…,"frames_rejected":…,"quarantined_cells":…,
        /// "journal_resumes":…,"retries":…}` — and appends it to the
        /// [`HISTORY_ENV`] file when configured.
        pub fn emit(&self, bench: &str, sweep: &str, mode: &str) {
            let line = format!(
                "{{\"kind\":\"dist_perf\",\"bench\":\"{bench}\",\"sweep\":\"{sweep}\",\
                 \"mode\":\"{mode}\",\"cells\":{},\"procs\":{},\"wall_clock_ms\":{:.3},\
                 \"cells_per_sec\":{:.3},\"result_frames\":{},\"reissued_leases\":{},\
                 \"frames_rejected\":{},\"quarantined_cells\":{},\"journal_resumes\":{},\
                 \"retries\":{}}}",
                self.cells,
                self.procs,
                self.wall.as_secs_f64() * 1e3,
                self.cells_per_sec(),
                self.result_frames,
                self.reissued_leases,
                self.frames_rejected,
                self.quarantined_cells,
                self.journal_resumes,
                self.retries,
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Load measurement of one stage of the sweep-service stress schedule,
    /// emitted as a machine-readable JSON line (`"kind":"stress_perf"`).
    /// Where [`DistPerf`] tracks one sweep through the cross-process
    /// executor, this tracks the *serving* layer under rising load: each
    /// record is one stage of the schedule (a fixed client count, every
    /// client submitting a burst of sweeps to one `SweepService`), carrying
    /// the llamaburn-style summary — requests/sec, p50/p95/p99/p999
    /// latency, error rate — plus the queue depth that produced the
    /// throughput, so the history file holds the whole queue-depth vs
    /// throughput curve. Every record of a schedule carries the same
    /// `degradation_stage`: the first stage index whose latency blew past
    /// the first stage's (see `sysscale_dist::degradation_point`), or `-1`
    /// while the service degrades gracefully.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct StressPerf {
        /// Stage index within the schedule (0-based).
        pub stage: usize,
        /// Concurrent clients this stage ran.
        pub clients: usize,
        /// Fold workers the service executed sweeps with.
        pub workers: usize,
        /// Submissions this stage completed.
        pub requests: u64,
        /// Submissions that failed.
        pub errors: u64,
        /// Total cells folded across the stage.
        pub cells: u64,
        /// Completed submissions per second of service wall time.
        pub requests_per_sec: f64,
        /// Cells folded per second of service wall time.
        pub cells_per_sec: f64,
        /// Median admission→completion latency, milliseconds.
        pub p50_latency_ms: f64,
        /// 95th-percentile latency, milliseconds.
        pub p95_latency_ms: f64,
        /// 99th-percentile latency, milliseconds.
        pub p99_latency_ms: f64,
        /// 99.9th-percentile latency, milliseconds.
        pub p999_latency_ms: f64,
        /// Mean queueing share of total latency (0..=1).
        pub queue_share: f64,
        /// `errors / requests`.
        pub error_rate: f64,
        /// Deepest executor queue observed during the stage.
        pub max_queue_depth: u64,
        /// Frames the service rejected (CRC/protocol); 0 on a healthy run.
        pub frames_rejected: u64,
        /// First degraded stage of the whole schedule, `-1` for none.
        pub degradation_stage: i64,
        /// First post-degradation stage whose p95 recovered to within the
        /// baseline threshold with zero errors, `-1` when the schedule
        /// never degraded or never recovered.
        pub recovery_stage: i64,
        /// Wall time the schedule spent degraded (degradation through
        /// recovery, or through the schedule's end), milliseconds; 0 when
        /// nothing degraded.
        pub recovery_ms: f64,
    }

    impl StressPerf {
        /// Prints the canonical one-line JSON record:
        /// `{"kind":"stress_perf","bench":…,"schedule":…,"stage":…,
        /// "clients":…,"workers":…,"requests":…,"errors":…,"cells":…,
        /// "requests_per_sec":…,"cells_per_sec":…,"p50_latency_ms":…,
        /// "p95_latency_ms":…,"p99_latency_ms":…,"p999_latency_ms":…,
        /// "queue_share":…,"error_rate":…,"max_queue_depth":…,
        /// "frames_rejected":…,"degradation_stage":…,"recovery_stage":…,
        /// "recovery_ms":…}` — and appends it to the [`HISTORY_ENV`] file
        /// when configured.
        pub fn emit(&self, bench: &str, schedule: &str) {
            let line = format!(
                "{{\"kind\":\"stress_perf\",\"bench\":\"{bench}\",\
                 \"schedule\":\"{schedule}\",\"stage\":{},\"clients\":{},\
                 \"workers\":{},\"requests\":{},\"errors\":{},\"cells\":{},\
                 \"requests_per_sec\":{:.3},\"cells_per_sec\":{:.3},\
                 \"p50_latency_ms\":{:.3},\"p95_latency_ms\":{:.3},\
                 \"p99_latency_ms\":{:.3},\"p999_latency_ms\":{:.3},\
                 \"queue_share\":{:.4},\"error_rate\":{:.4},\
                 \"max_queue_depth\":{},\"frames_rejected\":{},\
                 \"degradation_stage\":{},\"recovery_stage\":{},\
                 \"recovery_ms\":{:.3}}}",
                self.stage,
                self.clients,
                self.workers,
                self.requests,
                self.errors,
                self.cells,
                self.requests_per_sec,
                self.cells_per_sec,
                self.p50_latency_ms,
                self.p95_latency_ms,
                self.p99_latency_ms,
                self.p999_latency_ms,
                self.queue_share,
                self.error_rate,
                self.max_queue_depth,
                self.frames_rejected,
                self.degradation_stage,
                self.recovery_stage,
                self.recovery_ms,
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Wall-clock **mixed-load** measurement of the sweep service: one
    /// long-running big sweep plus a stream of small sweeps on the
    /// cost-fair shared scheduler. The record carries the small-sweep
    /// latency percentiles — the number the scheduler exists to improve —
    /// next to the big sweep's latency, so the history file holds the
    /// small-vs-big ratio as a trajectory.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MixedPerf {
        /// Fold workers the service ran.
        pub workers: usize,
        /// Cells of the big background sweep.
        pub big_cells: u64,
        /// Small sweeps submitted while the big sweep ran.
        pub small_requests: u64,
        /// Cells per small sweep.
        pub small_cells: u64,
        /// Median small-sweep admission→completion latency, milliseconds.
        pub small_p50_latency_ms: f64,
        /// 95th-percentile small-sweep latency, milliseconds.
        pub small_p95_latency_ms: f64,
        /// Big-sweep admission→completion latency, milliseconds.
        pub big_latency_ms: f64,
        /// Submissions shed by the admission bound; 0 on a healthy run.
        pub busy_shed: u64,
        /// Submissions that failed; 0 on a healthy run.
        pub errors: u64,
    }

    impl MixedPerf {
        /// Prints the canonical one-line JSON record
        /// (`{"kind":"mixed_perf","bench":…,"workers":…,…}`) and appends it
        /// to the [`HISTORY_ENV`] file when configured.
        pub fn emit(&self, bench: &str) {
            let line = format!(
                "{{\"kind\":\"mixed_perf\",\"bench\":\"{bench}\",\
                 \"workers\":{},\"big_cells\":{},\
                 \"small_requests\":{},\"small_cells\":{},\
                 \"small_p50_latency_ms\":{:.3},\"small_p95_latency_ms\":{:.3},\
                 \"big_latency_ms\":{:.3},\"busy_shed\":{},\"errors\":{}}}",
                self.workers,
                self.big_cells,
                self.small_requests,
                self.small_cells,
                self.small_p50_latency_ms,
                self.small_p95_latency_ms,
                self.big_latency_ms,
                self.busy_shed,
                self.errors,
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Wall-clock **load-balance** measurement of one sweep execution,
    /// emitted as a machine-readable JSON line (`"kind":"sched_perf"`).
    /// Where [`SweepPerf`] tracks aggregate throughput, this tracks how
    /// evenly the scheduler spread the work: per-worker busy time feeds an
    /// imbalance ratio (worst worker ÷ ideal equal share) and a worst-worker
    /// share (worst worker ÷ total busy time). The `sched` bench emits one
    /// record per sharding mode on a pathologically skewed sweep, so the
    /// count-based vs cost-based scheduling delta lands in the history file
    /// as a trajectory.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SchedPerf {
        /// Total scenario cells across the sweep.
        pub cells: usize,
        /// Worker-thread count the sweep ran at.
        pub threads: usize,
        /// Wall-clock time of the whole execution.
        pub wall: Duration,
        /// Per-worker busy time (time spent executing cells), one entry per
        /// worker that folded at least one cell.
        pub worker_busy: Vec<Duration>,
    }

    impl SchedPerf {
        /// Cells executed per wall-clock second.
        #[must_use]
        pub fn cells_per_sec(&self) -> f64 {
            let secs = self.wall.as_secs_f64();
            if secs > 0.0 {
                self.cells as f64 / secs
            } else {
                0.0
            }
        }

        /// The busiest worker's share of total busy time, in `[1/workers,
        /// 1]`: `1/workers` is a perfect spread, `1` means one worker did
        /// everything.
        #[must_use]
        pub fn worst_worker_share(&self) -> f64 {
            let total: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
            let worst = self
                .worker_busy
                .iter()
                .map(Duration::as_secs_f64)
                .fold(0.0, f64::max);
            if total > 0.0 {
                worst / total
            } else {
                0.0
            }
        }

        /// Busiest worker ÷ ideal equal share (`total / workers`), ≥ 1: the
        /// factor by which the critical-path worker exceeds a perfectly
        /// balanced schedule. `1.0` is optimal.
        #[must_use]
        pub fn imbalance_ratio(&self) -> f64 {
            if self.worker_busy.is_empty() {
                return 0.0;
            }
            self.worst_worker_share() * self.worker_busy.len() as f64
        }

        /// Prints the canonical one-line JSON record:
        /// `{"kind":"sched_perf","bench":…,"sweep":…,"mode":…,"cells":…,
        /// "threads":…,"wall_clock_ms":…,"cells_per_sec":…,
        /// "worst_worker_share":…,"imbalance_ratio":…}` — and appends it to
        /// the [`HISTORY_ENV`] file when configured. `mode` names the
        /// sharding strategy under measurement.
        pub fn emit(&self, bench: &str, sweep: &str, mode: &str) {
            let line = format!(
                "{{\"kind\":\"sched_perf\",\"bench\":\"{bench}\",\"sweep\":\"{sweep}\",\
                 \"mode\":\"{mode}\",\"cells\":{},\"threads\":{},\"wall_clock_ms\":{:.3},\
                 \"cells_per_sec\":{:.3},\"worst_worker_share\":{:.4},\
                 \"imbalance_ratio\":{:.4}}}",
                self.cells,
                self.threads,
                self.wall.as_secs_f64() * 1e3,
                self.cells_per_sec(),
                self.worst_worker_share(),
                self.imbalance_ratio(),
            );
            println!("{line}");
            append_history(&line);
        }
    }

    /// Result of one measurement.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Measurement {
        /// Mean time per iteration.
        pub mean: Duration,
        /// Fastest single iteration.
        pub min: Duration,
    }

    /// Times `f` over `iters` iterations (after one warm-up call), prints a
    /// `group/name  mean .. min ..` line, and returns the measurement.
    pub fn bench<T>(group: &str, name: &str, iters: u32, mut f: impl FnMut() -> T) -> Measurement {
        let iters = iters.max(1);
        std::hint::black_box(f());
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..iters {
            let start = Instant::now();
            std::hint::black_box(f());
            let elapsed = start.elapsed();
            total += elapsed;
            min = min.min(elapsed);
        }
        let m = Measurement {
            mean: total / iters,
            min,
        };
        println!(
            "{group}/{name}: mean {:.3} ms, min {:.3} ms over {iters} iters",
            m.mean.as_secs_f64() * 1e3,
            m.min.as_secs_f64() * 1e3,
        );
        m
    }

    #[cfg(test)]
    mod timing_tests {
        use super::escape_tag;

        #[test]
        fn tags_with_quotes_backslashes_and_controls_stay_valid_json() {
            assert_eq!(escape_tag("pr3"), "pr3");
            assert_eq!(escape_tag(r#"PR 3 "rerun""#), r#"PR 3 \"rerun\""#);
            assert_eq!(escape_tag(r"a\b"), r"a\\b");
            assert_eq!(escape_tag("a\nb"), "a\\u000ab");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale::experiments::motivation;

    #[test]
    fn formatters_produce_nonempty_tables() {
        let config = SocConfig::skylake_default();
        assert!(format_table1(&motivation::table1(&config)).contains("DRAM"));
        assert!(format_table2(&config).contains("TDP"));
        assert!(format_fig3b(&motivation::fig3b()).contains("display"));
        assert!(
            format_overheads(&sysscale::experiments::sensitivity::overheads())
                .contains("transition")
        );
    }

    #[test]
    fn matrix_perf_json_has_the_expected_fields() {
        let (perf, value) = timing::time_matrix("test", "demo", 8, 4, || 42);
        assert_eq!(value, 42);
        assert_eq!(perf.cells, 8);
        assert_eq!(perf.threads, 4);
        assert!(perf.cells_per_sec() > 0.0);
        let zero = timing::MatrixPerf {
            cells: 1,
            threads: 1,
            wall: std::time::Duration::ZERO,
        };
        assert_eq!(zero.cells_per_sec(), 0.0);
    }

    #[test]
    fn sweep_perf_json_has_the_expected_fields() {
        let (perf, value) = timing::time_sweep("test", "demo_sweep", 4, 64, 8, || 7);
        assert_eq!(value, 7);
        assert_eq!(perf.members, 4);
        assert_eq!(perf.cells, 64);
        assert_eq!(perf.threads, 8);
        assert!(perf.cells_per_sec() > 0.0);
        let zero = timing::SweepPerf {
            members: 1,
            cells: 1,
            threads: 1,
            wall: std::time::Duration::ZERO,
        };
        assert_eq!(zero.cells_per_sec(), 0.0);
    }

    #[test]
    fn sched_perf_balance_metrics_are_well_defined() {
        use std::time::Duration;
        // One worker does 7 of 10 seconds of busy time across 4 workers.
        let perf = timing::SchedPerf {
            cells: 200,
            threads: 4,
            wall: Duration::from_secs(8),
            worker_busy: vec![
                Duration::from_secs(7),
                Duration::from_secs(1),
                Duration::from_secs(1),
                Duration::from_secs(1),
            ],
        };
        assert!((perf.worst_worker_share() - 0.7).abs() < 1e-12);
        assert!((perf.imbalance_ratio() - 2.8).abs() < 1e-12);
        assert!(perf.cells_per_sec() > 0.0);

        // A perfect spread has share 1/workers and ratio 1.
        let even = timing::SchedPerf {
            cells: 8,
            threads: 2,
            wall: Duration::from_secs(1),
            worker_busy: vec![Duration::from_secs(1); 2],
        };
        assert!((even.worst_worker_share() - 0.5).abs() < 1e-12);
        assert!((even.imbalance_ratio() - 1.0).abs() < 1e-12);

        let zero = timing::SchedPerf {
            cells: 0,
            threads: 1,
            wall: Duration::ZERO,
            worker_busy: Vec::new(),
        };
        assert_eq!(zero.worst_worker_share(), 0.0);
        assert_eq!(zero.imbalance_ratio(), 0.0);
        assert_eq!(zero.cells_per_sec(), 0.0);
    }

    #[test]
    fn slice_perf_rates_are_well_defined() {
        let perf = timing::SlicePerf {
            cells: 4,
            threads: 2,
            slices: 1200,
            fixed_point_iters: 3000,
            wall: std::time::Duration::from_millis(100),
        };
        assert!((perf.slices_per_sec() - 12_000.0).abs() < 1e-6);
        assert!((perf.iters_per_slice() - 2.5).abs() < 1e-12);
        let zero = timing::SlicePerf {
            cells: 0,
            threads: 1,
            slices: 0,
            fixed_point_iters: 0,
            wall: std::time::Duration::ZERO,
        };
        assert_eq!(zero.slices_per_sec(), 0.0);
        assert_eq!(zero.iters_per_slice(), 0.0);
    }

    #[test]
    fn timing_harness_reports_plausible_numbers() {
        let m = timing::bench("test", "spin", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(m.mean >= std::time::Duration::from_millis(1));
        assert!(m.min <= m.mean);
    }
}
