//! Measured windows, the ops completed in them, and the end-to-end metrics
//! derived from those ops.
//!
//! A window is cut into [`SLICE`]-long slices and the end-to-end figures are
//! medians over slices, so a burst of interference from outside the
//! benchmark moves a few slices, not the reported value. An [`OpLog`] keeps
//! per-slice aggregates only, in buffers of a fixed size that are allocated
//! and written when the window opens: the benchmark's own bookkeeping adds
//! the same amount to `peak_rss_mb` whatever the throughput.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sysscale::types::rng::SplitMix64;
use sysscale::types::SimResult;

use crate::digest::{check, sorted, CellDigest, DigestFold};
use crate::report::{median, ms, peak_rss_mb, percentile, ratio};
use crate::trace::Tracer;
use crate::{Failure, Metrics};

/// Length of one slice of a measured window.
pub const SLICE: Duration = Duration::from_secs(2);

/// Latencies a slice keeps exactly; past that it keeps a uniform sample of
/// this many.
pub const SAMPLES: usize = 4096;

/// A measured window: ops start until `deadline`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub deadline: Instant,
}

impl Window {
    pub fn open(length: Duration) -> Self {
        let start = Instant::now();
        Self {
            start,
            deadline: start + length,
        }
    }

    pub fn is_open(&self) -> bool {
        Instant::now() < self.deadline
    }

    fn length(&self) -> Duration {
        self.deadline - self.start
    }

    /// Slices of the window; the last one also takes the ops that end after
    /// the deadline.
    fn slices(&self) -> usize {
        (self.length().as_secs_f64() / SLICE.as_secs_f64())
            .ceil()
            .max(1.0) as usize
    }

    /// The slice holding instant `at`.
    fn slice_of(&self, at: Instant) -> usize {
        let offset = at.saturating_duration_since(self.start).as_secs_f64();
        ((offset / SLICE.as_secs_f64()) as usize).min(self.slices() - 1)
    }

    /// Start of slice `i`, and its end (`None` for the last slice).
    fn bounds(&self, i: usize) -> (Instant, Option<Instant>) {
        let from = self.start + SLICE * i as u32;
        (from, (i + 1 < self.slices()).then(|| from + SLICE))
    }
}

/// A uniform sample of at most [`SAMPLES`] values (a reservoir), in a
/// buffer written in full when it is made.
#[derive(Debug)]
struct Sample {
    seen: u64,
    values: Vec<f32>,
    rng: SplitMix64,
}

impl Sample {
    fn new(seed: u64) -> Self {
        let mut values = vec![f32::NAN; SAMPLES];
        values.clear();
        Self {
            seen: 0,
            values,
            rng: SplitMix64::new(seed),
        }
    }

    fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < SAMPLES {
            self.values.push(value as f32);
        } else {
            let slot = (self.rng.next_u64() % self.seen) as usize;
            if slot < SAMPLES {
                self.values[slot] = value as f32;
            }
        }
    }

    fn values(&self) -> Vec<f64> {
        self.values.iter().map(|&v| f64::from(v)).collect()
    }
}

/// What the ops of one slice added up to.
#[derive(Debug)]
struct Slice {
    /// Cells and ops, each op counted in proportion to the share of its run
    /// time inside the slice.
    cells: f64,
    ops: f64,
    /// Latencies of the ops that ended in the slice, in milliseconds.
    latencies: Sample,
    /// Their time to the first cell, in milliseconds.
    first_cells: Sample,
}

#[derive(Debug)]
struct Log {
    slices: Vec<Slice>,
    attempted: u64,
    failed: u64,
    last_end: Option<Instant>,
}

/// The ops of one kind attempted in a window, as per-slice aggregates. Any
/// thread may record into it.
#[derive(Debug)]
pub struct OpLog {
    window: Window,
    log: Mutex<Log>,
}

impl OpLog {
    pub fn new(window: &Window) -> Self {
        let slices = (0..window.slices() as u64)
            .map(|i| Slice {
                cells: 0.0,
                ops: 0.0,
                latencies: Sample::new(2 * i),
                first_cells: Sample::new(2 * i + 1),
            })
            .collect();
        Self {
            window: *window,
            log: Mutex::new(Log {
                slices,
                attempted: 0,
                failed: 0,
                last_end: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("op log poisoned")
    }

    pub fn ok(&self, start: Instant, end: Instant, first_cell: Option<Instant>, cells: usize) {
        let window = &self.window;
        let mut log = self.lock();
        log.attempted += 1;
        log.last_end = log.last_end.max(Some(end));
        let run = (end - start).as_secs_f64();
        let last = window.slice_of(end);
        for i in window.slice_of(start)..=last {
            let (from, to) = window.bounds(i);
            let overlap = to
                .map_or(end, |to| end.min(to))
                .saturating_duration_since(start.max(from));
            // An op too short to measure belongs to the slice it ended in.
            let share = if run > 0.0 {
                overlap.as_secs_f64() / run
            } else {
                f64::from(u8::from(i == last))
            };
            let slice = &mut log.slices[i];
            slice.cells += cells as f64 * share;
            slice.ops += share;
        }
        let slice = &mut log.slices[last];
        slice.latencies.push(ms(end - start));
        if let Some(first) = first_cell {
            slice.first_cells.push(ms(first - start));
        }
    }

    /// A failed op; its latency counts as the whole window.
    pub fn fail(&self, end: Instant) {
        let window = &self.window;
        let mut log = self.lock();
        log.attempted += 1;
        log.failed += 1;
        log.last_end = log.last_end.max(Some(end));
        log.slices[window.slice_of(end)]
            .latencies
            .push(ms(window.length()));
    }

    pub fn attempted(&self) -> u64 {
        self.lock().attempted
    }

    pub fn failed(&self) -> u64 {
        self.lock().failed
    }

    /// Median latency over the whole window, in milliseconds.
    pub fn median_latency_ms(&self) -> f64 {
        let log = self.lock();
        median(
            &log.slices
                .iter()
                .flat_map(|s| s.latencies.values())
                .collect::<Vec<_>>(),
        )
    }

    /// Median time to the first cell over the whole window, in milliseconds.
    pub fn median_first_cell_ms(&self) -> f64 {
        let log = self.lock();
        median(
            &log.slices
                .iter()
                .flat_map(|s| s.first_cells.values())
                .collect::<Vec<_>>(),
        )
    }

    /// Cells completed per second, from the window's start to the last op's
    /// end.
    pub fn cells_per_s(&self) -> f64 {
        let log = self.lock();
        let elapsed = log
            .last_end
            .map_or(0.0, |end| (end - self.window.start).as_secs_f64());
        ratio(log.slices.iter().map(|s| s.cells).sum(), elapsed)
    }
}

/// What one measured window of a workload logged.
pub trait Measured {
    /// The ops whose latency and rate the workload reports.
    fn sweeps(&self) -> &OpLog;

    /// Its largest sweeps: the same log except on `serve_mixed`.
    fn big(&self) -> &OpLog {
        self.sweeps()
    }

    /// Cells completed per second across both logs.
    fn cells_per_s(&self) -> f64 {
        let (sweeps, big) = (self.sweeps(), self.big());
        if std::ptr::eq(sweeps, big) {
            return sweeps.cells_per_s();
        }
        let end = sweeps.lock().last_end.max(big.lock().last_end);
        let elapsed = end.map_or(0.0, |end| (end - sweeps.window.start).as_secs_f64());
        let cells = |log: &OpLog| -> f64 { log.lock().slices.iter().map(|s| s.cells).sum() };
        ratio(cells(sweeps) + cells(big), elapsed)
    }

    fn attempted_failed(&self) -> (u64, u64) {
        let (sweeps, big) = (self.sweeps(), self.big());
        let (mut attempted, mut failed) = (sweeps.attempted(), sweeps.failed());
        if !std::ptr::eq(sweeps, big) {
            attempted += big.attempted();
            failed += big.failed();
        }
        (attempted, failed)
    }
}

impl Measured for OpLog {
    fn sweeps(&self) -> &OpLog {
        self
    }
}

/// Inserts the end-to-end metrics of a window. Rates count each op's cells
/// (the big sweeps' too) and each op in proportion to the share of its run
/// time inside a slice; latencies go to the slice in which the op ended.
/// Each metric is the median over slices.
pub fn insert_end_to_end(metrics: &mut Metrics, setup_s: f64, measured: &impl Measured) {
    let (sweeps, big) = (measured.sweeps(), measured.big());
    let same = std::ptr::eq(sweeps, big);
    let window = &sweeps.window;
    let small = sweeps.lock();
    let other = (!same).then(|| big.lock());
    let big_log: &Log = other.as_deref().unwrap_or(&*small);
    let end = small
        .last_end
        .max(big_log.last_end)
        .unwrap_or(window.deadline);

    let (mut cell_rates, mut op_rates) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut bigs, mut firsts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, slice) in small.slices.iter().enumerate() {
        let (from, to) = window.bounds(i);
        let seconds = to
            .unwrap_or(end)
            .saturating_duration_since(from)
            .as_secs_f64();
        let big_slice = &big_log.slices[i];
        let cells = slice.cells + if same { 0.0 } else { big_slice.cells };
        cell_rates.push(ratio(cells, seconds));
        op_rates.push(ratio(slice.ops, seconds));
        let latencies = slice.latencies.values();
        if !latencies.is_empty() {
            p50s.push(percentile(&latencies, 0.50));
            p99s.push(percentile(&latencies, 0.99));
        }
        let big_latencies = big_slice.latencies.values();
        if !big_latencies.is_empty() {
            bigs.push(median(&big_latencies));
        }
        let first = big_slice.first_cells.values();
        if !first.is_empty() {
            firsts.push(median(&first));
        }
    }
    metrics.insert("setup_s", setup_s);
    metrics.insert("peak_rss_mb", peak_rss_mb());
    metrics.insert("cells_per_s", median(&cell_rates));
    metrics.insert("sweeps_per_s", median(&op_rates));
    metrics.insert("sweep_p50_ms", median(&p50s));
    metrics.insert("sweep_p99_ms", median(&p99s));
    metrics.insert("big_sweep_ms", median(&bigs));
    metrics.insert("first_cell_ms", median(&firsts));
}

/// Runs folds back to back until the window closes, each with a fresh
/// [`DigestFold`] (traced when there is a tracer, under an op span named
/// `kind`), and checks each result against `reference`. `fold` returns the
/// accumulator and what else the op reports, which is kept in traced
/// windows only. A failed fold is a failed op; a wrong result aborts.
pub fn fold_ops<S>(
    kind: &'static str,
    window: &Window,
    reference: &[CellDigest],
    tracer: Option<&Tracer>,
    mut fold: impl FnMut(&DigestFold<'_>) -> SimResult<(Vec<CellDigest>, S)>,
) -> Result<(OpLog, Vec<S>), Failure> {
    let log = OpLog::new(window);
    let mut reports = Vec::new();
    while window.is_open() {
        let op = tracer.map(Tracer::begin_op);
        let consumer = match (tracer, op) {
            (Some(tracer), Some(op)) => DigestFold::traced(tracer, op),
            _ => DigestFold::new(),
        };
        let start = Instant::now();
        let result = fold(&consumer);
        let end = Instant::now();
        match result {
            Ok((acc, report)) => {
                check(kind, &sorted(acc), reference).map_err(Failure::Mismatch)?;
                log.ok(start, end, consumer.first_fold(), reference.len());
                if tracer.is_some() {
                    reports.push(report);
                }
            }
            Err(_) => log.fail(end),
        }
        if let (Some(tracer), Some(op)) = (tracer, op) {
            tracer.end_op(op, kind, start, end, &[]);
        }
    }
    Ok((log, reports))
}

/// Median set-up time, and the state of the last set-up. Sets up at least
/// 5 times and until a second has been spent setting up, at most 200 times;
/// once in a short run.
pub fn timed_setups<T>(
    short: bool,
    mut setup: impl FnMut() -> Result<T, Failure>,
) -> Result<(f64, T), Failure> {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        // Dropping the previous state first keeps it out of this set-up.
        drop(last.take());
        let start = Instant::now();
        let state = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(state);
        let spent: f64 = times.iter().sum();
        if short || times.len() >= 200 || (times.len() >= 5 && spent >= 1.0) {
            break;
        }
    }
    Ok((median(&times), last.expect("at least one set-up")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_shared_between_the_slices_they_span() {
        let window = Window::open(SLICE * 2);
        let log = OpLog::new(&window);
        // 1 s before the slice boundary to 1 s after it.
        let start = window.start + SLICE - Duration::from_secs(1);
        log.ok(start, start + Duration::from_secs(2), None, 10);
        let slices = &log.lock().slices;
        assert!((slices[0].cells - 5.0).abs() < 1e-9);
        assert!((slices[1].cells - 5.0).abs() < 1e-9);
        assert_eq!(slices[0].latencies.values().len(), 0);
        assert_eq!(slices[1].latencies.values().len(), 1);
    }

    #[test]
    fn a_sample_stays_bounded() {
        let mut sample = Sample::new(1);
        for i in 0..3 * SAMPLES {
            sample.push(i as f64);
        }
        assert_eq!(sample.values().len(), SAMPLES);
        assert_eq!(sample.seen, 3 * SAMPLES as u64);
    }
}
