//! Tracing for the traced run: spans kept in memory and written out at the
//! end, recorded from the benchmark's own code around calls into each layer.
//!
//! - `op` spans wrap one workload operation (a whole sweep, or one served
//!   submission); every other span names its op as parent, so the spans of
//!   one request share that identifier.
//! - [`TracedFactory`] wraps a [`GovernorFactory`]: `platform()` is the first
//!   call a session makes for a cell (the effective-config step), so it
//!   starts the cell's clock; `build()` and every [`Governor::decide`] of
//!   the wrapped governor add their time and count to it.
//! - [`crate::digest::DigestFold`] closes the cell when its record is
//!   folded (a `cell` span, carrying those counts) and records `fold` and
//!   `merge` spans.
//!
//! Cells run on the fold's worker threads and are folded on the same thread,
//! so the per-cell counters live in a thread-local.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sysscale::types::SimResult;
use sysscale::workloads::Workload;
use sysscale::{Governor, GovernorFactory, Scenario, ScenarioSet, SocConfig};
use sysscale_soc::{GovernorDecision, GovernorInput};

use crate::report::{median, percentile, ratio};
use crate::Metrics;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span (the op); 0 for op spans themselves.
    pub parent: u64,
    /// The thread the span ran on, numbered in order of first use.
    pub lane: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn attr(&self, key: &str) -> u64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    static CELL: Cell<CellClock> = const { Cell::new(CellClock::IDLE) };
}

/// The running cell's clock on this thread.
#[derive(Debug, Clone, Copy)]
struct CellClock {
    start: Option<Instant>,
    platform_ns: u64,
    build_ns: u64,
    governor_ns: u64,
    decides: u64,
}

impl CellClock {
    const IDLE: Self = Self {
        start: None,
        platform_ns: 0,
        build_ns: 0,
        governor_ns: 0,
        decides: 0,
    };
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn update_cell(f: impl FnOnce(&mut CellClock)) {
    CELL.with(|cell| {
        let mut clock = cell.get();
        f(&mut clock);
        cell.set(clock);
    });
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.epoch))
    }

    /// Reserves an op span id, so child spans can name it before the op ends.
    pub fn begin_op(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the op span reserved by [`Tracer::begin_op`].
    pub fn end_op(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, u64)],
    ) {
        self.push(id, 0, name, start, end, attrs);
    }

    /// Records a span caused by op `parent`.
    pub fn record(
        &self,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, u64)],
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, start, end, attrs);
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, u64)],
    ) {
        let span = Span {
            id,
            parent,
            lane: LANE.with(|lane| *lane),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs: attrs.to_vec(),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &spans {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"lane\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                span.id, span.parent, span.lane, span.name, span.start_ns, span.end_ns
            )?;
            for (key, value) in &span.attrs {
                write!(out, ",\"{key}\":{value}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Closes this thread's running cell at `folded` (when its record reached
/// the consumer) as a `cell` span under `op`. Does nothing when no cell ran
/// on this thread — a distributed fold receives records from other
/// processes.
pub fn record_cell(tracer: &Tracer, op: u64, folded: Instant, slices: u64) {
    let clock = CELL.with(|cell| cell.replace(CellClock::IDLE));
    if let Some(start) = clock.start {
        tracer.record(
            op,
            "cell",
            start,
            folded,
            &[
                ("platform_ns", clock.platform_ns),
                ("build_ns", clock.build_ns),
                ("governor_ns", clock.governor_ns),
                ("decides", clock.decides),
                ("slices", slices),
            ],
        );
    }
}

/// A [`GovernorFactory`] that times the calls a session makes into it.
#[derive(Debug)]
pub struct TracedFactory(pub Arc<dyn GovernorFactory>);

impl GovernorFactory for TracedFactory {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn build(&self) -> Box<dyn Governor> {
        let start = Instant::now();
        let governor = self.0.build();
        let elapsed = nanos(start.elapsed());
        update_cell(|clock| clock.build_ns += elapsed);
        Box::new(TracedGovernor(governor))
    }

    fn platform(&self, base: &SocConfig) -> SocConfig {
        let start = Instant::now();
        let config = self.0.platform(base);
        let platform_ns = nanos(start.elapsed());
        CELL.with(|cell| {
            cell.set(CellClock {
                start: Some(start),
                platform_ns,
                ..CellClock::IDLE
            });
        });
        config
    }
}

/// A [`Governor`] that times and counts its decisions.
#[derive(Debug)]
struct TracedGovernor(Box<dyn Governor>);

impl Governor for TracedGovernor {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> GovernorDecision {
        let start = Instant::now();
        let decision = self.0.decide(input);
        let elapsed = nanos(start.elapsed());
        update_cell(|clock| {
            clock.governor_ns += elapsed;
            clock.decides += 1;
        });
        decision
    }
}

/// The same scenarios with every governor factory wrapped in a
/// [`TracedFactory`]. Scenarios that shared a workload still share one, so
/// the sweep's planning does the same work as for the original set.
pub fn traced_set(set: &ScenarioSet) -> SimResult<ScenarioSet> {
    let mut shared: HashMap<*const Workload, Arc<Workload>> = HashMap::new();
    let mut traced = ScenarioSet::new();
    for scenario in set.scenarios() {
        let workload = shared
            .entry(scenario.workload() as *const Workload)
            .or_insert_with(|| Arc::new(scenario.workload().clone()));
        traced.push(
            Scenario::builder(Arc::clone(workload))
                .config(scenario.config().clone())
                .governor_factory(Arc::new(TracedFactory(Arc::clone(scenario.governor()))))
                .duration(scenario.duration())
                .build()?,
        );
    }
    Ok(match set.baseline() {
        Some(baseline) => traced.with_baseline(baseline),
        None => traced,
    })
}

/// Per-layer figures of traced in-process folds, from their spans.
///
/// For each op of wall time `W` folded by `T` worker threads, the worker
/// time `W·T` splits into: cells (slice loop, governor, effective config,
/// governor build), folds, the wait before a thread's first cell (the
/// sweep's planning) and the wait after its last fold (imbalance and the
/// merge). What remains is the executor's own per-cell overhead.
#[derive(Debug, Default)]
pub struct FoldLayers {
    ops: usize,
    slices_per_op: Vec<f64>,
    decides_per_op: Vec<f64>,
    imbalance: Vec<f64>,
    cell_ms: Vec<f64>,
    effective_config_us: Vec<f64>,
    slices: f64,
    slice_loop_ns: f64,
    governor_ns: f64,
    fold_ns: f64,
    busy_ns: f64,
    waiting_ns: f64,
    worker_ns: f64,
}

impl FoldLayers {
    /// Analyses every op span called `op_name`, folded by up to `threads`
    /// worker threads.
    pub fn from_spans(spans: &[Span], op_name: &str, threads: usize) -> Self {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for span in spans.iter().filter(|s| s.parent != 0) {
            children.entry(span.parent).or_default().push(span);
        }
        let mut layers = Self::default();
        for op in spans.iter().filter(|s| s.parent == 0 && s.name == op_name) {
            let Some(kids) = children.get(&op.id) else {
                continue;
            };
            // Per worker thread: (busy, first cell start, last fold end).
            let mut lanes: BTreeMap<u32, (f64, u64, u64)> = BTreeMap::new();
            let (mut op_slices, mut op_decides, mut cells) = (0.0, 0.0, 0usize);
            for span in kids {
                let dur = span.dur_ns() as f64;
                match span.name {
                    "cell" => {
                        cells += 1;
                        let lane = lanes.entry(span.lane).or_insert((0.0, u64::MAX, 0));
                        lane.0 += dur;
                        lane.1 = lane.1.min(span.start_ns);
                        let overhead = span.attr("governor_ns")
                            + span.attr("platform_ns")
                            + span.attr("build_ns");
                        layers.slice_loop_ns += dur - overhead.min(span.dur_ns()) as f64;
                        layers.governor_ns += span.attr("governor_ns") as f64;
                        layers.cell_ms.push(dur / 1e6);
                        layers
                            .effective_config_us
                            .push(span.attr("platform_ns") as f64 / 1e3);
                        op_slices += span.attr("slices") as f64;
                        op_decides += span.attr("decides") as f64;
                    }
                    "fold" => {
                        let lane = lanes.entry(span.lane).or_insert((0.0, u64::MAX, 0));
                        lane.0 += dur;
                        lane.2 = lane.2.max(span.end_ns);
                        layers.fold_ns += dur;
                    }
                    "merge" => layers.fold_ns += dur,
                    _ => {}
                }
            }
            if cells == 0 {
                continue;
            }
            let workers = threads.clamp(1, cells);
            let wall = op.dur_ns() as f64;
            let busy: Vec<f64> = lanes.values().map(|lane| lane.0).collect();
            let mean_busy = busy.iter().sum::<f64>() / workers as f64;
            layers.ops += 1;
            layers.slices += op_slices;
            layers.slices_per_op.push(op_slices);
            layers.decides_per_op.push(op_decides);
            layers
                .imbalance
                .push(ratio(busy.iter().copied().fold(0.0, f64::max), mean_busy));
            layers.busy_ns += busy.iter().sum::<f64>();
            layers.waiting_ns += lanes
                .values()
                .map(|&(_, first, last)| {
                    first.saturating_sub(op.start_ns) as f64 + op.end_ns.saturating_sub(last) as f64
                })
                .sum::<f64>();
            layers.worker_ns += wall * workers as f64;
        }
        layers
    }

    /// Inserts the `soc.*`, `core.*` and `exec.*` figures and
    /// `trace.accounted_share`.
    pub fn insert(&self, metrics: &mut Metrics) {
        metrics.insert("soc.slices", median(&self.slices_per_op));
        metrics.insert(
            "soc.slices_per_s",
            ratio(self.slices, self.slice_loop_ns / 1e9),
        );
        metrics.insert(
            "soc.slice_loop_share",
            ratio(self.slice_loop_ns, self.worker_ns),
        );
        metrics.insert("core.governor_decides", median(&self.decides_per_op));
        metrics.insert(
            "core.governor_share",
            ratio(self.governor_ns, self.worker_ns),
        );
        metrics.insert("core.fold_share", ratio(self.fold_ns, self.worker_ns));
        metrics.insert("core.cell_ms_p50", median(&self.cell_ms));
        metrics.insert("core.cell_ms_p99", percentile(&self.cell_ms, 0.99));
        metrics.insert(
            "core.effective_config_us",
            median(&self.effective_config_us),
        );
        metrics.insert("exec.busy_share", ratio(self.busy_ns, self.worker_ns));
        metrics.insert("exec.imbalance", median(&self.imbalance));
        metrics.insert(
            "trace.accounted_share",
            ratio(self.busy_ns + self.waiting_ns, self.worker_ns),
        );
    }

    /// Number of ops analysed.
    pub fn ops(&self) -> usize {
        self.ops
    }
}
