//! Output checks: every cell's record is hashed twice — once over its full
//! wire encoding (equality of everything the engine returns) and once over
//! the simulated statistics alone (the digest a simulator-only speed-up must
//! leave unchanged).

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use sysscale::{CellId, RunConsumer, RunRecord};
use sysscale_dist::{codec, Enc};

use crate::trace::{self, Tracer};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Feeds a value's `Debug` rendering, without allocating.
    pub fn debug(&mut self, value: &dyn std::fmt::Debug) -> &mut Self {
        let _ = write!(self, "{value:?}");
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Hash of the record's full wire encoding.
pub fn full_hash(record: &RunRecord) -> u64 {
    let mut enc = Enc::new();
    codec::put_record(&mut enc, record);
    Fnv::new().bytes(&enc.into_bytes()).finish()
}

/// Hash of the simulated statistics only: run metrics, energy per
/// component, counters, transitions and the averaged outputs. Excludes the
/// slice-loop work counters, which describe how the host computed the run.
pub fn sim_hash(record: &RunRecord) -> u64 {
    let report = &record.report;
    let mut h = Fnv::new();
    h.bytes(record.workload.as_bytes())
        .bytes(record.governor.as_bytes())
        .f64(report.metrics.duration.as_secs())
        .f64(report.metrics.energy.as_joules())
        .f64(report.metrics.work_done);
    for (component, energy) in report.energy.iter() {
        h.debug(&component).f64(energy.as_joules());
    }
    for (kind, value) in report.counters.iter() {
        h.debug(&kind).f64(value);
    }
    h.u64(report.transitions.count)
        .f64(report.transitions.total_stall.as_secs())
        .f64(report.transitions.max_stall.as_secs())
        .u64(report.qos_violations)
        .f64(report.low_op_residency)
        .f64(report.average_fps)
        .f64(report.average_cpu_freq_ghz)
        .f64(report.average_gfx_freq_ghz)
        .finish()
}

/// One checked cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDigest {
    pub flat: usize,
    pub full: u64,
    pub sim: u64,
    pub slices: u64,
}

impl CellDigest {
    pub fn of(flat: usize, record: &RunRecord) -> Self {
        Self {
            flat,
            full: full_hash(record),
            sim: sim_hash(record),
            slices: record.report.loop_stats.slices,
        }
    }
}

/// Digest of a whole result: the simulated-statistics hashes in flat order.
pub fn outputs_digest<'a>(cells: impl IntoIterator<Item = &'a CellDigest>) -> u64 {
    let mut h = Fnv::new();
    for cell in cells {
        h.u64(cell.sim);
    }
    h.finish()
}

/// Sorts a fold's digests into flat order.
pub fn sorted(mut cells: Vec<CellDigest>) -> Vec<CellDigest> {
    cells.sort_unstable_by_key(|cell| cell.flat);
    cells
}

/// Checks a result against its reference; the error names the first
/// differing cell.
pub fn check(what: &str, got: &[CellDigest], want: &[CellDigest]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} cells returned, {} expected",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .find(|(g, w)| g.flat != w.flat || g.full != w.full)
    {
        Some((g, _)) => Err(format!(
            "{what}: cell {} differs from the reference",
            g.flat
        )),
        None => Ok(()),
    }
}

/// The benchmark's [`RunConsumer`]: folds each record into its
/// [`CellDigest`] and notes when the first cell arrived. With a tracer it
/// also records the cell and fold spans of an in-process fold (see
/// [`trace::TracedFactory`]).
pub struct DigestFold<'t> {
    first: OnceLock<Instant>,
    trace: Option<(&'t Tracer, u64)>,
}

impl<'t> DigestFold<'t> {
    /// An untraced consumer.
    pub fn new() -> Self {
        Self {
            first: OnceLock::new(),
            trace: None,
        }
    }

    /// A consumer recording spans under the op span `op`.
    pub fn traced(tracer: &'t Tracer, op: u64) -> Self {
        Self {
            first: OnceLock::new(),
            trace: Some((tracer, op)),
        }
    }

    /// When the first cell was folded.
    pub fn first_fold(&self) -> Option<Instant> {
        self.first.get().copied()
    }
}

impl RunConsumer for DigestFold<'_> {
    type Acc = Vec<CellDigest>;

    fn accumulator(&self) -> Self::Acc {
        Vec::new()
    }

    fn fold(&self, acc: &mut Self::Acc, cell: CellId, record: RunRecord) {
        let entered = Instant::now();
        self.first.get_or_init(|| entered);
        let digest = CellDigest::of(cell.flat, &record);
        acc.push(digest);
        if let Some((tracer, op)) = self.trace {
            trace::record_cell(tracer, op, entered, digest.slices);
            tracer.record(op, "fold", entered, Instant::now(), &[]);
        }
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        let entered = Instant::now();
        into.extend(from);
        if let Some((tracer, op)) = self.trace {
            tracer.record(op, "merge", entered, Instant::now(), &[]);
        }
    }
}
