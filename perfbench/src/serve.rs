//! `serve_small` and `serve_mixed`: one long-lived `SweepService` with
//! [`WIDTH`] workers and two closed-loop connections over in-memory pipes.
//!
//! - `serve_small`: both connections submit small sweeps back to back.
//! - `serve_mixed`: one connection keeps a big population sweep in flight,
//!   resubmitting it as soon as it finishes; the other submits small sweeps.
//!
//! A small sweep is a 2-workload seeded population × {baseline, sysscale}
//! at 0.25 s; [`SMALL_INPUTS`] of them, drawn from the seed, are cycled. The
//! big sweep is a [`BIG_WORKLOADS`]-workload population × the same two
//! governors. Every served stream is checked against an in-process fold of
//! the same recipe.

use std::time::Instant;

use sysscale::types::rng::SplitMix64;
use sysscale::types::SimResult;
use sysscale::workloads::GeneratorConfig;
use sysscale::{ScenarioSet, SessionPool};
use sysscale_dist::{
    sweep_from_sets, GovernorSpec, MatrixRecipe, PlatformSpec, ServeClient, ServeEvent,
    ServeOptions, ServeStats, SweepRecipe, SweepService, WorkloadsSpec,
};

use crate::digest::{check, outputs_digest, sorted, CellDigest, DigestFold};
use crate::layers::{self, ProbeInput};
use crate::report::{median, percentile, ratio};
use crate::trace::{Span, Tracer};
use crate::window::{timed_setups, Measured, OpLog, Window};
use crate::{traced_halves, untraced, write_trace, Args, Failure, Metrics, Outcome, WIDTH};

/// Distinct small sweeps per run.
const SMALL_INPUTS: usize = 32;
/// Workloads in the big sweep (× 2 governors = 208 cells).
const BIG_WORKLOADS: usize = 104;

/// A seeded population × {baseline, sysscale} at 0.25 s, on the 4.5 W
/// Skylake platform every input shares.
fn population(seed: u64, count: usize) -> SweepRecipe {
    SweepRecipe::single(MatrixRecipe {
        platform: PlatformSpec::SkylakeM6y75 { tdp_w: 4.5 },
        workloads: WorkloadsSpec::Population {
            config: GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            },
            count,
        },
        governors: vec![
            GovernorSpec::Registry("baseline".to_string()),
            GovernorSpec::SysScaleDefault,
        ],
        baseline: Some("baseline".to_string()),
        duration_secs: Some(0.25),
        pinned_fingerprint: None,
    })
}

/// A recipe with its built sets and its in-process reference result.
struct Input {
    recipe: SweepRecipe,
    sets: Vec<ScenarioSet>,
    reference: Vec<CellDigest>,
}

impl Input {
    fn new(recipe: SweepRecipe, pool: &mut SessionPool) -> SimResult<Self> {
        let sets = recipe.build()?;
        let reference = sorted(sweep_from_sets(&sets).run_parallel_fold_sharded(
            pool,
            WIDTH,
            recipe.sharding,
            &DigestFold::new(),
        )?);
        Ok(Self {
            recipe,
            sets,
            reference,
        })
    }
}

/// One submission as the client saw it.
struct Served {
    start: Instant,
    end: Instant,
    first_cell: Option<Instant>,
    queued_us: u64,
    exec_us: u64,
    /// Completed with `SweepDone` (not shed, failed, or cut off).
    ok: bool,
    /// The connection can no longer be used.
    broken: bool,
}

/// Submits one sweep and reads frames until it finishes, then checks the
/// streamed records against the reference.
fn submit(client: &mut ServeClient, input: &Input) -> Result<Served, Failure> {
    let start = Instant::now();
    let mut served = Served {
        start,
        end: start,
        first_cell: None,
        queued_us: 0,
        exec_us: 0,
        ok: false,
        broken: false,
    };
    let Ok(id) = client.submit(&input.recipe, 0) else {
        served.end = Instant::now();
        served.broken = true;
        return Ok(served);
    };
    let mut records = Vec::with_capacity(input.reference.len());
    loop {
        match client.recv() {
            Ok(Some(ServeEvent::Cell {
                submit_id,
                flat,
                record,
            })) if submit_id == id => {
                served.first_cell.get_or_insert_with(Instant::now);
                records.push((flat, record));
            }
            Ok(Some(ServeEvent::SweepDone {
                submit_id,
                queued_micros,
                exec_micros,
                ..
            })) if submit_id == id => {
                (served.queued_us, served.exec_us) = (queued_micros, exec_micros);
                served.ok = true;
                break;
            }
            Ok(Some(
                ServeEvent::SweepError { submit_id, .. } | ServeEvent::Busy { submit_id, .. },
            )) if submit_id == id => break,
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => {
                served.broken = true;
                break;
            }
        }
    }
    served.end = Instant::now();
    if served.ok {
        let got: Vec<CellDigest> = records
            .iter()
            .map(|(flat, record)| CellDigest::of(*flat, record))
            .collect();
        check("served stream", &got, &input.reference).map_err(Failure::Mismatch)?;
    }
    Ok(served)
}

/// One connection's closed loop: submits `inputs[first]`, `inputs[first +
/// step]`, … until the window closes, logging each into `log`. Traced ops
/// are spans named `kind`, carrying the server's queued and exec time.
fn client_loop(
    client: &mut ServeClient,
    kind: &'static str,
    inputs: &[&Input],
    (first, step): (usize, usize),
    log: &OpLog,
    window: &Window,
    tracer: Option<&Tracer>,
) -> Result<(), Failure> {
    let mut next = first;
    while window.is_open() {
        let input = inputs[next % inputs.len()];
        next += step;
        let op = tracer.map(Tracer::begin_op);
        let served = submit(client, input)?;
        if served.ok {
            let cells = input.reference.len();
            log.ok(served.start, served.end, served.first_cell, cells);
        } else {
            log.fail(served.end);
        }
        if let (Some(tracer), Some(op)) = (tracer, op) {
            let first_cell_ns = served.first_cell.map_or(0, |t| {
                u64::try_from((t - served.start).as_nanos()).unwrap_or(u64::MAX)
            });
            tracer.end_op(
                op,
                kind,
                served.start,
                served.end,
                &[
                    ("cells", input.reference.len() as u64),
                    ("queued_us", served.queued_us),
                    ("exec_us", served.exec_us),
                    ("first_cell_ns", first_cell_ns),
                    ("ok", u64::from(served.ok)),
                ],
            );
        }
        if served.broken {
            break;
        }
    }
    Ok(())
}

/// The service with its two connections.
struct Session {
    service: Option<SweepService>,
    clients: Vec<ServeClient>,
}

impl Session {
    /// Closes the connections and stops the service.
    fn finish(&mut self) -> Option<ServeStats> {
        for client in self.clients.drain(..) {
            client.close();
        }
        self.service.take().map(SweepService::shutdown)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.finish();
    }
}

/// What one window measured: the small sweeps, and the big ones on
/// `serve_mixed`.
struct Logs {
    small: OpLog,
    big: Option<OpLog>,
}

impl Measured for Logs {
    fn sweeps(&self) -> &OpLog {
        &self.small
    }

    fn big(&self) -> &OpLog {
        self.big.as_ref().unwrap_or(&self.small)
    }
}

/// Runs both connections for one window. Without a big sweep both submit
/// small sweeps, alternating through the inputs, into one log.
fn measure(
    session: &mut Session,
    smalls: &[&Input],
    big: Option<&Input>,
    window: &Window,
    tracer: Option<&Tracer>,
) -> Result<Logs, Failure> {
    let [first, second] = &mut session.clients[..] else {
        unreachable!("a session has two connections");
    };
    let measured = Logs {
        small: OpLog::new(window),
        big: big.map(|_| OpLog::new(window)),
    };
    let (a, b) = std::thread::scope(|scope| {
        let (small, step) = (&measured.small, if big.is_some() { 1 } else { 2 });
        let a = scope.spawn(|| match (big, &measured.big) {
            (Some(big), Some(log)) => {
                client_loop(first, "big", &[big], (0, 1), log, window, tracer)
            }
            _ => client_loop(first, "small", smalls, (0, 2), small, window, tracer),
        });
        let b = scope
            .spawn(move || client_loop(second, "small", smalls, (1, step), small, window, tracer));
        (
            a.join().expect("client thread panicked"),
            b.join().expect("client thread panicked"),
        )
    });
    a?;
    b?;
    Ok(measured)
}

pub fn run(args: &Args, mixed: bool) -> Result<Outcome, Failure> {
    let mut seeds = SplitMix64::new(args.seed);
    let mut reference_pool = SessionPool::new();
    let smalls: Vec<Input> = (0..SMALL_INPUTS)
        .map(|_| Input::new(population(seeds.next_u64(), 2), &mut reference_pool))
        .collect::<SimResult<_>>()?;
    let big = if mixed {
        Some(Input::new(
            population(seeds.next_u64(), BIG_WORKLOADS),
            &mut reference_pool,
        )?)
    } else {
        None
    };
    drop(reference_pool);
    let small_refs: Vec<&Input> = smalls.iter().collect();

    let (setup_s, mut session) = timed_setups(args.short, || {
        let service = SweepService::start(&ServeOptions {
            workers: WIDTH,
            ..ServeOptions::default()
        });
        let clients = vec![service.connect(), service.connect()];
        let mut session = Session {
            service: Some(service),
            clients,
        };
        let warm = submit(&mut session.clients[0], &smalls[0])?;
        if !warm.ok {
            return Err(Failure::Setup("the warm-up sweep failed".to_string()));
        }
        Ok(session)
    })?;

    let mut outcome = Outcome {
        digest: outputs_digest(smalls.iter().chain(&big).flat_map(|input| &input.reference)),
        off_path: &["dist.dispatcher."],
        ..Outcome::default()
    };
    let big_ref = big.as_ref();

    if !args.trace {
        untraced(args, setup_s, &mut outcome, |window| {
            measure(&mut session, &small_refs, big_ref, window, None)
        })?;
        return Ok(outcome);
    }

    // Both halves run on the same service; the traced half records
    // client-side op spans.
    let (_, _, tracer) = traced_halves(args, &mut outcome, |window, tracer| {
        measure(&mut session, &small_refs, big_ref, window, tracer)
    })?;
    let stats = session.finish().expect("the session is still running");

    let metrics = &mut outcome.metrics;
    insert_service(metrics, &tracer.spans(), &stats);
    let probe_inputs: Vec<ProbeInput<'_>> = smalls
        .iter()
        .chain(&big)
        .map(|input| ProbeInput {
            sets: &input.sets,
            sharding: input.recipe.sharding,
            reference: &input.reference,
        })
        .collect();
    layers::probe(
        metrics,
        &tracer,
        &probe_inputs,
        if args.short { 1 } else { 2 },
    )?;
    let workloads = smalls
        .iter()
        .chain(&big)
        .map(|input| input.recipe.members[0].workloads.build())
        .collect::<SimResult<Vec<_>>>()?
        .concat();
    layers::direct(
        metrics,
        || smalls[0].recipe.members[0].platform.build(),
        &workloads,
        &smalls[0].recipe,
        args.short,
    )?;
    write_trace(args, &tracer)?;
    Ok(outcome)
}

/// The service-side split of the traced small sweeps that completed, from
/// their op spans, and the service's counts.
fn insert_service(metrics: &mut Metrics, spans: &[Span], stats: &ServeStats) {
    let small: Vec<&Span> = spans
        .iter()
        .filter(|span| span.name == "small" && span.attr("ok") == 1)
        .collect();
    let pick = |f: &dyn Fn(&Span) -> f64| small.iter().map(|span| f(span)).collect::<Vec<f64>>();
    let latency = |span: &Span| span.dur_ns() as f64 / 1e6;
    let queued_ms = |span: &Span| span.attr("queued_us") as f64 / 1e3;
    let exec_ms = |span: &Span| span.attr("exec_us") as f64 / 1e3;
    let queued = pick(&queued_ms);
    metrics.insert("dist.serve.exec_ms_p50", median(&pick(&exec_ms)));
    metrics.insert(
        "dist.serve.client_ms_p50",
        median(&pick(&|span| {
            latency(span) - queued_ms(span) - exec_ms(span)
        })),
    );
    metrics.insert("dist.serve.queue_ms_p50", median(&queued));
    metrics.insert("dist.serve.queue_ms_p99", percentile(&queued, 0.99));
    metrics.insert(
        "dist.serve.queue_share",
        ratio(queued.iter().sum(), pick(&latency).iter().sum()),
    );
    metrics.insert("dist.serve.max_queue_depth", stats.max_queue_depth as f64);
    metrics.insert(
        "dist.serve.cached_platforms",
        stats.pool_cached_platforms as f64,
    );
    metrics.insert("dist.serve.busy_shed", stats.busy_shed as f64);
    metrics.insert("dist.serve.frames_rejected", stats.frames_rejected as f64);
}
