//! One benchmark run: set-up, timed closed loop, correctness gate, and
//! the metrics of one workload.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::gate;
use crate::metrics::{median, quantile};
use crate::wire::{Conn, ServerFlags, ServerProc};
use crate::workload::{Op, Plan, Workload};

/// Blocks of an untraced run, each on a fresh server with its own
/// set-up; `setup_s` is the median of their set-ups.
pub const BLOCKS: usize = 5;
/// An untraced run times at least this many explains (so p90 rests on
/// enough samples): each block runs whole cycles until its share of them
/// completed and its share of `--seconds` passed.
pub const MIN_EXPLAINS: usize = 100;
/// A run whose timed phase lasts longer than this fails.
pub const PHASE_CAP: Duration = Duration::from_secs(120);

/// Which part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up round `n`.
    Setup(usize),
    /// The timed phase.
    Timed,
}

/// One request sent and its answer.
#[derive(Debug)]
pub struct Record {
    /// Analyst (connection) index.
    pub analyst: usize,
    /// The request.
    pub op: Op,
    /// Phase.
    pub phase: Phase,
    /// Cycle within the phase (fresh-tables: the table's cycle).
    pub cycle: u64,
    /// When sending began.
    pub start: Instant,
    /// When the whole answer had been read.
    pub end: Instant,
    /// The answer line.
    pub response: String,
}

impl Record {
    /// Round trip in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Upload lines by (analyst, table epoch, table name).
type LineCache = HashMap<(usize, u64, &'static str), Arc<String>>;

/// Request lines, generated once per (analyst, op) and reused for the
/// whole run.
#[derive(Default)]
pub struct Lines {
    cache: Mutex<LineCache>,
}

impl Lines {
    /// The line of `op` for analyst `a` (register lines are cached: they
    /// are megabytes of generated JSON).
    pub fn get(&self, plan: &Plan, a: usize, op: &Op) -> Arc<String> {
        match op {
            Op::Register(t) => {
                let key = (a, t.epoch, t.name);
                if let Some(line) = self.cache.lock().unwrap().get(&key) {
                    return line.clone();
                }
                let line = Arc::new(op.line(&plan.session(a)));
                self.cache.lock().unwrap().insert(key, line.clone());
                line
            }
            _ => Arc::new(op.line(&plan.session(a))),
        }
    }
}

/// Send `op` on `conn`, naming the step on failure.
pub fn send(
    conn: &mut Conn,
    plan: &Plan,
    lines: &Lines,
    a: usize,
    op: Op,
    phase: Phase,
    cycle: u64,
) -> Result<Record, String> {
    let line = lines.get(plan, a, &op);
    let (response, start, end) = conn.call_timed(&line).map_err(|e| {
        format!(
            "{} {:?} cycle {cycle}, analyst {a}, {} {}: {e}",
            plan.workload.name(),
            phase,
            op.kind(),
            describe(&op)
        )
    })?;
    Ok(Record {
        analyst: a,
        op,
        phase,
        cycle,
        start,
        end,
        response,
    })
}

/// A one-line description of an op for error messages.
pub fn describe(op: &Op) -> String {
    match op {
        Op::Register(t) => format!("table {} (epoch {})", t.name, t.epoch),
        Op::Explain { sql, .. } => format!("{sql:?}"),
        Op::Metrics => String::new(),
    }
}

/// One set-up: start the server, upload the base tables, run the
/// warm-up. Returns the server, the analysts' connections, and the
/// set-up wall time in seconds.
pub fn setup(
    plan: &Plan,
    flags: &ServerFlags,
    lines: &Lines,
    round: usize,
    records: &mut Vec<Record>,
) -> Result<(ServerProc, Vec<Conn>, f64), String> {
    // Generate the upload lines before the clock starts: set-up time is
    // the server's, not the load generator's.
    for a in 0..plan.workload.analysts() {
        for op in plan
            .base_tables()
            .into_iter()
            .map(Op::Register)
            .chain(plan.warmup(round))
        {
            lines.get(plan, a, &op);
        }
    }
    let t0 = Instant::now();
    let server = ServerProc::start(flags)?;
    let mut conns = Vec::new();
    for a in 0..plan.workload.analysts() {
        let mut conn = Conn::connect(&server.addr)?;
        for op in plan
            .base_tables()
            .into_iter()
            .map(Op::Register)
            .chain(plan.warmup(round))
        {
            records.push(send(&mut conn, plan, lines, a, op, Phase::Setup(round), 0)?);
        }
        conns.push(conn);
    }
    Ok((server, conns, t0.elapsed().as_secs_f64()))
}

/// State shared by the analysts of the timed phase.
pub struct TimedShared<'a> {
    /// The plan.
    pub plan: &'a Plan,
    /// Request lines.
    pub lines: &'a Lines,
    /// Start of the timed phase.
    pub start: Instant,
    /// Minimum length of the phase.
    pub seconds: f64,
    /// Minimum number of explains of the phase; the server's `VmHWM` is
    /// sampled when it is reached (0: no minimum, no sample).
    pub min_explains: usize,
    /// Index of the phase's first cycle (a later phase on the same server
    /// starts past the earlier one's cycles, so it never repeats their
    /// tables).
    pub first_cycle: u64,
    /// Explains completed so far.
    pub explains: AtomicUsize,
    /// Server `VmHWM` when the `min_explains`-th explain completed.
    pub rss_mb: OnceLock<Result<f64, String>>,
    /// The server.
    pub server: &'a ServerProc,
}

/// One analyst's closed loop: whole cycles until the phase may end.
/// `each` sees every record as it completes (the traced run replays it
/// through the layers there).
pub fn analyst_loop(
    shared: &TimedShared<'_>,
    a: usize,
    conn: &mut Conn,
    mut each: impl FnMut(&Record) -> Result<(), String>,
) -> Result<Vec<Record>, String> {
    let plan = shared.plan;
    let mut out = Vec::new();
    for cycle in shared.first_cycle.. {
        let elapsed = shared.start.elapsed();
        if elapsed.as_secs_f64() >= shared.seconds
            && shared.explains.load(Ordering::SeqCst) >= shared.min_explains
        {
            break;
        }
        if elapsed > PHASE_CAP {
            return Err(format!(
                "{}: timed phase passed {} s with {} explains (need {})",
                plan.workload.name(),
                PHASE_CAP.as_secs(),
                shared.explains.load(Ordering::SeqCst),
                shared.min_explains
            ));
        }
        for op in plan.cycle(a, cycle) {
            let is_explain = matches!(op, Op::Explain { .. });
            let rec = send(conn, plan, shared.lines, a, op, Phase::Timed, cycle)?;
            if is_explain {
                let done = shared.explains.fetch_add(1, Ordering::SeqCst) + 1;
                if done == shared.min_explains {
                    let _ = shared.rss_mb.set(shared.server.peak_rss_mb());
                }
            }
            each(&rec)?;
            out.push(rec);
        }
    }
    Ok(out)
}

/// Outcome of the correctness gate over every record of a run.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Requests checked.
    pub attempted: u64,
    /// Failures, each naming its step.
    pub failures: Vec<String>,
}

/// Check every record against the in-process oracle.
pub fn run_gate(plan: &Plan, records: &[Record]) -> Result<GateOutcome, String> {
    let mut epochs: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.op {
            Op::Register(t) => Some(t.epoch),
            _ => None,
        })
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    let expected = gate::expected_answers(plan, &epochs)?;
    let mut outcome = GateOutcome::default();
    for r in records {
        outcome.attempted += 1;
        if let Err(e) = gate::check(&r.op, &r.response, &expected) {
            outcome.failures.push(format!(
                "{:?} cycle {}, analyst {}, {} {}: {e}",
                r.phase,
                r.cycle,
                r.analyst,
                r.op.kind(),
                describe(&r.op)
            ));
        }
    }
    Ok(outcome)
}

/// End-to-end figures of a run, from its records.
pub fn end_to_end(
    records: &[Record],
    setup_secs: &[f64],
    phase_secs: f64,
    rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let timed: Vec<&Record> = records.iter().filter(|r| r.phase == Phase::Timed).collect();
    let explain_ms: Vec<f64> = timed
        .iter()
        .filter(|r| matches!(r.op, Op::Explain { .. }))
        .map(|r| r.rtt_ms())
        .collect();
    let register_ms: Vec<f64> = timed
        .iter()
        .filter(|r| matches!(r.op, Op::Register(_)))
        .map(|r| r.rtt_ms())
        .collect();
    vec![
        ("setup_s", median(setup_secs)),
        ("explain_p50_ms", quantile(&explain_ms, 0.5)),
        ("explain_p90_ms", quantile(&explain_ms, 0.9)),
        ("explains_per_s", explain_ms.len() as f64 / phase_secs),
        ("first_insight_p50_ms", median(&first_insights(records))),
        ("register_p50_ms", median(&register_ms)),
        ("peak_rss_mb", rss_mb),
    ]
}

/// Time to first insight, in ms: from sending a table upload to reading
/// the first explain answer after it on the same connection, for every
/// upload of the timed phase.
pub fn first_insights(records: &[Record]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut pending: HashMap<usize, Instant> = HashMap::new();
    for r in records.iter().filter(|r| r.phase == Phase::Timed) {
        match &r.op {
            Op::Register(_) => {
                pending.entry(r.analyst).or_insert(r.start);
            }
            Op::Explain { .. } => {
                if let Some(t0) = pending.remove(&r.analyst) {
                    out.push((r.end - t0).as_secs_f64() * 1e3);
                }
            }
            Op::Metrics => {}
        }
    }
    out
}

/// What a run produced: its metrics, the gate's verdict, and notes for
/// the human-readable part of the output.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by declared name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The correctness gate.
    pub gate: GateOutcome,
    /// Lines printed (prefixed `# `) before the result.
    pub notes: Vec<String>,
}

/// Run every analyst's closed loop on its own thread; `each` is called
/// with every completed record on the analyst's thread. Returns the
/// records (analyst by analyst) and the phase length in seconds.
pub fn timed_phase<F>(
    shared: &TimedShared<'_>,
    conns: &mut [Conn],
    each: F,
) -> Result<(Vec<Record>, f64), String>
where
    F: Fn(usize, &Record) -> Result<(), String> + Sync,
{
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(a, conn)| {
                let each = &each;
                scope.spawn(move || {
                    let out = analyst_loop(shared, a, conn, |r| each(a, r));
                    (out, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread"))
            .collect::<Vec<_>>()
    });
    let mut records = Vec::new();
    let mut end = shared.start;
    for (out, finished) in results {
        records.extend(out?);
        end = end.max(finished);
    }
    Ok((records, (end - shared.start).as_secs_f64()))
}

/// How many cycles a timed phase of `seconds` will run: for fresh-tables
/// (the only workload whose cycles upload new tables) enough for
/// `seconds` at the cycle time seen in set-up times `slowdown`, and for
/// `min_explains`, with a margin; 1 otherwise.
pub fn cycles_needed(
    plan: &Plan,
    setup: &[Record],
    seconds: f64,
    min_explains: usize,
    slowdown: f64,
) -> u64 {
    if plan.workload != Workload::FreshTables {
        return 1;
    }
    let rounds = setup
        .iter()
        .filter_map(|r| match r.phase {
            Phase::Setup(n) => Some(n + 1),
            Phase::Timed => None,
        })
        .max()
        .unwrap_or(0);
    let per_round: Vec<f64> = (0..rounds)
        .map(|round| {
            setup
                .iter()
                .filter(|r| r.phase == Phase::Setup(round))
                .map(|r| r.rtt_ms() / 1e3)
                .sum()
        })
        .collect();
    let cycle_s = (median(&per_round) * slowdown).max(1e-3);
    let explains_per_cycle = plan.fresh_steps(0).len();
    let need = (seconds / cycle_s).max(min_explains.div_ceil(explains_per_cycle) as f64);
    ((need * 1.25).ceil() as u64 + 2).min(400)
}

/// Generate the upload lines of `cycles` cycles from `first_cycle` on
/// before the phase starts, so the closed loop has no client-side think
/// time. (A phase that outruns them generates more on demand.)
pub fn pregenerate(plan: &Plan, lines: &Lines, first_cycle: u64, cycles: u64) {
    for a in 0..plan.workload.analysts() {
        for c in first_cycle..first_cycle + cycles {
            for op in plan.cycle(a, c) {
                lines.get(plan, a, &op);
            }
        }
    }
}

/// A `--trace 0` run: every end-to-end metric of the workload.
///
/// The run is [`BLOCKS`] blocks, each on a server of its own: set-up
/// (one `setup_s` sample), then a closed loop of `seconds / BLOCKS`. A
/// fresh server per block keeps the server's memory (every explain stays
/// in the session history) and the latency drift that comes with it the
/// same in every block, and gives `setup_s` one sample per block. Every
/// block runs the same cycles from 0: each server sees its tables for the
/// first time, so fresh-tables stays cold while the correctness gate
/// checks each table once rather than once per block.
pub fn run_untraced(plan: &Plan, seconds: f64) -> Result<Outcome, String> {
    let flags = ServerFlags::default();
    let lines = Lines::default();
    let block_secs = seconds / BLOCKS as f64;
    let block_explains = MIN_EXPLAINS.div_ceil(BLOCKS);
    let mut records = Vec::new();
    let mut setup_secs = Vec::new();
    let mut rss_mb = Vec::new();
    let mut phase_secs = 0.0;
    for block in 0..BLOCKS {
        let (server, mut conns, secs) = setup(plan, &flags, &lines, block, &mut records)?;
        setup_secs.push(secs);
        pregenerate(
            plan,
            &lines,
            0,
            cycles_needed(plan, &records, block_secs, block_explains, 1.0),
        );
        let shared = TimedShared {
            plan,
            lines: &lines,
            start: Instant::now(),
            seconds: block_secs,
            min_explains: block_explains,
            first_cycle: 0,
            explains: AtomicUsize::new(0),
            rss_mb: OnceLock::new(),
            server: &server,
        };
        let (timed, secs) = timed_phase(&shared, &mut conns, |_, _| Ok(()))?;
        match shared.rss_mb.get() {
            Some(r) => rss_mb.push(r.clone()?),
            None => return Err(format!("block {block}: peak RSS was never sampled")),
        }
        conns.into_iter().for_each(Conn::close);
        server.stop()?;
        phase_secs += secs;
        records.extend(timed);
    }
    let explains = records
        .iter()
        .filter(|r| r.phase == Phase::Timed && matches!(r.op, Op::Explain { .. }))
        .count();
    let gate = run_gate(plan, &records)?;
    let metrics = end_to_end(&records, &setup_secs, phase_secs, median(&rss_mb));
    let notes = vec![format!(
        "{BLOCKS} blocks: set-ups {setup_secs:?} s; timed {phase_secs:.3} s, {explains} explains; \
         peak RSS {rss_mb:?} MiB"
    )];
    Ok(Outcome {
        metrics,
        gate,
        notes,
    })
}
