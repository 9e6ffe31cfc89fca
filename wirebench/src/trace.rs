//! The traced run: the same generated requests, replayed through the
//! public functions of each layer, timed from outside.
//!
//! Every request of the traced phase is first sent over the wire to the
//! server under test (`wire`). Right after its answer arrives, the
//! request is replayed in process, one replica at a time, each replica
//! holding the same tables and warm caches as the server because it
//! replayed the same set-up (and every traced request):
//!
//! * a `Scheduler` over its own `ExplainService` — `Scheduler::handle_line`
//!   (`handle`);
//! * a second `ExplainService` — `ExplainService::dispatch_line`
//!   (`dispatch`);
//! * the layers one by one, on their own catalog and `ArtifactCache`:
//!   `json::parse`, `parse_query`, `ParsedQuery::to_step`, the five
//!   `Stage::run`s, `render_all` + `to_json_array`, response assembly,
//!   and `Json` serialization; for uploads, column decoding and
//!   `DataFrame::new` + fingerprint.
//!
//! Self times follow by subtraction where the layers nest: `serve.io` is
//! `wire − handle`, `serve.sched` is `handle − dispatch`, and what the
//! in-process dispatch spent outside every measured layer is reported as
//! `unattributed` — never folded into a layer. Spans (name, start, end,
//! parent, request id) are kept in memory and written out when the run
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use fedex_core::pipeline::{
    Contribute, Contributor, PartitionRows, Present, ScoreColumns, Skyline,
};
use fedex_core::{
    render_all, to_json_array, ArtifactCache, EvictionPolicy, ExecutionMode, Explanation, Fedex,
    FedexConfig, PipelineContext, SessionManager, Stage,
};
use fedex_frame::{Column, ColumnData, DataFrame};
use fedex_query::{parse_query, Catalog};
use fedex_serve::json::{self, n, obj, s, Json};
use fedex_serve::{DegradeMode, ExplainService, Scheduler, SchedulerConfig};

use crate::gate::{self, WIDTH};
use crate::metrics::median;
use crate::run::{
    self, cycles_needed, pregenerate, run_gate, setup, timed_phase, Lines, Outcome, Record,
    TimedShared,
};
use crate::wire::{Conn, ServerFlags};
use crate::workload::{Op, Plan};

/// Layers measured directly, one call each, in replay order.
const LEAVES: [&str; 13] = [
    "serve.json.parse_ms",
    "frame.register_ms",
    "frame.encode_ms",
    "core.score_ms",
    "core.partition_ms",
    "core.contribute_ms",
    "core.skyline_ms",
    "core.present_ms",
    "query.parse_ms",
    "query.execute_ms",
    "core.render_ms",
    "serve.json.serialize_ms",
    "serve.dispatch_ms",
];

fn leaf(name: &str) -> usize {
    LEAVES
        .iter()
        .position(|l| *l == name)
        .expect("declared leaf")
}

/// First cycle index of the traced phase (cycles are numbered across
/// phases so fresh tables never repeat).
const TRACED_FIRST_CYCLE: u64 = 1 << 20;
/// Rough slowdown of a traced cycle: the wire request plus three replays.
const TRACED_SLOWDOWN: f64 = 4.0;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or call name.
    pub name: &'static str,
    /// Start, microseconds since the run began.
    pub start_us: f64,
    /// End, microseconds since the run began.
    pub end_us: f64,
    /// Index of the parent span (`None` for a request's root).
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

/// What the replay of one request measured.
#[derive(Debug, Clone)]
struct ReqTrace {
    analyst: usize,
    cycle: u64,
    is_explain: bool,
    wire_ms: f64,
    handle_ms: f64,
    dispatch_ms: f64,
    leaves: [f64; LEAVES.len()],
    scrape_ms: f64,
    counts: Option<[f64; 3]>,
    response_kb: f64,
}

/// The in-process replicas a traced run replays requests through.
struct Replicas {
    sched_service: Arc<ExplainService>,
    scheduler: Arc<Scheduler>,
    workers: Vec<JoinHandle<()>>,
    dispatch_service: Arc<ExplainService>,
    config: FedexConfig,
    catalogs: Vec<Mutex<Catalog>>,
    run_start: Instant,
    spans: Mutex<Vec<Span>>,
    traces: Mutex<Vec<ReqTrace>>,
    next_request: AtomicUsize,
}

/// A service configured like `fedex serve` with `flags`.
fn service(flags: &ServerFlags) -> Arc<ExplainService> {
    Arc::new(ExplainService::new(SessionManager::new(
        Fedex::new().with_execution(exec_mode(flags)),
        Arc::new(cache(flags)),
    )))
}

fn cache(flags: &ServerFlags) -> ArtifactCache {
    let policy = EvictionPolicy::parse(flags.cache_policy).expect("valid cache policy");
    ArtifactCache::with_policy(flags.cache_mb * 1024 * 1024, policy)
}

fn exec_mode(flags: &ServerFlags) -> ExecutionMode {
    ExecutionMode::parse(flags.exec).expect("valid execution mode")
}

/// Times calls and records their spans for one request.
struct Recorder<'a> {
    replicas: &'a Replicas,
    request: u64,
    spans: Vec<Span>,
    /// Span the layer calls hang under (the dispatch).
    parent: Option<usize>,
    /// Time per leaf layer, in ms, indexed like [`LEAVES`].
    leaves: [f64; LEAVES.len()],
}

impl Recorder<'_> {
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(name, parent, start, end);
        (out, (end - start).as_secs_f64() * 1e3, id)
    }

    /// Time one call into the leaf layer `name`.
    fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, ms, _) = self.time(name, self.parent, f);
        self.leaves[leaf(name)] += ms;
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let t0 = self.replicas.run_start;
        self.spans.push(Span {
            name,
            start_us: (start - t0).as_secs_f64() * 1e6,
            end_us: (end - t0).as_secs_f64() * 1e6,
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }
}

impl Replicas {
    fn new(plan: &Plan, flags: &ServerFlags, run_start: Instant) -> Replicas {
        let sched_service = service(flags);
        let scheduler = Arc::new(Scheduler::new(
            sched_service.clone(),
            SchedulerConfig {
                queue_depth: flags.queue_depth,
                session_quota: flags.session_quota,
                degrade: DegradeMode::parse(flags.degrade).expect("valid degrade mode"),
                ..SchedulerConfig::default()
            },
        ));
        // Like the server: one control worker plus the general pool.
        let workers = std::iter::once(true)
            .chain(std::iter::repeat_n(false, flags.workers))
            .map(|control_only| {
                let s = scheduler.clone();
                std::thread::spawn(move || s.worker_loop(control_only))
            })
            .collect();
        let config = Fedex::new()
            .with_execution(exec_mode(flags))
            .with_cache(Arc::new(cache(flags)))
            .config()
            .clone();
        Replicas {
            sched_service,
            scheduler,
            workers,
            dispatch_service: service(flags),
            config,
            catalogs: (0..plan.workload.analysts())
                .map(|_| Mutex::new(Catalog::new()))
                .collect(),
            run_start,
            spans: Mutex::new(Vec::new()),
            traces: Mutex::new(Vec::new()),
            next_request: AtomicUsize::new(0),
        }
    }

    fn stop(self) -> Vec<Span> {
        self.sched_service.request_shutdown();
        for w in self.workers {
            let _ = w.join();
        }
        self.spans.into_inner().unwrap()
    }

    /// Replay `rec` through every replica; with `keep`, record its spans
    /// and layer times.
    fn replay(&self, plan: &Plan, lines: &Lines, rec: &Record, keep: bool) -> Result<(), String> {
        let line = lines.get(plan, rec.analyst, &rec.op);
        let request = self
            .next_request
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed) as u64;
        let mut r = Recorder {
            replicas: self,
            request,
            spans: Vec::new(),
            parent: None,
            leaves: [0.0; LEAVES.len()],
        };
        let root = r.push("wire", None, rec.start, rec.end);
        let (handled, handle_ms, handle_id) = r.time("serve.sched.handle_line", Some(root), || {
            self.scheduler.handle_line(&line)
        });
        let (dispatched, dispatch_ms, dispatch_id) =
            r.time("serve.dispatch_line", Some(handle_id), || {
                self.dispatch_service.dispatch_line(&line)
            });
        for (who, answer) in [
            ("scheduler replica", &handled),
            ("dispatch replica", &dispatched),
        ] {
            if !answer.starts_with(r#"{"ok":true"#) {
                return Err(format!(
                    "{who} rejected {} {}: {}",
                    rec.op.kind(),
                    run::describe(&rec.op),
                    answer.chars().take(200).collect::<String>()
                ));
            }
        }
        let mut counts = None;
        r.parent = Some(dispatch_id);
        let req = r
            .layer("serve.json.parse_ms", || json::parse(&line))
            .map_err(|e| format!("replaying a request: {e}"))?;
        let mut catalog = self.catalogs[rec.analyst].lock().unwrap();
        let response = match &rec.op {
            Op::Register(t) => {
                let columns = r.layer("serve.dispatch_ms", || decode_columns(&req));
                let (df, fp) = r.layer("frame.register_ms", || {
                    let df = DataFrame::new(columns?).map_err(|e| e.to_string())?;
                    let fp = df.fingerprint();
                    Ok::<_, String>((df, fp))
                })?;
                r.layer("serve.dispatch_ms", || {
                    let response = obj([
                        ("ok", Json::Bool(true)),
                        ("session", s(plan.session(rec.analyst))),
                        ("table", s(t.name)),
                        ("rows", n(df.n_rows() as f64)),
                        ("columns", n(df.n_cols() as f64)),
                        ("fingerprint", s(fp.to_hex())),
                    ]);
                    catalog.register(t.name, df);
                    response
                })
            }
            Op::Explain { sql, save_as, .. } => {
                let replaying = |e: fedex_query::QueryError| format!("replaying {sql:?}: {e}");
                let ex = r
                    .layer("query.parse_ms", || parse_query(sql))
                    .map_err(replaying)?;
                let step = r
                    .layer("query.execute_ms", || ex.to_step(&catalog))
                    .map_err(replaying)?;
                let (explanations, c) = self.pipeline(&mut r, &step)?;
                counts = Some(c);
                let (text, array) = r.layer("core.render_ms", || {
                    (
                        render_all(&explanations, WIDTH),
                        to_json_array(&explanations),
                    )
                });
                r.layer("serve.dispatch_ms", || {
                    let response = obj([
                        ("ok", Json::Bool(true)),
                        ("session", s(plan.session(rec.analyst))),
                        ("sql", s(sql.as_str())),
                        ("n_rows_in", n(step.inputs[0].n_rows() as f64)),
                        ("n_rows_out", n(step.output.n_rows() as f64)),
                        (
                            "explanations",
                            json::parse(&array).expect("explanations are JSON"),
                        ),
                        ("rendered", s(text)),
                    ]);
                    if let Some(name) = save_as {
                        catalog.register(*name, step.output.clone());
                    }
                    response
                })
            }
            Op::Metrics => r.layer("serve.dispatch_ms", || {
                let m = self.dispatch_service.manager().cache().metrics();
                obj([("ok", Json::Bool(true)), ("cache_bytes", n(m.bytes as f64))])
            }),
        };
        drop(catalog);
        r.layer("serve.json.serialize_ms", || response.to_string());
        let (_, scrape_ms, _) = r.time("obs.scrape_ms", None, || {
            self.dispatch_service.metrics_prometheus()
        });
        if keep {
            let trace = ReqTrace {
                analyst: rec.analyst,
                cycle: rec.cycle,
                is_explain: matches!(rec.op, Op::Explain { .. }),
                wire_ms: rec.rtt_ms(),
                handle_ms,
                dispatch_ms,
                leaves: r.leaves,
                scrape_ms,
                counts,
                response_kb: rec.response.len() as f64 / 1024.0,
            };
            self.traces.lock().unwrap().push(trace);
            let mut all = self.spans.lock().unwrap();
            let base = all.len();
            all.extend(r.spans.into_iter().map(|mut sp| {
                sp.parent = sp.parent.map(|p| p + base);
                sp
            }));
        }
        Ok(())
    }

    /// The five stages, one `Stage::run` each, as the pipeline
    /// orchestrator chains them. Returns the explanations and the
    /// (partitions, candidates, explanations) counts.
    fn pipeline(
        &self,
        r: &mut Recorder<'_>,
        step: &fedex_query::ExploratoryStep,
    ) -> Result<(Vec<Explanation>, [f64; 3]), String> {
        let ctx = PipelineContext::new(step, &self.config);
        let err = |e: fedex_core::ExplainError| format!("replaying a stage: {e}");
        let scored = r
            .layer("core.score_ms", || ScoreColumns::builtin().run(&ctx, ()))
            .map_err(err)?;
        // ScoreColumns reports its encode sub-phase (the frame-cache
        // lookup, and the encode on a miss): move it to the frame layer.
        let encode = scored
            .timings
            .iter()
            .find(|(name, _)| *name == "encode")
            .map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3);
        r.leaves[leaf("frame.encode_ms")] += encode;
        r.leaves[leaf("core.score_ms")] -= encode;
        if scored.top.is_empty() {
            return Ok((Vec::new(), [0.0; 3]));
        }
        let partitioned = r
            .layer("core.partition_ms", || {
                PartitionRows { extra: Vec::new() }.run(&ctx, scored)
            })
            .map_err(err)?;
        let partitions = partitioned.partitions.len() as f64;
        let contributed = r
            .layer("core.contribute_ms", || {
                Contribute {
                    contributor: Contributor::Incremental,
                }
                .run(&ctx, partitioned)
            })
            .map_err(err)?;
        let candidates = contributed.candidates.len() as f64;
        if contributed.candidates.is_empty() {
            return Ok((Vec::new(), [partitions, 0.0, 0.0]));
        }
        let ranked = r
            .layer("core.skyline_ms", || Skyline.run(&ctx, contributed))
            .map_err(err)?;
        let explanations = r
            .layer("core.present_ms", || Present.run(&ctx, ranked))
            .map_err(err)?;
        let count = explanations.len() as f64;
        Ok((explanations, [partitions, candidates, count]))
    }
}

/// Decode an upload's columns with the public `Column` constructors, as
/// the service's register handler does.
fn decode_columns(req: &Json) -> Result<Vec<Column>, String> {
    let specs = req
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or("no columns")?;
    specs
        .iter()
        .map(|spec| {
            let name = spec
                .get("name")
                .and_then(Json::as_str)
                .ok_or("column name")?;
            let values = spec
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("column values")?;
            Ok(match spec.get("type").and_then(Json::as_str) {
                Some("int") => Column::from_opt_ints(
                    name,
                    values
                        .iter()
                        .map(|v| v.as_f64().map(|x| x as i64))
                        .collect(),
                ),
                Some("float") => {
                    Column::from_opt_floats(name, values.iter().map(Json::as_f64).collect())
                }
                Some("str") => {
                    Column::from_opt_strs(name, values.iter().map(Json::as_str).collect())
                }
                Some("bool") => Column::new(
                    name,
                    ColumnData::Bool(values.iter().map(Json::as_bool).collect()),
                ),
                other => return Err(format!("column type {other:?}")),
            })
        })
        .collect()
}

/// A `--trace 1` run: every per-layer metric of the workload.
pub fn run_traced(plan: &Plan, seconds: f64) -> Result<Outcome, String> {
    let flags = ServerFlags::default();
    let lines = Lines::default();
    let run_start = Instant::now();
    let mut records = Vec::new();
    let (server, mut conns, _) = setup(plan, &flags, &lines, 0, &mut records)?;
    let replicas = Replicas::new(plan, &flags, run_start);
    for rec in &records {
        replicas.replay(plan, &lines, rec, false)?;
    }

    // Untraced phase: the reference for trace_overhead_pct.
    let untraced_secs = seconds / 3.0;
    pregenerate(
        plan,
        &lines,
        0,
        cycles_needed(plan, &records, untraced_secs, 0, 1.0),
    );
    let shared = |secs, first_cycle| TimedShared {
        plan,
        lines: &lines,
        start: Instant::now(),
        seconds: secs,
        min_explains: 0,
        first_cycle,
        explains: AtomicUsize::new(0),
        rss_mb: OnceLock::new(),
        server: &server,
    };
    let (untraced, _) = timed_phase(&shared(untraced_secs, 0), &mut conns, |_, _| Ok(()))?;

    // Traced phase.
    let traced_secs = seconds - untraced_secs;
    let n = cycles_needed(plan, &records, traced_secs, 0, TRACED_SLOWDOWN);
    pregenerate(plan, &lines, TRACED_FIRST_CYCLE, n);
    let (traced, _) = timed_phase(
        &shared(traced_secs, TRACED_FIRST_CYCLE),
        &mut conns,
        |_, rec| replicas.replay(plan, &lines, rec, true),
    )?;
    let scrape = conns[0]
        .call(r#"{"cmd":"metrics"}"#)
        .map_err(|e| format!("final metrics scrape: {e}"))?;
    let server_metrics = json::parse(&scrape).map_err(|e| format!("final metrics scrape: {e}"))?;
    conns.into_iter().for_each(Conn::close);
    server.stop()?;
    let traces = std::mem::take(&mut *replicas.traces.lock().unwrap());
    let spans = replicas.stop();
    save_spans(plan, &spans)?;

    let explain_ms = |recs: &[Record]| -> Vec<f64> {
        recs.iter()
            .filter(|r| matches!(r.op, Op::Explain { .. }))
            .map(Record::rtt_ms)
            .collect()
    };
    let overhead = 100.0 * (median(&explain_ms(&traced)) / median(&explain_ms(&untraced)) - 1.0);
    let mut metrics = layer_metrics(&traces);
    let hits = gate::count(&server_metrics, &["cache", "hits"]);
    let misses = gate::count(&server_metrics, &["cache", "misses"]);
    metrics.extend([
        ("cache.hit_ratio", hits / (hits + misses).max(1.0)),
        (
            "cache.evictions",
            gate::count(&server_metrics, &["cache", "evictions"]),
        ),
        (
            "cache.mb",
            gate::count(&server_metrics, &["cache", "bytes"]) / 1048576.0,
        ),
        (
            "sched.coalesced",
            gate::count(&server_metrics, &["scheduler", "coalesced"]),
        ),
        ("trace_overhead_pct", overhead),
    ]);
    let cycles: std::collections::BTreeSet<(usize, u64)> =
        traces.iter().map(|t| (t.analyst, t.cycle)).collect();
    let notes = vec![format!(
        "traced {} requests in {} cycles ({} explains); {} spans written",
        traces.len(),
        cycles.len(),
        traces.iter().filter(|t| t.is_explain).count(),
        spans.len()
    )];
    records.extend(untraced);
    records.extend(traced);
    let gate = run_gate(plan, &records)?;
    Ok(Outcome {
        metrics,
        gate,
        notes,
    })
}

/// Per-layer figures from the traced requests.
///
/// Layer times are amortized per explain within each cycle (every
/// request of the cycle, uploads and scrapes included, divided by the
/// cycle's explains), and the median over cycles is reported; per cycle,
/// the layers plus `unattributed_ms` add up to `wire_ms` exactly. Counts
/// and response sizes are medians over explain requests; `obs.scrape_ms`
/// is the median over scrapes.
fn layer_metrics(traces: &[ReqTrace]) -> Vec<(&'static str, f64)> {
    const DERIVED: [&str; 4] = [
        "serve.sched_ms",
        "serve.io_ms",
        "unattributed_ms",
        "wire_ms",
    ];
    let mut per_cycle: BTreeMap<(usize, u64), (Vec<f64>, usize)> = BTreeMap::new();
    for t in traces {
        let (sums, explains) = per_cycle
            .entry((t.analyst, t.cycle))
            .or_insert_with(|| (vec![0.0; LEAVES.len() + DERIVED.len()], 0));
        let measured: f64 = t.leaves.iter().sum();
        for (i, v) in t.leaves.iter().enumerate() {
            sums[i] += v;
        }
        let k = LEAVES.len();
        sums[k] += t.handle_ms - t.dispatch_ms;
        sums[k + 1] += t.wire_ms - t.handle_ms;
        sums[k + 2] += t.dispatch_ms - measured;
        sums[k + 3] += t.wire_ms;
        *explains += usize::from(t.is_explain);
    }
    let names = LEAVES.iter().chain(DERIVED.iter());
    let mut out: Vec<(&'static str, f64)> = names
        .enumerate()
        .map(|(i, name)| {
            let values: Vec<f64> = per_cycle
                .values()
                .filter(|(_, e)| *e > 0)
                .map(|(sums, e)| sums[i] / *e as f64)
                .collect();
            (
                *name,
                if values.is_empty() {
                    0.0
                } else {
                    median(&values)
                },
            )
        })
        .collect();
    let explains: Vec<&ReqTrace> = traces.iter().filter(|t| t.is_explain).collect();
    let count = |i: usize| {
        median(
            &explains
                .iter()
                .filter_map(|t| t.counts.map(|c| c[i]))
                .collect::<Vec<_>>(),
        )
    };
    out.extend([
        ("core.partitions", count(0)),
        ("core.candidates", count(1)),
        ("core.explanations", count(2)),
        (
            "serve.response_kb",
            median(&explains.iter().map(|t| t.response_kb).collect::<Vec<_>>()),
        ),
        (
            "obs.scrape_ms",
            median(&traces.iter().map(|t| t.scrape_ms).collect::<Vec<_>>()),
        ),
    ]);
    out
}

/// Write the spans as `results/<workload>-seed<n>.spans.json`.
fn save_spans(plan: &Plan, spans: &[Span]) -> Result<(), String> {
    let mut out = String::from("{\"spans\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            if i > 0 { ",\n" } else { "" },
            sp.name,
            sp.request,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.start_us,
            sp.end_us
        );
    }
    out.push_str("\n]}\n");
    let dir = crate::context::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}.spans.json",
        plan.workload.name(),
        plan.seed
    ));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}
