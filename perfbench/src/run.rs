//! One benchmark run: set up, warm up, measure, check, report.
//!
//! A run makes several passes over a fixed list of distinct queries, each
//! pass in its own seeded order, and takes each query's *best* time over
//! its passes. The machine this benchmark was tuned on runs the 1M
//! workloads up to 1.8× slower for tens of seconds at a time, as other
//! tenants load the shared cache; a query's best of several evaluations
//! spread over the run is the engine's own cost with that interference
//! filtered out. The percentiles and the query rate are taken over those
//! per-query bests.
//!
//! The untraced run (`--trace 0`) times each query around one call into
//! the public service API, `SharedEngine`, and reports the end-to-end
//! metrics. The traced run (`--trace 1`) makes the same passes over the
//! first third of the list, so it costs about as much as an untraced run,
//! and evaluates every query through all three public entry points,
//! rotating their order so cache warmth favours none:
//!
//! * `service` — `SharedEngine::{rds,sds}` (pooled session, epoch check);
//! * `snapshot` — `EngineSnapshot::{rds,sds}_with` on a pinned snapshot
//!   and a bench-owned workspace;
//! * `knds` — `Knds::{rds,sds}_with` over [`TimedSource`], the timed
//!   wrapper around the snapshot's index view, whose spans are the
//!   `index` layer.
//!
//! All three must return identical results. A layer's own cost is a
//! difference: `knds.self` is the knds span minus its index spans;
//! `service.session` and `snapshot.entry` come from empty-query probes
//! that cross each boundary and return at once, because the difference
//! of two whole ~100 ms evaluations would drown a microsecond cost in
//! noise. The `dradix` layer is measured by replaying each returned
//! document through `Drc` directly, which is also the output check.

use crate::check::{check_live, check_result, same_distances, Tally};
use crate::oracle;
use crate::probe::{IndexWork, TimedSource};
use crate::report::{memory_mb, num, object, quote, Metrics};
use crate::stats::{best_per_query, mean, median, summarize};
use crate::workload::{self, mix, QueryKind, SetupTimes, Workload, Writes};
use crate::writer::{self, Stop, WriterLog};
use cbr_corpus::DocId;
use cbr_dradix::Drc;
use cbr_knds::{Knds, KndsWorkspace, QueryMetrics, QueryResult};
use cbr_ontology::ConceptId;
use concept_rank::{EngineError, EngineSnapshot, SharedEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Planned length of the measured phase (sets the list length).
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// What a run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Every operation attempted and failed.
    pub tally: Tally,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// The seed, the workload parameters and the sample counts.
    pub params: String,
}

/// One measured query, as the reader saw it.
struct Measured {
    query: usize,
    ms: f64,
    result: Result<QueryResult, String>,
    /// Outcome of the checks made right after the query (liveness at the
    /// query's start, identity across entry points).
    immediate: Result<(), String>,
}

/// Per-query layer timings of the traced run.
/// The four span timings are `(query, ms)` pairs, so that each query's
/// best over its passes can be taken.
#[derive(Default)]
struct Layers {
    service_ms: Vec<(usize, f64)>,
    snapshot_ms: Vec<(usize, f64)>,
    knds_ms: Vec<(usize, f64)>,
    knds_self_ms: Vec<(usize, f64)>,
    service_probe_us: Vec<f64>,
    snapshot_probe_us: Vec<f64>,
    index: Vec<IndexWork>,
    wrapped_io_ms: Vec<f64>,
    segments: Vec<f64>,
}

/// Runs the benchmark once.
pub fn run(s: Settings) -> Outcome {
    let w = s.workload;

    // --- Set-up, several times: all but the last in child processes.
    let mut setups: Vec<SetupTimes> = (1..w.setups).map(|_| workload::build_in_child(&w)).collect();
    let (shared, times) = workload::build(&w);
    setups.push(times);
    let rss_after_build = memory_mb("VmRSS");
    let phase = Instant::now();

    // --- Inputs: the workload's fixed list, in the seed's order in each
    // pass; the warm-up queries, the write stream and the oracle sample
    // from the seed.
    let pool = workload::concept_pool(&shared);
    let mut queries = workload::queries(&w, &shared, &pool, workload::QUERIES, workload::LIST_SEED);
    if s.trace {
        queries.truncate(workload::QUERIES.div_ceil(3));
    }
    let n = queries.len();
    let passes = w.passes(s.seconds);
    let warmup =
        workload::queries(&w, &shared, &pool, workload::WARMUP_QUERIES, mix(s.seed ^ 0x3A));
    for q in &warmup {
        let _ = service_query(&shared, w.kind, q, w.k);
    }

    // --- Measured phase: the reader, with the writer beside it if any.
    let start = Instant::now();
    let stop = Stop::new(start);
    let mut layers = Layers::default();
    let (measured, read_s, mut writes) = std::thread::scope(|scope| {
        let writer = match w.writes {
            Writes::Beside(plan) => {
                let (shared, pool, stop) = (&shared, &pool, &stop);
                Some(scope.spawn(move || {
                    writer::run(shared, plan, pool, mix(s.seed ^ 0x77), start, stop)
                }))
            }
            Writes::After(_) => None,
        };
        let measured = if s.trace {
            read_traced(&shared, &w, &queries, passes, s.seed, &mut layers)
        } else {
            read(&shared, &w, &queries, passes, s.seed)
        };
        stop.stop();
        let read_s = start.elapsed().as_secs_f64();
        let log = writer.map(|h| h.join().expect("writer thread panicked"));
        (measured, read_s, log)
    });

    eprintln!("[{}] read phase {read_s:.1}s ({n} queries × {passes} passes)", w.name);

    // --- Checks, outside the timed phase.
    let phase_checks = Instant::now();
    let mut tally = Tally::default();
    let snap = shared.snapshot();
    let mut probe_us = Vec::new();
    // Two checkers, this thread and one more, where the box has two
    // cores; the writer has stopped by now. Each takes every other query,
    // so a (query, document) pair that several passes return is
    // recomputed once.
    let check_part = |parity: usize| {
        let mut probe_us = Vec::new();
        let mut known = HashMap::new();
        let outcomes: Vec<_> = measured
            .iter()
            .filter(|m| m.query % 2 == parity)
            .map(|m| {
                m.immediate.clone().and(m.result.as_ref().map_err(Clone::clone).and_then(|r| {
                    let query = (m.query, queries[m.query].as_slice());
                    replay(&snap, &w, query, r, writes.as_ref(), &mut known, &mut probe_us)
                }))
            })
            .collect();
        (outcomes, probe_us)
    };
    let halves = if cores() >= 2 {
        std::thread::scope(|scope| {
            let other = scope.spawn(|| check_part(1));
            [check_part(0), other.join().expect("checker panicked")]
        })
    } else {
        [check_part(0), check_part(1)]
    };
    for (outcomes, probes) in halves {
        outcomes.into_iter().for_each(|o| tally.record(o));
        probe_us.extend(probes);
    }
    let replay_s = phase_checks.elapsed().as_secs_f64();
    let oracle_checked = check_oracle(&shared, &w, &queries, &measured, s.seed, &mut tally);
    eprintln!(
        "[{}] set-up {:.1}s, inputs+warm-up {:.1}s, replay {replay_s:.1}s, oracle {:.1}s",
        w.name,
        setups.iter().map(SetupTimes::total).sum::<f64>(),
        (start - phase).as_secs_f64(),
        phase_checks.elapsed().as_secs_f64() - replay_s
    );
    let peak_rss = memory_mb("VmHWM");

    // --- The writer alone, after the reads of a read-only workload: in the
    // traced run only, where it gives the `writer` layer its spans.
    if let (Writes::After(plan), true) = (w.writes, s.trace) {
        let t = Instant::now();
        writes = Some(writer::run(&shared, plan, &pool, mix(s.seed ^ 0x77), t, &Stop::new(t)));
    }
    if let Some(log) = &writes {
        tally.merge(log.tally.clone());
    }
    for why in &tally.reasons {
        eprintln!("check failed: {why}");
    }

    let best = best_per_query(n, measured.iter().map(|m| (m.query, m.ms)));
    let metrics = if s.trace {
        let writes = writes.as_ref().expect("the traced run runs the writer");
        layer_metrics(&w, &setups, rss_after_build, &measured, &layers, &probe_us, writes, &shared)
    } else {
        end_to_end(&setups, &best, peak_rss, &tally)
    };
    let sample = Sample { queries: n, passes, read_s, best: &best, oracle: oracle_checked };
    let params = params_line(&s, &sample, &setups, writes.as_ref());
    Outcome { tally, metrics, params }
}

/// Cores available to this process.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn service_query(
    shared: &SharedEngine,
    kind: QueryKind,
    q: &[ConceptId],
    k: usize,
) -> Result<QueryResult, EngineError> {
    match kind {
        QueryKind::Rds => shared.rds(q, k),
        QueryKind::Sds => shared.sds(q, k),
    }
}

fn snapshot_query(
    snap: &EngineSnapshot,
    ws: &mut KndsWorkspace,
    kind: QueryKind,
    q: &[ConceptId],
    k: usize,
) -> Result<QueryResult, EngineError> {
    match kind {
        QueryKind::Rds => snap.rds_with(ws, q, k),
        QueryKind::Sds => snap.sds_with(ws, q, k),
    }
}

/// Whether any result was already deleted in `pre`, the epoch current
/// just before the query started.
fn live_at_start(pre: &EngineSnapshot, r: &QueryResult) -> Result<(), String> {
    check_live(&r.results, |d| d.index() < pre.num_docs() && !pre.is_live(d))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The untraced reader: one timed `SharedEngine` call per query and pass.
fn read(
    shared: &SharedEngine,
    w: &Workload,
    queries: &[Vec<ConceptId>],
    passes: usize,
    seed: u64,
) -> Vec<Measured> {
    let mut out = Vec::with_capacity(queries.len() * passes);
    for i in (0..passes).flat_map(|p| workload::pass_order(queries.len(), seed, p)) {
        let q = &queries[i];
        let pre = shared.snapshot();
        let t = Instant::now();
        let result = service_query(shared, w.kind, q, w.k);
        let ms = ms_since(t);
        let immediate = result.as_ref().map_or(Ok(()), |r| live_at_start(&pre, r));
        out.push(Measured { query: i, ms, result: result.map_err(|e| e.to_string()), immediate });
    }
    out
}

/// The traced reader: every query through service, snapshot and knds.
fn read_traced(
    shared: &SharedEngine,
    w: &Workload,
    queries: &[Vec<ConceptId>],
    passes: usize,
    seed: u64,
    layers: &mut Layers,
) -> Vec<Measured> {
    let mut ws = KndsWorkspace::new();
    let mut out = Vec::with_capacity(queries.len() * passes);
    for (e, i) in (0..passes).flat_map(|p| workload::pass_order(queries.len(), seed, p)).enumerate()
    {
        let q = &queries[i];
        let snap = shared.snapshot();

        // Boundary probes: an empty query crosses the layer's entry and
        // returns `EmptyQuery` before any search work.
        let t = Instant::now();
        let probe = service_query(shared, w.kind, &[], w.k);
        layers.service_probe_us.push(ms_since(t) * 1e3);
        let t = Instant::now();
        let probe_snap = snapshot_query(&snap, &mut ws, w.kind, &[], w.k);
        layers.snapshot_probe_us.push(ms_since(t) * 1e3);
        let probes_ok = matches!(
            (&probe, &probe_snap),
            (Err(EngineError::EmptyQuery), Err(EngineError::EmptyQuery))
        );

        let (concepts, docs) = snap.workspace_hint();
        ws.reserve(concepts, docs);
        let timed = TimedSource::new(snap.source());
        let knds = Knds::new(snap.ontology(), &timed, snap.config().clone());
        let mut service = None;
        let mut same_epoch = false;
        let mut pinned = None;
        let mut direct = None;
        for step in 0..3 {
            match (e + step) % 3 {
                0 => {
                    let t = Instant::now();
                    let r = service_query(shared, w.kind, q, w.k);
                    layers.service_ms.push((i, ms_since(t)));
                    same_epoch = Arc::ptr_eq(&shared.snapshot(), &snap);
                    service = Some(r);
                }
                1 => {
                    let t = Instant::now();
                    let r = snapshot_query(&snap, &mut ws, w.kind, q, w.k);
                    layers.snapshot_ms.push((i, ms_since(t)));
                    pinned = Some(r);
                }
                _ => {
                    let before = timed.work();
                    let t = Instant::now();
                    let r = match w.kind {
                        QueryKind::Rds => knds.rds_with(&mut ws, q, w.k),
                        QueryKind::Sds => knds.sds_with(&mut ws, q, w.k),
                    };
                    let ms = ms_since(t);
                    let work = timed.work();
                    let index_ms = (work.self_ns - before.self_ns) as f64 / 1e6;
                    layers.knds_ms.push((i, ms));
                    layers.knds_self_ms.push((i, ms - index_ms));
                    layers.index.push(work);
                    layers.wrapped_io_ms.push(r.metrics.io.as_secs_f64() * 1e3);
                    direct = Some(r);
                }
            }
        }
        layers.segments.push(snap.source().num_segments() as f64);

        let service = service.expect("service step ran");
        let pinned = pinned.expect("snapshot step ran");
        let direct = direct.expect("knds step ran");
        let immediate = match (&service, &pinned) {
            _ if !probes_ok => Err("an empty query was not refused as EmptyQuery".to_string()),
            (Ok(sv), Ok(pn)) => {
                if pn.results != direct.results {
                    Err("snapshot and knds entry points disagree".to_string())
                } else if same_epoch && sv.results != pn.results {
                    Err("service and snapshot entry points disagree".to_string())
                } else {
                    live_at_start(&snap, sv)
                }
            }
            (_, Err(e)) => Err(format!("snapshot: {e}")),
            (Err(_), _) => Ok(()),
        };
        let ms = layers.service_ms.last().expect("service timed").1;
        let result = service.map_err(|e| e.to_string());
        out.push(Measured { query: i, ms, result, immediate });
    }
    out
}

/// The `dradix` replay and output check of one result: each returned
/// document's distance recomputed by a direct `Drc` call, once per
/// (query index, document) pair in `known`. A document's concepts never
/// change, so neither does that distance.
fn replay(
    snap: &EngineSnapshot,
    w: &Workload,
    (index, query): (usize, &[ConceptId]),
    r: &QueryResult,
    writes: Option<&WriterLog>,
    known: &mut HashMap<(usize, DocId), f64>,
    probe_us: &mut Vec<f64>,
) -> Result<(), String> {
    let mut drc = Drc::new(snap.ontology());
    let mut bulk = Vec::new();
    check_result(&r.results, w.k, |d: DocId| {
        if let Some(&dist) = known.get(&(index, d)) {
            return dist;
        }
        let concepts = match writes.and_then(|log| log.concepts(d)) {
            Some(c) => c,
            None => {
                bulk = snap.document_concepts(d).unwrap_or_default();
                &bulk
            }
        };
        let t = Instant::now();
        let dist = match w.kind {
            QueryKind::Rds => match drc.document_query_distance(concepts, query) {
                cbr_dradix::INFINITE => f64::INFINITY,
                x => x as f64,
            },
            QueryKind::Sds => drc.document_document_distance(concepts, query),
        };
        probe_us.push(ms_since(t) * 1e3);
        known.insert((index, d), dist);
        dist
    })
}

/// Re-runs a seeded sample of queries on the quiescent engine and
/// compares their top-k distance vectors with the exhaustive oracle. A
/// mismatch fails the sampled query. Returns how many were checked.
fn check_oracle(
    shared: &SharedEngine,
    w: &Workload,
    queries: &[Vec<ConceptId>],
    measured: &[Measured],
    seed: u64,
    tally: &mut Tally,
) -> usize {
    let snap = shared.snapshot();
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x0C));
    let mut sample: Vec<usize> = Vec::new();
    while sample.len() < workload::ORACLE_SAMPLES.min(measured.len()) {
        let i = rng.random_range(0..measured.len());
        if !sample.contains(&i) {
            sample.push(i);
        }
    }
    for &i in &sample {
        let q = &queries[measured[i].query];
        let oracle = match w.kind {
            QueryKind::Rds => oracle::rds_topk_distances(&snap, q, w.k),
            QueryKind::Sds => oracle::sds_topk_distances(&snap, q, w.k),
        };
        let outcome = match service_query(shared, w.kind, q, w.k) {
            Ok(rerun) => same_distances(&rerun.results, &oracle).and_then(|()| {
                // Read-only: the engine has not changed since the timed
                // query, so the re-run must repeat it exactly.
                match (&w.writes, &measured[i].result) {
                    (Writes::After(_), Ok(timed)) if timed.results != rerun.results => {
                        Err("a re-run differs from the timed run".to_string())
                    }
                    _ => Ok(()),
                }
            }),
            Err(e) => Err(format!("oracle re-run: {e}")),
        };
        if let Err(why) = outcome {
            tally.fail(format!("query {i}: {why}"));
        }
    }
    sample.len()
}

fn setup_median(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics over the per-query best times `best` (ms).
fn end_to_end(setups: &[SetupTimes], best: &[f64], peak_rss: f64, tally: &Tally) -> Metrics {
    let q = summarize(best, workload::TAIL_PER_MILLE)
        .expect("the query list leaves 10 samples beyond the p80");
    let mut m = Metrics::default();
    m.put("setup_s", setup_median(setups, SetupTimes::total), "s");
    m.put("query_p50_ms", q.p50, "ms");
    m.put("query_p80_ms", q.tail, "ms");
    // One closed-loop client replaying the list at its best times.
    m.put("query_qps", 1e3 * best.len() as f64 / best.iter().sum::<f64>(), "1/s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("success_ratio", 1.0 - tally.failed_ratio(), "ratio");
    m
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    setups: &[SetupTimes],
    rss_after_build: f64,
    measured: &[Measured],
    layers: &Layers,
    probe_us: &[f64],
    writes: &WriterLog,
    shared: &SharedEngine,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("ontology.generate_s", setup_median(setups, |t| t.ontology_s), "s");
    m.put("ontology.path_table_s", setup_median(setups, |t| t.path_table_s), "s");
    m.put("corpus.generate_s", setup_median(setups, |t| t.corpus_s), "s");
    m.put("core.build_s", setup_median(setups, |t| t.build_s), "s");
    m.put("core.rss_after_build_mb", rss_after_build, "MB");

    let n = measured.iter().map(|x| x.query + 1).max().unwrap_or(0);
    let best_p50 = |spans: &[(usize, f64)]| median(&best_per_query(n, spans.iter().copied()));
    let (service_p50, snapshot_p50, knds_p50) =
        (best_p50(&layers.service_ms), best_p50(&layers.snapshot_ms), best_p50(&layers.knds_ms));
    let (service_probe, snapshot_probe) =
        (median(&layers.service_probe_us), median(&layers.snapshot_probe_us));
    m.put("service.query_p50_ms", service_p50, "ms");
    m.put("service.session_us", service_probe - snapshot_probe, "us");
    m.count("service.pool_depth", shared.pooled_workspaces() as f64);
    m.put("snapshot.query_p50_ms", snapshot_p50, "ms");
    m.put("snapshot.entry_us", snapshot_probe, "us");
    m.put("knds.query_p50_ms", knds_p50, "ms");
    m.put("knds.self_p50_ms", best_p50(&layers.knds_self_ms), "ms");

    let qm: Vec<&QueryMetrics> =
        measured.iter().filter_map(|x| x.result.as_ref().ok()).map(|r| &r.metrics).collect();
    let per_query =
        |f: &dyn Fn(&QueryMetrics) -> f64| mean(&qm.iter().map(|x| f(x)).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&QueryMetrics) -> f64| qm.iter().map(|x| f(x)).sum::<f64>();
    m.count("knds.candidates_seen", per_query(&|x| x.candidates_seen as f64));
    m.count("knds.docs_examined", per_query(&|x| x.docs_examined as f64));
    m.count("knds.drc_calls", per_query(&|x| x.drc_calls as f64));
    m.count("knds.exact_from_partial", per_query(&|x| x.exact_from_partial as f64));
    m.count("knds.nodes_visited", per_query(&|x| x.nodes_visited as f64));
    m.count("knds.levels", per_query(&|x| f64::from(x.levels)));
    m.count("knds.forced_rounds", per_query(&|x| x.forced_rounds as f64));
    m.count("knds.dense_hits", per_query(&|x| x.dense_hits as f64));
    let admitted = total(&|x| x.candidates_seen as f64);
    m.put("knds.examine_ratio", total(&|x| x.docs_examined as f64) / admitted.max(1.0), "ratio");
    m.put("knds.topk_precision", per_query(&|x| x.examination_precision(w.k)), "ratio");
    let max =
        |f: &dyn Fn(&QueryMetrics) -> usize| qm.iter().map(|x| f(x)).max().unwrap_or(0) as f64;
    m.put("knds.workspace_bytes", max(&|x| x.workspace_bytes), "bytes");
    m.put("knds.table_bytes", max(&|x| x.table_bytes), "bytes");
    m.put("knds.traversal_ms", per_query(&|x| x.traversal.as_secs_f64() * 1e3), "ms");
    m.put("knds.distance_ms", per_query(&|x| x.distance_calc.as_secs_f64() * 1e3), "ms");
    let io_ms = per_query(&|x| x.io.as_secs_f64() * 1e3);
    m.put("knds.io_ms", io_ms, "ms");

    let index = |f: &dyn Fn(&IndexWork) -> u64| {
        mean(&layers.index.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
    };
    m.count("index.postings_calls", index(&|x| x.postings_calls));
    m.count("index.postings_docs", index(&|x| x.postings_docs));
    m.count("index.forward_calls", index(&|x| x.forward_calls));
    m.count("index.forward_concepts", index(&|x| x.forward_concepts));
    m.count("index.len_calls", index(&|x| x.len_calls));
    m.count("index.live_calls", index(&|x| x.live_calls));
    let index_self_ms = index(&|x| x.self_ns) / 1e6;
    m.put("index.self_ms", index_self_ms, "ms");
    m.count("index.segments", mean(&layers.segments));

    m.put("dradix.probe_us", median(probe_us), "us");
    m.count("dradix.probes", probe_us.len() as f64);

    let due = summarize(&writes.schedule.latency_ms, 990)
        .expect("the writer makes at least 1,000 appends");
    let due_p95 = summarize(&writes.schedule.latency_ms, 950).map_or(0.0, |s| s.tail);
    m.put("writer.append_due_p50_ms", due.p50, "ms");
    m.put("writer.append_due_p95_ms", due_p95, "ms");
    m.put("writer.append_due_p99_ms", due.tail, "ms");
    m.put("writer.append_us", median(&writes.append_us), "us");
    let append = summarize(&writes.append_us, 990).map_or(0.0, |s| s.tail);
    m.put("writer.append_p99_us", append, "us");
    m.put("writer.delete_us", median(&writes.delete_us), "us");
    m.put("writer.compact_ms", median(&writes.compact_ms), "ms");
    m.count("writer.appends", writes.append_us.len() as f64);
    m.count("writer.deletes", writes.delete_us.len() as f64);
    m.count("writer.compactions", writes.compact_ms.len() as f64);
    m.put("writer.lag_ms", mean(&writes.schedule.lag_ms), "ms");
    m.put("writer.appends_per_s", writes.appends_per_s(), "1/s");

    // Tracing honesty: the only instrumentation inside a query is the
    // index wrapper, so its overhead is the knds span over the same call
    // made uninstrumented through the snapshot, on the same epoch.
    m.put("trace.overhead_pct", 100.0 * (knds_p50 - snapshot_p50) / snapshot_p50, "%");
    let wrapped_io = mean(&layers.wrapped_io_ms);
    m.put("trace.io_ratio", index_self_ms / wrapped_io.max(1e-9), "ratio");
    m.count("trace.queries", measured.len() as f64);
    m
}

/// What a run measured, for the parameter line.
struct Sample<'a> {
    /// Distinct queries.
    queries: usize,
    /// Passes over them.
    passes: usize,
    /// Wall time of the measured phase (s).
    read_s: f64,
    /// Per-query best times (ms).
    best: &'a [f64],
    /// Queries compared with the exhaustive oracle.
    oracle: usize,
}

fn params_line(
    s: &Settings,
    sample: &Sample,
    setups: &[SetupTimes],
    writes: Option<&WriterLog>,
) -> String {
    let w = &s.workload;
    let (writer, plan) = match w.writes {
        Writes::Beside(p) => ("beside", p),
        Writes::After(p) => ("after", p),
    };
    let workload = object(&[
        ("kind", quote(&format!("{:?}", w.kind))),
        ("docs", num(w.docs as f64)),
        ("ontology_concepts", num(w.ontology_concepts as f64)),
        ("k", num(w.k as f64)),
        ("nq", num(w.nq as f64)),
        ("eps", num(w.eps)),
        ("readers", num(1.0)),
        ("cores", num(cores() as f64)),
        ("writer", quote(writer)),
        ("writer_rate", num(plan.rate as f64)),
        ("writer_delete_every", num(plan.delete_every as f64)),
        ("writer_compact_every", num(plan.compact_every as f64)),
        ("writer_appends", plan.appends.map_or("null".into(), |a| num(a as f64))),
    ]);
    // The untraced p50 over the queries the traced run replays, for the
    // traced-minus-untraced overhead `repeat.py --traced` reports.
    let traced_part = &sample.best[..workload::QUERIES.div_ceil(3).min(sample.best.len())];
    let samples = object(&[
        ("queries", num(sample.queries as f64)),
        ("passes", num(sample.passes as f64)),
        ("evaluations", num((sample.queries * sample.passes) as f64)),
        ("read_s", num(sample.read_s)),
        ("first_third_p50_ms", num(median(traced_part))),
        ("warmup_queries", num(workload::WARMUP_QUERIES as f64)),
        ("setups", num(setups.len() as f64)),
        ("oracle_queries", num(sample.oracle as f64)),
        ("appends", num(writes.map_or(0, |log| log.appended.len()) as f64)),
        ("compactions", num(writes.map_or(0, |log| log.compact_ms.len()) as f64)),
        ("appends_per_s", writes.map_or("null".into(), |log| num(log.appends_per_s()))),
    ]);
    object(&[
        ("workload", quote(w.name)),
        ("seed", s.seed.to_string()),
        ("seconds", num(s.seconds as f64)),
        ("trace", s.trace.to_string()),
        ("params", workload),
        ("samples", samples),
    ])
}
