//! The traced mode: replays round 0 of a workload's op stream
//! in-process on one thread, calling each layer's public entry point in
//! the engine's order inside the benchmark's own spans, and derives the
//! per-layer metrics from the spans, the layers' return values and the
//! drive's responses.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mastro::rewrite::subsume::prune_cap;
use mastro::rewrite::unfold::{unfold_cq, ComboQuery, OutBinding};
use mastro::{
    demo, evaluate_cq_indexed, evaluate_ucq_indexed, ndl_compile, parse_cq, parse_sparql,
    perfect_ref_with_index, prune_ucq, AboxIndex, AnswerTerm, Answers, ConjunctiveQuery,
    ObdaSystem, QueryEngine, Ucq,
};
use obda_dllite::{Abox, Value};
use obda_mapping::materialize;
use obda_server::proto::answers_to_json;
use obda_server::Lang;
use obda_sqlstore::{execute_counted, plan_query, ExecStats, SelectQuery, SqlValue};
use quonto::{compute_unsat, recommended, Classification, TboxGraph};

use crate::drive::{self, RunResult};
use crate::ops::{self, Op, Workload};
use crate::spans::Recorder;
use crate::stats;

/// Where reads are evaluated. One per replay, so variant sizes don't
/// matter.
#[allow(clippy::large_enum_variant)]
enum Store {
    /// PerfectRef over the materialized ABox and its index.
    Materialized {
        sys: ObdaSystem,
        abox: Abox,
        index: AboxIndex,
    },
    /// PerfectRef unfolded into SQL over the sources.
    Virtual { sys: ObdaSystem },
    /// NDL over the engine's ABox, its index and its view memo.
    Ndl {
        engine: Box<dyn QueryEngine>,
        cls: Classification,
    },
    /// The Figure-1 analogs.
    Presets { tboxes: Vec<obda_dllite::Tbox> },
}

impl Store {
    fn engine(&self) -> Option<&dyn QueryEngine> {
        match self {
            Store::Materialized { sys, .. } | Store::Virtual { sys } => Some(sys),
            Store::Ndl { engine, .. } => Some(engine.as_ref()),
            Store::Presets { .. } => None,
        }
    }
}

enum Rewriting {
    /// The pruned UCQ and, over materialized data, the tuples its
    /// disjuncts yield before the union (counted once, untimed: the
    /// data never changes under a PerfectRef store).
    Ucq(Ucq, u64),
    Ndl,
}

/// Work counted from the layers' return values.
#[derive(Debug, Default)]
struct Counts {
    reads: u64,
    writes: u64,
    classifies: u64,
    raw_disjuncts: u64,
    kept_disjuncts: u64,
    sql_branches: u64,
    rows_scanned: u64,
    rows_out: u64,
    tuples: u64,
    distinct: u64,
    ndl_rules: u64,
    memo_hits: u64,
    memo_misses: u64,
    statements: u64,
    changed: u64,
    fallbacks: u64,
    nodes: u64,
    closure_pairs: u64,
    facts: u64,
    /// In-process `QueryEngine::answer` / `Classification::classify`
    /// time over the same ops, in µs.
    engine_us: f64,
    mismatches: Vec<String>,
}

/// One replay pass over a fresh store.
struct Pass {
    rec: Recorder,
    counts: Counts,
    hit_ratio: f64,
    overhead_frac: f64,
}

fn set_up(w: Workload, rec: &mut Recorder, counts: &mut Counts) -> Result<Store, String> {
    let err = |e: mastro::ObdaError| e.to_string();
    if w == Workload::Fig1Classify {
        return Ok(Store::Presets {
            tboxes: drive::preset_tboxes(),
        });
    }
    let scenario = w.scenario();
    let db = demo::load_database(&scenario).map_err(err)?;
    let mappings = demo::build_mappings(&scenario);
    let cfg = w.engine_config();
    Ok(match w {
        Workload::UniLookupVirtual => Store::Virtual {
            sys: cfg.build_obda(scenario.tbox, mappings, db).map_err(err)?,
        },
        _ => {
            let abox = rec
                .time("materialize", |_| materialize(&mappings, &db))
                .map_err(|e| e.to_string())?;
            let index = rec.time("index.build", |_| AboxIndex::build(&abox));
            counts.facts = abox.len() as u64;
            if w == Workload::UniChurn {
                let cls = Classification::classify(&scenario.tbox);
                Store::Ndl {
                    engine: cfg.build_abox_engine(scenario.tbox, abox),
                    cls,
                }
            } else {
                let sys = cfg.build_obda(scenario.tbox, mappings, db).map_err(err)?;
                sys.materialized_abox().map_err(err)?;
                Store::Materialized { sys, abox, index }
            }
        }
    })
}

/// Rebuilds answer tuples from one SQL result, as the unfolder does.
fn collect_rows(rows: Vec<obda_sqlstore::Row>, combo: &ComboQuery, answers: &mut Answers) {
    'rows: for row in rows {
        let mut tuple = Vec::with_capacity(combo.out.len());
        for ob in &combo.out {
            match ob {
                OutBinding::Iri { prefix, position } => match &row[*position] {
                    SqlValue::Null => continue 'rows,
                    v => tuple.push(AnswerTerm::Iri(format!("{prefix}{v}"))),
                },
                OutBinding::Val { position } => match &row[*position] {
                    SqlValue::Null => continue 'rows,
                    SqlValue::Int(i) => tuple.push(AnswerTerm::Value(Value::Int(*i))),
                    SqlValue::Text(s) => tuple.push(AnswerTerm::Value(Value::Text(s.clone()))),
                },
            }
        }
        answers.insert(tuple);
    }
}

/// The layered read path: parse, rewrite on a cache miss, evaluate,
/// encode.
fn read(
    store: &Store,
    cache: &mut HashMap<ConjunctiveQuery, Arc<Rewriting>>,
    lang: Lang,
    text: &str,
    rec: &mut Recorder,
    c: &mut Counts,
) -> Result<Answers, String> {
    let engine = store.engine().expect("reads go to a university store");
    let sig = engine.signature();
    let q = rec
        .time("parse", |_| match lang {
            Lang::Cq => parse_cq(text, sig),
            Lang::Sparql => parse_sparql(text, sig).map(|s| s.cq),
        })
        .map_err(|e| e.message)?;
    let key = q.canonical();
    let rw = match cache.get(&key) {
        Some(rw) => Arc::clone(rw),
        None => {
            let rw = match store {
                Store::Ndl { cls, .. } => {
                    let prog = rec.time("ndl.compile", |_| ndl_compile(&q, cls));
                    c.ndl_rules += prog.num_rules as u64;
                    Rewriting::Ndl
                }
                Store::Materialized { sys, .. } | Store::Virtual { sys } => {
                    let raw = rec.time("perfectref", |rec| {
                        let ix = rec.time("perfectref.pi_index", |_| sys.tbox.pi_index());
                        perfect_ref_with_index(&q, &ix)
                    });
                    let kept = rec.time("subsume", |_| {
                        if raw.len() > prune_cap() {
                            raw.clone()
                        } else {
                            prune_ucq(&raw)
                        }
                    });
                    c.raw_disjuncts += raw.len() as u64;
                    c.kept_disjuncts += kept.len() as u64;
                    let tuples = match store {
                        Store::Materialized { abox, index, .. } => kept
                            .disjuncts
                            .iter()
                            .map(|d| evaluate_cq_indexed(d, abox, index).len() as u64)
                            .sum(),
                        _ => 0,
                    };
                    Rewriting::Ucq(kept, tuples)
                }
                Store::Presets { .. } => unreachable!("no reads on presets"),
            };
            let rw = Arc::new(rw);
            cache.insert(key, Arc::clone(&rw));
            rw
        }
    };
    let answers = match (store, &*rw) {
        (Store::Materialized { abox, index, .. }, Rewriting::Ucq(ucq, tuples)) => {
            let answers = rec.time("answer", |_| evaluate_ucq_indexed(ucq, abox, index));
            c.tuples += tuples;
            c.distinct += answers.len() as u64;
            answers
        }
        (Store::Virtual { sys }, Rewriting::Ucq(ucq, _)) => {
            let combos = rec.time("unfold", |_| {
                let mut all = Vec::new();
                for d in &ucq.disjuncts {
                    all.extend(unfold_cq(d, &sys.mappings, &sys.db)?);
                }
                Ok::<_, obda_sqlstore::SqlError>(all)
            });
            let combos = combos.map_err(|e| e.to_string())?;
            c.sql_branches += combos.len() as u64;
            rec.time("sqlstore", |_| {
                let mut answers = Answers::new();
                let mut st = ExecStats::default();
                for combo in &combos {
                    let q = SelectQuery {
                        first: combo.core.clone(),
                        rest: Vec::new(),
                        order_by: Vec::new(),
                        limit: None,
                    };
                    let planned = plan_query(&sys.db, &q).map_err(|e| e.to_string())?;
                    let rs =
                        execute_counted(&sys.db, &planned, &mut st).map_err(|e| e.to_string())?;
                    c.rows_out += rs.rows.len() as u64;
                    collect_rows(rs.rows, combo, &mut answers);
                }
                c.rows_scanned += st.rows_scanned;
                Ok::<_, String>(answers)
            })?
        }
        (Store::Ndl { engine, .. }, Rewriting::Ndl) => {
            // The view memo lives in the engine, where the write path
            // patches it; the hit flags come back on the query's trace.
            let ctx = obda_obs::TraceCtx::new();
            let answers = rec
                .time("ndl.eval", |_| engine.answer_cq_traced(&q, &ctx))
                .map_err(|e| e.to_string())?;
            if let Some(trace) = ctx.finish("ok", answers.len() as u64) {
                c.memo_hits += trace.counter("view_memo_hit");
                c.memo_misses += trace.counter("view_memo_miss");
            }
            answers
        }
        _ => unreachable!("store and rewriting kinds match"),
    };
    rec.time("encode", |_| {
        std::hint::black_box(answers_to_json(&answers).to_string())
    });
    Ok(answers)
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let out = f()?;
    Ok((out, t.elapsed().as_nanos() as f64 / 1e3))
}

/// Replays round 0: the warm pass untraced, then the connections' ops
/// interleaved as the server sees them. Even ops record spans and count
/// work; odd ops run with spans off, so the two halves share one store
/// and one stretch of time, and their per-class layered times give the
/// tracing overhead. The in-process engine answers every op too, before
/// or after the layered path in alternation.
fn replay_pass(w: Workload, seed: u64, seconds: u64) -> Result<Pass, String> {
    let mut rec = Recorder::new(true);
    let mut c = Counts::default();
    rec.set_op(usize::MAX);
    let store = set_up(w, &mut rec, &mut c)?;
    let plan = ops::round_plan(w, seed, seconds, 0);
    let mut cache = HashMap::new();
    let mut scratch = Counts::default();
    let mut mismatches = Vec::new();

    rec.set_on(false);
    for op in &plan.warm {
        if let Op::Read { lang, text, .. } = op {
            read(&store, &mut cache, *lang, text, &mut rec, &mut scratch)?;
            if let Some(e) = store.engine() {
                e.answer(lang.to_engine(), text)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    if let Some(e) = store.engine() {
        e.reset_stats();
    }

    let longest = plan.conns.iter().map(Vec::len).max().unwrap_or(0);
    let ops: Vec<&Op> = (0..longest)
        .flat_map(|i| plan.conns.iter().filter_map(move |conn| conn.get(i)))
        .collect();
    // Layered wall time per (class, spans on): (total µs, ops).
    let mut layered: HashMap<(usize, bool), (f64, u64)> = HashMap::new();
    for (i, op) in ops.into_iter().enumerate() {
        // Alternate whole passes over the presets, so every preset runs
        // with spans on and off once per two passes.
        let on = match w {
            Workload::Fig1Classify => (i / ops::class_names(w).len()).is_multiple_of(2),
            _ => i.is_multiple_of(2),
        };
        let engine_first = (i / 2) % 2 == 1;
        rec.set_on(on);
        rec.set_op(i);
        let k: &mut Counts = if on { &mut c } else { &mut scratch };
        let (class, layered_us) = match op {
            Op::Read { class, lang, text } => {
                let engine = store.engine().expect("reads go to a university store");
                let ask = || {
                    engine
                        .answer(lang.to_engine(), text)
                        .map_err(|e| e.to_string())
                };
                let before = if engine_first {
                    Some(timed(ask)?)
                } else {
                    None
                };
                let (got, us) = timed(|| read(&store, &mut cache, *lang, text, &mut rec, k))?;
                let (want, engine_us) = match before {
                    Some(b) => b,
                    None => timed(ask)?,
                };
                k.reads += 1;
                k.engine_us += engine_us;
                if got != want {
                    mismatches.push(format!("replayed answer to {text} differs"));
                }
                (*class, us)
            }
            Op::Write { batch } => {
                let engine = store.engine().expect("writes go to a university store");
                let delta = drive::delta_of(batch);
                let (sum, us) = timed(|| {
                    rec.time("delta.apply", |_| engine.apply_delta(&delta))
                        .map_err(|e| e.to_string())
                })?;
                k.writes += 1;
                k.statements += batch.len() as u64;
                k.changed += (sum.inserted + sum.deleted) as u64;
                k.fallbacks += sum.fallbacks;
                (usize::MAX, us)
            }
            Op::Classify { class } => {
                let Store::Presets { tboxes } = &store else {
                    unreachable!("classifications run on presets")
                };
                let tbox = &tboxes[*class];
                let whole = || {
                    let c = Classification::classify(tbox);
                    Ok((c.closure().num_arcs(), c.unsat().len()))
                };
                let before = if engine_first {
                    Some(timed(whole)?)
                } else {
                    None
                };
                let (got, us) = timed(|| {
                    let g = rec.time("quonto.graph", |_| TboxGraph::build(tbox));
                    let closure = rec.time("quonto.closure", |_| {
                        let auto = recommended();
                        let chosen = auto.select_for(&g);
                        chosen.as_deref().unwrap_or(auto.as_ref()).compute(&g)
                    });
                    let unsat = rec.time("quonto.unsat", |_| compute_unsat(&g));
                    k.nodes += g.num_nodes() as u64;
                    k.closure_pairs += closure.num_arcs() as u64;
                    Ok((closure.num_arcs(), unsat.len()))
                })?;
                let (want, engine_us) = match before {
                    Some(b) => b,
                    None => timed(whole)?,
                };
                k.classifies += 1;
                k.engine_us += engine_us;
                if got != want {
                    mismatches.push(format!("layered classification of preset {class} differs"));
                }
                (*class, us)
            }
        };
        let e = layered.entry((class, on)).or_default();
        e.0 += layered_us;
        e.1 += 1;
    }
    // Σ_k n_k · mean_k over the classes both halves ran.
    let (mut with, mut without) = (0.0, 0.0);
    for (&(class, on), &(us, n)) in &layered {
        if !on {
            continue;
        }
        if let Some(&(off_us, off_n)) = layered.get(&(class, false)) {
            let weight = (n + off_n) as f64;
            with += weight * us / n as f64;
            without += weight * off_us / off_n as f64;
        }
    }
    c.mismatches = mismatches;
    let hit_ratio = store
        .engine()
        .map_or(0.0, |e| e.stats().rewrite_cache.hit_rate());
    Ok(Pass {
        rec,
        counts: c,
        hit_ratio,
        overhead_frac: with / without.max(f64::MIN_POSITIVE) - 1.0,
    })
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The traced replay's outcome.
pub struct Replay {
    pub metrics: Vec<Metric>,
    pub spans_tsv: String,
    pub mismatches: Vec<String>,
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Layers whose self time a read or classification is made of; the
/// engine's own latency minus their sum is the residual.
const READ_LAYERS: [&str; 9] = [
    "parse",
    "perfectref",
    "perfectref.pi_index",
    "subsume",
    "unfold",
    "sqlstore",
    "answer",
    "ndl.compile",
    "ndl.eval",
];
const CLASSIFY_LAYERS: [&str; 3] = ["quonto.graph", "quonto.closure", "quonto.unsat"];

/// Replays the workload and computes every per-layer metric.
pub fn run(w: Workload, seed: u64, seconds: u64, drive: &RunResult) -> Result<Replay, String> {
    let pass = replay_pass(w, seed, seconds)?;
    let own = pass.rec.self_us();
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = &pass.counts;
    let (reads, writes) = (c.reads, c.writes);

    // Classifications run in process: no server numbers.
    let server_reads: Vec<&drive::Sample> = match w {
        Workload::Fig1Classify => Vec::new(),
        _ => drive.samples.iter().filter(|s| !s.write).collect(),
    };
    let n = server_reads.len() as u64;
    let mean = |f: &dyn Fn(&drive::Sample) -> f64| per(server_reads.iter().map(|s| f(s)).sum(), n);
    let mut write_lat: Vec<f64> = drive
        .samples
        .iter()
        .filter(|s| s.write)
        .map(|s| s.latency_us)
        .collect();
    write_lat.sort_by(f64::total_cmp);
    let write_exec = per(
        drive
            .samples
            .iter()
            .filter(|s| s.write)
            .map(|s| s.exec_us as f64)
            .sum(),
        write_lat.len() as u64,
    );
    let apply_us = per(t("delta.apply"), writes);

    let (engine_ops, layers): (u64, &[&str]) = if w == Workload::Fig1Classify {
        (c.classifies, &CLASSIFY_LAYERS)
    } else {
        (reads, &READ_LAYERS)
    };
    let layer_sum: f64 = layers.iter().map(|l| t(l)).sum();

    let metrics: Vec<Metric> = vec![
        ("server.wait_us", mean(&|s| s.wait_us as f64), "us"),
        ("server.exec_us", mean(&|s| s.exec_us as f64), "us"),
        (
            "server.io_us",
            mean(&|s| s.latency_us - s.wait_us as f64 - s.exec_us as f64),
            "us",
        ),
        ("server.encode_us", per(t("encode"), reads), "us"),
        ("parse.us", per(t("parse"), reads), "us"),
        ("rewrite_cache.hit_ratio", pass.hit_ratio, "ratio"),
        ("perfectref.us", per(t("perfectref"), reads), "us"),
        (
            "perfectref.pi_index_us",
            per(t("perfectref.pi_index"), reads),
            "us",
        ),
        (
            "perfectref.disjuncts",
            per(c.raw_disjuncts as f64, reads),
            "count",
        ),
        ("subsume.us", per(t("subsume"), reads), "us"),
        (
            "subsume.kept_ratio",
            ratio(c.kept_disjuncts, c.raw_disjuncts),
            "ratio",
        ),
        ("unfold.us", per(t("unfold"), reads), "us"),
        (
            "unfold.sql_branches",
            per(c.sql_branches as f64, reads),
            "count",
        ),
        ("sqlstore.us", per(t("sqlstore"), reads), "us"),
        (
            "sqlstore.rows_scanned",
            per(c.rows_scanned as f64, reads),
            "count",
        ),
        (
            "sqlstore.out_ratio",
            ratio(c.rows_out, c.rows_scanned),
            "ratio",
        ),
        ("answer.eval_us", per(t("answer"), reads), "us"),
        ("answer.tuples", per(c.tuples as f64, reads), "count"),
        (
            "answer.distinct_ratio",
            ratio(c.distinct, c.tuples),
            "ratio",
        ),
        ("ndl.compile_us", per(t("ndl.compile"), reads), "us"),
        ("ndl.rules", per(c.ndl_rules as f64, reads), "count"),
        ("ndl.eval_us", per(t("ndl.eval"), reads), "us"),
        (
            "ndl.memo_hit_ratio",
            ratio(c.memo_hits, c.memo_hits + c.memo_misses),
            "ratio",
        ),
        ("delta.apply_us", apply_us, "us"),
        (
            "delta.lock_wait_us",
            if writes == 0 {
                0.0
            } else {
                write_exec - apply_us
            },
            "us",
        ),
        (
            "delta.changed_ratio",
            ratio(c.changed, c.statements),
            "ratio",
        ),
        ("delta.fallbacks", per(c.fallbacks as f64, writes), "count"),
        ("write_p50_us", stats::percentile(&write_lat, 0.5), "us"),
        ("write_p99_us", stats::percentile(&write_lat, 0.99), "us"),
        ("materialize.us", t("materialize"), "us"),
        ("materialize.facts", c.facts as f64, "count"),
        ("index.build_us", t("index.build"), "us"),
        (
            "quonto.graph_us",
            per(t("quonto.graph"), c.classifies),
            "us",
        ),
        (
            "quonto.closure_us",
            per(t("quonto.closure"), c.classifies),
            "us",
        ),
        (
            "quonto.unsat_us",
            per(t("quonto.unsat"), c.classifies),
            "us",
        ),
        ("quonto.nodes", per(c.nodes as f64, c.classifies), "count"),
        (
            "quonto.closure_pairs",
            per(c.closure_pairs as f64, c.classifies),
            "count",
        ),
        ("obs.overhead_frac", pass.overhead_frac, "ratio"),
        (
            "residual_us",
            per(c.engine_us - layer_sum, engine_ops),
            "us",
        ),
    ];
    Ok(Replay {
        metrics,
        spans_tsv: pass.rec.to_tsv(),
        mismatches: pass.counts.mismatches.clone(),
    })
}
