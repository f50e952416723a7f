//! Sharded scatter-gather ABox evaluation: the serving tier that breaks
//! the single-core qps ceiling.
//!
//! [`ShardedAboxSystem`] partitions an ABox across N shards by a
//! deterministic FNV-1a hash of each assertion's **subject** name. Every
//! shard is a full [`AboxSystem`] — its own [`crate::AboxIndex`], its
//! own rewrite cache, its own epoch — so a shard is independently
//! answerable and independently invalidatable. The coordinator answers
//! a query by rewriting **once** (through its own epoch-guarded rewrite
//! cache, the same front door the unsharded systems use), routing each
//! UCQ disjunct, scattering evaluation across the shards on scoped
//! threads, and gathering with an ordered merge.
//!
//! ## The partitioning invariant
//!
//! Every assertion lands in the shard of its subject: `A(c)` and
//! `P(c, d)` and `U(c, v)` all hash `c`. Role objects are interned into
//! the subject's shard, so any fact reachable from `c` *as subject* is
//! co-located with `c`.
//!
//! A disjunct whose atoms all share one subject term (a *star* query —
//! the overwhelmingly common shape PerfectRef produces for DL-Lite) is
//! **shard-local**: any homomorphism maps that subject term to a single
//! individual, and every fact it matches has that individual as
//! subject, hence lives in one shard. The union of per-shard answers is
//! therefore exactly the global answer set. A star around a *constant*
//! routes to that constant's single shard; a star around a variable
//! scatters to all shards.
//!
//! Disjuncts joining across different subjects (`q(x) :- p(x, y),
//! C(y)`) can match facts from two shards at once and fall back to a
//! **gather-then-join** path: a union ABox + index is built lazily
//! (once per epoch, counted in `sharded.fallback_builds`) and the
//! disjunct evaluates there, unsharded. Correct always, sharded-fast
//! never — the registry counters make the ratio observable.
//!
//! ## Merge determinism
//!
//! [`crate::Answers`] is a `BTreeSet`, so the gather is an ordered
//! merge: the result is byte-identical to unsharded evaluation at any
//! shard count, thread count, or scheduling. The per-shard timing spans
//! are recorded *after* the merge, in shard order, via
//! [`obda_obs::TraceCtx::record_span`] — traces are deterministic in
//! structure too.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use obda_dllite::{Abox, Assertion, NamedPredicate, Tbox};
use obda_mapping::Ebox;
use obda_obs::{registry, span, Counter, TraceCtx, TraceSink};
use quonto::sync::{lock_or_recover, wait_timeout_or_recover};
use quonto::Classification;

use crate::answer::{eval_disjuncts, AboxIndex, Answers, JoinWork};
use crate::delta::{
    maintain_merged_memo, record_batch, resolve_delta, AboxDelta, DeltaSummary, ResolvedFact,
};
use crate::ebox::{ebox_retracted_total, EboxMode, EboxState};
use crate::engine::{run_with_engine_trace, EngineStats, QueryEngine, QueryLang, ShardStats};
use crate::error::ObdaError;
use crate::query::{Atom, ConjunctiveQuery, Term};
use crate::rewrite::ndl::{
    join_skeletons, memoized_extent, merge_extents, DataEpoch, NdlProgram, ViewDef, ViewExtent,
    ViewMemo, ViewPred,
};
use crate::system::{
    query_metrics, rewrite_with_cache_traced, AboxSystem, CachedRewriting, MaterializedAbox,
    RewriteCache, RewritingMode,
};

/// FNV-1a over the subject name: deterministic across runs, platforms,
/// and std versions (unlike `DefaultHasher`, whose keys are randomized
/// per process) — the shard of an individual is a stable fact about the
/// deployment, not about one process run.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard owning an individual's facts (by subject name).
pub fn shard_of(name: &str, shards: usize) -> usize {
    (fnv1a(name) % shards.max(1) as u64) as usize
}

/// Partitions `abox` into `n` per-shard ABoxes by subject hash.
/// Individuals are re-interned by name per shard, so shard-local ids
/// are dense and shard evaluation never touches a foreign id space.
fn partition_abox(abox: &Abox, n: usize) -> Vec<Abox> {
    let mut parts = vec![Abox::new(); n];
    for a in abox.assertions() {
        match a {
            Assertion::Concept(c, i) => {
                let name = abox.individual_name(*i);
                // lint: allow(R1.index, "shard_of returns hash % n < n == parts.len() by the vec! above")
                parts[shard_of(name, n)].assert_concept(*c, name);
            }
            Assertion::Role(p, s, o) => {
                let sname = abox.individual_name(*s);
                // lint: allow(R1.index, "shard_of returns hash % n < n == parts.len() by the vec! above")
                parts[shard_of(sname, n)].assert_role(*p, sname, abox.individual_name(*o));
            }
            Assertion::Attribute(u, s, v) => {
                let name = abox.individual_name(*s);
                // lint: allow(R1.index, "shard_of returns hash % n < n == parts.len() by the vec! above")
                parts[shard_of(name, n)].assert_attribute(*u, name, v.clone());
            }
        }
    }
    parts
}

/// Where one disjunct's matches can live.
enum Route {
    /// Shard-local around a variable subject: evaluate on every shard.
    All,
    /// Shard-local around a constant subject: one shard holds it all.
    One(usize),
    /// Joins across subjects: gather-then-join fallback.
    Gather,
}

/// Classifies a disjunct: shard-local iff all atoms share one subject
/// term. (An empty-body disjunct is trivially local — every shard
/// yields the same boolean answer and the merge dedups it.)
fn route_disjunct(q: &ConjunctiveQuery, shards: usize) -> Route {
    let mut subject: Option<&Term> = None;
    for atom in &q.atoms {
        let s = match atom {
            Atom::Concept(_, t) => t,
            Atom::Role(_, s, _) => s,
            Atom::Attribute(_, s, _) => s,
        };
        match subject {
            None => subject = Some(s),
            Some(prev) if prev == s => {}
            Some(_) => return Route::Gather,
        }
    }
    match subject {
        Some(Term::Const(name)) => Route::One(shard_of(name, shards)),
        _ => Route::All,
    }
}

/// Per-shard inflight gate: admission control for scatter evaluation.
/// `cap == 0` disables gating (the default — the server's bounded job
/// queue is the primary admission point; this is the per-shard
/// backstop for deployments that want one).
#[derive(Debug)]
struct Gate {
    cap: usize,
    inflight: Mutex<usize>,
    freed: Condvar,
    high_water: AtomicUsize,
    waits: AtomicU64,
}

impl Gate {
    fn new(cap: usize) -> Gate {
        Gate {
            cap,
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            high_water: AtomicUsize::new(0),
            waits: AtomicU64::new(0),
        }
    }

    fn acquire(&self) -> GatePermit<'_> {
        let mut n = lock_or_recover(&self.inflight);
        if self.cap > 0 {
            let mut waited = false;
            while *n >= self.cap {
                if !waited {
                    waited = true;
                    self.waits.fetch_add(1, Ordering::Relaxed);
                }
                let (guard, _) = wait_timeout_or_recover(&self.freed, n, Duration::from_millis(50));
                n = guard;
            }
        }
        *n += 1;
        self.high_water.fetch_max(*n, Ordering::Relaxed);
        drop(n);
        GatePermit { gate: self }
    }

    fn release(&self) {
        let mut n = lock_or_recover(&self.inflight);
        *n = n.saturating_sub(1);
        drop(n);
        self.freed.notify_one();
    }
}

/// RAII inflight permit; releases on drop (panic-safe: an unwinding
/// shard thread still frees its slot).
struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// One shard: a complete [`AboxSystem`] plus serving counters.
#[derive(Debug)]
struct ShardState {
    system: AboxSystem,
    /// Scatter evaluations routed to this shard.
    requests: AtomicU64,
    gate: Gate,
}

/// Registry handles for the scatter-gather counters, resolved once.
struct ShardMetrics {
    queries: Arc<Counter>,
    local_disjuncts: Arc<Counter>,
    cross_disjuncts: Arc<Counter>,
    fallback_builds: Arc<Counter>,
}

fn shard_metrics() -> &'static ShardMetrics {
    static METRICS: OnceLock<ShardMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ShardMetrics {
        queries: registry().counter("sharded.queries"),
        local_disjuncts: registry().counter("sharded.local_disjuncts"),
        cross_disjuncts: registry().counter("sharded.cross_shard_disjuncts"),
        fallback_builds: registry().counter("sharded.fallback_builds"),
    })
}

/// Span names must be `&'static str`; shards beyond the table share one
/// bucket name (the `shard` counter still identifies them exactly).
const SHARD_SPAN_NAMES: [&str; 16] = [
    "shard0", "shard1", "shard2", "shard3", "shard4", "shard5", "shard6", "shard7", "shard8",
    "shard9", "shard10", "shard11", "shard12", "shard13", "shard14", "shard15",
];

fn shard_span_name(i: usize) -> &'static str {
    SHARD_SPAN_NAMES.get(i).copied().unwrap_or("shard16+")
}

/// The sharded scatter-gather engine. See the module docs for the
/// partitioning invariant and the determinism argument.
#[derive(Debug)]
pub struct ShardedAboxSystem {
    /// The ontology TBox (shared by every shard).
    pub tbox: Tbox,
    /// The classification, computed once and cloned into the shards.
    pub classification: Classification,
    shards: Vec<ShardState>,
    /// Coordinator rewrite cache: one rewrite per query, shared by all
    /// shards. Shard-level caches exist too (each shard is a full
    /// `AboxSystem`) and serve direct per-shard access.
    rewrite_cache: Mutex<RewriteCache>,
    cache_enabled: bool,
    /// Rewriting mode: PerfectRef (default) or NDL; Presto folds into
    /// PerfectRef (no mappings on the ABox tier).
    rewriting: RewritingMode,
    /// Coordinator memo of *merged* NDL view extents; the per-shard
    /// partial extents are memoized inside each shard's own system.
    ndl_memo: Mutex<ViewMemo>,
    /// Coordinator ABox version: bumped by every delta batch (and by
    /// [`QueryEngine::invalidate`]), stamping the merged-extent memo's
    /// [`DataEpoch`] alongside the TBox epoch.
    version: AtomicU64,
    /// Lazily built union ABox + index for cross-shard disjuncts,
    /// dropped on [`QueryEngine::invalidate`] and by any delta batch
    /// that changes a fact.
    fallback: Mutex<Option<Arc<MaterializedAbox>>>,
    /// EBox knob, applied to every shard and to the coordinator.
    ebox_mode: EboxMode,
    /// Coordinator constraint set: the intersection of the per-shard
    /// EBoxes restricted to subject-local predicates — the forms whose
    /// extensions partition by subject shard, so per-shard validity
    /// implies global validity and a write routed to one shard can only
    /// falsify constraints that mention its predicates.
    ebox: Mutex<EboxState>,
    sink: Arc<dyn TraceSink>,
}

impl ShardedAboxSystem {
    /// Classifies the TBox once, partitions the ABox by subject hash,
    /// and builds one [`AboxSystem`] per shard (each evaluating
    /// single-threaded — parallelism lives across shards, not inside
    /// them).
    pub fn new(tbox: Tbox, abox: Abox, shards: usize) -> Self {
        let n = shards.max(1);
        let classification = Classification::classify(&tbox);
        let shards = partition_abox(&abox, n)
            .into_iter()
            .map(|part| ShardState {
                system: AboxSystem::with_classification(tbox.clone(), classification.clone(), part)
                    .with_eval_threads(1),
                requests: AtomicU64::new(0),
                gate: Gate::new(0),
            })
            .collect();
        ShardedAboxSystem {
            tbox,
            classification,
            shards,
            rewrite_cache: Mutex::new(RewriteCache::default()),
            cache_enabled: true,
            rewriting: RewritingMode::PerfectRef,
            ndl_memo: Mutex::new(ViewMemo::default()),
            version: AtomicU64::new(0),
            fallback: Mutex::new(None),
            ebox_mode: EboxMode::Off,
            ebox: Mutex::new(EboxState::default()),
            sink: obda_obs::sink::from_env(),
        }
    }

    /// Switches the EBox mode: every shard infers (or clears) its own
    /// constraint set, and the coordinator keeps the subject-local
    /// intersection for pruning the once-per-query rewriting.
    pub fn with_ebox_mode(mut self, mode: EboxMode) -> Self {
        self.ebox_mode = mode;
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|s| ShardState {
                system: s.system.with_ebox_mode(mode),
                requests: s.requests,
                gate: s.gate,
            })
            .collect();
        self.ebox = Mutex::new(EboxState::new(self.coordinator_ebox()));
        self
    }

    /// The configured EBox mode.
    pub fn ebox_mode(&self) -> EboxMode {
        self.ebox_mode
    }

    /// Intersection of the per-shard EBoxes, restricted to
    /// subject-local constraint forms (see the `ebox` field docs).
    fn coordinator_ebox(&self) -> Ebox {
        if !self.ebox_mode.enabled() {
            return Ebox::new();
        }
        let mut acc: Option<Ebox> = None;
        for s in &self.shards {
            let local = s.system.ebox_current().restrict_subject_local();
            acc = Some(match acc {
                Some(a) => a.intersect(&local),
                None => local,
            });
        }
        acc.unwrap_or_default()
    }

    /// Enables/disables the coordinator rewrite cache.
    pub fn with_rewrite_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Switches the rewriting mode. Presto has no distinct evaluation
    /// path on the ABox tier and is answered via PerfectRef.
    pub fn with_rewriting(mut self, mode: RewritingMode) -> Self {
        self.rewriting = mode;
        self
    }

    /// The rewriting mode actually answered with (Presto folds into
    /// PerfectRef).
    fn effective_rewriting(&self) -> RewritingMode {
        match self.rewriting {
            RewritingMode::Ndl => RewritingMode::Ndl,
            _ => RewritingMode::PerfectRef,
        }
    }

    /// Replaces the trace sink used by untraced `answer` calls.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Caps concurrent scatter evaluations per shard (`0` = unbounded,
    /// the default). Excess scatters block on the shard's gate; waits
    /// and high-water marks surface in [`QueryEngine::shard_stats`].
    pub fn with_shard_max_inflight(mut self, cap: usize) -> Self {
        for s in &mut self.shards {
            s.gate.cap = cap;
        }
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Indexed fact count per shard (diagnostics; empty shards are 0).
    pub fn shard_fact_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.system.with_data(|d| d.index.num_facts()))
            .collect()
    }

    /// Threads the scatter actually uses: one per shard with work,
    /// capped by the machine (more threads than cores only adds
    /// timeslicing latency — the A7 lesson).
    fn scatter_parallelism(&self, work_items: usize) -> usize {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        work_items.min(cores).max(1)
    }

    /// Evaluates routed disjuncts on one shard, under its gate; returns
    /// the answers and the join work done.
    fn eval_on_shard(&self, i: usize, disjuncts: &[&ConjunctiveQuery]) -> (Answers, JoinWork) {
        // lint: allow(R1.index, "i comes from routing over 0..self.shards.len()")
        let shard = &self.shards[i];
        shard.requests.fetch_add(1, Ordering::Relaxed);
        let _permit = shard.gate.acquire();
        shard
            .system
            .with_data(|d| eval_disjuncts(disjuncts.iter().copied(), &d.abox, &d.index))
    }

    /// The union ABox + index for cross-shard disjuncts, built on first
    /// use from the shards (the coordinator does not keep the original
    /// ABox alive). The build runs under the lock so concurrent first
    /// fallbacks wait instead of duplicating it.
    fn ensure_fallback(&self) -> Arc<MaterializedAbox> {
        let mut slot = lock_or_recover(&self.fallback);
        if let Some(fb) = slot.as_ref() {
            return Arc::clone(fb);
        }
        let mut union = Abox::new();
        for s in &self.shards {
            s.system.with_data(|d| {
                let part = &d.abox;
                for a in part.assertions() {
                    match a {
                        Assertion::Concept(c, i) => {
                            union.assert_concept(*c, part.individual_name(*i));
                        }
                        Assertion::Role(p, su, o) => {
                            union.assert_role(
                                *p,
                                part.individual_name(*su),
                                part.individual_name(*o),
                            );
                        }
                        Assertion::Attribute(u, su, v) => {
                            union.assert_attribute(*u, part.individual_name(*su), v.clone());
                        }
                    }
                }
            });
        }
        let index = AboxIndex::build(&union);
        let fb = Arc::new(MaterializedAbox { abox: union, index });
        *slot = Some(Arc::clone(&fb));
        shard_metrics().fallback_builds.add(1);
        fb
    }

    /// Scatters per-shard work onto scoped threads and gathers with an
    /// ordered merge; returns the answers, the threads used and the join
    /// work of every shard. Per-shard timing spans are recorded after
    /// the merge, in shard order, so the trace is deterministic.
    fn scatter_eval(
        &self,
        per_shard: &[Vec<&ConjunctiveQuery>],
        ctx: &TraceCtx,
    ) -> (Answers, usize, JoinWork) {
        let work: Vec<usize> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, disjuncts)| !disjuncts.is_empty())
            .map(|(i, _)| i)
            .collect();
        if work.is_empty() {
            return (Answers::new(), 1, JoinWork::default());
        }
        let par = self.scatter_parallelism(work.len());
        let mut timings: Vec<ShardTiming> = Vec::with_capacity(work.len());
        let mut merged = Answers::new();
        let mut done = JoinWork::default();
        if par <= 1 {
            // Inline sequential path: on a 1-core host (or 1 busy
            // shard) thread spawn overhead would only slow things down.
            for &i in &work {
                let start_us = ctx.now_us();
                let t = Instant::now();
                // lint: allow(R1.index, "work holds indexes into per_shard by construction")
                let (answers, w) = self.eval_on_shard(i, &per_shard[i]);
                // lint: allow(R1.index, "work holds indexes into per_shard by construction")
                timings.push((i, per_shard[i].len(), start_us, elapsed_us(t)));
                merged.extend(answers);
                done += w;
            }
        } else {
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); par];
            for (k, &i) in work.iter().enumerate() {
                // lint: allow(R1.index, "k % par < par == groups.len() by the vec! above")
                groups[k % par].push(i);
            }
            let mut results: Vec<(ShardTiming, _)> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter()
                    .map(|group| {
                        scope.spawn(move || {
                            let mut local = Vec::with_capacity(group.len());
                            for &i in group {
                                let start_us = ctx.now_us();
                                let t = Instant::now();
                                // lint: allow(R1.index, "work holds indexes into per_shard by construction")
                                let answers = self.eval_on_shard(i, &per_shard[i]);
                                local.push((
                                    // lint: allow(R1.index, "work holds indexes into per_shard by construction")
                                    (i, per_shard[i].len(), start_us, elapsed_us(t)),
                                    answers,
                                ));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| {
                        // lint: allow(R1.expect, "join() only fails if the shard panicked; re-raising hands the panic to the serving layer's per-request catch_unwind instead of silently dropping answers")
                        h.join().expect("scatter shard panicked")
                    })
                    .collect()
            });
            results.sort_unstable_by_key(|r| r.0 .0);
            for (timing, (answers, w)) in results {
                timings.push(timing);
                merged.extend(answers);
                done += w;
            }
        }
        for (i, disjuncts, start_us, dur_us) in timings {
            ctx.record_span(
                shard_span_name(i),
                start_us,
                dur_us,
                vec![("shard", i as u64), ("disjuncts", disjuncts as u64)],
            );
        }
        (merged, par, done)
    }

    /// Builds one view's partial extent on every shard (each memoized
    /// shard-locally) and returns them in shard order. Parallel across
    /// shards like [`Self::scatter_eval`]; the merge order is the shard
    /// order either way, so the merged extent is deterministic.
    fn scatter_extents(&self, def: &ViewDef) -> Vec<Arc<ViewExtent>> {
        let par = self.scatter_parallelism(self.shards.len());
        let build = |s: &ShardState| {
            s.requests.fetch_add(1, Ordering::Relaxed);
            let _permit = s.gate.acquire();
            s.system.ndl_partial_extent(def)
        };
        if par <= 1 {
            self.shards.iter().map(build).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|s| scope.spawn(move || build(s)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // lint: allow(R1.expect, "join() only fails if the shard panicked; re-raising hands the panic to the serving layer's per-request catch_unwind instead of silently dropping extent tuples")
                        h.join().expect("extent scatter shard panicked")
                    })
                    .collect()
            })
        }
    }

    /// NDL answering: merged view extents (scattered per shard, memoized
    /// at both tiers) joined at the coordinator. Per-shard *skeleton*
    /// evaluation would be unsound here — a concept view member like
    /// `∃p⁻` matches an individual through a fact stored in the
    /// *subject's* shard, breaking the subject-locality invariant the
    /// UCQ router relies on — so shards contribute extents, not answers.
    fn eval_ndl_traced(&self, prog: &NdlProgram, ctx: &TraceCtx) -> Answers {
        let guard = span!(ctx, "eval");
        guard.count("views", prog.views.len() as u64);
        guard.count("skeletons", prog.queries.len() as u64);
        guard.count("shards", self.shards.len() as u64);
        // Version first, shard snapshots second: a write landing in
        // between yields a merged extent *newer* than its stamp, which
        // the memo over-invalidates on the next query — never stale.
        let epoch = DataEpoch {
            tbox: lock_or_recover(&self.rewrite_cache).epoch,
            abox: self.version.load(Ordering::Relaxed),
        };
        let mut extents: std::collections::HashMap<ViewPred, Arc<ViewExtent>> =
            std::collections::HashMap::new();
        for def in &prog.views {
            let (ext, hit) = memoized_extent(&self.ndl_memo, epoch, def.pred(), || {
                merge_extents(&self.scatter_extents(def))
            });
            guard.count(
                if hit {
                    "view_memo_hit"
                } else {
                    "view_memo_miss"
                },
                1,
            );
            extents.insert(def.pred(), ext);
        }
        let (answers, work) = join_skeletons(&prog.queries, &extents);
        work.count_on(&guard);
        answers
    }

    /// The traced answering core: rewrite once, route, scatter, gather.
    fn eval_cq_traced(&self, q: &ConjunctiveQuery, ctx: &TraceCtx) -> Answers {
        let started = Instant::now();
        let mode = self.effective_rewriting();
        ctx.tag("rewriting", mode.as_str());
        ctx.tag("data", "ShardedAbox");
        let (ebox, ebox_gen) = {
            let state = lock_or_recover(&self.ebox);
            (state.snapshot(), state.generation)
        };
        let rw = rewrite_with_cache_traced(
            &self.rewrite_cache,
            self.cache_enabled,
            mode,
            &self.tbox,
            &self.classification,
            q,
            ebox.as_deref(),
            ebox_gen,
            ctx,
        );
        let ucq = match &*rw {
            CachedRewriting::PerfectRef { ucq, .. } => ucq,
            CachedRewriting::Ndl(prog) => {
                let answers = self.eval_ndl_traced(prog, ctx);
                let m = shard_metrics();
                m.queries.add(1);
                let (queries, latency) = query_metrics();
                queries.add(1);
                latency.record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                return answers;
            }
            CachedRewriting::Presto(_) => {
                // lint: allow(R1.panic, "this cache only ever receives PerfectRef or Ndl entries (inserted above); the Presto arm is unreachable by construction")
                unreachable!("ShardedAboxSystem never caches Presto rewritings")
            }
        };
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<&ConjunctiveQuery>> = vec![Vec::new(); n];
        let mut cross: Vec<&ConjunctiveQuery> = Vec::new();
        for d in &ucq.disjuncts {
            match route_disjunct(d, n) {
                Route::All => {
                    for bucket in &mut per_shard {
                        bucket.push(d);
                    }
                }
                // lint: allow(R1.index, "route_disjunct returns shard_of(..) % n < n")
                Route::One(i) => per_shard[i].push(d),
                Route::Gather => cross.push(d),
            }
        }
        let local = ucq.len() - cross.len();
        let guard = span!(ctx, "eval");
        guard.count("disjuncts", ucq.len() as u64);
        guard.count("shards", n as u64);
        guard.count("local_disjuncts", local as u64);
        guard.count("cross_shard_disjuncts", cross.len() as u64);
        let (mut answers, par, mut work) = self.scatter_eval(&per_shard, ctx);
        guard.count("threads", par as u64);
        if !cross.is_empty() {
            let fb = self.ensure_fallback();
            let g = span!(ctx, "gather_join");
            g.count("disjuncts", cross.len() as u64);
            let (gathered, w) = eval_disjuncts(cross.iter().copied(), &fb.abox, &fb.index);
            answers.extend(gathered);
            work += w;
        }
        work.count_on(&guard);
        drop(guard);
        let m = shard_metrics();
        m.queries.add(1);
        m.local_disjuncts.add(local as u64);
        m.cross_disjuncts.add(cross.len() as u64);
        let (queries, latency) = query_metrics();
        queries.add(1);
        latency.record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        answers
    }

    /// Answers a query (text) with PerfectRef scattered over the shards.
    pub fn answer(&self, text: &str) -> Result<Answers, ObdaError> {
        QueryEngine::answer(self, QueryLang::Cq, text)
    }

    /// Answers a SPARQL query (conjunctive fragment) over the shards.
    pub fn answer_sparql(&self, text: &str) -> Result<Answers, ObdaError> {
        QueryEngine::answer(self, QueryLang::Sparql, text)
    }

    /// Answers a parsed CQ.
    pub fn answer_cq(&self, q: &ConjunctiveQuery) -> Answers {
        run_with_engine_trace(
            &self.trace_sink(),
            None,
            |a: &Answers| a.len() as u64,
            |ctx| Ok(self.eval_cq_traced(q, ctx)),
        )
        .unwrap_or_default()
    }
}

/// (shard, disjuncts, start_us, dur_us) of one shard's evaluation.
type ShardTiming = (usize, usize, u64, u64);

fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// The named predicate a resolved delta fact asserts — the coordinator
/// EBox retracts everything it mentions.
fn resolved_predicate(f: &ResolvedFact) -> NamedPredicate {
    match f {
        ResolvedFact::Concept(c, _) => NamedPredicate::Concept(*c),
        ResolvedFact::Role(p, _, _) => NamedPredicate::Role(*p),
        ResolvedFact::Attr(u, _, _) => NamedPredicate::Attribute(*u),
    }
}

impl QueryEngine for ShardedAboxSystem {
    fn signature(&self) -> &obda_dllite::Signature {
        &self.tbox.sig
    }

    fn trace_sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.sink)
    }

    fn answer_cq_traced(&self, q: &ConjunctiveQuery, ctx: &TraceCtx) -> Result<Answers, ObdaError> {
        Ok(self.eval_cq_traced(q, ctx))
    }

    /// Applies a delta by routing each resolved fact to its subject's
    /// shard — the exact partitioning [`partition_abox`] uses, so a
    /// system grown by deltas is byte-identical to one partitioned from
    /// the final ABox. Each shard patches its own store and partial
    /// extent memo; the coordinator then maintains the merged-extent
    /// memo and drops the cross-shard union fallback if anything
    /// changed.
    fn apply_delta_traced(
        &self,
        delta: &AboxDelta,
        ctx: &TraceCtx,
    ) -> Result<DeltaSummary, ObdaError> {
        let guard = span!(ctx, "write.apply");
        let (inserts, deletes) = resolve_delta(&self.tbox.sig, delta)?;
        if self.ebox_mode.enabled() {
            // Conservative coordinator retraction *before* the facts
            // land: drop every coordinator constraint mentioning a
            // touched predicate (the per-shard EBoxes revalidate
            // precisely inside each shard's own write path). Probing
            // across shards would need the union index the coordinator
            // deliberately does not keep.
            let touched: std::collections::HashSet<NamedPredicate> = inserts
                .iter()
                .chain(&deletes)
                .map(resolved_predicate)
                .collect();
            let mut state = lock_or_recover(&self.ebox);
            if !state.ebox.is_empty() {
                let removed = Arc::make_mut(&mut state.ebox).retract_about(&touched) as u64;
                if removed > 0 {
                    state.generation += 1;
                    state.retracted += removed;
                    ebox_retracted_total().add(removed);
                    ctx.count("ebox_retracted", removed);
                }
            }
        }
        let n = self.shards.len();
        let mut routed: Vec<(Vec<ResolvedFact>, Vec<ResolvedFact>)> = vec![Default::default(); n];
        for f in &inserts {
            // lint: allow(R1.index, "shard_of returns hash % n < n == routed.len() by the vec! above")
            routed[shard_of(f.subject(), n)].0.push(f.clone());
        }
        for f in &deletes {
            // lint: allow(R1.index, "shard_of returns hash % n < n == routed.len() by the vec! above")
            routed[shard_of(f.subject(), n)].1.push(f.clone());
        }
        let mut summary = DeltaSummary::default();
        for (shard, (ins, del)) in self.shards.iter().zip(&routed) {
            if ins.is_empty() && del.is_empty() {
                continue;
            }
            shard.requests.fetch_add(1, Ordering::Relaxed);
            summary.absorb(shard.system.apply_resolved_traced(ins, del, ctx));
        }
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        let epoch = DataEpoch {
            tbox: lock_or_recover(&self.rewrite_cache).epoch,
            abox: version,
        };
        let merged_fallbacks = {
            let g = span!(ctx, "write.views");
            let fb = maintain_merged_memo(
                &self.ndl_memo,
                epoch,
                &inserts,
                &deletes,
                &self.classification,
            );
            g.count("fallbacks", fb);
            fb
        };
        summary.fallbacks += merged_fallbacks;
        if summary.inserted + summary.deleted > 0 {
            *lock_or_recover(&self.fallback) = None;
        }
        guard.count("rows", (summary.inserted + summary.deleted) as u64);
        record_batch(&summary);
        Ok(summary)
    }

    fn stats(&self) -> EngineStats {
        let (epoch, coord) = {
            let cache = lock_or_recover(&self.rewrite_cache);
            (cache.epoch, cache.stats)
        };
        let mut rolled = coord;
        for s in &self.shards {
            let shard = s.system.rewrite_cache_stats();
            rolled.hits = rolled.hits.saturating_add(shard.hits);
            rolled.misses = rolled.misses.saturating_add(shard.misses);
        }
        EngineStats {
            rewriting: self.effective_rewriting().as_str(),
            data: "ShardedAbox",
            eval_threads: 1,
            tbox_epoch: epoch,
            rewrite_cache: rolled,
            shards: self.shards.len(),
            ebox: self.ebox_mode.as_str(),
            ebox_constraints: lock_or_recover(&self.ebox).ebox.constraint_count(),
        }
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                individuals: s.system.with_data(|d| d.abox.num_individuals()),
                facts: s.system.with_data(|d| d.index.num_facts()),
                requests: s.requests.load(Ordering::Relaxed),
                rewrite_cache: s.system.rewrite_cache_stats(),
                max_inflight: s.gate.cap,
                inflight_high_water: s.gate.high_water.load(Ordering::Relaxed),
                gate_waits: s.gate.waits.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Drops the coordinator cache, every shard's cache (bumping their
    /// epochs), and the gather-then-join fallback.
    fn invalidate(&self) {
        lock_or_recover(&self.rewrite_cache).invalidate();
        for s in &self.shards {
            s.system.invalidate();
        }
        lock_or_recover(&self.ndl_memo).clear();
        self.version.fetch_add(1, Ordering::Relaxed);
        *lock_or_recover(&self.fallback) = None;
    }

    fn reset_stats(&self) {
        lock_or_recover(&self.rewrite_cache).stats.reset();
        for s in &self.shards {
            s.system.reset_stats();
            s.requests.store(0, Ordering::Relaxed);
            s.gate.high_water.store(0, Ordering::Relaxed);
            s.gate.waits.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_cq;
    use obda_dllite::{parse_abox, parse_tbox};

    fn setup() -> (Tbox, Abox) {
        let t = parse_tbox("concept A B\nrole p\nattribute u\nA [= B").unwrap();
        let ab = parse_abox(
            "A(x1)\nA(x2)\nB(x3)\np(x1, x2)\np(x2, x3)\nu(x1, 5)\nu(x2, \"hi\")",
            &t.sig,
        )
        .unwrap();
        (t, ab)
    }

    #[test]
    fn partitioning_is_deterministic_and_complete() {
        let (_, ab) = setup();
        let a = partition_abox(&ab, 4);
        let b = partition_abox(&ab, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.assertions(), y.assertions());
        }
        let total: usize = a.iter().map(Abox::len).sum();
        assert_eq!(total, ab.len(), "no assertion may be lost or duplicated");
        // Every assertion sits in its subject's shard.
        for (i, part) in a.iter().enumerate() {
            for assertion in part.assertions() {
                let subject = match assertion {
                    Assertion::Concept(_, s) | Assertion::Role(_, s, _) => *s,
                    Assertion::Attribute(_, s, _) => *s,
                };
                assert_eq!(shard_of(part.individual_name(subject), 4), i);
            }
        }
    }

    #[test]
    fn routing_classifies_star_and_join_shapes() {
        let (t, _) = setup();
        let star = parse_cq("q(x) :- A(x), p(x, y), u(x, n)", &t.sig).unwrap();
        assert!(matches!(route_disjunct(&star, 4), Route::All));
        let constant = parse_cq("q(y) :- p(\"x1\", y)", &t.sig).unwrap();
        match route_disjunct(&constant, 4) {
            Route::One(i) => assert_eq!(i, shard_of("x1", 4)),
            _ => panic!("constant star must route to one shard"),
        }
        let join = parse_cq("q(x) :- p(x, y), B(y)", &t.sig).unwrap();
        assert!(matches!(route_disjunct(&join, 4), Route::Gather));
    }

    #[test]
    fn sharded_answers_match_unsharded_including_cross_shard_joins() {
        let (t, ab) = setup();
        let reference = AboxSystem::new(t.clone(), ab.clone()).with_eval_threads(1);
        for shards in [1usize, 2, 3, 8] {
            let sys = ShardedAboxSystem::new(t.clone(), ab.clone(), shards);
            for q in [
                "q(x) :- A(x)",
                "q(x) :- B(x)", // hierarchy: rewriting adds A(x)
                "q(x, y) :- p(x, y)",
                "q(x) :- p(x, y), B(y)", // cross-shard join
                "q(x, n) :- u(x, n)",    // value-typed head
                "q(y) :- p(\"x1\", y)",  // constant routing
                "q(y) :- p(\"ghost\", y)",
            ] {
                assert_eq!(
                    sys.answer(q).unwrap(),
                    reference.answer(q).unwrap(),
                    "shards={shards} query={q}"
                );
            }
        }
    }

    #[test]
    fn invalidate_clears_fallback_and_shard_epochs() {
        let (t, ab) = setup();
        let sys = ShardedAboxSystem::new(t, ab, 2);
        // Force the fallback build with a cross-shard join.
        sys.answer("q(x) :- p(x, y), B(y)").unwrap();
        assert!(lock_or_recover(&sys.fallback).is_some());
        let epoch_before = sys.stats().tbox_epoch;
        sys.invalidate();
        assert!(lock_or_recover(&sys.fallback).is_none());
        assert_eq!(sys.stats().tbox_epoch, epoch_before + 1);
        // A variable-subject star scatters to every shard, and the
        // per-shard serving counters show up in shard_stats().
        sys.answer("q(x) :- A(x)").unwrap();
        let per_shard = sys.shard_stats();
        assert_eq!(per_shard.len(), 2);
        let scattered: u64 = per_shard.iter().map(|s| s.requests).sum();
        assert!(scattered >= 2, "Route::All must visit every shard");
    }

    #[test]
    fn gate_blocks_at_cap_and_counts_waits() {
        let gate = Gate::new(1);
        let p1 = gate.acquire();
        assert_eq!(gate.high_water.load(Ordering::Relaxed), 1);
        std::thread::scope(|scope| {
            let h = scope.spawn(|| {
                let _p2 = gate.acquire();
            });
            std::thread::sleep(Duration::from_millis(30));
            drop(p1);
            h.join().unwrap();
        });
        assert!(gate.waits.load(Ordering::Relaxed) >= 1);
        assert_eq!(*lock_or_recover(&gate.inflight), 0);
    }
}
