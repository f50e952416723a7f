//! The [`ObdaSystem`] facade: ontology + mappings + sources, with query
//! answering in four modes (rewriting × data access).
//!
//! ## Query-answering fast path
//!
//! Answering reuses work across queries through two epoch-guarded
//! caches:
//!
//! * a **rewrite cache** keyed by `(RewritingMode, canonical CQ)` —
//!   rewriting depends only on the TBox, so the result is valid until
//!   [`ObdaSystem::invalidate_rewrites`] bumps the TBox epoch;
//! * a **persistent ABox index** ([`AboxIndex`]) built once per
//!   materialized ABox and reused by every materialized-mode query
//!   until [`ObdaSystem::invalidate_abox`].
//!
//! PerfectRef rewritings are subsumption-pruned before caching (set
//! `QUONTO_NO_PRUNE=1` to keep the raw UCQ for cross-checking), and the
//! materialized evaluation shards disjuncts over scoped threads
//! (`with_eval_threads`, default from `QUONTO_THREADS`, `0` = all
//! cores).
//!
//! ## Tracing
//!
//! Every answering path threads an [`obda_obs::TraceCtx`] and records
//! phase spans (`parse`, `rewrite` with nested `perfectref` /
//! `presto` / `prune`, `unfold`, `sql`, `eval`) plus counters
//! (disjuncts before/after pruning, cache hit, SQL rows scanned). The
//! untraced entry points create a context themselves iff the engine's
//! trace sink is enabled (`QUONTO_TIMINGS`: `1` = legacy
//! `mastro-timings` stderr lines, `json` = JSON-lines; override per
//! engine with [`crate::SystemBuilder::trace_sink`]). The serving
//! layer instead passes its own context via
//! [`crate::QueryEngine::answer_traced`] and publishes the finished
//! trace to the global ring for the `TRACE` verb.
//!
//! ## Concurrency
//!
//! Every read-only entry point (`answer`, `answer_sparql`, `answer_cq`,
//! `is_instance_of`, `explain`, `check_consistency`) takes `&self`: the
//! rewrite cache lives behind a `Mutex` and the materialized ABox (plus
//! its index) behind a `Mutex<Option<Arc<…>>>`, so one loaded system can
//! be shared across N server worker threads (`obda-server` does exactly
//! this). Rewriting and evaluation both run *outside* the locks — the
//! critical sections are hash-map lookups and `Arc` clones.
//!
//! ## Write path
//!
//! [`crate::QueryEngine::apply_delta`] applies an [`crate::AboxDelta`]
//! batch *incrementally* (see [`crate::delta`]): [`AboxSystem`] keeps
//! its ABox + index + version behind an `RwLock` and patches them in
//! place; [`ObdaSystem`] (materialized mode only) patches the
//! materialized ABox via `Arc::make_mut` — in-flight readers keep their
//! pre-batch snapshot, the steady state is zero-copy. Data-only writes
//! bump an **ABox version**, not the TBox epoch: the rewrite cache is
//! keyed on the TBox epoch alone and stays warm across writes, while
//! the NDL view memo keys on the ([`DataEpoch`]) pair of both.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use quonto::sync::{lock_or_recover, read_or_recover, write_or_recover};

use obda_dllite::{Abox, PiIndex, Tbox};
use obda_mapping::{materialize, Ebox, MappingSet};
use obda_obs::{registry, span, Counter, Histogram, TraceCtx, TraceSink};
use obda_sqlstore::Database;
use quonto::Classification;

use crate::answer::{evaluate_ucq_parallel_traced, AboxIndex, Answers, JoinWork};
use crate::consistency::{check_consistency, Violation};
use crate::delta::{
    apply_to_store, maintain_memo, record_batch, resolve_delta, AboxDelta, DeltaSummary,
    ResolvedFact,
};
use crate::ebox::{
    ebox_pruned_disjuncts_total, ebox_retracted_total, infer_from_index, infer_from_mappings,
    revalidate, EboxMode, EboxState,
};
use crate::engine::{run_with_engine_trace, EngineStats, QueryEngine, QueryLang};
use crate::query::{parse_cq, ConjunctiveQuery, QueryParseError, Ucq};
use crate::rewrite::eboxprune::{exact_covers, prune_ucq_ebox};
use crate::rewrite::ndl::{
    answer_ndl_indexed_traced, answer_ndl_virtual_traced, ndl_compile, ndl_compile_traced_ebox,
    DataEpoch, NdlProgram, ViewMemo,
};
use crate::rewrite::perfectref::perfect_ref_traced;
use crate::rewrite::presto::{
    evaluate_view_query_ebox, presto_rewrite, presto_rewrite_traced, PrestoRewriting,
};
use crate::rewrite::subsume::{prune_cap, prune_ucq_traced, pruning_disabled};
use crate::rewrite::unfold::{answer_presto_virtual_traced, answer_ucq_virtual_traced};

pub use crate::error::{ErrorPhase, ObdaError};

/// Which rewriting algorithm drives answering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewritingMode {
    /// Classic PerfectRef UCQ rewriting.
    PerfectRef,
    /// Classification-aware Presto-style view rewriting.
    Presto,
    /// Nonrecursive-datalog target: Presto skeletons over shared,
    /// memoized view extents (polynomial program size).
    Ndl,
}

impl RewritingMode {
    pub fn as_str(self) -> &'static str {
        match self {
            RewritingMode::PerfectRef => "PerfectRef",
            RewritingMode::Presto => "Presto",
            RewritingMode::Ndl => "Ndl",
        }
    }
}

/// The one config spelling (`perfectref` / `presto` / `ndl`) shared by
/// the server JSON config, the loadgen flags, and
/// [`crate::EngineConfig::set`].
impl std::str::FromStr for RewritingMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "perfectref" => Ok(RewritingMode::PerfectRef),
            "presto" => Ok(RewritingMode::Presto),
            "ndl" => Ok(RewritingMode::Ndl),
            other => Err(format!(
                "unknown rewriting `{other}` (expected `perfectref`, `presto`, or `ndl`)"
            )),
        }
    }
}

/// How the data is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Unfold into SQL over the sources (virtual ABox).
    Virtual,
    /// Evaluate over the materialized ABox.
    Materialized,
}

impl DataMode {
    pub fn as_str(self) -> &'static str {
        match self {
            DataMode::Virtual => "Virtual",
            DataMode::Materialized => "Materialized",
        }
    }
}

/// The one config spelling (`virtual` / `materialized`) shared by the
/// server JSON config and [`crate::EngineConfig::set`].
impl std::str::FromStr for DataMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "virtual" => Ok(DataMode::Virtual),
            "materialized" => Ok(DataMode::Materialized),
            other => Err(format!(
                "unknown data mode `{other}` (expected `virtual` or `materialized`)"
            )),
        }
    }
}

/// Entry cap before the rewrite cache is wholesale cleared (the
/// workloads the paper targets re-ask a small number of query shapes;
/// a fancier eviction policy is not worth its bookkeeping here).
const REWRITE_CACHE_CAP: usize = 1024;

/// A cached rewriting result. PerfectRef entries store the
/// subsumption-pruned UCQ plus the pre-pruning disjunct count (for the
/// trace counters).
#[derive(Debug, Clone)]
pub(crate) enum CachedRewriting {
    PerfectRef { ucq: Ucq, raw_len: usize },
    Presto(PrestoRewriting),
    Ndl(NdlProgram),
}

/// Hit/miss counters for the rewrite cache. Counters saturate instead of
/// wrapping, so a long-lived serving process can never panic (debug) or
/// silently wrap (release) on overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the rewriter.
    pub misses: u64,
}

impl RewriteCacheStats {
    /// Fraction of lookups answered from the cache; `0.0` before any
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Zeroes both counters (e.g. between load-test phases).
    pub fn reset(&mut self) {
        *self = RewriteCacheStats::default();
    }
}

/// Rewrite cache: canonical CQ (+ mode) → rewriting, valid for one TBox
/// epoch. Entries are shared via `Arc` so a hit is a pointer clone, not
/// a deep copy of a possibly-large UCQ.
#[derive(Debug, Clone, Default)]
pub(crate) struct RewriteCache {
    pub(crate) epoch: u64,
    entries: HashMap<(RewritingMode, ConjunctiveQuery), Arc<CachedRewriting>>,
    /// The TBox's PI index, built by the epoch's first PerfectRef miss
    /// and shared by every later one (whether or not entries are
    /// cached: it depends on the TBox alone).
    pi_index: Option<Arc<PiIndex>>,
    pub(crate) stats: RewriteCacheStats,
    /// EBox generation the cached entries were rewritten under. Pruned
    /// rewritings are only sound for the constraints they were pruned
    /// with, so a generation mismatch clears the entries — without
    /// bumping the TBox epoch (the NDL extent memo keys on that epoch
    /// and its extents stay correct: `maintain_memo` patches them from
    /// the *full* member lists).
    ebox_gen: u64,
}

impl RewriteCache {
    /// Aligns the cache with the EBox generation of the caller's
    /// constraint snapshot, dropping entries pruned under another
    /// generation.
    pub(crate) fn sync_ebox_gen(&mut self, gen: u64) {
        if self.ebox_gen != gen {
            self.entries.clear();
            self.ebox_gen = gen;
        }
    }

    pub(crate) fn get(
        &mut self,
        key: &(RewritingMode, ConjunctiveQuery),
    ) -> Option<Arc<CachedRewriting>> {
        let hit = self.entries.get(key).map(Arc::clone);
        if hit.is_some() {
            self.stats.hits = self.stats.hits.saturating_add(1);
        }
        hit
    }

    pub(crate) fn insert(
        &mut self,
        key: (RewritingMode, ConjunctiveQuery),
        value: Arc<CachedRewriting>,
    ) {
        self.stats.misses = self.stats.misses.saturating_add(1);
        if self.entries.len() >= REWRITE_CACHE_CAP {
            self.entries.clear();
        }
        self.entries.insert(key, value);
    }

    /// The current epoch's PI index of `tbox`, built on first use.
    pub(crate) fn pi_index(&mut self, tbox: &Tbox) -> Arc<PiIndex> {
        Arc::clone(
            self.pi_index
                .get_or_insert_with(|| Arc::new(tbox.pi_index())),
        )
    }

    pub(crate) fn invalidate(&mut self) {
        self.epoch += 1;
        self.entries.clear();
        self.pi_index = None;
    }
}

/// Default evaluation-thread knob: `QUONTO_THREADS` if set and numeric,
/// else 1 (sequential). `0` means "all available cores", matching the
/// convention of `quonto`'s parallel closure engines.
fn default_eval_threads() -> usize {
    quonto::env::eval_threads().unwrap_or(1)
}

fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Registry handles bumped once per answered query; resolved once so
/// the hot path is two relaxed atomic ops.
pub(crate) fn query_metrics() -> &'static (Arc<Counter>, Arc<Histogram>) {
    static METRICS: OnceLock<(Arc<Counter>, Arc<Histogram>)> = OnceLock::new();
    METRICS.get_or_init(|| {
        (
            registry().counter("mastro.queries"),
            registry().histogram("mastro.query_us"),
        )
    })
}

/// PerfectRef + subsumption pruning (unless disabled or over the
/// disjunct cap). Returns the final UCQ and the pre-pruning length.
/// Records `perfectref` / `prune` child spans when `ctx` is enabled.
fn rewrite_perfectref_pruned_traced(
    q: &ConjunctiveQuery,
    ix: &PiIndex,
    ctx: &TraceCtx,
) -> (Ucq, usize) {
    let raw = perfect_ref_traced(q, ix, ctx);
    let raw_len = raw.len();
    let ucq = if pruning_disabled() {
        raw
    } else if raw_len > prune_cap() {
        // Over the disjunct cap: pruning would cost quadratically more
        // than answering, so skip it — but record the fact instead of
        // dropping it on the floor (`QUONTO_PRUNE_CAP` tunes the cap;
        // `RewritingMode::Ndl` avoids the blowup altogether).
        prune_capped_total().add(1);
        ctx.count("prune_capped", 1);
        raw
    } else {
        prune_ucq_traced(&raw, ctx)
    };
    (ucq, raw_len)
}

// Registry handle for the capped-prune counter, resolved once.
obda_obs::counter_handle!(fn prune_capped_total, "rewrite_prune_capped");

/// Untraced variant over a freshly built PI index, kept for `explain`
/// and external callers.
pub(crate) fn rewrite_perfectref_pruned(q: &ConjunctiveQuery, tbox: &Tbox) -> (Ucq, usize) {
    rewrite_perfectref_pruned_traced(q, &tbox.pi_index(), &TraceCtx::disabled())
}

/// Cache lookup with the compute running *outside* the lock — the
/// rewriter can be slow and must not serialize unrelated queries. Two
/// threads racing on the same cold query may both rewrite it; the
/// results are identical and the second insert overwrites the first.
/// With the cache disabled, every lookup computes (misses still count).
fn cached_rewriting(
    cache: &Mutex<RewriteCache>,
    enabled: bool,
    ebox_gen: u64,
    key: (RewritingMode, ConjunctiveQuery),
    compute: impl FnOnce() -> CachedRewriting,
) -> (Arc<CachedRewriting>, bool) {
    if enabled {
        let mut guard = lock_or_recover(cache);
        guard.sync_ebox_gen(ebox_gen);
        if let Some(hit) = guard.get(&key) {
            return (hit, true);
        }
    }
    let value = Arc::new(compute());
    let mut guard = lock_or_recover(cache);
    if enabled && guard.ebox_gen == ebox_gen {
        // Skip the insert if a constraint retraction raced the compute:
        // an entry pruned under the older, stronger EBox must not live
        // on under the new generation.
        guard.insert(key, Arc::clone(&value));
    } else {
        guard.stats.misses = guard.stats.misses.saturating_add(1);
    }
    (value, false)
}

/// PerfectRef disjunct pruning against the EBox: the cheap exact-cover
/// short-circuit first (the whole UCQ collapses to the input query),
/// then the empty-predicate drop and the constraint-relaxed pairwise
/// subsumption pass. Runs under an `ebox` child span of `rewrite`.
fn ebox_prune_perfectref(q: &ConjunctiveQuery, ucq: Ucq, ebox: &Ebox, ctx: &TraceCtx) -> Ucq {
    let guard = span!(ctx, "ebox");
    let before = ucq.len();
    let pruned = if exact_covers(q, ebox) {
        Ucq {
            disjuncts: vec![q.clone()],
        }
    } else {
        prune_ucq_ebox(&ucq, ebox).0
    };
    let dropped = before.saturating_sub(pruned.len()) as u64;
    guard.count("ebox_pruned_disjuncts", dropped);
    if dropped > 0 {
        ebox_pruned_disjuncts_total().add(dropped);
    }
    pruned
}

/// The one rewriting front door both systems share: cache lookup +
/// traced rewriting under a `rewrite` span with cache/size counters.
/// `ebox` carries the caller's constraint snapshot (already consistent
/// with the data snapshot it will evaluate against) and `ebox_gen` its
/// generation, keying cache validity.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rewrite_with_cache_traced(
    cache: &Mutex<RewriteCache>,
    cache_enabled: bool,
    mode: RewritingMode,
    tbox: &Tbox,
    classification: &Classification,
    q: &ConjunctiveQuery,
    ebox: Option<&Ebox>,
    ebox_gen: u64,
    ctx: &TraceCtx,
) -> Arc<CachedRewriting> {
    let guard = span!(ctx, "rewrite");
    let (rw, cache_hit) = cached_rewriting(
        cache,
        cache_enabled,
        ebox_gen,
        (mode, q.canonical()),
        || match mode {
            RewritingMode::PerfectRef => {
                let ix = lock_or_recover(cache).pi_index(tbox);
                let (ucq, raw_len) = rewrite_perfectref_pruned_traced(q, &ix, ctx);
                let ucq = match ebox {
                    Some(e) => ebox_prune_perfectref(q, ucq, e, ctx),
                    None => ucq,
                };
                CachedRewriting::PerfectRef { ucq, raw_len }
            }
            RewritingMode::Presto => {
                CachedRewriting::Presto(presto_rewrite_traced(q, classification, ctx))
            }
            RewritingMode::Ndl => {
                CachedRewriting::Ndl(ndl_compile_traced_ebox(q, classification, ctx, ebox))
            }
        },
    );
    guard.count("cache_hit", u64::from(cache_hit));
    match &*rw {
        CachedRewriting::PerfectRef { ucq, raw_len } => {
            guard.count("ucq_raw", *raw_len as u64);
            guard.count("ucq_pruned", ucq.len() as u64);
        }
        CachedRewriting::Presto(p) => {
            guard.count("ucq_raw", p.len() as u64);
            guard.count("ucq_pruned", p.len() as u64);
        }
        CachedRewriting::Ndl(p) => {
            guard.count("ucq_raw", p.len() as u64);
            guard.count("ucq_pruned", p.len() as u64);
            guard.count("ndl_rules", p.num_rules as u64);
        }
    }
    rw
}

/// The materialized ABox plus its secondary index, built together and
/// shared (behind an `Arc`) by every query that needs it. The write
/// path patches it through `Arc::make_mut` — `Clone` exists so a batch
/// that lands while readers still hold the old snapshot copies once
/// instead of blocking them.
#[derive(Debug, Clone)]
pub struct MaterializedAbox {
    /// The materialized assertions.
    pub abox: Abox,
    /// The secondary index over them.
    pub index: AboxIndex,
}

/// One consistent read of [`ObdaSystem`]'s materialized state: the
/// data snapshot, the EBox constraints inferred at-or-before it (None
/// when the EBox is off), and the EBox generation stamp.
type MaterializedSnapshot = (Arc<MaterializedAbox>, Option<Arc<Ebox>>, u64);

/// A complete OBDA system: TBox + classification + mappings + sources.
#[derive(Debug)]
pub struct ObdaSystem {
    /// The ontology TBox.
    pub tbox: Tbox,
    /// The (pre-computed) classification of the TBox.
    pub classification: Classification,
    /// Mapping assertions.
    pub mappings: MappingSet,
    /// The source database.
    pub db: Database,
    /// Rewriting algorithm (default: Presto).
    pub rewriting: RewritingMode,
    /// Data access mode (default: virtual).
    pub data: DataMode,
    /// Cached materialized ABox + index (built on first use in
    /// materialized mode, shared across threads).
    materialized: Mutex<Option<Arc<MaterializedAbox>>>,
    /// Rewrite cache for the current TBox epoch.
    rewrite_cache: Mutex<RewriteCache>,
    /// Memoized NDL view extents for the current epoch (materialized
    /// mode; also cleared when the ABox is invalidated).
    ndl_memo: Mutex<ViewMemo>,
    /// Monotone ABox version: bumped by every delta batch and by
    /// [`Self::invalidate_abox`]. Data-only changes move this instead of
    /// the TBox epoch, so cached rewritings survive writes.
    abox_version: AtomicU64,
    /// Whether rewritings are cached at all (builder toggle).
    cache_enabled: bool,
    /// UCQ evaluation threads (0 = all cores).
    eval_threads: usize,
    /// EBox knob: off (default), on (mapping-level constraints), or
    /// infer (additionally scan the materialized index).
    ebox_mode: EboxMode,
    /// The live constraint set + generation. Updated under the
    /// `materialized` lock in materialized mode so query snapshots stay
    /// consistent with the data they evaluate.
    ebox: Mutex<EboxState>,
    /// Sink for traces of untraced `answer` calls.
    sink: Arc<dyn TraceSink>,
}

impl Clone for ObdaSystem {
    fn clone(&self) -> Self {
        ObdaSystem {
            tbox: self.tbox.clone(),
            classification: self.classification.clone(),
            mappings: self.mappings.clone(),
            db: self.db.clone(),
            rewriting: self.rewriting,
            data: self.data,
            materialized: Mutex::new(lock_or_recover(&self.materialized).clone()),
            rewrite_cache: Mutex::new(lock_or_recover(&self.rewrite_cache).clone()),
            // The clone starts with a cold extent memo (it's a cache).
            ndl_memo: Mutex::new(ViewMemo::default()),
            abox_version: AtomicU64::new(self.abox_version.load(Ordering::Relaxed)),
            cache_enabled: self.cache_enabled,
            eval_threads: self.eval_threads,
            ebox_mode: self.ebox_mode,
            ebox: Mutex::new(lock_or_recover(&self.ebox).clone()),
            sink: Arc::clone(&self.sink),
        }
    }
}

impl ObdaSystem {
    /// Assembles a system, classifying the TBox and validating the
    /// mappings against the source schema. Defaults come from the
    /// environment knobs; prefer [`crate::SystemBuilder`] to set them
    /// explicitly.
    pub fn new(tbox: Tbox, mappings: MappingSet, db: Database) -> Result<Self, ObdaError> {
        mappings
            .validate(&db)
            .map_err(|e| ObdaError::sql(ErrorPhase::Validate, e))?;
        let classification = Classification::classify(&tbox);
        Ok(ObdaSystem {
            tbox,
            classification,
            mappings,
            db,
            rewriting: RewritingMode::Presto,
            data: DataMode::Virtual,
            materialized: Mutex::new(None),
            rewrite_cache: Mutex::new(RewriteCache::default()),
            ndl_memo: Mutex::new(ViewMemo::default()),
            abox_version: AtomicU64::new(0),
            cache_enabled: true,
            eval_threads: default_eval_threads(),
            ebox_mode: EboxMode::Off,
            ebox: Mutex::new(EboxState::default()),
            sink: obda_obs::sink::from_env(),
        })
    }

    /// Switches the rewriting mode.
    pub fn with_rewriting(mut self, mode: RewritingMode) -> Self {
        self.rewriting = mode;
        self
    }

    /// Switches the EBox mode. `On` and `Infer` both seed the constraint
    /// set from the mappings (source-containment and unmapped-predicate
    /// analysis — valid for every source state); `Infer` additionally
    /// re-infers from the materialized index when one is built.
    pub fn with_ebox_mode(mut self, mode: EboxMode) -> Self {
        self.ebox_mode = mode;
        self.ebox = Mutex::new(EboxState::new(self.static_ebox()));
        self
    }

    /// The configured EBox mode.
    pub fn ebox_mode(&self) -> EboxMode {
        self.ebox_mode
    }

    /// Number of live EBox constraints (inclusions + empties + exacts).
    pub fn ebox_constraints(&self) -> usize {
        lock_or_recover(&self.ebox).ebox.constraint_count()
    }

    /// The mapping-level constraint set for the current mode: empty when
    /// off, inferred from the mappings otherwise.
    fn static_ebox(&self) -> obda_mapping::Ebox {
        if self.ebox_mode.enabled() {
            infer_from_mappings(&self.tbox, &self.classification, &self.mappings, &self.db)
        } else {
            obda_mapping::Ebox::new()
        }
    }

    /// Switches the data-access mode.
    pub fn with_data_mode(mut self, mode: DataMode) -> Self {
        self.data = mode;
        self
    }

    /// Sets the number of threads for materialized UCQ evaluation
    /// (`0` = all available cores).
    pub fn with_eval_threads(mut self, threads: usize) -> Self {
        self.eval_threads = threads;
        self
    }

    /// Enables/disables the rewrite cache.
    pub fn with_rewrite_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Replaces the trace sink used by untraced `answer` calls.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Drops all cached rewritings and bumps the TBox epoch. Call after
    /// mutating `tbox`/`classification` directly.
    pub fn invalidate_rewrites(&mut self) {
        lock_or_recover(&self.rewrite_cache).invalidate();
    }

    /// Drops the materialized ABox, its index and the memoized NDL view
    /// extents, and bumps the ABox version. Call after the source
    /// database or the mappings change. Cached rewritings survive —
    /// they depend only on the TBox.
    pub fn invalidate_abox(&mut self) {
        *lock_or_recover(&self.materialized) = None;
        lock_or_recover(&self.ndl_memo).clear();
        if self.ebox_mode.enabled() {
            // Re-derive the mapping-level constraints (the sources may
            // have changed); `Infer` re-infers on the next build.
            let fresh = self.static_ebox();
            let mut state = lock_or_recover(&self.ebox);
            state.ebox = Arc::new(fresh);
            state.generation += 1;
        }
        self.abox_version.fetch_add(1, Ordering::Relaxed);
    }

    /// The current ABox version (second [`DataEpoch`] component).
    pub fn abox_version(&self) -> u64 {
        self.abox_version.load(Ordering::Relaxed)
    }

    /// Rewrite-cache hit/miss counters.
    pub fn rewrite_cache_stats(&self) -> RewriteCacheStats {
        lock_or_recover(&self.rewrite_cache).stats
    }

    /// Zeroes the rewrite-cache counters (the cached entries stay).
    pub fn reset_rewrite_cache_stats(&self) {
        lock_or_recover(&self.rewrite_cache).stats.reset();
    }

    /// Current TBox epoch (bumped by [`Self::invalidate_rewrites`]).
    pub fn tbox_epoch(&self) -> u64 {
        lock_or_recover(&self.rewrite_cache).epoch
    }

    /// Configured UCQ evaluation threads (0 = all cores).
    pub fn eval_threads(&self) -> usize {
        self.eval_threads
    }

    /// Returns the shared materialized ABox + index, building it on
    /// first use. The build runs under the lock: concurrent first
    /// queries wait for one materialization instead of duplicating it.
    fn ensure_materialized(&self) -> Result<Arc<MaterializedAbox>, ObdaError> {
        Ok(self.materialized_with_ebox()?.0)
    }

    /// One consistent snapshot of the materialized ABox and the EBox:
    /// both read under the `materialized` lock, which is also where the
    /// write path revalidates constraints — a query can never pair a
    /// stronger (stale) EBox with newer data. A first build under
    /// `EboxMode::Infer` re-infers the constraints from the index it
    /// just built (the generation bump drops rewrite-cache entries
    /// pruned under the weaker mapping-level set).
    fn materialized_with_ebox(&self) -> Result<MaterializedSnapshot, ObdaError> {
        let mut slot = lock_or_recover(&self.materialized);
        let mat = match slot.as_ref() {
            Some(mat) => Arc::clone(mat),
            None => {
                let abox = materialize(&self.mappings, &self.db)
                    .map_err(|e| ObdaError::sql(ErrorPhase::Materialize, e))?;
                let index = AboxIndex::build(&abox);
                let mat = Arc::new(MaterializedAbox { abox, index });
                *slot = Some(Arc::clone(&mat));
                if self.ebox_mode == EboxMode::Infer {
                    let inferred = infer_from_index(&self.tbox, &self.classification, &mat.index);
                    let mut state = lock_or_recover(&self.ebox);
                    state.ebox = Arc::new(inferred);
                    state.generation += 1;
                }
                mat
            }
        };
        let (ebox, gen) = self.ebox_snapshot();
        Ok((mat, ebox, gen))
    }

    /// The current EBox snapshot + generation (`None` when disabled or
    /// empty, so the hot path skips pruning entirely).
    fn ebox_snapshot(&self) -> (Option<Arc<Ebox>>, u64) {
        if !self.ebox_mode.enabled() {
            return (None, 0);
        }
        let state = lock_or_recover(&self.ebox);
        (state.snapshot(), state.generation)
    }

    /// The materialized ABox + index (computing and caching it on first
    /// use).
    pub fn materialized_abox(&self) -> Result<Arc<MaterializedAbox>, ObdaError> {
        self.ensure_materialized()
    }

    /// Parses a query in the concrete CQ syntax against the TBox
    /// signature.
    pub fn parse_query(&self, text: &str) -> Result<ConjunctiveQuery, ObdaError> {
        Ok(parse_cq(text, &self.tbox.sig)?)
    }

    /// Answers a query given as text.
    pub fn answer(&self, text: &str) -> Result<Answers, ObdaError> {
        QueryEngine::answer(self, QueryLang::Cq, text)
    }

    /// Answers a SPARQL query (SELECT returns tuples in projection
    /// order; ASK returns ∅ or the empty tuple).
    pub fn answer_sparql(&self, text: &str) -> Result<Answers, ObdaError> {
        QueryEngine::answer(self, QueryLang::Sparql, text)
    }

    /// Answers a parsed CQ under the configured modes.
    pub fn answer_cq(&self, q: &ConjunctiveQuery) -> Result<Answers, ObdaError> {
        run_with_engine_trace(
            &self.trace_sink(),
            None,
            |a: &Answers| a.len() as u64,
            |ctx| self.answer_cq_traced(q, ctx),
        )
    }

    /// The traced answering core shared by every entry point.
    fn answer_cq_traced_impl(
        &self,
        q: &ConjunctiveQuery,
        ctx: &TraceCtx,
    ) -> Result<Answers, ObdaError> {
        let started = Instant::now();
        ctx.tag("rewriting", self.rewriting.as_str());
        ctx.tag("data", self.data.as_str());
        // Data snapshot before the rewriting: the EBox only ever weakens
        // between the snapshots (writes retract, never add), so pruning
        // with constraints taken at-or-after the data snapshot is sound.
        // In materialized mode both come from one lock section.
        // Version first, snapshot second: if a write lands in between,
        // the snapshot is *newer* than the stamp — the NDL memo then
        // over-invalidates on the next query, never serves extents older
        // than their stamped version.
        let epoch = DataEpoch {
            tbox: self.tbox_epoch(),
            abox: self.abox_version.load(Ordering::Relaxed),
        };
        let (mat, ebox, ebox_gen) = match self.data {
            DataMode::Materialized => {
                let (mat, ebox, gen) = self.materialized_with_ebox()?;
                (Some(mat), ebox, gen)
            }
            DataMode::Virtual => {
                let (ebox, gen) = self.ebox_snapshot();
                (None, ebox, gen)
            }
        };
        let rw = rewrite_with_cache_traced(
            &self.rewrite_cache,
            self.cache_enabled,
            self.rewriting,
            &self.tbox,
            &self.classification,
            q,
            ebox.as_deref(),
            ebox_gen,
            ctx,
        );
        let threads = resolve_threads(self.eval_threads);
        // lint: allow(R1.expect, "`mat` is Some exactly in materialized mode, matched below")
        let require_mat = || mat.as_ref().expect("materialized snapshot present");
        let answers = match (&*rw, self.data) {
            (CachedRewriting::PerfectRef { ucq, .. }, DataMode::Virtual) => {
                answer_ucq_virtual_traced(ucq, &self.mappings, &self.db, ctx, ebox.as_deref())?
            }
            (CachedRewriting::PerfectRef { ucq, .. }, DataMode::Materialized) => {
                let mat = require_mat();
                evaluate_ucq_parallel_traced(ucq, &mat.abox, &mat.index, threads, ctx)
            }
            (CachedRewriting::Presto(rw), DataMode::Virtual) => answer_presto_virtual_traced(
                rw,
                &self.classification,
                &self.mappings,
                &self.db,
                ctx,
                ebox.as_deref(),
            )?,
            (CachedRewriting::Presto(rw), DataMode::Materialized) => {
                let mat = require_mat();
                let guard = span!(ctx, "eval");
                guard.count("threads", 1);
                guard.count("disjuncts", rw.len() as u64);
                let mut answers = Answers::new();
                let mut work = JoinWork::default();
                for vq in &rw.queries {
                    let (found, w) = evaluate_view_query_ebox(
                        vq,
                        &self.classification,
                        &mat.abox,
                        &mat.index,
                        ebox.as_deref(),
                    );
                    answers.extend(found);
                    work += w;
                }
                work.count_on(&guard);
                answers
            }
            (CachedRewriting::Ndl(prog), DataMode::Virtual) => answer_ndl_virtual_traced(
                prog,
                &self.classification,
                &self.mappings,
                &self.db,
                ctx,
                ebox.as_deref(),
            )?,
            (CachedRewriting::Ndl(prog), DataMode::Materialized) => {
                let mat = require_mat();
                answer_ndl_indexed_traced(prog, &mat.abox, &mat.index, &self.ndl_memo, epoch, ctx)
            }
        };
        let (queries, latency) = query_metrics();
        queries.add(1);
        latency.record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        Ok(answers)
    }

    /// Explains how a query would be answered under the current modes:
    /// the parsed query, the rewriting (disjuncts or view skeletons), and
    /// the flat SQL the unfolding produces (virtual mode only).
    pub fn explain(&self, text: &str) -> Result<String, ObdaError> {
        use std::fmt::Write as _;
        let q = self.parse_query(text)?;
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", crate::query::print_cq(&q, &self.tbox.sig));
        match self.rewriting {
            RewritingMode::PerfectRef => {
                // Same pruning policy as the answer path, including the
                // PRUNE_DISJUNCT_CAP gate — explaining a query must not
                // cost quadratically more than answering it.
                let (ucq, raw_len) = rewrite_perfectref_pruned(&q, &self.tbox);
                let _ = writeln!(
                    out,
                    "rewriting: PerfectRef, {} CQ disjunct(s) ({} before pruning)",
                    ucq.len(),
                    raw_len
                );
                for (i, d) in ucq.disjuncts.iter().enumerate().take(8) {
                    let _ = writeln!(out, "  [{i}] {}", crate::query::print_cq(d, &self.tbox.sig));
                }
                if ucq.len() > 8 {
                    let _ = writeln!(out, "  … {} more", ucq.len() - 8);
                }
                if self.data == DataMode::Virtual {
                    let mut shown = 0usize;
                    let mut total = 0usize;
                    let mut sql_lines = String::new();
                    for d in &ucq.disjuncts {
                        let combos = crate::rewrite::unfold::unfold_cq(d, &self.mappings, &self.db)
                            .map_err(|e| {
                                ObdaError::sql_in(
                                    ErrorPhase::Unfold,
                                    crate::query::print_cq(d, &self.tbox.sig),
                                    e,
                                )
                            })?;
                        total += combos.len();
                        for combo in combos {
                            if shown < 6 {
                                let _ = writeln!(
                                    sql_lines,
                                    "  {}",
                                    obda_sqlstore::print_select_core(&combo.core)
                                );
                                shown += 1;
                            }
                        }
                    }
                    let _ = writeln!(out, "unfolding: {total} flat SQL quer(ies)");
                    out.push_str(&sql_lines);
                    if total > shown {
                        let _ = writeln!(out, "  … {} more", total - shown);
                    }
                }
            }
            RewritingMode::Presto => {
                let rw = presto_rewrite(&q, &self.classification);
                let _ = writeln!(out, "rewriting: Presto, {} view skeleton(s)", rw.len());
                if self.data == DataMode::Virtual {
                    let mut shown = 0usize;
                    let mut total = 0usize;
                    let mut sql_lines = String::new();
                    for vq in &rw.queries {
                        let combos = crate::rewrite::unfold::unfold_view_query(
                            vq,
                            &self.classification,
                            &self.mappings,
                            &self.db,
                        )
                        .map_err(|e| ObdaError::sql(ErrorPhase::Unfold, e))?;
                        total += combos.len();
                        for combo in combos {
                            if shown < 6 {
                                let _ = writeln!(
                                    sql_lines,
                                    "  {}",
                                    obda_sqlstore::print_select_core(&combo.core)
                                );
                                shown += 1;
                            }
                        }
                    }
                    let _ = writeln!(out, "unfolding: {total} flat SQL quer(ies)");
                    out.push_str(&sql_lines);
                    if total > shown {
                        let _ = writeln!(out, "  … {} more", total - shown);
                    }
                }
            }
            RewritingMode::Ndl => {
                let prog = ndl_compile(&q, &self.classification);
                let _ = writeln!(
                    out,
                    "rewriting: NDL, {} rule(s) ({} shared view(s), {} skeleton(s))",
                    prog.num_rules,
                    prog.views.len(),
                    prog.queries.len()
                );
                for def in prog.views.iter().take(8) {
                    let _ = writeln!(out, "  view with {} member rule(s)", def.num_members());
                }
                if prog.views.len() > 8 {
                    let _ = writeln!(out, "  … {} more view(s)", prog.views.len() - 8);
                }
                if self.data == DataMode::Virtual {
                    let _ = writeln!(
                        out,
                        "unfolding: 1 SQL statement ({} shared subplan(s))",
                        prog.views.len()
                    );
                }
            }
        }
        Ok(out)
    }

    /// Instance checking (Section 5 lists it among the extensional
    /// reasoning services): whether `individual` is a certain instance of
    /// the named concept, through the full rewriting pipeline.
    pub fn is_instance_of(&self, individual: &str, concept: &str) -> Result<bool, ObdaError> {
        let c = self
            .tbox
            .sig
            .find_concept(concept)
            .ok_or_else(|| QueryParseError {
                message: format!("unknown concept `{concept}`"),
            })?;
        let q = ConjunctiveQuery {
            head: vec![],
            atoms: vec![crate::query::Atom::Concept(
                c,
                crate::query::Term::Const(individual.to_owned()),
            )],
        };
        Ok(!self.answer_cq(&q)?.is_empty())
    }

    /// Runs the consistency check over the virtual knowledge base.
    pub fn check_consistency(&self) -> Result<Vec<Violation>, ObdaError> {
        check_consistency(&self.tbox, &self.classification, &self.mappings, &self.db)
            .map_err(|e| ObdaError::sql(ErrorPhase::Consistency, e))
    }
}

impl QueryEngine for ObdaSystem {
    fn signature(&self) -> &obda_dllite::Signature {
        &self.tbox.sig
    }

    fn trace_sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.sink)
    }

    fn answer_cq_traced(&self, q: &ConjunctiveQuery, ctx: &TraceCtx) -> Result<Answers, ObdaError> {
        self.answer_cq_traced_impl(q, ctx)
    }

    fn apply_delta_traced(
        &self,
        delta: &AboxDelta,
        ctx: &TraceCtx,
    ) -> Result<DeltaSummary, ObdaError> {
        if self.data != DataMode::Materialized {
            return Err(ObdaError::unsupported(
                "ABox deltas on a virtual-mode system (the data lives in the sources; \
                 use DataMode::Materialized)",
            ));
        }
        let guard = span!(ctx, "write.apply");
        let (inserts, deletes) = resolve_delta(&self.tbox.sig, delta)?;
        // TBox epoch before the materialized lock (canonical lock order:
        // `rewrite_cache` precedes `materialized`). A concurrent TBox
        // invalidation at worst stamps the memo with the old epoch — the
        // next query sees the mismatch and rebuilds.
        let tbox_epoch = self.tbox_epoch();
        let mut slot = lock_or_recover(&self.materialized);
        let mut arc = match slot.take() {
            Some(a) => a,
            None => {
                let abox = materialize(&self.mappings, &self.db)
                    .map_err(|e| ObdaError::sql(ErrorPhase::Materialize, e))?;
                let index = AboxIndex::build(&abox);
                Arc::new(MaterializedAbox { abox, index })
            }
        };
        // Zero-copy between queries (refcount 1); clones once if a
        // reader still holds the pre-batch snapshot.
        let mat = Arc::make_mut(&mut arc);
        let applied = {
            let g = span!(ctx, "write.index");
            let applied = apply_to_store(&mut mat.abox, &mut mat.index, &inserts, &deletes);
            g.count("inserted", applied.inserted.len() as u64);
            g.count("deleted", applied.deleted.len() as u64);
            applied
        };
        let version = self.abox_version.fetch_add(1, Ordering::Relaxed) + 1;
        let epoch = DataEpoch {
            tbox: tbox_epoch,
            abox: version,
        };
        let fallbacks = {
            let g = span!(ctx, "write.views");
            let fb = maintain_memo(
                &self.ndl_memo,
                epoch,
                &applied,
                &self.classification,
                &mat.abox,
                Some(&mat.index),
            );
            g.count("fallbacks", fb);
            fb
        };
        if self.ebox_mode.enabled() {
            // Still under the `materialized` lock: retract constraints
            // the batch falsified before any query can snapshot this
            // data. Rewritings pruned with the stronger set die with the
            // generation bump (the cache syncs lazily on next lookup).
            let mut state = lock_or_recover(&self.ebox);
            if !state.ebox.is_empty() {
                let removed = revalidate(Arc::make_mut(&mut state.ebox), &applied, &mat.index);
                if removed > 0 {
                    state.generation += 1;
                    state.retracted += removed;
                    ebox_retracted_total().add(removed);
                    ctx.count("ebox_retracted", removed);
                }
            }
        }
        let summary = DeltaSummary {
            inserted: applied.inserted.len(),
            deleted: applied.deleted.len(),
            fallbacks,
        };
        *slot = Some(arc);
        guard.count("rows", (summary.inserted + summary.deleted) as u64);
        record_batch(&summary);
        Ok(summary)
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            rewriting: self.rewriting.as_str(),
            data: self.data.as_str(),
            eval_threads: self.eval_threads,
            tbox_epoch: self.tbox_epoch(),
            rewrite_cache: self.rewrite_cache_stats(),
            shards: 1,
            ebox: self.ebox_mode.as_str(),
            ebox_constraints: self.ebox_constraints(),
        }
    }

    fn invalidate(&self) {
        lock_or_recover(&self.rewrite_cache).invalidate();
        let mut slot = lock_or_recover(&self.materialized);
        *slot = None;
        if self.ebox_mode.enabled() {
            // Constraints inferred from the dropped data are stale; fall
            // back to the mapping-level set until the next build (which
            // re-infers under `Infer`). Still under the `materialized`
            // lock, pairing the reset with the drop atomically.
            let mut state = lock_or_recover(&self.ebox);
            state.ebox = Arc::new(self.static_ebox());
            state.generation += 1;
        }
        drop(slot);
        lock_or_recover(&self.ndl_memo).clear();
        self.abox_version.fetch_add(1, Ordering::Relaxed);
    }

    fn reset_stats(&self) {
        self.reset_rewrite_cache_stats();
    }
}

/// The versioned data half of an [`AboxSystem`]: the explicit ABox, its
/// secondary index, and the monotone version that stamps [`DataEpoch`]s.
/// Kept in one struct behind one `RwLock` so queries see the three
/// fields atomically — a reader can never pair a patched index with a
/// pre-batch version.
#[derive(Debug, Clone)]
pub(crate) struct AboxData {
    pub(crate) abox: Abox,
    pub(crate) index: AboxIndex,
    /// Bumped by every delta batch and every [`AboxSystem::mutate_abox`].
    pub(crate) version: u64,
}

/// An ABox-backed system (no mappings/SQL): the simple entry point used
/// by the quickstart example and by tests. Carries the same fast path
/// as [`ObdaSystem`]: a persistent [`AboxIndex`] built at construction
/// and a rewrite cache behind a `Mutex`, so every answering entry point
/// is `&self` and the system is shareable across threads. The ABox and
/// its index live behind an `RwLock` ([`AboxData`]): reads are
/// lock-shared, and the write path ([`crate::QueryEngine::apply_delta`])
/// patches both in place.
#[derive(Debug)]
pub struct AboxSystem {
    /// The ontology TBox.
    pub tbox: Tbox,
    /// The classification.
    pub classification: Classification,
    /// The explicit ABox + index + version (see [`AboxData`]). Mutate
    /// through [`Self::mutate_abox`] or the delta API.
    data: RwLock<AboxData>,
    /// Rewriting algorithm: PerfectRef (default) or NDL. Presto is
    /// folded into PerfectRef here (no mappings to unfold through).
    rewriting: RewritingMode,
    rewrite_cache: Mutex<RewriteCache>,
    /// Memoized NDL view extents (whole-ABox extents unsharded; partial
    /// shard-local extents when this system is one shard).
    ndl_memo: Mutex<ViewMemo>,
    cache_enabled: bool,
    eval_threads: usize,
    /// EBox knob: `Infer` scans the index for constraints; `On` has no
    /// mapping-level source here and starts empty.
    ebox_mode: EboxMode,
    /// Constraint set + generation; written under the `data` write lock
    /// so read-locked queries snapshot it consistently.
    ebox: Mutex<EboxState>,
    sink: Arc<dyn TraceSink>,
}

impl Clone for AboxSystem {
    fn clone(&self) -> Self {
        AboxSystem {
            tbox: self.tbox.clone(),
            classification: self.classification.clone(),
            data: RwLock::new(read_or_recover(&self.data).clone()),
            rewriting: self.rewriting,
            rewrite_cache: Mutex::new(lock_or_recover(&self.rewrite_cache).clone()),
            // The clone starts with a cold extent memo (it's a cache).
            ndl_memo: Mutex::new(ViewMemo::default()),
            cache_enabled: self.cache_enabled,
            eval_threads: self.eval_threads,
            ebox_mode: self.ebox_mode,
            ebox: Mutex::new(lock_or_recover(&self.ebox).clone()),
            sink: Arc::clone(&self.sink),
        }
    }
}

impl AboxSystem {
    /// Classifies the TBox, wraps and indexes the ABox.
    pub fn new(tbox: Tbox, abox: Abox) -> Self {
        let classification = Classification::classify(&tbox);
        Self::with_classification(tbox, classification, abox)
    }

    /// Like [`Self::new`] but reusing an existing classification — the
    /// sharded engine builds N shard systems over one TBox and must not
    /// classify it N times.
    pub fn with_classification(tbox: Tbox, classification: Classification, abox: Abox) -> Self {
        let index = AboxIndex::build(&abox);
        AboxSystem {
            tbox,
            classification,
            data: RwLock::new(AboxData {
                abox,
                index,
                version: 0,
            }),
            rewriting: RewritingMode::PerfectRef,
            rewrite_cache: Mutex::new(RewriteCache::default()),
            ndl_memo: Mutex::new(ViewMemo::default()),
            cache_enabled: true,
            eval_threads: default_eval_threads(),
            ebox_mode: EboxMode::Off,
            ebox: Mutex::new(EboxState::default()),
            sink: obda_obs::sink::from_env(),
        }
    }

    /// Switches the rewriting mode. Presto has no distinct evaluation
    /// path over a plain ABox and is answered via PerfectRef.
    pub fn with_rewriting(mut self, mode: RewritingMode) -> Self {
        self.rewriting = mode;
        self
    }

    /// Switches the EBox mode. With no mappings there is no static
    /// constraint source, so `On` starts empty (constraints only ever
    /// come from revalidated prior state) and `Infer` scans the current
    /// index.
    pub fn with_ebox_mode(mut self, mode: EboxMode) -> Self {
        self.ebox_mode = mode;
        let ebox = if mode == EboxMode::Infer {
            let data = read_or_recover(&self.data);
            infer_from_index(&self.tbox, &self.classification, &data.index)
        } else {
            Ebox::new()
        };
        self.ebox = Mutex::new(EboxState::new(ebox));
        self
    }

    /// The configured EBox mode.
    pub fn ebox_mode(&self) -> EboxMode {
        self.ebox_mode
    }

    /// Number of live EBox constraints (inclusions + empties + exacts).
    pub fn ebox_constraints(&self) -> usize {
        lock_or_recover(&self.ebox).ebox.constraint_count()
    }

    /// The current EBox snapshot + generation (`None` when disabled or
    /// empty). Callers must already hold the `data` lock (read or write)
    /// so the snapshot stays consistent with the data they evaluate.
    fn ebox_snapshot(&self) -> (Option<Arc<Ebox>>, u64) {
        if !self.ebox_mode.enabled() {
            return (None, 0);
        }
        let state = lock_or_recover(&self.ebox);
        (state.snapshot(), state.generation)
    }

    /// The full current constraint set (possibly empty) — the sharded
    /// coordinator intersects these across its shards.
    pub(crate) fn ebox_current(&self) -> Arc<Ebox> {
        Arc::clone(&lock_or_recover(&self.ebox).ebox)
    }

    /// Runs `f` with a shared read lock over the ABox + index + version
    /// (shard-side evaluation and the stats path read through this).
    pub(crate) fn with_data<R>(&self, f: impl FnOnce(&AboxData) -> R) -> R {
        f(&read_or_recover(&self.data))
    }

    /// Sets the number of threads for UCQ evaluation (`0` = all cores).
    pub fn with_eval_threads(mut self, threads: usize) -> Self {
        self.eval_threads = threads;
        self
    }

    /// Enables/disables the rewrite cache.
    pub fn with_rewrite_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Replaces the trace sink used by untraced `answer` calls.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Configured UCQ evaluation threads (0 = all cores).
    pub fn eval_threads(&self) -> usize {
        self.eval_threads
    }

    /// Mutates the ABox arbitrarily under the write lock, then rebuilds
    /// the index from scratch, bumps the version, and drops the memoized
    /// NDL view extents computed from the old facts. This is the
    /// *non-incremental* mutation escape hatch (and the baseline the A10
    /// experiment compares the delta path against); batched changes
    /// should go through [`crate::QueryEngine::apply_delta`].
    pub fn mutate_abox(&self, f: impl FnOnce(&mut Abox)) {
        let mut data = write_or_recover(&self.data);
        f(&mut data.abox);
        data.index = AboxIndex::build(&data.abox);
        data.version += 1;
        lock_or_recover(&self.ndl_memo).clear();
        if self.ebox_mode == EboxMode::Infer {
            // Arbitrary mutation: re-infer from scratch like the index
            // (still under the write lock). The generation bump drops
            // rewritings pruned under the old constraints.
            let inferred = infer_from_index(&self.tbox, &self.classification, &data.index);
            let mut state = lock_or_recover(&self.ebox);
            state.ebox = Arc::new(inferred);
            state.generation += 1;
        } else if self.ebox_mode == EboxMode::On {
            // No data source to re-derive from: drop everything rather
            // than keep constraints the mutation may have falsified.
            let mut state = lock_or_recover(&self.ebox);
            if !state.ebox.is_empty() {
                state.ebox = Arc::new(Ebox::new());
                state.generation += 1;
            }
        }
    }

    /// The current ABox version (second [`DataEpoch`] component).
    pub fn abox_version(&self) -> u64 {
        read_or_recover(&self.data).version
    }

    /// The memoized (or freshly built) extent of one NDL view over this
    /// system's ABox — the sharded engine calls this per shard, so each
    /// shard's partial extents are memoized shard-locally.
    pub(crate) fn ndl_partial_extent(
        &self,
        def: &crate::rewrite::ndl::ViewDef,
    ) -> Arc<crate::rewrite::ndl::ViewExtent> {
        let data = read_or_recover(&self.data);
        let epoch = DataEpoch {
            tbox: lock_or_recover(&self.rewrite_cache).epoch,
            abox: data.version,
        };
        crate::rewrite::ndl::memoized_extent(&self.ndl_memo, epoch, def.pred(), || {
            crate::rewrite::ndl::build_extent(def, &data.abox, &data.index)
        })
        .0
    }

    /// Applies pre-resolved delta facts to this system's store and view
    /// memo: the shared write core reused verbatim by the sharded engine
    /// (which resolves once at the coordinator and routes the facts).
    /// Deletes apply before inserts; returns the per-batch summary.
    pub(crate) fn apply_resolved_traced(
        &self,
        inserts: &[ResolvedFact],
        deletes: &[ResolvedFact],
        ctx: &TraceCtx,
    ) -> DeltaSummary {
        let mut guard = write_or_recover(&self.data);
        // Reborrow through the guard once so the field borrows split.
        let data = &mut *guard;
        let applied = {
            let g = span!(ctx, "write.index");
            let applied = apply_to_store(&mut data.abox, &mut data.index, inserts, deletes);
            g.count("inserted", applied.inserted.len() as u64);
            g.count("deleted", applied.deleted.len() as u64);
            applied
        };
        data.version += 1;
        let epoch = DataEpoch {
            tbox: lock_or_recover(&self.rewrite_cache).epoch,
            abox: data.version,
        };
        let fallbacks = {
            let g = span!(ctx, "write.views");
            let fb = maintain_memo(
                &self.ndl_memo,
                epoch,
                &applied,
                &self.classification,
                &data.abox,
                Some(&data.index),
            );
            g.count("fallbacks", fb);
            fb
        };
        if self.ebox_mode.enabled() {
            // Still under the `data` write lock: constraints the batch
            // falsified are retracted before any reader can pair them
            // with the new facts.
            let mut state = lock_or_recover(&self.ebox);
            if !state.ebox.is_empty() {
                let removed = revalidate(Arc::make_mut(&mut state.ebox), &applied, &data.index);
                if removed > 0 {
                    state.generation += 1;
                    state.retracted += removed;
                    ebox_retracted_total().add(removed);
                    ctx.count("ebox_retracted", removed);
                }
            }
        }
        DeltaSummary {
            inserted: applied.inserted.len(),
            deleted: applied.deleted.len(),
            fallbacks,
        }
    }

    /// Drops cached rewritings (call after mutating `tbox`).
    pub fn invalidate_rewrites(&mut self) {
        lock_or_recover(&self.rewrite_cache).invalidate();
    }

    /// Rewrite-cache hit/miss counters.
    pub fn rewrite_cache_stats(&self) -> RewriteCacheStats {
        lock_or_recover(&self.rewrite_cache).stats
    }

    /// Zeroes the rewrite-cache counters (the cached entries stay).
    pub fn reset_rewrite_cache_stats(&self) {
        lock_or_recover(&self.rewrite_cache).stats.reset();
    }

    /// Answers a query (text) with PerfectRef over the ABox.
    pub fn answer(&self, text: &str) -> Result<Answers, ObdaError> {
        QueryEngine::answer(self, QueryLang::Cq, text)
    }

    /// Answers a SPARQL query (conjunctive fragment) over the ABox.
    pub fn answer_sparql(&self, text: &str) -> Result<Answers, ObdaError> {
        QueryEngine::answer(self, QueryLang::Sparql, text)
    }

    /// Answers a parsed CQ with PerfectRef over the ABox.
    pub fn answer_cq(&self, q: &ConjunctiveQuery) -> Answers {
        run_with_engine_trace(
            &self.trace_sink(),
            None,
            |a: &Answers| a.len() as u64,
            |ctx| Ok(self.eval_cq_traced(q, ctx)),
        )
        .unwrap_or_default()
    }

    /// The traced answering core: rewrite (shared front door with
    /// [`ObdaSystem`]) then indexed parallel evaluation.
    /// The rewriting mode actually answered with: NDL stays NDL, Presto
    /// folds into PerfectRef (no mappings to unfold through).
    pub(crate) fn effective_rewriting(&self) -> RewritingMode {
        match self.rewriting {
            RewritingMode::Ndl => RewritingMode::Ndl,
            _ => RewritingMode::PerfectRef,
        }
    }

    fn eval_cq_traced(&self, q: &ConjunctiveQuery, ctx: &TraceCtx) -> Answers {
        let started = Instant::now();
        let mode = self.effective_rewriting();
        ctx.tag("rewriting", mode.as_str());
        ctx.tag("data", "Abox");
        // Read lock before the rewriting: the EBox snapshot must not
        // predate the data it prunes for (writers revalidate under the
        // write lock, so holding the read lock pins both together).
        let data = read_or_recover(&self.data);
        let (ebox, ebox_gen) = self.ebox_snapshot();
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
        let answers = match &*rw {
            CachedRewriting::PerfectRef { ucq, .. } => {
                let threads = resolve_threads(self.eval_threads);
                evaluate_ucq_parallel_traced(ucq, &data.abox, &data.index, threads, ctx)
            }
            CachedRewriting::Ndl(prog) => {
                // The read lock pins abox+index+version together, so the
                // stamped epoch always matches the snapshot it covers.
                let epoch = DataEpoch {
                    tbox: lock_or_recover(&self.rewrite_cache).epoch,
                    abox: data.version,
                };
                answer_ndl_indexed_traced(prog, &data.abox, &data.index, &self.ndl_memo, epoch, ctx)
            }
            CachedRewriting::Presto(_) => {
                // lint: allow(R1.panic, "this cache only ever receives PerfectRef or Ndl entries (inserted above); the Presto arm is unreachable by construction")
                unreachable!("AboxSystem never caches Presto rewritings")
            }
        };
        let (queries, latency) = query_metrics();
        queries.add(1);
        latency.record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        answers
    }
}

impl QueryEngine for AboxSystem {
    fn signature(&self) -> &obda_dllite::Signature {
        &self.tbox.sig
    }

    fn trace_sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.sink)
    }

    fn answer_cq_traced(&self, q: &ConjunctiveQuery, ctx: &TraceCtx) -> Result<Answers, ObdaError> {
        Ok(self.eval_cq_traced(q, ctx))
    }

    fn apply_delta_traced(
        &self,
        delta: &AboxDelta,
        ctx: &TraceCtx,
    ) -> Result<DeltaSummary, ObdaError> {
        let guard = span!(ctx, "write.apply");
        let (inserts, deletes) = resolve_delta(&self.tbox.sig, delta)?;
        let summary = self.apply_resolved_traced(&inserts, &deletes, ctx);
        guard.count("rows", (summary.inserted + summary.deleted) as u64);
        record_batch(&summary);
        Ok(summary)
    }

    fn stats(&self) -> EngineStats {
        // One lock for both fields: the guard is a temporary, and a
        // second `rewrite_cache_stats()` lock inside the same struct
        // literal would self-deadlock.
        let cache = lock_or_recover(&self.rewrite_cache);
        EngineStats {
            rewriting: self.effective_rewriting().as_str(),
            data: "Abox",
            eval_threads: self.eval_threads,
            tbox_epoch: cache.epoch,
            rewrite_cache: cache.stats,
            shards: 1,
            ebox: self.ebox_mode.as_str(),
            ebox_constraints: lock_or_recover(&self.ebox).ebox.constraint_count(),
        }
    }

    fn invalidate(&self) {
        lock_or_recover(&self.rewrite_cache).invalidate();
        lock_or_recover(&self.ndl_memo).clear();
    }

    fn reset_stats(&self) {
        self.reset_rewrite_cache_stats();
    }
}

#[cfg(test)]
mod pi_index_cache {
    use super::*;
    use obda_dllite::{parse_abox, parse_tbox, Axiom};

    fn cached(sys: &AboxSystem) -> Option<Arc<PiIndex>> {
        lock_or_recover(&sys.rewrite_cache).pi_index.clone()
    }

    #[test]
    fn one_pi_index_per_tbox_epoch() {
        let tbox = parse_tbox("concept A B").unwrap();
        let abox = parse_abox("B(b1)", &tbox.sig).unwrap();
        let mut sys = AboxSystem::new(tbox, abox);
        assert!(sys.answer("q(x) :- A(x)").unwrap().is_empty());
        let first = cached(&sys).expect("a PerfectRef miss builds the index");
        assert_eq!(sys.answer("q(x) :- B(x)").unwrap().len(), 1);
        let second = cached(&sys).expect("still cached");
        assert!(Arc::ptr_eq(&first, &second), "the second miss rebuilt it");
        // B ⊑ A reaches the rewriter only through a fresh index.
        let (a, b) = (
            sys.tbox.sig.find_concept("A").unwrap(),
            sys.tbox.sig.find_concept("B").unwrap(),
        );
        sys.tbox.add(Axiom::concept(b, a));
        sys.invalidate_rewrites();
        assert!(cached(&sys).is_none());
        assert_eq!(sys.answer("q(x) :- A(x)").unwrap().len(), 1);
    }
}

#[cfg(test)]
mod shareability {
    use super::*;

    fn assert_send_sync<T: Send + Sync + ?Sized>() {}

    /// The serving layer shares one loaded system across worker threads;
    /// this pins the `Send + Sync` bounds at compile time.
    #[test]
    fn systems_are_send_and_sync() {
        assert_send_sync::<ObdaSystem>();
        assert_send_sync::<AboxSystem>();
        assert_send_sync::<RewriteCacheStats>();
        assert_send_sync::<dyn QueryEngine>();
    }
}
