//! The unified answering API: the [`QueryEngine`] trait and the
//! [`SystemBuilder`].
//!
//! Before this module, [`crate::system::ObdaSystem`] and
//! [`crate::system::AboxSystem`] exposed two divergent answering
//! surfaces and the serving layer matched on an enum of them. Now both
//! implement [`QueryEngine`], so a server endpoint, a load generator,
//! or a bench holds a `Box<dyn QueryEngine>` and a third backend slots
//! in without touching the serving layer.
//!
//! Construction goes through [`SystemBuilder`]: cache toggles and the
//! trace sink are explicit builder options. Any option left unset falls
//! back to the environment knob it supersedes (`QUONTO_TIMINGS`) at
//! build time — so knobs and builder calls compose, with the builder
//! winning.

use std::sync::Arc;

use obda_dllite::{Abox, Signature, Tbox};
use obda_mapping::MappingSet;
use obda_obs::{span, SinkKind, TraceCtx, TraceSink};
use obda_sqlstore::Database;

use crate::answer::Answers;
use crate::config::EngineConfig;
use crate::delta::{AboxDelta, DeltaSummary};
use crate::error::ObdaError;
use crate::query::ConjunctiveQuery;
use crate::system::{AboxSystem, DataMode, ObdaSystem, RewriteCacheStats, RewritingMode};

/// Query language of an answering request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLang {
    /// Datalog-style conjunctive query syntax (`q(x) :- C(x), r(x, y)`).
    Cq,
    /// SPARQL conjunctive fragment (SELECT / ASK).
    Sparql,
}

impl QueryLang {
    pub fn as_str(self) -> &'static str {
        match self {
            QueryLang::Cq => "cq",
            QueryLang::Sparql => "sparql",
        }
    }
}

/// Engine-level counters surfaced through [`QueryEngine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Rewriting algorithm name (`"PerfectRef"`, `"Presto"`).
    pub rewriting: &'static str,
    /// Data-access mode name (`"Virtual"`, `"Materialized"`, `"Abox"`).
    pub data: &'static str,
    /// TBox epoch (bumped by invalidation).
    pub tbox_epoch: u64,
    /// Rewrite-cache hit/miss counters.
    pub rewrite_cache: RewriteCacheStats,
    /// EBox mode name (`"off"`, `"on"`, `"infer"`).
    pub ebox: &'static str,
    /// Live EBox constraints (inclusions + empties + exact
    /// annotations); `0` when the EBox is off.
    pub ebox_constraints: usize,
}

/// One loaded, thread-shareable query-answering engine.
///
/// The required methods are the engine-specific plumbing; callers use
/// the provided [`answer`](Self::answer) /
/// [`answer_traced`](Self::answer_traced) entry points, which handle
/// parsing, trace-context lifecycle, and sink emission uniformly.
pub trait QueryEngine: Send + Sync + std::fmt::Debug {
    /// The signature queries are parsed against.
    fn signature(&self) -> &Signature;

    /// The engine-level sink that untraced [`answer`](Self::answer)
    /// calls publish finished traces to.
    fn trace_sink(&self) -> Arc<dyn TraceSink>;

    /// Answers a parsed CQ, recording phase spans on `ctx`.
    fn answer_cq_traced(&self, q: &ConjunctiveQuery, ctx: &TraceCtx) -> Result<Answers, ObdaError>;

    /// Applies an ABox delta batch incrementally, recording
    /// `write.apply` / `write.index` / `write.views` spans on `ctx`.
    /// The default declines: engines without a writable store (e.g. a
    /// virtual-mode [`ObdaSystem`]) keep their read-only contract.
    fn apply_delta_traced(
        &self,
        delta: &AboxDelta,
        ctx: &TraceCtx,
    ) -> Result<DeltaSummary, ObdaError> {
        let _ = (delta, ctx);
        Err(ObdaError::unsupported(
            "ABox deltas (this engine has no writable store)",
        ))
    }

    /// Engine counters (cache hit rates, configuration).
    fn stats(&self) -> EngineStats;

    /// Drops derived state (cached rewritings, materialized data) so
    /// later queries recompute it. `&self`: callable on a shared
    /// engine; concurrent queries simply see a cold cache.
    fn invalidate(&self);

    /// Zeroes the resettable counters in [`stats`](Self::stats).
    fn reset_stats(&self);

    /// Parses `text` under `lang` (recording a `parse` span) and
    /// answers it, recording the remaining phase spans on `ctx`. The
    /// caller owns the context: finishing and publishing the trace is
    /// its responsibility (the server does this per request).
    fn answer_traced(
        &self,
        lang: QueryLang,
        text: &str,
        ctx: &TraceCtx,
    ) -> Result<Answers, ObdaError> {
        let q = {
            let _parse = span!(ctx, "parse");
            match lang {
                QueryLang::Cq => crate::query::parse_cq(text, self.signature())?,
                QueryLang::Sparql => crate::sparql::parse_sparql(text, self.signature())?.cq,
            }
        };
        self.answer_cq_traced(&q, ctx)
    }

    /// Answers `text`, managing the trace lifecycle internally: a
    /// context is created iff the engine's sink is enabled, and the
    /// finished trace is published to the sink and the global ring.
    fn answer(&self, lang: QueryLang, text: &str) -> Result<Answers, ObdaError> {
        run_with_engine_trace(
            &self.trace_sink(),
            Some(text),
            |a: &Answers| a.len() as u64,
            |ctx| self.answer_traced(lang, text, ctx),
        )
    }

    /// Applies an ABox delta batch, managing the trace lifecycle the
    /// same way [`answer`](Self::answer) does (the finished trace's
    /// `rows` is the number of changed assertions).
    fn apply_delta(&self, delta: &AboxDelta) -> Result<DeltaSummary, ObdaError> {
        run_with_engine_trace(
            &self.trace_sink(),
            None,
            |s: &DeltaSummary| (s.inserted + s.deleted) as u64,
            |ctx| self.apply_delta_traced(delta, ctx),
        )
    }
}

/// Runs `f` under a fresh engine-level trace context (enabled iff the
/// sink is) and publishes the finished trace, whose `rows` field comes
/// from `rows(&ok_value)`. Shared by the trait's provided `answer` /
/// `apply_delta` and the systems' legacy inherent entry points.
pub(crate) fn run_with_engine_trace<T>(
    sink: &Arc<dyn TraceSink>,
    text: Option<&str>,
    rows: impl FnOnce(&T) -> u64,
    f: impl FnOnce(&TraceCtx) -> Result<T, ObdaError>,
) -> Result<T, ObdaError> {
    let ctx = if sink.enabled() {
        TraceCtx::new()
    } else {
        TraceCtx::disabled()
    };
    if let Some(text) = text {
        ctx.set_query(text);
    }
    let res = f(&ctx);
    let (status, rows) = match &res {
        Ok(value) => ("ok", rows(value)),
        Err(_) => ("error", 0),
    };
    if let Some(trace) = ctx.finish(status, rows) {
        obda_obs::submit(trace, &**sink);
    }
    res
}

/// Typed construction for both engine shapes — now a thin wrapper over
/// [`EngineConfig`], which is the one configuration surface (typed
/// setters, config-file keys, env knobs, one validation pass). Unset
/// options still default from the environment knobs at build time and
/// set options still win, because those are `EngineConfig`'s semantics.
///
/// The setters are kept as deprecated shims (pinned by
/// `tests/builder.rs`) so existing callers keep compiling; new code
/// should use [`EngineConfig`] directly.
#[derive(Debug, Clone, Default)]
pub struct SystemBuilder {
    cfg: EngineConfig,
}

impl SystemBuilder {
    pub fn new() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Wraps an already-assembled [`EngineConfig`].
    pub fn from_config(cfg: EngineConfig) -> SystemBuilder {
        SystemBuilder { cfg }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Deprecated shim for [`EngineConfig::rewriting`].
    #[deprecated(note = "use EngineConfig::rewriting")]
    pub fn rewriting(mut self, mode: RewritingMode) -> Self {
        self.cfg.rewriting = Some(mode);
        self
    }

    /// Deprecated shim for [`EngineConfig::data_mode`].
    #[deprecated(note = "use EngineConfig::data_mode")]
    pub fn data_mode(mut self, mode: DataMode) -> Self {
        self.cfg.data = Some(mode);
        self
    }

    /// Deprecated shim for [`EngineConfig::rewrite_cache`].
    #[deprecated(note = "use EngineConfig::rewrite_cache")]
    pub fn rewrite_cache(mut self, enabled: bool) -> Self {
        self.cfg.rewrite_cache = Some(enabled);
        self
    }

    /// Deprecated shim for [`EngineConfig::trace_sink`].
    #[deprecated(note = "use EngineConfig::trace_sink")]
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.cfg.sink = Some(sink);
        self
    }

    /// Deprecated shim for [`EngineConfig::trace`].
    #[deprecated(note = "use EngineConfig::trace")]
    pub fn trace(mut self, kind: SinkKind) -> Self {
        self.cfg.sink = Some(obda_obs::sink::named(kind));
        self
    }

    /// Builds a full OBDA system (mappings + SQL sources).
    pub fn build_obda(
        &self,
        tbox: Tbox,
        mappings: MappingSet,
        db: Database,
    ) -> Result<ObdaSystem, ObdaError> {
        self.cfg.build_obda(tbox, mappings, db)
    }

    /// Builds an ABox-backed system (no mappings/SQL).
    pub fn build_abox(&self, tbox: Tbox, abox: Abox) -> AboxSystem {
        self.cfg.build_abox(tbox, abox)
    }

    /// Builds an ABox-backed engine (see
    /// [`EngineConfig::build_abox_engine`]).
    pub fn build_abox_engine(&self, tbox: Tbox, abox: Abox) -> Box<dyn QueryEngine> {
        self.cfg.build_abox_engine(tbox, abox)
    }
}
