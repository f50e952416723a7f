//! Named query endpoints: one loaded ontology/data engine shared by all
//! worker threads.
//!
//! An endpoint owns a `Box<dyn QueryEngine>` — the unified answering
//! trait from `mastro::engine` — so a full [`mastro::ObdaSystem`]
//! (mappings + SQL sources), a [`mastro::AboxSystem`] (materialized
//! ABox), or any future backend serves through the same code path.
//! Engines answer through `&self` (the PR-3 concurrency refactor in
//! `mastro::system`), so an `Arc<Endpoint>` is all the sharing
//! machinery the server needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mastro::{
    demo, AboxDelta, Answers, DeltaSummary, ObdaError, QueryEngine, QueryParseError,
    RewriteCacheStats,
};
use obda_genont::university_scenario;
use obda_obs::{TraceCtx, TraceSink};

use crate::config::{EndpointConfig, EndpointKind};
use crate::json::Json;
use crate::proto::Lang;

/// A named, shareable endpoint plus its per-endpoint counters.
#[derive(Debug)]
pub struct Endpoint {
    /// Name clients address.
    pub name: String,
    /// The answering engine.
    pub engine: Box<dyn QueryEngine>,
    /// Artificial pre-evaluation delay (ms) — load-testing knob.
    pub delay_ms: u64,
    /// Fault-injection marker: queries containing it panic in the
    /// worker (see [`EndpointConfig::panic_marker`]).
    pub panic_marker: Option<String>,
    /// Queries answered (any status) against this endpoint.
    pub requests: AtomicU64,
}

impl Endpoint {
    /// Builds the endpoint from its config (classification, data
    /// generation, and materialization all happen here, at startup).
    /// Construction goes through the nested [`mastro::EngineConfig`],
    /// so env knobs (`QUONTO_TIMINGS`, `QUONTO_EBOX`) still apply to
    /// anything the config leaves unset.
    pub fn build(cfg: &EndpointConfig) -> Result<Endpoint, ObdaError> {
        let scenario = university_scenario(cfg.scale.max(1), cfg.seed);
        let engine: Box<dyn QueryEngine> = match cfg.kind {
            EndpointKind::University => {
                let db = demo::load_database(&scenario)?;
                let mappings = demo::build_mappings(&scenario);
                let sys = cfg.engine.build_obda(scenario.tbox.clone(), mappings, db)?;
                // Materialize eagerly so the first request doesn't pay
                // for the ABox build.
                if cfg.engine.data == Some(mastro::DataMode::Materialized) {
                    sys.materialized_abox()?;
                }
                Box::new(sys)
            }
            EndpointKind::UniversityAbox => {
                let sys = demo::build_system(&scenario)?;
                let mat = sys.materialized_abox()?;
                cfg.engine
                    .build_abox_engine(scenario.tbox.clone(), mat.abox.clone())
            }
        };
        Ok(Endpoint {
            name: cfg.name.clone(),
            engine,
            delay_ms: cfg.delay_ms,
            panic_marker: cfg.panic_marker.clone(),
            requests: AtomicU64::new(0),
        })
    }

    /// Answers one query, recording phase spans on `ctx`. `&self` —
    /// callable from any worker thread.
    pub fn answer_traced(
        &self,
        lang: Lang,
        query: &str,
        ctx: &TraceCtx,
    ) -> Result<Answers, ObdaError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(marker) = &self.panic_marker {
            if query.contains(marker.as_str()) {
                // lint: allow(R1.panic, "deliberate fault injection behind the panic_marker test knob; the worker's catch_unwind turns it into one error response")
                panic!("injected panic: query matched panic_marker `{marker}`");
            }
        }
        self.engine.answer_traced(lang.to_engine(), query, ctx)
    }

    /// Answers one query without collecting a trace.
    pub fn answer(&self, lang: Lang, query: &str) -> Result<Answers, ObdaError> {
        self.answer_traced(lang, query, &TraceCtx::disabled())
    }

    /// Applies one delta batch through the engine's incremental write
    /// path, recording `write.*` spans on `ctx`. `&self` — writes go
    /// through the same worker pool as queries. Engines without a
    /// writable store (virtual-mode OBDA) answer
    /// [`ObdaError::Unsupported`].
    pub fn apply_delta_traced(
        &self,
        delta: &AboxDelta,
        ctx: &TraceCtx,
    ) -> Result<DeltaSummary, ObdaError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.engine.apply_delta_traced(delta, ctx)
    }

    /// Applies one delta batch without collecting a trace.
    pub fn apply_delta(&self, delta: &AboxDelta) -> Result<DeltaSummary, ObdaError> {
        self.apply_delta_traced(delta, &TraceCtx::disabled())
    }

    /// The engine's trace sink (finished worker traces publish here).
    pub fn trace_sink(&self) -> Arc<dyn TraceSink> {
        self.engine.trace_sink()
    }

    /// Rewrite-cache counters of the underlying engine.
    pub fn cache_stats(&self) -> RewriteCacheStats {
        self.engine.stats().rewrite_cache
    }

    /// Zeroes the engine's resettable counters (load-test phase
    /// boundaries).
    pub fn reset_cache_stats(&self) {
        self.engine.reset_stats();
    }

    /// Per-endpoint `STATS` section.
    pub fn stats_json(&self) -> Json {
        let stats = self.engine.stats();
        let cache = stats.rewrite_cache;
        Json::obj(vec![
            ("requests", self.requests.load(Ordering::Relaxed).into()),
            ("rewriting", stats.rewriting.into()),
            ("data", stats.data.into()),
            ("tbox_epoch", stats.tbox_epoch.into()),
            ("ebox", stats.ebox.into()),
            ("ebox_constraints", stats.ebox_constraints.into()),
            ("cache_hits", cache.hits.into()),
            ("cache_misses", cache.misses.into()),
            ("cache_hit_rate", Json::Num(cache.hit_rate())),
        ])
    }
}

/// Surfaces an unknown-endpoint failure with the same error type the
/// engines use.
pub fn unknown_endpoint(name: &str) -> ObdaError {
    ObdaError::Query(QueryParseError {
        message: format!("unknown endpoint `{name}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EndpointConfig;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn endpoints_are_shareable() {
        assert_send_sync::<Endpoint>();
    }

    #[test]
    fn abox_and_obda_endpoints_agree() {
        let obda = Endpoint::build(&EndpointConfig {
            name: "o".into(),
            scale: 1,
            ..EndpointConfig::default()
        })
        .unwrap();
        let abox = Endpoint::build(&EndpointConfig {
            name: "a".into(),
            kind: EndpointKind::UniversityAbox,
            scale: 1,
            ..EndpointConfig::default()
        })
        .unwrap();
        let q = "q(x) :- Student(x)";
        let left = obda.answer(Lang::Cq, q).unwrap();
        let right = abox.answer(Lang::Cq, q).unwrap();
        assert_eq!(left, right);
        assert!(!left.is_empty());
        // SPARQL front-end reaches both engines.
        let s = "SELECT ?x WHERE { ?x a :Student }";
        assert_eq!(obda.answer(Lang::Sparql, s).unwrap(), left);
        assert_eq!(abox.answer(Lang::Sparql, s).unwrap(), left);
        // Cache counters moved and reset works.
        assert!(abox.cache_stats().misses > 0);
        abox.reset_cache_stats();
        assert_eq!(abox.cache_stats(), RewriteCacheStats::default());
    }

    #[test]
    fn traced_answers_carry_phases() {
        let ep = Endpoint::build(&EndpointConfig {
            name: "t".into(),
            scale: 1,
            ..EndpointConfig::default()
        })
        .unwrap();
        let ctx = TraceCtx::new();
        let answers = ep
            .answer_traced(Lang::Cq, "q(x) :- Student(x)", &ctx)
            .unwrap();
        let trace = ctx.finish("ok", answers.len() as u64).unwrap();
        let phases: Vec<&str> = trace.phases().iter().map(|(n, _)| *n).collect();
        assert!(phases.contains(&"parse"), "{phases:?}");
        assert!(phases.contains(&"rewrite"), "{phases:?}");
        assert!(phases.len() >= 3, "{phases:?}");
    }
}
