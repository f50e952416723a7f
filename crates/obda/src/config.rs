//! The unified engine configuration: [`EngineConfig`].
//!
//! Before this module, every surface that builds an engine re-parsed
//! and re-validated the same handful of options: [`SystemBuilder`]
//! setters, the server's endpoint JSON (`server/src/config.rs`), the
//! loadgen CLI flags, and the `QUONTO_*` knobs each had their own
//! spelling of "rewriting mode" and their own fallback logic. Now there
//! is one typed struct, one string parse path ([`EngineConfig::set`],
//! backed by the modes' `FromStr` impls), one validation pass
//! ([`EngineConfig::validate`]), and one precedence rule:
//!
//! > explicit setting (builder call or config-file key) **>**
//! > environment knob **>** documented default.
//!
//! Every field is an `Option`: `None` means "defer to the knob, else
//! the default" — exactly the old builder semantics, so knobs and
//! explicit settings still compose with the explicit setting winning.
//! [`SystemBuilder`] is now a thin wrapper over this struct; new code
//! should construct engines from an `EngineConfig` directly.
//!
//! ```no_run
//! use mastro::{EngineConfig, RewritingMode, EboxMode};
//! # fn demo(tbox: obda_dllite::Tbox, abox: obda_dllite::Abox) {
//! let engine = EngineConfig::new()
//!     .rewriting(RewritingMode::Ndl)
//!     .ebox(EboxMode::Infer)
//!     .build_abox_engine(tbox, abox);
//! # }
//! ```
//!
//! [`SystemBuilder`]: crate::SystemBuilder

use std::sync::Arc;

use obda_dllite::{Abox, Tbox};
use obda_mapping::MappingSet;
use obda_obs::{SinkKind, TraceSink};

use crate::ebox::EboxMode;
use crate::engine::QueryEngine;
use crate::error::ObdaError;
use crate::system::{AboxSystem, DataMode, ObdaSystem, RewritingMode};

/// The string-settable keys [`EngineConfig::set`] accepts, in the order
/// they are documented. Surfaces that forward free-form key/value pairs
/// (the server config parser) iterate this list instead of hard-coding
/// their own copy.
pub const ENGINE_CONFIG_KEYS: &[&str] = &["rewriting", "data", "rewrite_cache", "ebox"];

/// Typed, layered configuration for every engine shape.
///
/// See the [module docs](self) for the precedence rule. Fields are
/// public so config-driven callers (the server) can inspect what was
/// explicitly set; prefer the builder-style setters for construction.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Rewriting algorithm (default: Presto for OBDA systems,
    /// PerfectRef for ABox systems).
    pub rewriting: Option<RewritingMode>,
    /// Data-access mode (default: virtual; OBDA systems only).
    pub data: Option<DataMode>,
    /// Rewrite-cache toggle (default: enabled).
    pub rewrite_cache: Option<bool>,
    /// EBox constraint-acquisition mode (knob: `QUONTO_EBOX`, default
    /// off).
    pub ebox: Option<EboxMode>,
    /// Trace sink for untraced `answer` calls (knob: `QUONTO_TIMINGS`,
    /// default off).
    pub sink: Option<Arc<dyn TraceSink>>,
}

fn config_err(msg: impl Into<String>) -> String {
    let mut s = String::from("engine config: ");
    s.push_str(&msg.into());
    s
}

impl EngineConfig {
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    // --- Builder-style setters -------------------------------------

    /// Rewriting algorithm. On the ABox tier Presto folds into
    /// PerfectRef (there are no mappings to unfold against);
    /// [`RewritingMode::Ndl`] selects the shared-view NDL evaluator on
    /// every engine shape.
    pub fn rewriting(mut self, mode: RewritingMode) -> Self {
        self.rewriting = Some(mode);
        self
    }

    /// Data-access mode. Ignored by [`build_abox`](Self::build_abox).
    pub fn data_mode(mut self, mode: DataMode) -> Self {
        self.data = Some(mode);
        self
    }

    /// Enables/disables the rewrite cache.
    pub fn rewrite_cache(mut self, enabled: bool) -> Self {
        self.rewrite_cache = Some(enabled);
        self
    }

    /// EBox constraint-acquisition mode (see [`EboxMode`]).
    pub fn ebox(mut self, mode: EboxMode) -> Self {
        self.ebox = Some(mode);
        self
    }

    /// Trace sink for untraced `answer` calls.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Convenience for the built-in sinks.
    pub fn trace(self, kind: SinkKind) -> Self {
        let sink = obda_obs::sink::named(kind);
        self.trace_sink(sink)
    }

    // --- The one string parse path ---------------------------------

    /// Sets one option from its config-file / CLI spelling. This is the
    /// single parse path: the server's endpoint JSON and the loadgen
    /// flags both land here, so a mode name is spelled (and
    /// mis-spelling is reported) exactly one way.
    ///
    /// Accepted keys are [`ENGINE_CONFIG_KEYS`]; unknown keys and
    /// unparseable values are errors, not silently ignored.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "rewriting" => self.rewriting = Some(value.parse().map_err(config_err)?),
            "data" => self.data = Some(value.parse().map_err(config_err)?),
            "rewrite_cache" => {
                self.rewrite_cache = Some(match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => {
                        return Err(config_err(format!(
                            "`rewrite_cache` must be on/off, got `{other}`"
                        )))
                    }
                })
            }
            "ebox" => self.ebox = Some(value.parse().map_err(config_err)?),
            other => {
                return Err(config_err(format!(
                    "unknown option `{other}` (expected one of {})",
                    ENGINE_CONFIG_KEYS.join(", ")
                )))
            }
        }
        Ok(())
    }

    // --- Layering and resolution -----------------------------------

    /// Layers `fallback` under `self`: every option `self` leaves unset
    /// is taken from `fallback`. This is how a config file composes
    /// under builder calls (builder wins), and how a preset composes
    /// under per-endpoint overrides.
    pub fn or(mut self, fallback: &EngineConfig) -> EngineConfig {
        self.rewriting = self.rewriting.or(fallback.rewriting);
        self.data = self.data.or(fallback.data);
        self.rewrite_cache = self.rewrite_cache.or(fallback.rewrite_cache);
        self.ebox = self.ebox.or(fallback.ebox);
        self.sink = self.sink.or_else(|| fallback.sink.clone());
        self
    }

    /// The EBox mode this config resolves to: the explicit setting,
    /// else `QUONTO_EBOX`, else off. An unparseable knob value is an
    /// error (a typo silently disabling constraint pruning would be
    /// invisible); the error surfaces through [`validate`](Self::validate)
    /// and the build paths fall back to off.
    pub fn resolved_ebox(&self) -> Result<EboxMode, String> {
        if let Some(mode) = self.ebox {
            return Ok(mode);
        }
        match quonto::env::ebox_mode() {
            Some(raw) => raw.parse().map_err(config_err),
            None => Ok(EboxMode::Off),
        }
    }

    /// Validation shared by every construction surface: an unparseable
    /// `QUONTO_EBOX` fallback is the one error left to find here.
    pub fn validate(&self) -> Result<(), String> {
        self.resolved_ebox().map(|_| ())
    }

    /// Renders the explicitly-set options as `key=value` pairs in
    /// [`ENGINE_CONFIG_KEYS`] order — the round-trip of
    /// [`set`](Self::set), used in logs and error messages.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(m) = self.rewriting {
            parts.push(format!("rewriting={}", m.as_str().to_ascii_lowercase()));
        }
        if let Some(m) = self.data {
            parts.push(format!("data={}", m.as_str().to_ascii_lowercase()));
        }
        if let Some(b) = self.rewrite_cache {
            parts.push(format!("rewrite_cache={}", if b { "on" } else { "off" }));
        }
        if let Some(m) = self.ebox {
            parts.push(format!("ebox={m}"));
        }
        parts.join(" ")
    }

    // --- Construction ----------------------------------------------

    /// Builds a full OBDA system (mappings + SQL sources).
    pub fn build_obda(
        &self,
        tbox: Tbox,
        mappings: MappingSet,
        db: obda_sqlstore::Database,
    ) -> Result<ObdaSystem, ObdaError> {
        let mut sys = ObdaSystem::new(tbox, mappings, db)?;
        if let Some(mode) = self.rewriting {
            sys = sys.with_rewriting(mode);
        }
        if let Some(mode) = self.data {
            sys = sys.with_data_mode(mode);
        }
        if let Some(enabled) = self.rewrite_cache {
            sys = sys.with_rewrite_cache(enabled);
        }
        if let Ok(mode) = self.resolved_ebox() {
            if mode.enabled() {
                sys = sys.with_ebox_mode(mode);
            }
        }
        if let Some(sink) = &self.sink {
            sys = sys.with_trace_sink(Arc::clone(sink));
        }
        Ok(sys)
    }

    /// Builds an ABox-backed system (no mappings/SQL).
    pub fn build_abox(&self, tbox: Tbox, abox: Abox) -> AboxSystem {
        let mut sys = AboxSystem::new(tbox, abox);
        if let Some(mode) = self.rewriting {
            sys = sys.with_rewriting(mode);
        }
        if let Some(enabled) = self.rewrite_cache {
            sys = sys.with_rewrite_cache(enabled);
        }
        if let Ok(mode) = self.resolved_ebox() {
            if mode.enabled() {
                sys = sys.with_ebox_mode(mode);
            }
        }
        if let Some(sink) = &self.sink {
            sys = sys.with_trace_sink(Arc::clone(sink));
        }
        sys
    }

    /// Builds an ABox-backed engine: [`build_abox`](Self::build_abox),
    /// boxed for the serving layer.
    pub fn build_abox_engine(&self, tbox: Tbox, abox: Abox) -> Box<dyn QueryEngine> {
        Box::new(self.build_abox(tbox, abox))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_parses_every_key() {
        let mut cfg = EngineConfig::new();
        cfg.set("rewriting", "ndl").unwrap();
        cfg.set("data", "materialized").unwrap();
        cfg.set("rewrite_cache", "off").unwrap();
        cfg.set("ebox", "infer").unwrap();
        assert_eq!(cfg.rewriting, Some(RewritingMode::Ndl));
        assert_eq!(cfg.data, Some(DataMode::Materialized));
        assert_eq!(cfg.rewrite_cache, Some(false));
        assert_eq!(cfg.ebox, Some(EboxMode::Infer));
        assert_eq!(
            cfg.render(),
            "rewriting=ndl data=materialized rewrite_cache=off ebox=infer"
        );
    }

    #[test]
    fn set_rejects_bad_keys_and_values() {
        let mut cfg = EngineConfig::new();
        assert!(cfg.set("rewriting", "magic").is_err());
        assert!(cfg.set("data", "psychic").is_err());
        assert!(cfg.set("rewrite_cache", "maybe").is_err());
        assert!(cfg.set("ebox", "sometimes").is_err());
        assert!(cfg.set("no_such_option", "1").is_err());
        // Thread and shard counts are not engine options.
        for key in ["eval_threads", "shards", "shard_max_inflight"] {
            assert!(cfg.set(key, "1").is_err(), "{key}");
        }
        // Nothing stuck.
        assert!(cfg.rewriting.is_none() && cfg.ebox.is_none());
    }

    #[test]
    fn layering_prefers_self() {
        let preset = EngineConfig::new()
            .rewriting(RewritingMode::Presto)
            .rewrite_cache(false)
            .ebox(EboxMode::On);
        let over = EngineConfig::new()
            .rewriting(RewritingMode::Ndl)
            .or(&preset);
        assert_eq!(over.rewriting, Some(RewritingMode::Ndl));
        assert_eq!(over.rewrite_cache, Some(false));
        assert_eq!(over.ebox, Some(EboxMode::On));
    }

    #[test]
    fn explicit_ebox_beats_default() {
        let cfg = EngineConfig::new().ebox(EboxMode::Infer);
        assert_eq!(cfg.resolved_ebox().unwrap(), EboxMode::Infer);
        // Unset + no knob = off (the knob path is pinned by the
        // env-composition test in `tests/builder.rs`, which owns the
        // process-global env mutation).
        assert_eq!(EngineConfig::new().resolved_ebox().unwrap(), EboxMode::Off);
    }
}
