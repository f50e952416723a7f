//! Server configuration: builder-style defaults plus a JSON config file
//! (`quonto-server --config server.json`).
//!
//! ```json
//! {
//!   "addr": "127.0.0.1:7077",
//!   "workers": 4,
//!   "queue_capacity": 128,
//!   "default_timeout_ms": 5000,
//!   "endpoints": [
//!     {"name": "uni", "kind": "university", "scale": 4, "seed": 42,
//!      "rewriting": "perfectref", "data": "materialized"}
//!   ]
//! }
//! ```
//!
//! Endpoint kinds ship the genont presets so a server is runnable with
//! zero external data: `university` assembles the full OBDA stack
//! (mappings + SQL sources), `university-abox` materializes once into a
//! plain ABox system (the fastest serving shape).

use mastro::{DataMode, EngineConfig, RewritingMode, ENGINE_CONFIG_KEYS};

use crate::json::Json;

/// How an endpoint's engine is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// `mastro::demo::build_system` over the generated university
    /// scenario: TBox + mappings + relational sources.
    University,
    /// The same scenario materialized into an [`mastro::AboxSystem`].
    UniversityAbox,
}

/// One named query endpoint.
///
/// The engine options (`rewriting`, `data`, `rewrite_cache`, `ebox`)
/// live in the nested [`EngineConfig`] — the same typed struct the
/// builder API uses, so JSON keys, CLI flags, and builder calls share
/// one parse path and one precedence rule (explicit setting > env
/// knob > default). A JSON key the config leaves out stays `None` and
/// defers to the knob.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Name clients address in requests.
    pub name: String,
    /// Engine shape.
    pub kind: EndpointKind,
    /// Scenario scale (≈ 40 persons per unit).
    pub scale: usize,
    /// Scenario RNG seed.
    pub seed: u64,
    /// Engine options, forwarded verbatim to construction. The server
    /// default pins `rewriting=perfectref data=materialized` (the
    /// historical serving shape); everything else defers to the
    /// `QUONTO_*` knobs.
    pub engine: EngineConfig,
    /// Artificial per-request delay (milliseconds) injected before
    /// evaluation. A load-testing / failure-injection knob: lets tests
    /// and `loadgen` create slow requests deterministically.
    pub delay_ms: u64,
    /// Fault-injection knob: a query whose text contains this marker
    /// panics inside the worker instead of evaluating. Lets the
    /// poison-cascade regression tests prove that one panicking query
    /// cannot take the server down. `None` (the default) disables it.
    pub panic_marker: Option<String>,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            name: "uni".into(),
            kind: EndpointKind::University,
            scale: 2,
            seed: 42,
            engine: EngineConfig::new()
                .rewriting(RewritingMode::PerfectRef)
                .data_mode(DataMode::Materialized),
            delay_ms: 0,
            panic_marker: None,
        }
    }
}

/// Whole-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = ephemeral port, printed on start).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded request-queue capacity; a full queue rejects with
    /// `overloaded` instead of building unbounded backlog.
    pub queue_capacity: usize,
    /// Default per-request deadline (ms) when the request carries none.
    pub default_timeout_ms: u64,
    /// Upper clamp for per-request `timeout_ms` overrides.
    pub max_timeout_ms: u64,
    /// Longest accepted request line; longer frames get an `error`
    /// response and the connection is dropped (the stream is no longer
    /// frame-aligned).
    pub max_line_bytes: usize,
    /// Emit one structured access-log line per response to stderr.
    pub access_log: bool,
    /// Seconds between periodic stats summaries on stderr (0 = off).
    pub summary_every_s: u64,
    /// How long `shutdown` waits for in-flight work to drain.
    pub drain_timeout_ms: u64,
    /// Run exactly `workers` threads even when that exceeds the
    /// machine's cores. By default CPU-bound pools are clamped to
    /// `available_parallelism` — extra workers past the core count only
    /// add timeslicing jitter to tail latency (the A7 result). Pools
    /// serving endpoints with an artificial `delay_ms` are never
    /// clamped (those workers sleep, they don't compete for cores).
    pub exact_workers: bool,
    /// Endpoints to load at startup.
    pub endpoints: Vec<EndpointConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 128,
            default_timeout_ms: 5_000,
            max_timeout_ms: 60_000,
            max_line_bytes: 1 << 20,
            access_log: false,
            summary_every_s: 0,
            drain_timeout_ms: 10_000,
            exact_workers: false,
            endpoints: vec![EndpointConfig::default()],
        }
    }
}

fn bad(msg: impl Into<String>) -> String {
    let mut s = String::from("config error: ");
    s.push_str(&msg.into());
    s
}

/// The top-level keys [`ServerConfig::from_json_str`] reads.
const SERVER_KEYS: &[&str] = &[
    "addr",
    "workers",
    "queue_capacity",
    "max_line_bytes",
    "default_timeout_ms",
    "max_timeout_ms",
    "summary_every_s",
    "drain_timeout_ms",
    "access_log",
    "exact_workers",
    "endpoints",
];

/// The endpoint keys read besides [`ENGINE_CONFIG_KEYS`].
const ENDPOINT_KEYS: &[&str] = &["name", "kind", "scale", "seed", "delay_ms", "panic_marker"];

/// Rejects a key of the object `v` that no reader knows, so a typo or
/// an option the server does not have fails instead of being ignored.
fn reject_unknown_keys(v: &Json, what: &str, known: &[&[&str]]) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(bad(format!("{what} must be an object")));
    };
    match fields
        .iter()
        .find(|(k, _)| !known.iter().any(|keys| keys.contains(&k.as_str())))
    {
        Some((key, _)) => Err(bad(format!("unknown {what} key `{key}`"))),
        None => Ok(()),
    }
}

impl ServerConfig {
    /// Parses a JSON config document; absent fields keep their defaults.
    pub fn from_json_str(src: &str) -> Result<ServerConfig, String> {
        let v = Json::parse(src).map_err(|e| bad(e.to_string()))?;
        reject_unknown_keys(&v, "top-level", &[SERVER_KEYS])?;
        let mut cfg = ServerConfig::default();
        if let Some(s) = v.get("addr").and_then(Json::as_str) {
            cfg.addr = s.to_owned();
        }
        let uint = |field: &str| -> Result<Option<u64>, String> {
            match v.get(field) {
                None => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| bad(format!("`{field}` must be a non-negative integer"))),
            }
        };
        if let Some(n) = uint("workers")? {
            cfg.workers = n as usize;
        }
        if let Some(n) = uint("queue_capacity")? {
            cfg.queue_capacity = n as usize;
        }
        if let Some(n) = uint("max_line_bytes")? {
            cfg.max_line_bytes = n as usize;
        }
        if let Some(n) = uint("default_timeout_ms")? {
            cfg.default_timeout_ms = n;
        }
        if let Some(n) = uint("max_timeout_ms")? {
            cfg.max_timeout_ms = n;
        }
        if let Some(n) = uint("summary_every_s")? {
            cfg.summary_every_s = n;
        }
        if let Some(n) = uint("drain_timeout_ms")? {
            cfg.drain_timeout_ms = n;
        }
        if let Some(b) = v.get("access_log") {
            cfg.access_log = b
                .as_bool()
                .ok_or_else(|| bad("`access_log` must be a boolean"))?;
        }
        if let Some(b) = v.get("exact_workers") {
            cfg.exact_workers = b
                .as_bool()
                .ok_or_else(|| bad("`exact_workers` must be a boolean"))?;
        }
        if let Some(eps) = v.get("endpoints") {
            let arr = eps
                .as_arr()
                .ok_or_else(|| bad("`endpoints` must be an array"))?;
            cfg.endpoints = arr
                .iter()
                .map(endpoint_from_json)
                .collect::<Result<_, _>>()?;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Reads and parses a JSON config file.
    pub fn from_file(path: &str) -> Result<ServerConfig, String> {
        let src =
            std::fs::read_to_string(path).map_err(|e| bad(format!("reading `{path}`: {e}")))?;
        Self::from_json_str(&src)
    }

    /// Cross-field sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err(bad("`workers` must be ≥ 1"));
        }
        if self.queue_capacity == 0 {
            return Err(bad("`queue_capacity` must be ≥ 1"));
        }
        if self.endpoints.is_empty() {
            return Err(bad("at least one endpoint is required"));
        }
        let mut names: Vec<&str> = self.endpoints.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.endpoints.len() {
            return Err(bad("endpoint names must be unique"));
        }
        if self.endpoints.iter().any(|e| e.name.is_empty()) {
            return Err(bad("endpoint names must be non-empty"));
        }
        for e in &self.endpoints {
            e.engine
                .validate()
                .map_err(|msg| bad(format!("endpoint `{}`: {msg}", e.name)))?;
        }
        Ok(())
    }
}

fn endpoint_from_json(v: &Json) -> Result<EndpointConfig, String> {
    reject_unknown_keys(v, "endpoint", &[ENDPOINT_KEYS, ENGINE_CONFIG_KEYS])?;
    let mut ep = EndpointConfig {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("endpoint missing `name`"))?
            .to_owned(),
        ..EndpointConfig::default()
    };
    match v.get("kind").and_then(Json::as_str) {
        None | Some("university") => ep.kind = EndpointKind::University,
        Some("university-abox") => ep.kind = EndpointKind::UniversityAbox,
        Some(other) => return Err(bad(format!("unknown endpoint kind `{other}`"))),
    }
    if let Some(n) = v.get("scale") {
        ep.scale =
            n.as_u64()
                .ok_or_else(|| bad("`scale` must be a non-negative integer"))? as usize;
    }
    if let Some(n) = v.get("seed") {
        ep.seed = n.as_u64().ok_or_else(|| bad("`seed` must be an integer"))?;
    }
    // Engine options forward through the one parse path
    // (`EngineConfig::set`): the JSON spelling of a mode name is
    // exactly the CLI/builder spelling, and a typo is one error message
    // defined in `mastro`, not a second copy here.
    for &key in ENGINE_CONFIG_KEYS {
        let Some(val) = v.get(key) else { continue };
        let raw = match val {
            Json::Str(s) => s.clone(),
            Json::Bool(b) => String::from(if *b { "true" } else { "false" }),
            _ => val
                .as_u64()
                .map(|n| n.to_string())
                .ok_or_else(|| bad(format!("`{key}` must be a string or non-negative integer")))?,
        };
        ep.engine.set(key, &raw).map_err(bad)?;
    }
    if let Some(n) = v.get("delay_ms") {
        ep.delay_ms = n
            .as_u64()
            .ok_or_else(|| bad("`delay_ms` must be a non-negative integer"))?;
    }
    if let Some(m) = v.get("panic_marker") {
        ep.panic_marker = Some(
            m.as_str()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| bad("`panic_marker` must be a non-empty string"))?
                .to_owned(),
        );
    }
    Ok(ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = ServerConfig::from_json_str(
            r#"{
              "addr": "127.0.0.1:7077", "workers": 8, "queue_capacity": 16,
              "default_timeout_ms": 1000, "access_log": true,
              "exact_workers": true,
              "endpoints": [
                {"name": "a", "kind": "university", "scale": 3, "seed": 7,
                 "rewriting": "presto", "data": "virtual", "ebox": "on"},
                {"name": "b", "kind": "university-abox", "delay_ms": 5,
                 "panic_marker": "boom", "rewrite_cache": "off"}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.queue_capacity, 16);
        assert!(cfg.access_log);
        assert!(cfg.exact_workers);
        assert_eq!(cfg.endpoints.len(), 2);
        assert_eq!(
            cfg.endpoints[0].engine.rewriting,
            Some(RewritingMode::Presto)
        );
        assert_eq!(cfg.endpoints[0].engine.data, Some(DataMode::Virtual));
        assert_eq!(cfg.endpoints[0].engine.ebox, Some(mastro::EboxMode::On));
        // Default (the struct default pins the serving shape, leaves
        // the rewrite cache to its default).
        assert_eq!(cfg.endpoints[0].engine.rewrite_cache, None);
        assert_eq!(cfg.endpoints[1].kind, EndpointKind::UniversityAbox);
        assert_eq!(cfg.endpoints[1].delay_ms, 5);
        assert_eq!(cfg.endpoints[1].panic_marker.as_deref(), Some("boom"));
        assert_eq!(cfg.endpoints[1].engine.rewrite_cache, Some(false));
        assert_eq!(cfg.endpoints[1].engine.ebox, None);
    }

    #[test]
    fn rejects_bad_configs() {
        for bad_src in [
            "not json",
            r#"{"workers": 0}"#,
            r#"{"queue_capacity": 0}"#,
            r#"{"endpoints": []}"#,
            r#"{"endpoints": [{"name":"x"},{"name":"x"}]}"#,
            r#"{"endpoints": [{"name":"x","kind":"nope"}]}"#,
            r#"{"endpoints": [{"kind":"university"}]}"#,
            r#"{"workers": "four"}"#,
            r#"{"endpoints": [{"name":"x","rewriting":"magic"}]}"#,
            r#"{"endpoints": [{"name":"x","ebox":"sometimes"}]}"#,
            r#"{"exact_workers": 1}"#,
        ] {
            assert!(ServerConfig::from_json_str(bad_src).is_err(), "{bad_src}");
        }
    }

    #[test]
    fn unknown_keys_are_named_in_the_error() {
        for (src, key) in [
            // Keys the server no longer has, at each level.
            (r#"{"shards": 4}"#, "shards"),
            (r#"{"endpoints": [{"name":"x","shards":4}]}"#, "shards"),
            (
                r#"{"endpoints": [{"name":"x","eval_threads":2}]}"#,
                "eval_threads",
            ),
            // Typos, at each level.
            (r#"{"wrokers": 2}"#, "wrokers"),
            (
                r#"{"endpoints": [{"name":"x","rewritng":"ndl"}]}"#,
                "rewritng",
            ),
        ] {
            let err = ServerConfig::from_json_str(src).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{src}: {err}");
        }
        // A config must be an object at both levels.
        assert!(ServerConfig::from_json_str("[]").is_err());
        assert!(ServerConfig::from_json_str(r#"{"endpoints": [1]}"#).is_err());
    }

    #[test]
    fn defaults_are_valid() {
        ServerConfig::default().validate().unwrap();
    }
}
