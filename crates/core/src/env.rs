//! The single registry of `QUONTO_*` environment knobs.
//!
//! Every environment variable the workspace reads is declared once in
//! [`KNOBS`] and read through a typed accessor in this module. That
//! gives three guarantees the scattered `std::env::var` calls of earlier
//! PRs could not:
//!
//! 1. **No silent drift** — `xtask lint` rule `R4` flags any
//!    `env::var("QUONTO_…")` read outside this file and any `QUONTO_*`
//!    name (in code *or* docs) that is not registered here;
//! 2. **Self-documenting** — the README/DESIGN knob tables are rendered
//!    from [`markdown_table`] (`cargo run -p xtask -- env-docs --write`)
//!    and the lint fails when they fall out of sync;
//! 3. **One parse policy** — defaults and value conventions live next
//!    to the declaration instead of being re-implemented per call site.
//!
//! Adding a knob: append a [`Knob`] entry, add a typed accessor, run
//! `cargo run -p xtask -- env-docs --write`, and commit both.

/// Value shape of a knob (documentation + table rendering only — the
/// typed accessors are the programmatic interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// Boolean: set to `1` to enable; anything else (or unset) is off.
    Flag,
    /// Non-negative integer.
    Limit,
    /// Floating-point scale factor.
    Scale,
    /// Symbolic name from a fixed set.
    Name,
}

impl KnobKind {
    /// Human-readable value set for the documentation table.
    pub fn values(self) -> &'static str {
        match self {
            KnobKind::Flag => "`1` to enable",
            KnobKind::Limit => "integer",
            KnobKind::Scale => "float",
            KnobKind::Name => "name",
        }
    }
}

/// One registered environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Variable name (always `QUONTO_`-prefixed).
    pub name: &'static str,
    /// Value shape.
    pub kind: KnobKind,
    /// Behaviour when unset (shown in the table).
    pub default: &'static str,
    /// What the knob does, one line.
    pub doc: &'static str,
}

/// Every environment variable the workspace reads. Keep sorted by name.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "QUONTO_BENCH_SCALE",
        kind: KnobKind::Scale,
        default: "0.1",
        doc: "Ontology scale factor for the closure benches (`1.0` = published sizes).",
    },
    Knob {
        name: "QUONTO_CLOSURE",
        kind: KnobKind::Name,
        default: "auto",
        doc: "Forces a closure engine: `dfs`, `bfs`, `scc`, `bitset`, `par`, or `chunked`, \
              bypassing the size×cores heuristic of `AutoEngine`.",
    },
    Knob {
        name: "QUONTO_EBOX",
        kind: KnobKind::Name,
        default: "off",
        doc: "EBox constraint-aware pruning mode for `mastro`: `off` (or `0`) disables it, \
              `on` (or `1`) seeds constraints from the mappings, `infer` additionally \
              re-infers them from the loaded data. Builder/config settings override the knob.",
    },
    Knob {
        name: "QUONTO_FULL_PRESETS",
        kind: KnobKind::Flag,
        default: "off",
        doc: "Runs the full-scale ontology presets in debug-profile tests (normally downscaled \
              to keep `cargo test` fast).",
    },
    Knob {
        name: "QUONTO_NO_PRUNE",
        kind: KnobKind::Flag,
        default: "off",
        doc: "Disables UCQ subsumption pruning — the cross-checking escape hatch for the \
              rewriting fast path.",
    },
    Knob {
        name: "QUONTO_PRUNE_CAP",
        kind: KnobKind::Limit,
        default: "512",
        doc: "UCQ disjunct count above which subsumption pruning is skipped (the quadratic \
              prune would cost more than evaluation). Over-cap rewritings bump the \
              `rewrite_prune_capped` counter; `--rewriting ndl` sidesteps the blowup.",
    },
    Knob {
        name: "QUONTO_TIMINGS",
        kind: KnobKind::Name,
        default: "off",
        doc: "Trace-sink selector for per-query phase breakdowns: `1` = legacy one-line stderr \
              format (`quonto-timings`, `mastro-timings`), `json` = one JSON object per query \
              on stderr, unset/`0` = off.",
    },
    Knob {
        name: "QUONTO_TRACE_RING",
        kind: KnobKind::Limit,
        default: "128",
        doc: "Capacity of the in-process ring of completed query traces served by the server \
              `TRACE` verb (`0` disables trace capture).",
    },
    Knob {
        name: "QUONTO_WRITE_FALLBACK",
        kind: KnobKind::Flag,
        default: "off",
        doc: "Disables incremental view-memo maintenance on the write path: every ABox delta \
              invalidates every memoized NDL view extent (each counted in `delta_fallback`) \
              instead of patching them in place. A/B lever for the A10 experiment.",
    },
];

/// Whether `name` is a registered knob.
pub fn is_registered(name: &str) -> bool {
    KNOBS.iter().any(|k| k.name == name)
}

/// Raw registered read. Private on purpose: callers go through the typed
/// accessors so parse policy stays in one place.
fn raw(name: &'static str) -> Option<String> {
    debug_assert!(is_registered(name), "unregistered env knob `{name}`");
    std::env::var(name).ok()
}

/// Registered flag read (`1` = on).
fn flag(name: &'static str) -> bool {
    raw(name).as_deref() == Some("1")
}

/// `QUONTO_CLOSURE`: forced closure-engine name, if set and non-empty.
pub fn closure_engine() -> Option<String> {
    raw("QUONTO_CLOSURE").filter(|s| !s.is_empty())
}

/// `QUONTO_EBOX`: requested EBox pruning mode, if set and non-empty.
/// The string is parsed by the consumer (`mastro`'s `EboxMode::from_str`)
/// so the mode vocabulary lives next to the modes.
pub fn ebox_mode() -> Option<String> {
    raw("QUONTO_EBOX").filter(|s| !s.is_empty())
}

/// The trace-sink selection carried by `QUONTO_TIMINGS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingsMode {
    /// Unset, `0`, or anything unrecognised: no per-query output.
    #[default]
    Off,
    /// `1` (or `stderr`): the legacy one-line stderr format.
    Stderr,
    /// `json`: one JSON object per query on stderr.
    Json,
}

/// `QUONTO_TIMINGS`: which per-query trace sink is selected.
pub fn timings_mode() -> TimingsMode {
    match raw("QUONTO_TIMINGS").as_deref() {
        Some("1") | Some("stderr") => TimingsMode::Stderr,
        Some("json") => TimingsMode::Json,
        _ => TimingsMode::Off,
    }
}

/// Whether any per-phase timing output is enabled (legacy predicate;
/// quonto's own `quonto-timings` lines key off this).
pub fn timings_enabled() -> bool {
    timings_mode() != TimingsMode::Off
}

/// Turns [`timings_enabled`] on for this process (used by harness
/// binaries like `figure1 --verbose` so the knob literal stays here).
pub fn force_timings() {
    std::env::set_var("QUONTO_TIMINGS", "1");
}

/// `QUONTO_NO_PRUNE=1`: disable UCQ subsumption pruning.
pub fn no_prune() -> bool {
    flag("QUONTO_NO_PRUNE")
}

/// `QUONTO_PRUNE_CAP`: UCQ pruning disjunct cap, if set and numeric.
pub fn prune_cap() -> Option<usize> {
    raw("QUONTO_PRUNE_CAP").and_then(|s| s.parse().ok())
}

/// `QUONTO_FULL_PRESETS=1`: run full-scale presets in debug tests.
pub fn full_presets() -> bool {
    flag("QUONTO_FULL_PRESETS")
}

/// `QUONTO_BENCH_SCALE`: bench ontology scale factor, if set and valid.
pub fn bench_scale() -> Option<f64> {
    raw("QUONTO_BENCH_SCALE").and_then(|s| s.parse().ok())
}

/// `QUONTO_TRACE_RING`: capacity of the global completed-trace ring,
/// if set and numeric. `Some(0)` disables trace capture.
pub fn trace_ring() -> Option<usize> {
    raw("QUONTO_TRACE_RING").and_then(|s| s.parse().ok())
}

/// `QUONTO_WRITE_FALLBACK=1`: force the write path to invalidate
/// memoized view extents wholesale instead of patching incrementally.
pub fn write_fallback() -> bool {
    flag("QUONTO_WRITE_FALLBACK")
}

/// Renders the registry as the markdown table embedded in README.md and
/// DESIGN.md between `<!-- quonto-env:begin -->` / `<!-- quonto-env:end -->`
/// markers. `xtask lint` (rule `R4.docs`) fails when the embedded copies
/// differ from this rendering; `xtask env-docs --write` refreshes them.
pub fn markdown_table() -> String {
    let mut out = String::from(
        "| Variable | Values | Default | What it does |\n\
         |---|---|---|---|\n",
    );
    for k in KNOBS {
        let doc = k.doc.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name,
            k.kind.values(),
            k.default,
            doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_unique_and_prefixed() {
        for pair in KNOBS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "KNOBS must stay sorted: {} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
        for k in KNOBS {
            assert!(
                k.name.starts_with("QUONTO_"),
                "knob {} must be QUONTO_-prefixed",
                k.name
            );
            assert!(!k.doc.is_empty() && !k.default.is_empty());
        }
    }

    #[test]
    fn table_lists_every_knob() {
        let table = markdown_table();
        for k in KNOBS {
            assert!(table.contains(k.name), "table missing {}", k.name);
        }
        assert_eq!(table.lines().count(), KNOBS.len() + 2);
    }

    #[test]
    fn lookups_work() {
        assert!(is_registered("QUONTO_TIMINGS"));
        assert!(!is_registered("QUONTO_NOT_A_KNOB"));
    }
}
