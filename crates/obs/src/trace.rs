//! The query-scoped trace context: nested phase spans with counters.
//!
//! A [`TraceCtx`] is either *enabled* (backed by shared state behind a
//! mutex — spans, counters, tags accumulate until [`TraceCtx::finish`])
//! or *disabled* (`inner == None`), in which case every operation is a
//! branch on an `Option` and no allocation or locking happens. The
//! answering pipeline threads `&TraceCtx` unconditionally and pays for
//! tracing only when someone asked for it.
//!
//! Span nesting is positional: opening a span records the current open
//! stack depth, so the flat `spans` vector plus each record's `depth`
//! reconstructs the tree. Guards are meant to drop LIFO (lexical
//! scopes); a non-LIFO drop closes the right span anyway because the
//! guard remembers its own index.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use quonto::sync::lock_or_recover;

/// Process-wide trace id source; ids are unique per process run.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// One completed (or still-open, while `dur_us == 0`) phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (`"parse"`, `"rewrite"`, `"perfectref"`, …).
    pub name: &'static str,
    /// Nesting depth at open time: 0 = top-level phase.
    pub depth: u16,
    /// Microseconds from trace start to span open.
    pub start_us: u64,
    /// Span wall time in microseconds.
    pub dur_us: u64,
    /// Named counters attributed to this span.
    pub counters: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct CtxState {
    spans: Vec<SpanRecord>,
    /// Indices (into `spans`) of currently open spans, innermost last.
    open: Vec<usize>,
    /// Trace-level counters (same name accumulates).
    counters: Vec<(&'static str, u64)>,
    /// Trace-level string tags (same name overwrites).
    tags: Vec<(&'static str, String)>,
    query: Option<String>,
}

#[derive(Debug)]
struct CtxInner {
    id: u64,
    start: Instant,
    state: Mutex<CtxState>,
}

impl CtxInner {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A query-scoped trace context. Cheap to clone (an `Arc` bump) and
/// safe to share across threads.
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    inner: Option<Arc<CtxInner>>,
}

impl TraceCtx {
    /// An enabled context with a fresh process-unique trace id.
    pub fn new() -> TraceCtx {
        TraceCtx {
            inner: Some(Arc::new(CtxInner {
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                state: Mutex::new(CtxState::default()),
            })),
        }
    }

    /// A no-op context: spans, counters, and tags all cost one branch.
    pub fn disabled() -> TraceCtx {
        TraceCtx { inner: None }
    }

    /// Enabled iff [`finish`](Self::finish) will yield a trace.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id (0 for a disabled context).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// Opens a nested phase span; prefer the [`crate::span!`] macro.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                idx: 0,
            };
        };
        let start_us = inner.now_us();
        let mut st = lock_or_recover(&inner.state);
        let depth = u16::try_from(st.open.len()).unwrap_or(u16::MAX);
        let idx = st.spans.len();
        st.spans.push(SpanRecord {
            name,
            depth,
            start_us,
            dur_us: 0,
            counters: Vec::new(),
        });
        st.open.push(idx);
        SpanGuard {
            inner: Some(Arc::clone(inner)),
            idx,
        }
    }

    /// Adds `n` to a trace-level counter.
    pub fn count(&self, name: &'static str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock_or_recover(&inner.state);
        match st.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v = v.saturating_add(n),
            None => st.counters.push((name, n)),
        }
    }

    /// Sets a trace-level string tag (overwrites an existing name).
    pub fn tag(&self, name: &'static str, value: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let value = value.into();
        let mut st = lock_or_recover(&inner.state);
        match st.tags.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v = value,
            None => st.tags.push((name, value)),
        }
    }

    /// Attaches the query text shown in `TRACE` output.
    pub fn set_query(&self, text: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        lock_or_recover(&inner.state).query = Some(text.into());
    }

    /// Seals the context into a [`QueryTrace`] (`None` when disabled).
    /// Still-open spans are closed at the finish instant.
    pub fn finish(&self, status: &str, rows: u64) -> Option<QueryTrace> {
        let inner = self.inner.as_ref()?;
        let total_us = inner.now_us();
        let mut st = lock_or_recover(&inner.state);
        let open = std::mem::take(&mut st.open);
        for idx in open {
            if let Some(s) = st.spans.get_mut(idx) {
                s.dur_us = total_us.saturating_sub(s.start_us);
            }
        }
        Some(QueryTrace {
            id: inner.id,
            query: st.query.take().unwrap_or_default(),
            status: status.to_owned(),
            rows,
            total_us,
            spans: std::mem::take(&mut st.spans),
            counters: std::mem::take(&mut st.counters),
            tags: std::mem::take(&mut st.tags),
        })
    }
}

/// RAII guard for one phase span; records wall time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<CtxInner>>,
    idx: usize,
}

impl SpanGuard {
    /// Adds `n` to a counter attributed to this span.
    pub fn count(&self, name: &'static str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock_or_recover(&inner.state);
        let Some(span) = st.spans.get_mut(self.idx) else {
            return;
        };
        match span.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v = v.saturating_add(n),
            None => span.counters.push((name, n)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let now = inner.now_us();
        let mut st = lock_or_recover(&inner.state);
        if let Some(s) = st.spans.get_mut(self.idx) {
            if s.dur_us == 0 {
                s.dur_us = now.saturating_sub(s.start_us).max(1);
            }
        }
        if let Some(pos) = st.open.iter().rposition(|&i| i == self.idx) {
            st.open.remove(pos);
        }
    }
}

/// One finished per-query trace: the span tree (flattened, with
/// depths), trace-level counters/tags, and the outcome.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub id: u64,
    /// Query text as received (empty if never attached).
    pub query: String,
    /// Outcome: `"ok"`, `"error"`, `"timeout"`, …
    pub status: String,
    /// Answer rows produced.
    pub rows: u64,
    /// End-to-end wall time in microseconds.
    pub total_us: u64,
    pub spans: Vec<SpanRecord>,
    pub counters: Vec<(&'static str, u64)>,
    pub tags: Vec<(&'static str, String)>,
}

impl QueryTrace {
    /// Total microseconds across spans with this name (any depth).
    pub fn span_us(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum()
    }

    /// Sum of a named counter across the trace level and every span.
    pub fn counter(&self, name: &str) -> u64 {
        let trace_level: u64 = self
            .counters
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .sum();
        let span_level: u64 = self
            .spans
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .sum();
        trace_level.saturating_add(span_level)
    }

    pub fn tag(&self, name: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Top-level phases in execution order: `(name, dur_us)`.
    pub fn phases(&self) -> Vec<(&'static str, u64)> {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| (s.name, s.dur_us))
            .collect()
    }

    /// The legacy `mastro-timings` one-liner, reconstructed from spans
    /// so `QUONTO_TIMINGS=1` output keeps its pre-trace shape.
    pub fn timings_line(&self) -> String {
        let ms = |us: u64| us as f64 / 1000.0;
        let eval_us = {
            let eval = self.span_us("eval");
            if eval > 0 {
                eval
            } else {
                self.span_us("unfold").saturating_add(self.span_us("sql"))
            }
        };
        format!(
            "mastro-timings rewriting={} data={} parse_ms={:.2} rewrite_ms={:.2} cache={} ucq={} pruned={} eval_ms={:.2} answers={}",
            self.tag("rewriting").unwrap_or("-"),
            self.tag("data").unwrap_or("-"),
            ms(self.span_us("parse")),
            ms(self.span_us("rewrite")),
            if self.counter("cache_hit") > 0 { "hit" } else { "miss" },
            self.counter("ucq_raw"),
            self.counter("ucq_pruned"),
            ms(eval_us),
            self.rows,
        )
    }

    /// One JSON object per trace (hand-rolled; this crate sits below
    /// the server's JSON module).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"trace\":{},\"status\":\"{}\",\"rows\":{},\"total_us\":{}",
            self.id,
            escape(&self.status),
            self.rows,
            self.total_us
        ));
        if !self.query.is_empty() {
            out.push_str(&format!(",\"query\":\"{}\"", escape(&self.query)));
        }
        for (k, v) in &self.tags {
            out.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
        }
        for (k, v) in &self.counters {
            out.push_str(&format!(",\"{}\":{}", escape(k), v));
        }
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"depth\":{},\"start_us\":{},\"dur_us\":{}",
                escape(s.name),
                s.depth,
                s.start_us,
                s.dur_us
            ));
            for (k, v) in &s.counters {
                out.push_str(&format!(",\"{}\":{}", escape(k), v));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_is_inert() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.enabled());
        assert_eq!(ctx.id(), 0);
        let g = ctx.span("parse");
        g.count("x", 1);
        ctx.count("y", 2);
        ctx.tag("mode", "none");
        drop(g);
        assert!(ctx.finish("ok", 0).is_none());
    }

    #[test]
    fn nested_spans_record_depth_and_order() {
        let ctx = TraceCtx::new();
        {
            let _a = ctx.span("rewrite");
            {
                let _b = ctx.span("perfectref");
            }
            {
                let b = ctx.span("prune");
                b.count("disjuncts_before", 10);
                b.count("disjuncts_after", 4);
            }
        }
        let _c = ctx.span("eval");
        drop(_c);
        let t = ctx.finish("ok", 7).expect("trace");
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            names,
            vec![("rewrite", 0), ("perfectref", 1), ("prune", 1), ("eval", 0)]
        );
        assert_eq!(t.counter("disjuncts_after"), 4);
        assert_eq!(t.phases().len(), 2);
        assert_eq!(t.rows, 7);
    }

    #[test]
    fn child_spans_fit_inside_the_parent() {
        let ctx = TraceCtx::new();
        {
            let _p = ctx.span("rewrite");
            for _ in 0..3 {
                let _c = ctx.span("perfectref");
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        let t = ctx.finish("ok", 0).expect("trace");
        let parent = t
            .spans
            .iter()
            .find(|s| s.name == "rewrite")
            .expect("parent");
        let child_sum: u64 = t
            .spans
            .iter()
            .filter(|s| s.depth == 1)
            .map(|s| s.dur_us)
            .sum();
        // Children are timed strictly inside the parent window; allow
        // 1µs rounding per child.
        assert!(
            child_sum <= parent.dur_us + 3,
            "children {child_sum}µs exceed parent {}µs",
            parent.dur_us
        );
        assert!(t.total_us >= parent.dur_us);
    }

    #[test]
    fn open_spans_are_closed_by_finish() {
        let ctx = TraceCtx::new();
        let guard = ctx.span("eval");
        let t = ctx.finish("timeout", 0).expect("trace");
        drop(guard); // late drop must not panic or corrupt anything
        assert!(t.spans[0].dur_us <= t.total_us);
        assert_eq!(t.status, "timeout");
    }

    #[test]
    fn counters_and_tags_accumulate() {
        let ctx = TraceCtx::new();
        ctx.count("rows_scanned", 10);
        ctx.count("rows_scanned", 5);
        ctx.tag("rewriting", "PerfectRef");
        ctx.tag("rewriting", "Presto");
        let t = ctx.finish("ok", 0).expect("trace");
        assert_eq!(t.counter("rows_scanned"), 15);
        assert_eq!(t.tag("rewriting"), Some("Presto"));
    }

    #[test]
    fn timings_line_has_the_legacy_shape() {
        let ctx = TraceCtx::new();
        ctx.tag("rewriting", "PerfectRef");
        ctx.tag("data", "Materialized");
        {
            let r = ctx.span("rewrite");
            r.count("ucq_raw", 12);
            r.count("ucq_pruned", 4);
        }
        {
            let _eval = ctx.span("eval");
        }
        let t = ctx.finish("ok", 42).expect("trace");
        let line = t.timings_line();
        assert!(line.starts_with("mastro-timings rewriting=PerfectRef data=Materialized"));
        assert!(line.contains("cache=miss"));
        assert!(line.contains("ucq=12"));
        assert!(line.contains("pruned=4"));
        assert!(line.contains("answers=42"));
    }

    #[test]
    fn json_line_is_escaped() {
        let ctx = TraceCtx::new();
        ctx.set_query("q(x) :- \"weird\"\n");
        let t = ctx.finish("ok", 1).expect("trace");
        let line = t.to_json_line();
        assert!(line.contains("\\\"weird\\\"\\n"));
        assert!(line.starts_with("{\"trace\":"));
        assert!(line.ends_with("]}"));
    }
}
