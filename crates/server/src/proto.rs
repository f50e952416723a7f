//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line:
//!
//! ```json
//! {"id":"7","endpoint":"uni","lang":"cq","query":"q(x) :- Student(x)"}
//! ```
//!
//! * `id` — optional opaque string echoed back in the response;
//! * `endpoint` — name of a loaded endpoint (see [`crate::config`]);
//! * `lang` — `"cq"` (datalog-style concrete syntax, the default) or
//!   `"sparql"` (conjunctive SELECT/ASK fragment);
//! * `query` — the query text;
//! * `timeout_ms` — optional per-request deadline override, clamped to
//!   the server's configured maximum.
//!
//! A JSON object carrying `insert` and/or `delete` (and **no** `query`)
//! is a *write* — a [`mastro::AboxDelta`] batch applied to the
//! endpoint's materialized ABox through the incremental write path:
//!
//! ```json
//! {"id":"w1","endpoint":"uni","insert":[["Student","person/9"],
//!   ["takesCourse","person/9","course/1"],["personName","person/9","Ada"]],
//!   "delete":[["takesCourse","person/9","course/2"]]}
//! ```
//!
//! Each statement is an array: `[predicate, individual]` asserts a
//! concept membership; `[predicate, subject, object]` asserts a role
//! (string object) or attribute (the object is an attribute value — a
//! JSON integer becomes a typed int, a string on an attribute predicate
//! becomes a text value; predicate names resolve against the TBox
//! signature, roles first). Deletes apply before inserts; duplicate
//! inserts and deletes of absent facts are no-ops.
//!
//! The bare line `STATS` (no JSON) returns the metrics snapshot, and
//! `TRACE` (or `TRACE n`) returns the last `n` completed query traces
//! from the in-process ring buffer, each with its per-phase timing
//! breakdown.
//!
//! Responses are one JSON object per line with a `status` field:
//! `ok` (with `answers` as an array of string tuples, `rows`, and
//! timing fields), `error` (with `error` text and a machine-readable
//! `kind` such as `bad_request`, `unknown_endpoint`, `parse`,
//! `sql.evaluate`, `panic`, or `internal`), `overloaded` (queue
//! full — retry later), `timeout` (deadline exceeded), or
//! `shutting_down`. Answer tuples are rendered via each term's display
//! form and arrive in the evaluator's sorted order, so two servers over
//! the same data produce byte-identical `answers` arrays.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use mastro::{AboxDelta, AnswerTerm, Answers, DeltaStatement, DeltaSummary, ObdaError};
use obda_dllite::Value;
use obda_obs::QueryTrace;

use crate::json::{self, Json};

/// Query language of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    /// Datalog-style conjunctive query syntax (`q(x) :- C(x), r(x, y)`).
    Cq,
    /// SPARQL conjunctive fragment (SELECT / ASK).
    Sparql,
}

impl Lang {
    pub fn as_str(self) -> &'static str {
        match self {
            Lang::Cq => "cq",
            Lang::Sparql => "sparql",
        }
    }

    /// The engine-side language this wire tag selects.
    pub fn to_engine(self) -> mastro::QueryLang {
        match self {
            Lang::Cq => mastro::QueryLang::Cq,
            Lang::Sparql => mastro::QueryLang::Sparql,
        }
    }
}

/// A parsed query request.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Client-chosen id, echoed back verbatim.
    pub id: Option<String>,
    /// Endpoint name.
    pub endpoint: String,
    /// Query language.
    pub lang: Lang,
    /// Query text.
    pub query: String,
    /// Per-request deadline override (milliseconds).
    pub timeout_ms: Option<u64>,
}

/// A parsed write request: one delta batch against one endpoint.
#[derive(Debug, Clone)]
pub struct WriteRequest {
    /// Client-chosen id, echoed back verbatim.
    pub id: Option<String>,
    /// Endpoint name.
    pub endpoint: String,
    /// The batch: deletes apply first, then inserts.
    pub delta: AboxDelta,
    /// Per-request deadline override (milliseconds).
    pub timeout_ms: Option<u64>,
}

/// Any frame a client can send.
#[derive(Debug, Clone)]
pub enum Request {
    /// A query.
    Query(QueryRequest),
    /// A write (delta batch).
    Write(WriteRequest),
    /// The `STATS` verb.
    Stats,
    /// The `TRACE [n]` verb: fetch the last `n` completed query traces
    /// (default 1) from the in-process ring buffer.
    Trace(Option<usize>),
}

/// Parses one protocol line. Never panics on malformed input — every
/// failure is an `Err` the connection handler turns into an `error`
/// response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.eq_ignore_ascii_case("stats") {
        return Ok(Request::Stats);
    }
    if line.eq_ignore_ascii_case("trace") {
        return Ok(Request::Trace(None));
    }
    if let Some(rest) = line
        .get(..5)
        .filter(|head| head.eq_ignore_ascii_case("trace"))
        .map(|_| line[5..].trim())
        .filter(|rest| !rest.is_empty())
    {
        let n: usize = rest
            .parse()
            .map_err(|_| format!("bad frame: TRACE count must be an integer, got `{rest}`"))?;
        return Ok(Request::Trace(Some(n)));
    }
    let v = Json::parse(line).map_err(|e| format!("bad frame: {e}"))?;
    if !matches!(v, Json::Obj(_)) {
        return Err("bad frame: request must be a JSON object".into());
    }
    let id = match v.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Num(n)) => Some(Json::Num(*n).to_string()),
        Some(_) => return Err("bad frame: `id` must be a string or number".into()),
    };
    let endpoint = match v.get("endpoint") {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        _ => return Err("bad frame: missing `endpoint`".into()),
    };
    let timeout_ms = match v.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(n) => Some(
            n.as_u64()
                .ok_or("bad frame: `timeout_ms` must be a non-negative integer")?,
        ),
    };
    if v.get("insert").is_some() || v.get("delete").is_some() {
        if v.get("query").is_some() || v.get("lang").is_some() {
            return Err("bad frame: a request is a query or a write, not both".into());
        }
        let delta = AboxDelta {
            inserts: parse_statements(v.get("insert"), "insert")?,
            deletes: parse_statements(v.get("delete"), "delete")?,
        };
        if delta.is_empty() {
            return Err("bad frame: write carries no statements".into());
        }
        return Ok(Request::Write(WriteRequest {
            id,
            endpoint,
            delta,
            timeout_ms,
        }));
    }
    let lang = match v.get("lang").and_then(Json::as_str) {
        None | Some("cq") => Lang::Cq,
        Some("sparql") => Lang::Sparql,
        Some(other) => return Err(format!("bad frame: unknown lang `{other}`")),
    };
    let query = match v.get("query") {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        _ => return Err("bad frame: missing `query`".into()),
    };
    Ok(Request::Query(QueryRequest {
        id,
        endpoint,
        lang,
        query,
        timeout_ms,
    }))
}

/// Parses one side of a write batch: an array of statement arrays.
fn parse_statements(field: Option<&Json>, name: &str) -> Result<Vec<DeltaStatement>, String> {
    let items = match field {
        None | Some(Json::Null) => return Ok(Vec::new()),
        Some(Json::Arr(items)) => items,
        Some(_) => {
            return Err(format!(
                "bad frame: `{name}` must be an array of statements"
            ))
        }
    };
    items
        .iter()
        .map(|item| parse_statement(item, name))
        .collect()
}

/// One wire statement: `[predicate, individual]` (concept) or
/// `[predicate, subject, object]` (role / attribute). A JSON-integer
/// object pins the statement to an attribute with a typed int value.
fn parse_statement(item: &Json, name: &str) -> Result<DeltaStatement, String> {
    let shape = format!(
        "bad frame: each `{name}` statement is [predicate, individual] or [predicate, subject, object]"
    );
    let Json::Arr(parts) = item else {
        return Err(shape);
    };
    match parts.as_slice() {
        [Json::Str(p), Json::Str(i)] if !p.is_empty() && !i.is_empty() => {
            Ok(DeltaStatement::unary(p, i))
        }
        [Json::Str(p), Json::Str(s), Json::Str(o)] if !p.is_empty() && !s.is_empty() => {
            Ok(DeltaStatement::binary(p, s, o))
        }
        [Json::Str(p), Json::Str(s), Json::Num(n)] if !p.is_empty() && !s.is_empty() => {
            if n.fract() != 0.0 || *n < i64::MIN as f64 || *n > i64::MAX as f64 {
                return Err(format!(
                    "bad frame: `{name}` attribute value must be an integer, got {n}"
                ));
            }
            Ok(DeltaStatement::binary_value(p, s, Value::Int(*n as i64)))
        }
        _ => Err(shape),
    }
}

fn id_field(id: &Option<String>) -> Json {
    match id {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    }
}

/// Renders an answer set as the JSON text of an array of string tuples
/// (sorted — the evaluator returns a `BTreeSet`, so the order is already
/// canonical). Each term is the JSON string of its display form:
/// `Display` writes through the escaping `json::Esc` adapter, and
/// plain text values skip the formatter. No `Json` tree and no per-term
/// `String` is built; the bytes are those of `Json::Arr` of `Json::Arr`
/// of `Json::Str(term.to_string())`, which clients digest and compare.
pub fn answers_to_json(answers: &Answers) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_answers(answers, &mut out);
    out
}

fn write_answers(answers: &Answers, out: &mut String) -> fmt::Result {
    out.push('[');
    for (i, tuple) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, term) in tuple.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match term {
                // `Value::Text` displays as Rust's `{:?}` quoting, which on
                // printable ASCII without `"` or `\` is the text itself in
                // quotes, so only those two quotes need escaping. Skipping
                // the formatter here is worth ≈4% of uni-read's p50
                // (EXPERIMENTS A15); the identity test pins the rule.
                AnswerTerm::Value(Value::Text(s))
                    if s.bytes()
                        .all(|b| matches!(b, b' '..=b'~') && b != b'"' && b != b'\\') =>
                {
                    out.push_str("\"\\\"");
                    out.push_str(s);
                    out.push_str("\\\"\"");
                }
                _ => {
                    out.push('"');
                    write!(json::Esc(&mut *out), "{term}")?;
                    out.push('"');
                }
            }
        }
        out.push(']');
    }
    out.push(']');
    Ok(())
}

/// `status: ok` response with answers and timing, as the text of the
/// reply object (fields in the order `id`, `status`, `rows`, `answers`,
/// `wait_us`, `exec_us`).
pub fn ok_response(id: &Option<String>, answers: &Answers, wait_us: u64, exec_us: u64) -> String {
    let mut out = String::from("{\"id\":");
    id_field(id).write(&mut out);
    out.push_str(",\"status\":\"ok\",\"rows\":");
    Json::from(answers.len()).write(&mut out);
    out.push_str(",\"answers\":");
    // Writing into a `String` cannot fail.
    let _ = write_answers(answers, &mut out);
    out.push_str(",\"wait_us\":");
    Json::from(wait_us).write(&mut out);
    out.push_str(",\"exec_us\":");
    Json::from(exec_us).write(&mut out);
    out.push('}');
    out
}

/// `status: ok` response for an applied write batch. `inserted` and
/// `deleted` count *changed* rows (duplicate inserts and deletes of
/// absent facts are no-ops); `fallback` counts memoized view extents
/// the batch invalidated instead of patching.
pub fn write_ok_response(
    id: &Option<String>,
    summary: &DeltaSummary,
    wait_us: u64,
    exec_us: u64,
) -> Json {
    Json::obj(vec![
        ("id", id_field(id)),
        ("status", "ok".into()),
        ("inserted", summary.inserted.into()),
        ("deleted", summary.deleted.into()),
        ("fallback", summary.fallbacks.into()),
        ("wait_us", wait_us.into()),
        ("exec_us", exec_us.into()),
    ])
}

/// `status: error` response (parse failures, unknown endpoints, engine
/// errors). `kind` is a stable machine-readable discriminator:
/// `bad_request` (frame failed protocol parsing), `unknown_endpoint`,
/// an engine error kind ([`ObdaError::kind`]: `parse`, `sql.unfold`,
/// `sql.evaluate`, ...), `panic`, or `internal`.
pub fn error_response(id: &Option<String>, kind: &str, message: &str) -> Json {
    Json::obj(vec![
        ("id", id_field(id)),
        ("status", "error".into()),
        ("kind", kind.into()),
        ("error", message.into()),
    ])
}

/// The `TRACE` response: newest-first completed query traces with their
/// depth-0 phase breakdowns, counters, and tags.
pub fn trace_response(traces: &[Arc<QueryTrace>]) -> Json {
    let count = traces.len();
    let traces = traces
        .iter()
        .map(|t| {
            let phases = Json::Arr(
                t.phases()
                    .iter()
                    .map(|(name, us)| {
                        Json::obj(vec![("phase", (*name).into()), ("us", (*us).into())])
                    })
                    .collect(),
            );
            let counters = Json::Obj(
                t.counters
                    .iter()
                    .map(|(name, n)| ((*name).to_owned(), Json::from(*n)))
                    .collect(),
            );
            let tags = Json::Obj(
                t.tags
                    .iter()
                    .map(|(name, v)| ((*name).to_owned(), Json::Str(v.clone())))
                    .collect(),
            );
            Json::obj(vec![
                ("id", t.id.into()),
                ("query", t.query.as_str().into()),
                ("status", t.status.as_str().into()),
                ("rows", t.rows.into()),
                ("total_us", t.total_us.into()),
                ("phases", phases),
                ("counters", counters),
                ("tags", tags),
            ])
        })
        .collect();
    Json::obj(vec![
        ("status", "ok".into()),
        ("count", count.into()),
        ("traces", Json::Arr(traces)),
    ])
}

/// `status: overloaded` — the bounded queue is full; the client should
/// back off and retry.
pub fn overloaded_response(id: &Option<String>) -> Json {
    Json::obj(vec![("id", id_field(id)), ("status", "overloaded".into())])
}

/// `status: timeout` — the per-request deadline passed before the
/// answer was produced.
pub fn timeout_response(id: &Option<String>) -> Json {
    Json::obj(vec![("id", id_field(id)), ("status", "timeout".into())])
}

/// `status: shutting_down` — the server is draining and accepts no new
/// work.
pub fn shutting_down_response(id: &Option<String>) -> Json {
    Json::obj(vec![
        ("id", id_field(id)),
        ("status", "shutting_down".into()),
    ])
}

/// Flattens an engine error into response text.
pub fn engine_error_text(e: &ObdaError) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_query() {
        let r = parse_request(r#"{"endpoint":"uni","query":"q(x) :- Student(x)"}"#).unwrap();
        let Request::Query(q) = r else {
            panic!("query")
        };
        assert_eq!(q.endpoint, "uni");
        assert_eq!(q.lang, Lang::Cq);
        assert_eq!(q.id, None);
        assert_eq!(q.timeout_ms, None);
    }

    #[test]
    fn parses_full_query() {
        let r = parse_request(
            r#"{"id":"42","endpoint":"uni","lang":"sparql","query":"ASK WHERE { ?x a :A }","timeout_ms":250}"#,
        )
        .unwrap();
        let Request::Query(q) = r else {
            panic!("query")
        };
        assert_eq!(q.id.as_deref(), Some("42"));
        assert_eq!(q.lang, Lang::Sparql);
        assert_eq!(q.timeout_ms, Some(250));
    }

    #[test]
    fn stats_verb() {
        assert!(matches!(parse_request("STATS").unwrap(), Request::Stats));
        assert!(matches!(
            parse_request("  stats  ").unwrap(),
            Request::Stats
        ));
    }

    #[test]
    fn trace_verb() {
        assert!(matches!(
            parse_request("TRACE").unwrap(),
            Request::Trace(None)
        ));
        assert!(matches!(
            parse_request("  trace  ").unwrap(),
            Request::Trace(None)
        ));
        assert!(matches!(
            parse_request("TRACE 5").unwrap(),
            Request::Trace(Some(5))
        ));
        assert!(matches!(
            parse_request("trace 16").unwrap(),
            Request::Trace(Some(16))
        ));
        assert!(parse_request("TRACE five").is_err());
        assert!(parse_request("TRACE -1").is_err());
    }

    #[test]
    fn parses_write_batches() {
        let r = parse_request(
            r#"{"id":"w1","endpoint":"uni","insert":[["Student","person/9"],["takesCourse","person/9","course/1"],["age","person/9",30]],"delete":[["takesCourse","person/9","course/2"]],"timeout_ms":250}"#,
        )
        .unwrap();
        let Request::Write(w) = r else {
            panic!("write")
        };
        assert_eq!(w.id.as_deref(), Some("w1"));
        assert_eq!(w.endpoint, "uni");
        assert_eq!(w.timeout_ms, Some(250));
        assert_eq!(w.delta.inserts.len(), 3);
        assert_eq!(w.delta.deletes.len(), 1);
        assert_eq!(
            w.delta.inserts[0],
            DeltaStatement::unary("Student", "person/9")
        );
        assert_eq!(
            w.delta.inserts[2],
            DeltaStatement::binary_value("age", "person/9", Value::Int(30))
        );
        // Insert-only and delete-only batches are fine.
        assert!(matches!(
            parse_request(r#"{"endpoint":"uni","insert":[["A","i"]]}"#).unwrap(),
            Request::Write(_)
        ));
        assert!(matches!(
            parse_request(r#"{"endpoint":"uni","delete":[["A","i"]]}"#).unwrap(),
            Request::Write(_)
        ));
    }

    #[test]
    fn rejects_malformed_writes() {
        for bad in [
            // Query and write in one frame.
            r#"{"endpoint":"uni","query":"q(x) :- A(x)","insert":[["A","i"]]}"#,
            // Empty batch.
            r#"{"endpoint":"uni","insert":[],"delete":[]}"#,
            // Statement shape violations.
            r#"{"endpoint":"uni","insert":[["A"]]}"#,
            r#"{"endpoint":"uni","insert":[["A","s","o","x"]]}"#,
            r#"{"endpoint":"uni","insert":["A"]}"#,
            r#"{"endpoint":"uni","insert":[["","i"]]}"#,
            r#"{"endpoint":"uni","insert":[[1,"i"]]}"#,
            r#"{"endpoint":"uni","insert":[["age","s",1.5]]}"#,
            r#"{"endpoint":"uni","insert":"A(i)"}"#,
            // Writes still need an endpoint.
            r#"{"insert":[["A","i"]]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn write_ok_response_carries_counts() {
        let j = write_ok_response(
            &Some("w1".into()),
            &DeltaSummary {
                inserted: 3,
                deleted: 1,
                fallbacks: 2,
            },
            10,
            20,
        );
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(j.get("inserted").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("deleted").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("fallback").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("exec_us").and_then(Json::as_u64), Some(20));
    }

    #[test]
    fn error_response_carries_kind() {
        let j = error_response(&Some("9".into()), "unknown_endpoint", "no such endpoint");
        assert_eq!(j.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            j.get("kind").and_then(Json::as_str),
            Some("unknown_endpoint")
        );
        assert_eq!(
            j.get("error").and_then(Json::as_str),
            Some("no such endpoint")
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "garbage",
            "{}",
            r#"{"endpoint":"uni"}"#,
            r#"{"query":"q(x) :- A(x)"}"#,
            r#"{"endpoint":"uni","query":"q","lang":"prolog"}"#,
            r#"{"endpoint":"uni","query":"q","timeout_ms":-4}"#,
            r#"{"endpoint":"uni","query":"q","timeout_ms":1.5}"#,
            r#"[1,2,3]"#,
            "\u{0}\u{1}\u{2}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }
}
