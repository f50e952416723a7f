//! The lint rule catalogue (R1–R5) plus the suppression machinery (R0).
//!
//! Every rule works on the masked views produced by [`crate::scanner`],
//! so tokens inside string literals and comments never trigger code
//! rules. Scopes are deliberate:
//!
//! | rule group | scope |
//! |---|---|
//! | R1 panic paths | `crates/server/src`, `crates/obda/src` library code (requests must not be able to kill a worker) |
//! | R2 lock discipline | all library/binary code (poison recovery, guard-vs-I/O, condvar pairing, lock order) |
//! | R3 unsafe audit | everywhere, tests included |
//! | R4 env registry | everywhere outside the registry itself, docs included |
//! | R5 hygiene | `#[ignore]` reasons everywhere; stdout prints in library code |
//! | R6 observability | raw stderr prints in traced library code (`obda`, `sqlstore`, `mapping`, `server`, `obs`) — timing/diagnostic output must flow through `obda-obs` spans and sinks |
//!
//! Suppressions are explicit and must carry a reason:
//! `// lint: allow(rule-id, "reason")` on the offending line or the line
//! directly above, or `// lint: allow-file(rule-id, "reason")` anywhere
//! in the file. A suppression that parses badly, names an unknown rule,
//! or matches no finding is itself an error (`R0.allow`) — stale allows
//! rot into false confidence.

use crate::scanner::{FileKind, ScannedFile};

/// Substring match with an identifier boundary on the left, so
/// `println!(` does not match inside `eprintln!(`.
fn has_token(code: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(p) = code[from..].find(tok) {
        let at = from + p;
        let bounded = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if bounded {
            return true;
        }
        from = at + tok.len();
    }
    false
}

/// Rule identifiers, with the fix hint shown next to each diagnostic.
pub const RULES: &[(&str, &str)] = &[
    (
        "R1.unwrap",
        "return an error (`?`, `ok_or_else`) or match; request paths must not be able to panic",
    ),
    (
        "R1.expect",
        "return an error instead; if the invariant is real, `lint: allow` it with the proof",
    ),
    (
        "R1.panic",
        "panic-family macros kill the worker mid-request; return an error or justify with `lint: allow`",
    ),
    (
        "R1.index",
        "use `.get(..)` or prove the bound in a `lint: allow` reason",
    ),
    (
        "R2.lock-unwrap",
        "use `quonto::sync::lock_or_recover` so one panicking holder cannot poison-cascade",
    ),
    (
        "R2.guard-io",
        "drop the guard before blocking I/O: a stalled peer must not extend a critical section",
    ),
    (
        "R2.condvar",
        "a Condvar must always be paired with the same mutex; see the CONDVAR_PAIRS table",
    ),
    (
        "R2.order",
        "acquire locks in LOCK_ORDER to keep the lock graph acyclic",
    ),
    (
        "R3.safety",
        "document the invariant in a `// SAFETY:` comment directly above the unsafe site",
    ),
    (
        "R4.read",
        "read QUONTO_* variables through a typed accessor in `quonto::env`, never ad hoc",
    ),
    (
        "R4.unregistered",
        "register the knob in `quonto::env::KNOBS` (then `cargo run -p xtask -- env-docs --write`)",
    ),
    (
        "R4.docs",
        "run `cargo run -p xtask -- env-docs --write` to refresh the embedded knob table",
    ),
    (
        "R5.ignore",
        "say why: `#[ignore = \"reason\"]`",
    ),
    (
        "R5.print",
        "library code must not write to stdout; use `eprintln!` or return the data",
    ),
    (
        "R6.print",
        "record a span/counter and let the obda-obs sink emit it; raw stderr prints bypass QUONTO_TIMINGS routing",
    ),
    (
        "R0.allow",
        "suppressions are `lint: allow(rule-id, \"reason\")` and must match a real finding",
    ),
];

/// Knobs the workspace once read and no longer does. The changelog may
/// still name them, since it records what each change did; code and
/// every other doc may not.
pub const RETIRED_KNOBS: &[&str] = &["QUONTO_SHARDS", "QUONTO_THREADS"];

/// `Condvar` field → the mutex field it must always re-acquire.
pub const CONDVAR_PAIRS: &[(&str, &str)] = &[("ready", "inner")];

/// Workspace lock-acquisition order (outermost first). Acquiring an
/// earlier lock while holding a later one is an R2.order violation.
/// `data` is the `AboxSystem` store lock (abox + index + version); the
/// write path acquires it before touching the rewrite cache or the
/// materialized slot, and RwLock acquisitions through
/// `read_or_recover`/`write_or_recover` count the same as mutex ones.
pub const LOCK_ORDER: &[&str] = &["inner", "data", "rewrite_cache", "materialized"];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn hint(&self) -> &'static str {
        RULES
            .iter()
            .chain(crate::analyze::RULES.iter())
            .find(|(id, _)| *id == self.rule)
            .map(|(_, h)| *h)
            .unwrap_or("")
    }

    /// Line-number-free identity used by the baseline: findings survive
    /// unrelated edits above them.
    pub fn fingerprint(&self, raw_line: &str) -> String {
        format!("{}|{}|{}", self.rule, self.path, fnv64(raw_line.trim()))
    }
}

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct Allow {
    rule: String,
    /// 1-based line of the comment.
    line: usize,
    file_wide: bool,
    used: std::cell::Cell<bool>,
}

/// Parses `<marker>(rule, "reason")` / `<marker>-file(rule, "reason")`
/// from comment views — shared by `lint: allow` (rules R1–R6) and
/// `analyze: allow` (rules A1–A3). Malformed suppressions become
/// findings under `allow_rule` (`R0.allow` / `A0.allow`).
pub(crate) fn collect_allows_for(
    file: &ScannedFile,
    marker: &str,
    rule_exists: &dyn Fn(&str) -> bool,
    allow_rule: &'static str,
    findings: &mut Vec<Finding>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    // The lint's own sources talk *about* the suppression syntax in
    // docs and fixtures; they are not suppressions.
    if file.path.starts_with("crates/xtask/") {
        return allows;
    }
    for (idx, l) in file.lines.iter().enumerate() {
        let c = l.comment.trim();
        let Some(pos) = c.find(marker) else {
            continue;
        };
        let rest = &c[pos + marker.len()..];
        let (file_wide, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let bad = |msg: &str, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                rule: allow_rule,
                path: file.path.clone(),
                line: idx + 1,
                message: format!("malformed suppression: {msg}"),
            });
        };
        let Some(inner) = rest
            .strip_prefix('(')
            .and_then(|r| r.rfind(')').map(|e| &r[..e]))
        else {
            bad("expected `(rule-id, \"reason\")`", &mut *findings);
            continue;
        };
        let Some((rule, reason)) = inner.split_once(',') else {
            bad("missing the reason argument", &mut *findings);
            continue;
        };
        let rule = rule.trim();
        let reason = reason.trim();
        if !rule_exists(rule) {
            bad(&format!("unknown rule `{rule}`"), &mut *findings);
            continue;
        }
        if !(reason.len() > 2 && reason.starts_with('"') && reason.ends_with('"')) {
            bad(
                "the reason must be a non-empty quoted string",
                &mut *findings,
            );
            continue;
        }
        allows.push(Allow {
            rule: rule.to_owned(),
            line: idx + 1,
            file_wide,
            used: std::cell::Cell::new(false),
        });
    }
    allows
}

fn collect_allows(file: &ScannedFile, findings: &mut Vec<Finding>) -> Vec<Allow> {
    collect_allows_for(file, "lint: allow", &rule_exists, "R0.allow", findings)
}

/// Filters suppressed findings; unmatched allows become `allow_rule`
/// findings (a stale suppression rots into false confidence).
pub(crate) fn apply_allows_for(
    file_path: &str,
    allows: &[Allow],
    findings: Vec<Finding>,
    allow_rule: &'static str,
) -> Vec<Finding> {
    let mut out: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            let hit = allows.iter().find(|a| {
                a.rule == f.rule && (a.file_wide || a.line == f.line || a.line + 1 == f.line)
            });
            match hit {
                Some(a) => {
                    a.used.set(true);
                    false
                }
                None => true,
            }
        })
        .collect();
    for a in allows.iter().filter(|a| !a.used.get()) {
        out.push(Finding {
            rule: allow_rule,
            path: file_path.to_owned(),
            line: a.line,
            message: format!(
                "unused suppression for `{}`: no finding here to allow (stale after a fix?)",
                a.rule
            ),
        });
    }
    out
}

fn apply_allows(file: &ScannedFile, allows: &[Allow], findings: Vec<Finding>) -> Vec<Finding> {
    apply_allows_for(&file.path, allows, findings, "R0.allow")
}

// ---------------------------------------------------------------------
// R1 — panic paths
// ---------------------------------------------------------------------

/// Library code whose call stacks serve user requests: a panic here
/// costs a worker (or did, before `catch_unwind`) and must be justified.
fn in_request_path(file: &ScannedFile) -> bool {
    file.kind == FileKind::Lib
        && (file.path.starts_with("crates/server/src/")
            || file.path.starts_with("crates/obda/src/"))
        && !file.path.ends_with("/demo.rs")
}

fn r1(file: &ScannedFile, findings: &mut Vec<Finding>) {
    if !in_request_path(file) {
        return;
    }
    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let code = &l.code;
        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding {
                rule,
                path: file.path.clone(),
                line: idx + 1,
                message,
            });
        };
        if code.contains(".unwrap()") {
            push("R1.unwrap", "`.unwrap()` on a request path".into());
        }
        if code.contains(".expect(") {
            push("R1.expect", "`.expect(...)` on a request path".into());
        }
        for mac in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
            if has_token(code, mac) {
                push(
                    "R1.panic",
                    format!("`{}...)` on a request path", &mac[..mac.len() - 1]),
                );
            }
        }
        for (col, expr) in non_literal_index_sites(code) {
            let _ = col;
            push(
                "R1.index",
                format!("unchecked indexing `[{expr}]` on a request path"),
            );
        }
    }
}

/// Finds `recv[expr]` index sites whose index expression is not a
/// literal (literal indices after a destructure/len check are the
/// conventional safe pattern). Returns `(column, index-expr)`.
fn non_literal_index_sites(code: &str) -> Vec<(usize, String)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            let preceded = i > 0
                && (bytes[i - 1].is_ascii_alphanumeric()
                    || bytes[i - 1] == b'_'
                    || bytes[i - 1] == b']'
                    || bytes[i - 1] == b')');
            if preceded {
                // Find the matching bracket on this line.
                let mut depth = 1;
                let mut j = i + 1;
                while j < bytes.len() && depth > 0 {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let inner = if depth == 0 {
                    &code[i + 1..j - 1]
                } else {
                    &code[i + 1..]
                };
                if !is_literal_index(inner) {
                    out.push((i, inner.trim().to_owned()));
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// `7`, `0x1f`, `..`, `..3`, `1..=4` — compile-time-known shapes.
fn is_literal_index(expr: &str) -> bool {
    let e = expr.trim();
    if e.is_empty() {
        return false; // `buf[]` can't happen; treat as suspicious
    }
    let lit = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_hexdigit() || matches!(c, '_' | 'x' | 'o' | 'b'))
    };
    if let Some((a, b)) = e.split_once("..") {
        let b = b.strip_prefix('=').unwrap_or(b);
        (a.trim().is_empty() || lit(a.trim())) && (b.trim().is_empty() || lit(b.trim()))
    } else {
        lit(e)
    }
}

// ---------------------------------------------------------------------
// R2 — lock discipline
// ---------------------------------------------------------------------

/// A guard variable known to be live, with the mutex field it came from.
#[derive(Debug)]
struct LiveGuard {
    var: String,
    /// Field/variable name inside `lock_or_recover(&self.<origin>)`,
    /// when recoverable from the text.
    origin: Option<String>,
    /// Brace depth at the declaration; the guard dies when the block
    /// closes.
    depth: i64,
}

/// Calls that block on the outside world; holding any lock across them
/// turns a slow peer into a stalled critical section.
const IO_TOKENS: &[&str] = &[
    ".write_all(",
    ".read_exact(",
    ".read_to_string(",
    ".read_line(",
    ".flush(",
    "TcpStream::connect(",
    "std::fs::",
    "File::open(",
    "File::create(",
];

fn r2(file: &ScannedFile, findings: &mut Vec<Finding>) {
    if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    // The helper module implements the recovery policy: it is the one
    // place allowed to spell out raw poison recovery and raw condvar
    // waits.
    if file.path == "crates/core/src/sync.rs" {
        return;
    }
    let mut depth: i64 = 0;
    let mut guards: Vec<LiveGuard> = Vec::new();

    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            // Reset at test boundaries; tests may lock however they like.
            continue;
        }
        let code = &l.code;
        // Join direct continuations so `.lock()\n.unwrap()` chains are
        // seen as one expression.
        let joined = if code.trim_end().ends_with(".lock()")
            || code.trim_end().ends_with(".read()")
            || code.trim_end().ends_with(".write()")
        {
            let next = file.lines.get(idx + 1).map(|n| n.code.trim()).unwrap_or("");
            format!("{} {}", code.trim_end(), next)
        } else {
            code.clone()
        };
        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding {
                rule,
                path: file.path.clone(),
                line: idx + 1,
                message,
            });
        };

        for pat in [
            ".lock().unwrap()",
            ".lock().expect(",
            ".read().unwrap()",
            ".read().expect(",
            ".write().unwrap()",
            ".write().expect(",
        ] {
            if joined.replace(' ', "").contains(pat) {
                push(
                    "R2.lock-unwrap",
                    format!("`{pat}` propagates lock poisoning as a fresh panic"),
                );
            }
        }
        if joined.contains("PoisonError") {
            push(
                "R2.lock-unwrap",
                "open-coded poison recovery; use quonto::sync helpers".into(),
            );
        }

        // Guard births. `let g = lock_or_recover(&self.field)` or
        // `let g = x.lock()…`. A chained call on the fresh guard
        // (`lock_or_recover(&…).get(k)`) is a temporary that dies at the
        // semicolon, not a live guard.
        if let Some(var) = let_binding(code) {
            let recover_call = ["lock_or_recover(", "read_or_recover(", "write_or_recover("]
                .iter()
                .any(|pat| code.contains(pat));
            let locks_here = (recover_call && !code.contains(").")) || joined.contains(".lock()");
            if locks_here {
                let origin = origin_field(code);
                // R2.order: acquiring out of declared order while other
                // guards are live.
                if let Some(new_origin) = &origin {
                    if let Some(new_rank) = LOCK_ORDER.iter().position(|f| f == new_origin) {
                        for g in &guards {
                            if let Some(held) = &g.origin {
                                if let Some(held_rank) = LOCK_ORDER.iter().position(|f| f == held) {
                                    if new_rank < held_rank {
                                        push(
                                            "R2.order",
                                            format!(
                                                "locks `{new_origin}` while holding `{held}` (declared order: {})",
                                                LOCK_ORDER.join(" → ")
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                guards.push(LiveGuard { var, origin, depth });
            }
        }

        // R2.condvar: waits must re-acquire the paired mutex.
        if let Some((cv, guard_var)) = condvar_wait(code) {
            match CONDVAR_PAIRS.iter().find(|(c, _)| *c == cv) {
                None => push(
                    "R2.condvar",
                    format!("condvar `{cv}` has no declared mutex pairing (CONDVAR_PAIRS)"),
                ),
                Some((_, want_mutex)) => {
                    let origin = guards
                        .iter()
                        .rev()
                        .find(|g| g.var == guard_var)
                        .and_then(|g| g.origin.as_deref());
                    if let Some(origin) = origin {
                        if origin != *want_mutex {
                            push(
                                "R2.condvar",
                                format!(
                                    "condvar `{cv}` waited with a guard of `{origin}` (declared pair: `{want_mutex}`)"
                                ),
                            );
                        }
                    }
                }
            }
        }

        // R2.guard-io: blocking I/O while any guard is live.
        if !guards.is_empty() {
            for tok in IO_TOKENS {
                if code.contains(tok) {
                    let held: Vec<&str> = guards.iter().map(|g| g.var.as_str()).collect();
                    push(
                        "R2.guard-io",
                        format!(
                            "blocking I/O `{}...)` while holding lock guard(s) {}",
                            tok.trim_end_matches('('),
                            held.join(", ")
                        ),
                    );
                }
            }
        }

        // Guard deaths: explicit drop or block close.
        for g_idx in (0..guards.len()).rev() {
            if code.contains(&format!("drop({})", guards[g_idx].var)) {
                guards.remove(g_idx);
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    // Guards die when the block they were declared in
                    // closes.
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }
    }
}

/// `let [mut] name = …` binder name, if the line is one.
fn let_binding(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    // Tuple patterns: `let (a, b) = …` — take the first binder; good
    // enough for guard tracking (`let (guard, _) = wait…`).
    let rest = rest.trim_start_matches('(');
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// The lock field behind an acquisition call:
/// `lock_or_recover(&self.inner)` / `read_or_recover(&self.data)` /
/// `self.rewrite_cache.lock()` → `inner` / `data` / `rewrite_cache`.
fn origin_field(code: &str) -> Option<String> {
    let recover_start = ["lock_or_recover(", "read_or_recover(", "write_or_recover("]
        .iter()
        .find_map(|pat| code.find(pat).map(|p| p + pat.len()));
    let after = if let Some(p) = recover_start {
        &code[p..]
    } else if let Some(p) = code.find(".lock()") {
        // Walk back over the receiver expression.
        let recv = &code[..p];
        let start = recv
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
            .map(|i| i + 1)
            .unwrap_or(0);
        return recv[start..].rsplit('.').next().map(str::to_owned);
    } else {
        return None;
    };
    let inner: String = after
        .chars()
        .take_while(|c| *c != ')' && *c != ',')
        .collect();
    inner
        .trim()
        .trim_start_matches('&')
        .rsplit('.')
        .next()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// `(condvar-field, guard-variable)` for wait calls:
/// `wait_timeout_or_recover(&self.ready, inner, …)` or
/// `self.ready.wait(guard)`.
fn condvar_wait(code: &str) -> Option<(String, String)> {
    if let Some(p) = code.find("wait_timeout_or_recover(") {
        let args = &code[p + "wait_timeout_or_recover(".len()..];
        let mut parts = args.splitn(3, ',');
        let cv = parts.next()?.trim().trim_start_matches('&');
        let guard = parts.next()?.trim();
        let cv_field = cv.rsplit('.').next()?.to_owned();
        return Some((cv_field, guard.to_owned()));
    }
    for pat in [
        ".wait(",
        ".wait_timeout(",
        ".wait_while(",
        ".wait_timeout_while(",
    ] {
        if let Some(p) = code.find(pat) {
            let recv = &code[..p];
            let start = recv
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
                .map(|i| i + 1)
                .unwrap_or(0);
            let cv_field = recv[start..].rsplit('.').next()?.to_owned();
            let args = &code[p + pat.len()..];
            let guard: String = args
                .chars()
                .take_while(|c| *c != ',' && *c != ')')
                .collect();
            return Some((cv_field, guard.trim().to_owned()));
        }
    }
    None
}

// ---------------------------------------------------------------------
// R3 — unsafe audit
// ---------------------------------------------------------------------

fn r3(file: &ScannedFile, findings: &mut Vec<Finding>) {
    for (idx, l) in file.lines.iter().enumerate() {
        let has_unsafe = l
            .code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|w| w == "unsafe");
        if !has_unsafe {
            continue;
        }
        // Same-line comment, or the contiguous comment block directly
        // above (attributes allowed in between).
        let mut documented = l.comment.contains("SAFETY");
        let mut j = idx;
        while !documented && j > 0 {
            j -= 1;
            let above = &file.lines[j];
            let code_t = above.code.trim();
            let is_comment_only = code_t.is_empty() && !above.comment.is_empty();
            let is_attr = code_t.starts_with("#[") || code_t.starts_with("#!");
            if is_comment_only || is_attr {
                if above.comment.contains("SAFETY") {
                    documented = true;
                }
            } else {
                break;
            }
        }
        if !documented {
            findings.push(Finding {
                rule: "R3.safety",
                path: file.path.clone(),
                line: idx + 1,
                message: "unsafe site without a `// SAFETY:` comment".into(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R4 — env-var registry
// ---------------------------------------------------------------------

/// The registry module itself (declares knobs, owns the raw reads) and
/// this lint (whose sources talk *about* the rules) are exempt.
fn r4_exempt(path: &str) -> bool {
    path == "crates/core/src/env.rs" || path.starts_with("crates/xtask/")
}

fn r4(file: &ScannedFile, is_registered: &dyn Fn(&str) -> bool, findings: &mut Vec<Finding>) {
    if r4_exempt(&file.path) {
        return;
    }
    for (idx, l) in file.lines.iter().enumerate() {
        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding {
                rule,
                path: file.path.clone(),
                line: idx + 1,
                message,
            });
        };
        // Direct reads bypassing the registry.
        let reads_env = [
            "env::var(",
            "env::var_os(",
            "env::set_var(",
            "env::remove_var(",
        ]
        .iter()
        .any(|p| l.code.contains(p));
        if reads_env && l.text.contains("QUONTO_") && !l.in_test {
            push(
                "R4.read",
                "direct std::env access to a QUONTO_* knob outside quonto::env".into(),
            );
        }
        // Names must be registered — in code, strings, and comments
        // alike (drift detection in both directions).
        for name in quonto_names(&l.text)
            .into_iter()
            .chain(quonto_names(&l.comment))
        {
            if !is_registered(&name) {
                push(
                    "R4.unregistered",
                    format!("`{name}` is not registered in quonto::env::KNOBS"),
                );
            }
        }
    }
}

/// Extracts `QUONTO_[A-Z0-9_]+` tokens.
pub fn quonto_names(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(p) = rest.find("QUONTO_") {
        let tail = &rest[p..];
        let name: String = tail
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        // Bare "QUONTO_" prefixes (pattern strings) are not names.
        if name.len() > "QUONTO_".len() {
            out.push(name.trim_end_matches('_').to_owned());
        }
        rest = &rest[p + "QUONTO_".len()..];
    }
    out
}

/// Markdown drift half of R4: every `QUONTO_*` mention in the docs must
/// be a registered knob.
pub fn r4_docs(
    path: &str,
    content: &str,
    is_registered: &dyn Fn(&str) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (idx, line) in content.lines().enumerate() {
        for name in quonto_names(line) {
            if !is_registered(&name) {
                findings.push(Finding {
                    rule: "R4.unregistered",
                    path: path.to_owned(),
                    line: idx + 1,
                    message: format!("doc mentions `{name}`, which is not in quonto::env::KNOBS"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// R5 — hygiene
// ---------------------------------------------------------------------

fn r5(file: &ScannedFile, findings: &mut Vec<Finding>) {
    for (idx, l) in file.lines.iter().enumerate() {
        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding {
                rule,
                path: file.path.clone(),
                line: idx + 1,
                message,
            });
        };
        if l.code.contains("#[ignore]") {
            push("R5.ignore", "`#[ignore]` without a reason string".into());
        }
        if file.kind == FileKind::Lib && !l.in_test {
            for mac in ["println!(", "print!(", "dbg!("] {
                if has_token(&l.code, mac) {
                    push(
                        "R5.print",
                        format!("`{}...)` in library code", &mac[..mac.len() - 1]),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// R6 — observability discipline
// ---------------------------------------------------------------------

/// Library code covered by the structured tracing stack: per-query
/// timing and diagnostic output must flow through `obda-obs` spans and
/// sinks (so `QUONTO_TIMINGS` routing, the JSON sink, and the trace
/// ring all see it), never raw stderr prints. The sink module itself is
/// the one place allowed to write the legacy stderr lines; binaries and
/// tests print freely.
fn r6_scope(file: &ScannedFile) -> bool {
    if file.kind != FileKind::Lib {
        return false;
    }
    if file.path == "crates/obs/src/sink.rs" {
        return false;
    }
    [
        "crates/obda/src/",
        "crates/sqlstore/src/",
        "crates/mapping/src/",
        "crates/server/src/",
        "crates/obs/src/",
    ]
    .iter()
    .any(|p| file.path.starts_with(p))
}

fn r6(file: &ScannedFile, findings: &mut Vec<Finding>) {
    if !r6_scope(file) {
        return;
    }
    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for mac in ["eprintln!(", "eprint!("] {
            if has_token(&l.code, mac) {
                findings.push(Finding {
                    rule: "R6.print",
                    path: file.path.clone(),
                    line: idx + 1,
                    message: format!("`{}...)` in traced library code", &mac[..mac.len() - 1]),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Runs every rule over one scanned file and applies its suppressions.
pub fn check_file(file: &ScannedFile, is_registered: &dyn Fn(&str) -> bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let allows = collect_allows(file, &mut findings);
    let mut raw = Vec::new();
    r1(file, &mut raw);
    r2(file, &mut raw);
    r3(file, &mut raw);
    r4(file, is_registered, &mut raw);
    r5(file, &mut raw);
    r6(file, &mut raw);
    findings.extend(apply_allows(file, &allows, raw));
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn registered(name: &str) -> bool {
        quonto::env::is_registered(name)
    }

    fn lint_src(path: &str, src: &str) -> Vec<Finding> {
        check_file(&scan(path, src), &registered)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    const SERVER_PATH: &str = "crates/server/src/fixture.rs";

    #[test]
    fn r1_flags_the_panic_family_in_request_paths() {
        let src = "\
pub fn handle(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"set\");
    if a > b { panic!(\"boom\") } else { unreachable!() }
}
";
        let f = lint_src(SERVER_PATH, src);
        let rules = rules_of(&f);
        assert!(rules.contains(&"R1.unwrap"), "{f:?}");
        assert!(rules.contains(&"R1.expect"));
        assert_eq!(rules.iter().filter(|r| **r == "R1.panic").count(), 2);
    }

    #[test]
    fn r1_is_scoped_to_request_paths() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_src("crates/core/src/fixture.rs", src).is_empty());
        assert!(lint_src("crates/server/tests/fixture.rs", src).is_empty());
        assert!(lint_src("crates/obda/src/demo.rs", src).is_empty());
        assert!(!lint_src("crates/obda/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn r1_ignores_tests_strings_and_comments() {
        let src = "\
pub fn handle(q: &str) -> bool {
    // a comment saying .unwrap() and panic!()
    q.contains(\".unwrap() panic!(\")
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!(\"fine in tests\");
    }
}
";
        assert!(lint_src(SERVER_PATH, src).is_empty());
    }

    #[test]
    fn r1_index_literal_vs_computed() {
        let ok = "pub fn f(v: &[u32]) -> u32 { v[0] + v[1] }\n";
        assert!(lint_src(SERVER_PATH, ok).is_empty());
        let bad = "pub fn f(v: &[u32], i: usize) -> u32 { v[i] }\n";
        assert_eq!(rules_of(&lint_src(SERVER_PATH, bad)), vec!["R1.index"]);
        let slice = "pub fn f(v: &[u32], n: usize) -> &[u32] { &v[..n] }\n";
        assert_eq!(rules_of(&lint_src(SERVER_PATH, slice)), vec!["R1.index"]);
        let lit_range = "pub fn f(v: &[u32]) -> &[u32] { &v[..4] }\n";
        assert!(lint_src(SERVER_PATH, lit_range).is_empty());
        // Array types and attributes are not index sites.
        let ty = "pub struct S { b: [u64; 40] }\n#[derive(Debug)]\npub struct T;\n";
        assert!(lint_src(SERVER_PATH, ty).is_empty());
    }

    #[test]
    fn allows_suppress_with_reason_same_line_or_above() {
        let above = "\
pub fn f(v: &[u32], i: usize) -> u32 {
    // lint: allow(R1.index, \"i is checked by the caller\")
    v[i]
}
";
        assert!(lint_src(SERVER_PATH, above).is_empty());
        let trailing = "\
pub fn f(v: &[u32], i: usize) -> u32 {
    v[i] // lint: allow(R1.index, \"i is checked by the caller\")
}
";
        assert!(lint_src(SERVER_PATH, trailing).is_empty());
    }

    #[test]
    fn malformed_and_unused_allows_are_r0() {
        let no_reason = "\
pub fn f(v: &[u32], i: usize) -> u32 {
    // lint: allow(R1.index)
    v[i]
}
";
        let f = lint_src(SERVER_PATH, no_reason);
        assert!(rules_of(&f).contains(&"R0.allow"), "{f:?}");
        assert!(
            rules_of(&f).contains(&"R1.index"),
            "malformed allow must not suppress"
        );

        let unknown_rule = "// lint: allow(R9.nope, \"reason\")\npub fn f() {}\n";
        assert!(rules_of(&lint_src(SERVER_PATH, unknown_rule)).contains(&"R0.allow"));

        let unused = "// lint: allow(R1.unwrap, \"nothing here unwraps\")\npub fn f() {}\n";
        let f = lint_src(SERVER_PATH, unused);
        assert_eq!(rules_of(&f), vec!["R0.allow"], "{f:?}");
        assert!(f[0].message.contains("unused"));
    }

    #[test]
    fn allow_file_covers_the_whole_file() {
        let src = "\
// lint: allow-file(R1.index, \"hand-rolled lexer; every site is bounds-guarded\")
pub fn f(v: &[u32], i: usize, j: usize) -> u32 {
    v[i] + v[j]
}
";
        assert!(lint_src(SERVER_PATH, src).is_empty());
    }

    #[test]
    fn r2_lock_unwrap_and_multiline_chains() {
        let src = "\
pub fn f(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
";
        assert_eq!(
            rules_of(&lint_src("crates/core/src/fixture.rs", src)),
            vec!["R2.lock-unwrap"]
        );
        let multiline = "\
pub fn f(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock()
        .unwrap()
}
";
        assert_eq!(
            rules_of(&lint_src("crates/core/src/fixture.rs", multiline)),
            vec!["R2.lock-unwrap"]
        );
        let open_coded = "\
pub fn f(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
";
        assert_eq!(
            rules_of(&lint_src("crates/core/src/fixture.rs", open_coded)),
            vec!["R2.lock-unwrap"]
        );
        // The sync module itself is exempt.
        assert!(lint_src("crates/core/src/sync.rs", open_coded).is_empty());
    }

    #[test]
    fn r2_guard_io_flags_io_under_a_live_guard() {
        let src = "\
pub fn f(&self, out: &mut TcpStream) {
    let g = lock_or_recover(&self.state);
    out.write_all(g.bytes());
}
";
        let f = lint_src("crates/server/src/fixture2.rs", src);
        assert!(rules_of(&f).contains(&"R2.guard-io"), "{f:?}");
        let dropped = "\
pub fn f(&self, out: &mut TcpStream) {
    let g = lock_or_recover(&self.state);
    let bytes = g.bytes();
    drop(g);
    out.write_all(bytes);
}
";
        assert!(lint_src("crates/server/src/fixture2.rs", dropped).is_empty());
        let scoped = "\
pub fn f(&self, out: &mut TcpStream) {
    let bytes = {
        let g = lock_or_recover(&self.state);
        g.bytes()
    };
    out.write_all(bytes);
}
";
        assert!(lint_src("crates/server/src/fixture2.rs", scoped).is_empty());
    }

    #[test]
    fn r2_condvar_pairing() {
        let ok = "\
fn pop(&self) {
    let inner = lock_or_recover(&self.inner);
    let (guard, _) = wait_timeout_or_recover(&self.ready, inner, TICK);
}
";
        assert!(lint_src("crates/server/src/fixture3.rs", ok).is_empty());
        let wrong_mutex = "\
fn pop(&self) {
    let other = lock_or_recover(&self.rewrite_cache);
    let (guard, _) = wait_timeout_or_recover(&self.ready, other, TICK);
}
";
        let f = lint_src("crates/server/src/fixture3.rs", wrong_mutex);
        assert!(rules_of(&f).contains(&"R2.condvar"), "{f:?}");
        let unknown_cv = "\
fn pop(&self) {
    let inner = lock_or_recover(&self.inner);
    let (guard, _) = wait_timeout_or_recover(&self.undeclared, inner, TICK);
}
";
        let f = lint_src("crates/server/src/fixture3.rs", unknown_cv);
        assert!(rules_of(&f).contains(&"R2.condvar"), "{f:?}");
    }

    #[test]
    fn r2_lock_order() {
        let bad = "\
fn f(&self) {
    let a = lock_or_recover(&self.rewrite_cache);
    let b = lock_or_recover(&self.inner);
}
";
        let f = lint_src("crates/obda/src/fixture4.rs", bad);
        assert!(rules_of(&f).contains(&"R2.order"), "{f:?}");
        let good = "\
fn f(&self) {
    let a = lock_or_recover(&self.inner);
    let b = lock_or_recover(&self.rewrite_cache);
}
";
        let f = lint_src("crates/obda/src/fixture4.rs", good);
        assert!(!rules_of(&f).contains(&"R2.order"), "{f:?}");
    }

    #[test]
    fn r2_lock_order_covers_the_write_path_rwlock() {
        // The canonical write path: data store first, then caches.
        let good = "\
fn apply(&self) {
    let guard = write_or_recover(&self.data);
    let cache = lock_or_recover(&self.rewrite_cache);
}
";
        let f = lint_src("crates/obda/src/fixture5.rs", good);
        assert!(!rules_of(&f).contains(&"R2.order"), "{f:?}");
        // Grabbing the store while holding a cache inverts the order —
        // a reader doing this can deadlock against the writer.
        let bad = "\
fn apply(&self) {
    let cache = lock_or_recover(&self.rewrite_cache);
    let guard = read_or_recover(&self.data);
}
";
        let f = lint_src("crates/obda/src/fixture5.rs", bad);
        assert!(rules_of(&f).contains(&"R2.order"), "{f:?}");
        let bad_mat = "\
fn apply(&self) {
    let slot = lock_or_recover(&self.materialized);
    let guard = write_or_recover(&self.data);
}
";
        let f = lint_src("crates/obda/src/fixture5.rs", bad_mat);
        assert!(rules_of(&f).contains(&"R2.order"), "{f:?}");
    }

    #[test]
    fn r3_unsafe_needs_safety_comment() {
        let bad = "pub fn f() { unsafe { libc_call() } }\n";
        assert_eq!(
            rules_of(&lint_src("crates/core/src/fx.rs", bad)),
            vec!["R3.safety"]
        );
        let good = "\
pub fn f() {
    // SAFETY: libc_call has no preconditions.
    unsafe { libc_call() }
}
";
        assert!(lint_src("crates/core/src/fx.rs", good).is_empty());
        let multiline_block = "\
pub fn f() {
    // SAFETY: a longer argument,
    // spread over two lines.
    #[allow(clippy::x)]
    unsafe { libc_call() }
}
";
        assert!(lint_src("crates/core/src/fx.rs", multiline_block).is_empty());
        // Strings and comments mentioning unsafe are not unsafe sites,
        // and tests need SAFETY comments too.
        let prose = "pub fn f() -> &'static str { \"unsafe query\" } // unsafe-ish\n";
        assert!(lint_src("crates/core/src/fx.rs", prose).is_empty());
        let in_test = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { unsafe { raise(15) }; }
}
";
        assert_eq!(
            rules_of(&lint_src("crates/core/src/fx.rs", in_test)),
            vec!["R3.safety"]
        );
    }

    #[test]
    fn r4_flags_direct_reads_and_unregistered_names() {
        let direct = "pub fn f() { let _ = std::env::var(\"QUONTO_TIMINGS\"); }\n";
        let f = lint_src("crates/core/src/fx.rs", direct);
        assert!(rules_of(&f).contains(&"R4.read"), "{f:?}");
        let unregistered = "pub fn f() -> &'static str { \"QUONTO_MYSTERY_KNOB\" }\n";
        let f = lint_src("crates/core/src/fx.rs", unregistered);
        assert!(rules_of(&f).contains(&"R4.unregistered"), "{f:?}");
        // Registered names used via the registry are fine.
        let ok = "pub fn f() -> bool { quonto::env::timings_enabled() } // QUONTO_TIMINGS\n";
        assert!(lint_src("crates/core/src/fx.rs", ok).is_empty());
        // The registry module itself is exempt.
        let registry = "fn raw() { std::env::var(\"QUONTO_TIMINGS\").ok(); }\n";
        assert!(lint_src("crates/core/src/env.rs", registry).is_empty());
    }

    #[test]
    fn r4_docs_checks_markdown() {
        let mut f = Vec::new();
        r4_docs(
            "README.md",
            "set `QUONTO_TIMINGS=1` to …",
            &registered,
            &mut f,
        );
        assert!(f.is_empty());
        r4_docs(
            "README.md",
            "set `QUONTO_OLD_KNOB=1` to …",
            &registered,
            &mut f,
        );
        assert_eq!(rules_of(&f), vec!["R4.unregistered"]);
    }

    #[test]
    fn retired_knobs_are_not_registered() {
        for name in RETIRED_KNOBS {
            assert!(!quonto::env::is_registered(name), "{name}");
        }
    }

    #[test]
    fn r4_accepts_the_ebox_knob() {
        // QUONTO_EBOX is registered (mastro resolves the mode through
        // the registry accessor), so neither code mentions nor doc
        // mentions may fire R4.
        assert!(quonto::env::is_registered("QUONTO_EBOX"));
        let code = "pub fn f() -> Option<String> { quonto::env::ebox_mode() } // QUONTO_EBOX\n";
        assert!(lint_src("crates/obda/src/config.rs", code).is_empty());
        let mut f = Vec::new();
        r4_docs(
            "DESIGN.md",
            "set `QUONTO_EBOX=infer` to re-infer constraints from the data",
            &registered,
            &mut f,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r4_accepts_the_prune_cap_knob() {
        // QUONTO_PRUNE_CAP is registered (the prune-cap accessor reads
        // it through the registry), so neither code mentions nor doc
        // mentions may fire R4.
        assert!(quonto::env::is_registered("QUONTO_PRUNE_CAP"));
        let code =
            "pub fn f() -> usize { quonto::env::prune_cap().unwrap_or(512) } // QUONTO_PRUNE_CAP\n";
        assert!(lint_src("crates/obda/src/rewrite/subsume.rs", code).is_empty());
        let mut f = Vec::new();
        r4_docs(
            "DESIGN.md",
            "gated at `QUONTO_PRUNE_CAP` (default 512)",
            &registered,
            &mut f,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r5_ignore_and_print() {
        let src = "#[ignore]\nfn slow() {}\n#[ignore = \"needs 30s\"]\nfn slower() {}\n";
        assert_eq!(
            rules_of(&lint_src("crates/core/src/fx.rs", src)),
            vec!["R5.ignore"]
        );
        let lib_print = "pub fn f() { println!(\"x\"); }\n";
        assert_eq!(
            rules_of(&lint_src("crates/core/src/fx.rs", lib_print)),
            vec!["R5.print"]
        );
        // Binaries and eprintln are fine.
        assert!(lint_src("crates/core/src/bin/tool.rs", lib_print).is_empty());
        let eprint = "pub fn f() { eprintln!(\"x\"); }\n";
        assert!(lint_src("crates/core/src/fx.rs", eprint).is_empty());
    }

    #[test]
    fn r6_bans_raw_stderr_in_traced_library_code() {
        let src = "pub fn f() { eprintln!(\"mastro-timings total_ms=1\"); }\n";
        for path in [
            "crates/obda/src/fx.rs",
            "crates/sqlstore/src/fx.rs",
            "crates/mapping/src/fx.rs",
            "crates/server/src/fx.rs",
            "crates/obs/src/fx.rs",
        ] {
            assert_eq!(rules_of(&lint_src(path, src)), vec!["R6.print"], "{path}");
        }
        // The sink module, binaries, core, and tests are out of scope.
        assert!(lint_src("crates/obs/src/sink.rs", src).is_empty());
        assert!(lint_src("crates/server/src/bin/quonto_server.rs", src).is_empty());
        assert!(lint_src("crates/core/src/fx.rs", src).is_empty());
        assert!(lint_src("crates/obda/tests/fx.rs", src).is_empty());
        let in_test = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { eprintln!(\"debugging\"); }
}
";
        assert!(lint_src("crates/obda/src/fx.rs", in_test).is_empty());
        // An allow with a reason still works.
        let allowed = "\
pub fn f() {
    // lint: allow(R6.print, \"operator-facing notice, not timing output\")
    eprintln!(\"draining\");
}
";
        assert!(lint_src("crates/server/src/fx.rs", allowed).is_empty());
    }

    #[test]
    fn quonto_name_extraction() {
        assert_eq!(
            quonto_names("QUONTO_EBOX and QUONTO_TIMINGS=1"),
            vec!["QUONTO_EBOX", "QUONTO_TIMINGS"]
        );
        // A bare prefix (pattern string) is not a name.
        assert!(quonto_names("starts with QUONTO_ only").is_empty());
    }
}
