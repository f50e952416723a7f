//! Item-level structure and call-graph extraction for `xtask analyze`.
//!
//! Still not a parser: a second, *structural* pass over the masked
//! views the [`crate::scanner`] produces. It recovers just enough shape
//! for whole-workspace reasoning — impl blocks, `fn` boundaries, call
//! sites, and lock acquisitions through the `quonto::sync` helpers —
//! and threads a *held-lock set* through every function body in source
//! order. The three analyses in [`crate::analyze`] then run on the
//! resulting [`Workspace`] graph.
//!
//! ## Lock identity
//!
//! An acquisition on a `self` field is qualified by the surrounding
//! impl type (`AboxSystem.rewrite_cache`), so same-named fields on
//! different structs (`JobQueue.inner` vs `TraceRing.inner`) never
//! alias. An acquisition on a bare identifier (a `&Mutex<…>` function
//! parameter, e.g. `maintain_memo(memo, …)`) keeps the parameter name:
//! all call sites of that helper share one conservative node, and the
//! analysis does not map caller arguments onto parameters. This is a
//! deliberate, documented false-negative boundary (DESIGN § "Static
//! analysis & concurrency correctness").
//!
//! ## Guard lifetimes
//!
//! * `let g = lock_or_recover(&self.x);` — `g` is live until
//!   `drop(g)` or the close of the block it was declared in (the same
//!   model rule R2 uses).
//! * `lock_or_recover(&self.x).field` with no binder — a *temporary*
//!   guard, held until the next `;` at its depth or the close of its
//!   enclosing block. Struct-literal fields are separated by commas,
//!   so a temporary born inside a literal stays held across the other
//!   field initializers — exactly the shape of the PR 5
//!   `AboxSystem::stats` self-deadlock.
//!
//! ## Known false negatives
//!
//! Closure bodies are attributed to the *defining* function with the
//! held set at the definition site (locks taken by the callee around
//! the closure, e.g. `with_data`, are invisible inside it); implicit
//! `Drop::drop` calls are not edges; argument-to-parameter lock
//! aliasing is not tracked. The analysis is tuned to be useful at zero
//! findings, not complete.

use std::collections::{BTreeMap, BTreeSet};

use crate::scanner::{FileKind, ScannedFile};

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.m(…)` — a method of the surrounding impl type.
    SelfMethod,
    /// `Type::m(…)` (with `Self::` resolved to the impl type).
    Typed(String),
    /// `expr.m(…)` on an arbitrary receiver.
    Method,
    /// Bare `m(…)`.
    Free,
}

/// One lock acquisition or call site, in source order, annotated with
/// the set of (qualified) locks held *before* it executes.
#[derive(Debug, Clone)]
pub enum Event {
    Acquire {
        /// Qualified lock name (`Type.field` or a bare parameter name).
        lock: String,
        /// 1-based line of the acquisition.
        line: usize,
        held: Vec<String>,
    },
    Call {
        recv: Recv,
        method: String,
        line: usize,
        held: Vec<String>,
    },
}

/// One function body, parsed into its event stream.
#[derive(Debug)]
pub struct FnInfo {
    /// `Type::name` for methods, `name` for free functions.
    pub qname: String,
    /// Bare function name.
    pub name: String,
    /// Surrounding `impl`/`trait` type, if any.
    pub impl_type: Option<String>,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub events: Vec<Event>,
    /// Lines that bump a data version / epoch
    /// (`version += 1`, `…version.fetch_add(`).
    pub bump_lines: Vec<usize>,
    /// Lines with a `ViewMemo` patch-or-invalidate action
    /// (`maintain_memo(…)`, or a `.clear()` on a line naming a memo).
    pub memo_lines: Vec<usize>,
    /// Lines that apply a delta to the backing store
    /// (`apply_to_store(…)` call sites).
    pub store_lines: Vec<usize>,
}

/// The whole-workspace graph: every parsed function plus name indices
/// used for call resolution.
#[derive(Debug, Default)]
pub struct Workspace {
    pub fns: Vec<FnInfo>,
    /// `Type::name` → index into `fns`.
    by_qname: BTreeMap<String, usize>,
    /// method name → indices (methods only).
    methods: BTreeMap<String, Vec<usize>>,
    /// free-fn name → indices.
    free: BTreeMap<String, Vec<usize>>,
}

/// Method names too generic to resolve by name alone: they collide
/// with std containers and would wire `vec.push(…)` to
/// `TraceRing::push`. Calls on these through an *unknown* receiver are
/// left unresolved (calls through `self.` or `Type::` still resolve).
const AMBIENT_METHODS: &[&str] = &[
    "add",
    "all",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "collect",
    "contains",
    "contains_key",
    "count",
    "dedup",
    "drain",
    "drop",
    "entry",
    "extend",
    "filter",
    "find",
    "finish",
    "first",
    "flush",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "cmp",
    "default",
    "emit",
    "eq",
    "fmt",
    "from",
    "hash",
    "into",
    "parse",
    "pop",
    "pop_front",
    "position",
    "push",
    "push_back",
    "push_front",
    "read",
    "record",
    "recv",
    "remove",
    "reset",
    "retain",
    "rev",
    "run",
    "send",
    "sort",
    "sort_by",
    "split",
    "store",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "trim",
    "values",
    "write",
    "zip",
];

/// Keywords and intrinsics that look like call sites but are not.
const NON_CALLS: &[&str] = &[
    "as",
    "box",
    "crate",
    "dyn",
    "else",
    "fn",
    "for",
    "if",
    "impl",
    "in",
    "let",
    "loop",
    "match",
    "move",
    "mut",
    "pub",
    "ref",
    "return",
    "self",
    "super",
    "unsafe",
    "use",
    "where",
    "while",
    "Self",
    "Some",
    "Ok",
    "Err",
    "None",
    "Box",
    "Vec",
    "String",
    "Arc",
    "Rc",
    "drop",
    "lock_or_recover",
    "read_or_recover",
    "write_or_recover",
    "wait_timeout_or_recover",
];

/// The `quonto::sync` acquisition operators (the one condvar wait
/// helper *re*-acquires a guard it was given and is not an
/// acquisition).
const ACQUIRE_OPS: &[&str] = &["lock_or_recover(", "read_or_recover(", "write_or_recover("];

impl Workspace {
    /// Parses every production source (`Lib`/`Bin`, the analyzer's own
    /// crate and the `quonto::sync` helper module excluded) into the
    /// call graph.
    pub fn build(files: &[ScannedFile]) -> Workspace {
        let mut ws = Workspace::default();
        for f in files {
            if !matches!(f.kind, FileKind::Lib | FileKind::Bin) {
                continue;
            }
            // The analyzer's sources talk *about* the patterns it
            // detects; the sync module is the acquisition operator
            // itself, not a lock user.
            if f.path.starts_with("crates/xtask/") || f.path == "crates/core/src/sync.rs" {
                continue;
            }
            parse_file(f, &mut ws.fns);
        }
        for (i, f) in ws.fns.iter().enumerate() {
            ws.by_qname.insert(f.qname.clone(), i);
            if f.impl_type.is_some() {
                ws.methods.entry(f.name.clone()).or_default().push(i);
            } else {
                ws.free.entry(f.name.clone()).or_default().push(i);
            }
        }
        ws
    }

    /// Resolves one call event to a workspace function, if it can be
    /// done unambiguously.
    pub fn resolve(&self, caller: &FnInfo, recv: &Recv, method: &str) -> Option<usize> {
        match recv {
            Recv::SelfMethod => {
                let t = caller.impl_type.as_deref()?;
                self.by_qname.get(&format!("{t}::{method}")).copied()
            }
            Recv::Typed(t) => {
                let t = if t == "Self" {
                    caller.impl_type.as_deref()?
                } else {
                    t.as_str()
                };
                self.by_qname.get(&format!("{t}::{method}")).copied()
            }
            Recv::Method => {
                if AMBIENT_METHODS.contains(&method) {
                    return None;
                }
                match self.methods.get(method).map(Vec::as_slice) {
                    Some([one]) => Some(*one),
                    _ => None, // absent or ambiguous
                }
            }
            Recv::Free => match self.free.get(method).map(Vec::as_slice) {
                Some([one]) => Some(*one),
                _ => None,
            },
        }
    }

    /// Per-function resolved callee index lists (parallel to `fns`).
    pub fn callees(&self) -> Vec<Vec<usize>> {
        self.fns
            .iter()
            .map(|f| {
                let mut out: Vec<usize> = f
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Call { recv, method, .. } => self.resolve(f, recv, method),
                        Event::Acquire { .. } => None,
                    })
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect()
    }

    /// Transitive acquired-lock sets per function: a fixpoint of
    /// `locks(f) = direct(f) ∪ ⋃ locks(callee)`.
    pub fn transitive_locks(&self, callees: &[Vec<usize>]) -> Vec<BTreeSet<String>> {
        let mut locks: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|f| {
                f.events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Acquire { lock, .. } => Some(lock.clone()),
                        Event::Call { .. } => None,
                    })
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                for &c in &callees[i] {
                    if c == i {
                        continue;
                    }
                    let add: Vec<String> = locks[c].difference(&locks[i]).cloned().collect();
                    if !add.is_empty() {
                        locks[i].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                return locks;
            }
        }
    }

    /// Shortest call path (as qnames) from `from` to a function that
    /// *directly* acquires `lock`; `[]` if `from` itself does.
    pub fn path_to_lock(&self, callees: &[Vec<usize>], from: usize, lock: &str) -> Vec<String> {
        let direct = |i: usize| {
            self.fns[i]
                .events
                .iter()
                .any(|e| matches!(e, Event::Acquire { lock: l, .. } if l == lock))
        };
        if direct(from) {
            return Vec::new();
        }
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(i) = queue.pop_front() {
            for &c in &callees[i] {
                if !seen.insert(c) {
                    continue;
                }
                prev.insert(c, i);
                if direct(c) {
                    let mut path = vec![self.fns[c].qname.clone()];
                    let mut at = c;
                    while let Some(&p) = prev.get(&at) {
                        if p == from {
                            break;
                        }
                        path.push(self.fns[p].qname.clone());
                        at = p;
                    }
                    path.reverse();
                    return path;
                }
                queue.push_back(c);
            }
        }
        Vec::new()
    }
}

/// A live `let`-bound guard (R2's model) during body parsing.
struct Guard {
    var: String,
    lock: String,
    depth: i64,
}

/// A temporary guard: no binder, dies at the next statement end.
struct Temp {
    lock: String,
    depth: i64,
}

struct Body {
    info: FnInfo,
    /// Brace depth at which the body opened (the body's `{` is the
    /// transition from this depth to `open_depth + 1`).
    open_depth: i64,
    guards: Vec<Guard>,
    temps: Vec<Temp>,
}

impl Body {
    fn held(&self) -> Vec<String> {
        let mut h: Vec<String> = self
            .guards
            .iter()
            .map(|g| g.lock.clone())
            .chain(self.temps.iter().map(|t| t.lock.clone()))
            .collect();
        h.sort();
        h.dedup();
        h
    }
}

fn parse_file(file: &ScannedFile, out: &mut Vec<FnInfo>) {
    let mut depth: i64 = 0;
    // (type name, depth at the `impl` keyword); impls never nest.
    let mut impl_block: Option<(String, i64)> = None;
    let mut pending_impl: Option<String> = None;
    // A `fn` signature seen, body `{` not yet.
    let mut pending_fn: Option<FnInfo> = None;
    let mut body: Option<Body> = None;

    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            // Test regions contribute no items or events, but their
            // braces still count: depth must stay consistent for any
            // production code after the region.
            for c in l.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            continue;
        }
        let line_no = idx + 1;
        let code = &l.code;
        let trimmed = code.trim_start();

        if body.is_none() && pending_fn.is_none() {
            if let Some(t) = impl_header(trimmed) {
                if code.contains('{') {
                    impl_block = Some((t, depth));
                } else {
                    pending_impl = Some(t);
                }
            }
        }
        if body.is_none() {
            if let Some(name) = fn_header(trimmed) {
                let impl_type = impl_block.as_ref().map(|(t, _)| t.clone());
                let qname = match &impl_type {
                    Some(t) => format!("{t}::{name}"),
                    None => name.clone(),
                };
                pending_fn = Some(FnInfo {
                    qname,
                    name,
                    impl_type,
                    file: file.path.clone(),
                    line: line_no,
                    events: Vec::new(),
                    bump_lines: Vec::new(),
                    memo_lines: Vec::new(),
                    store_lines: Vec::new(),
                });
            }
        }

        // Walk the line positionally so same-line ordering of braces,
        // acquisitions, calls, and statement ends is respected.
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            match c {
                '{' => {
                    if let Some(info) = pending_fn.take() {
                        body = Some(Body {
                            info,
                            open_depth: depth,
                            guards: Vec::new(),
                            temps: Vec::new(),
                        });
                    } else if let Some(t) = pending_impl.take() {
                        impl_block = Some((t, depth));
                    }
                    depth += 1;
                    i += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(b) = &mut body {
                        b.guards.retain(|g| g.depth <= depth);
                        b.temps.retain(|t| t.depth <= depth);
                        if depth == b.open_depth {
                            let done = body.take().map(|b| b.info);
                            out.extend(done);
                        }
                    }
                    if let Some((_, d)) = &impl_block {
                        if depth <= *d {
                            impl_block = None;
                        }
                    }
                    i += 1;
                }
                ';' => {
                    if let Some(b) = &mut body {
                        b.temps.retain(|t| t.depth < depth);
                    }
                    // A `;` before any `{` ends a bodyless declaration
                    // (trait method signature, extern fn).
                    pending_fn = None;
                    pending_impl = None;
                    i += 1;
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    let word: String = chars[start..i].iter().collect();
                    let rest: String = chars[i..].iter().collect();
                    if let Some(b) = &mut body {
                        handle_word(b, &word, start, i, &rest, &chars, code, line_no, depth);
                    }
                }
                _ => i += 1,
            }
        }
    }
    // Unterminated file (should not happen on rustc-clean sources):
    // keep what was parsed.
    out.extend(body.take().map(|b| b.info));
}

/// Dispatches one identifier occurrence inside a function body:
/// acquisition operators, `drop(g)`, version bumps, memo/store tokens,
/// and call sites.
#[allow(clippy::too_many_arguments)]
fn handle_word(
    b: &mut Body,
    word: &str,
    start: usize,
    end: usize,
    rest: &str,
    chars: &[char],
    code: &str,
    line_no: usize,
    depth: i64,
) {
    let next = rest.chars().next();
    let followed_by_paren = next == Some('(');

    // Acquisition operators.
    if followed_by_paren
        && ACQUIRE_OPS
            .iter()
            .any(|op| op.trim_end_matches('(') == word)
    {
        let args = &rest[1..];
        let recv: String = args
            .chars()
            .take_while(|c| *c != ')' && *c != ',')
            .collect();
        let lock = qualify_lock(
            recv.trim().trim_start_matches('&'),
            b.info.impl_type.as_deref(),
        );
        if let Some(lock) = lock {
            b.info.events.push(Event::Acquire {
                lock: lock.clone(),
                line: line_no,
                held: b.held(),
            });
            // Binder shape: a `let g = <acquire>(…);` line (closing
            // paren not chained into a field/method access) births a
            // live guard; anything else is a temporary.
            let after_close = args
                .find(')')
                .and_then(|p| args[p + 1..].chars().find(|c| !c.is_whitespace()));
            let chained = matches!(after_close, Some('.') | Some('?'));
            let binder = code
                .trim_start()
                .strip_prefix("let ")
                .map(|r| {
                    let r = r.strip_prefix("mut ").unwrap_or(r);
                    r.chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect::<String>()
                })
                .filter(|v| !v.is_empty());
            match (&binder, chained) {
                (Some(var), false) => b.guards.push(Guard {
                    var: var.clone(),
                    lock,
                    depth,
                }),
                _ => b.temps.push(Temp { lock, depth }),
            }
        }
        return;
    }

    // `drop(g)` kills the named guard.
    if word == "drop" && followed_by_paren {
        let arg: String = rest[1..]
            .chars()
            .take_while(|c| *c != ')')
            .collect::<String>()
            .trim()
            .to_owned();
        b.guards.retain(|g| g.var != arg);
        return;
    }

    // `.lock()` on a receiver (rare; R2 separately polices unwraps).
    if word == "lock" && rest.starts_with("()") && start > 0 && chars[start - 1] == '.' {
        let recv_end = start - 1;
        let recv_start = (0..recv_end)
            .rev()
            .take_while(|&k| chars[k].is_alphanumeric() || chars[k] == '_' || chars[k] == '.')
            .last()
            .unwrap_or(recv_end);
        let recv: String = chars[recv_start..recv_end].iter().collect();
        if let Some(lock) = qualify_lock(&recv, b.info.impl_type.as_deref()) {
            b.info.events.push(Event::Acquire {
                lock: lock.clone(),
                line: line_no,
                held: b.held(),
            });
            b.temps.push(Temp { lock, depth });
        }
        return;
    }

    // Version bumps: `…version += 1` / `…version.fetch_add(`.
    if word.ends_with("version") {
        let bump = rest.trim_start().starts_with("+= 1")
            || rest.starts_with(".fetch_add(")
            || rest.trim_start().starts_with("= ") && rest.contains("+ 1");
        if bump && !b.info.bump_lines.contains(&line_no) {
            b.info.bump_lines.push(line_no);
        }
    }

    // Memo actions and store applications (token-level, for A3).
    if followed_by_paren && word == "maintain_memo" {
        b.info.memo_lines.push(line_no);
        // fall through: also a call site, resolved below.
    }
    if word == "clear"
        && followed_by_paren
        && code.contains("memo")
        && !b.info.memo_lines.contains(&line_no)
    {
        b.info.memo_lines.push(line_no);
        return;
    }
    if word == "apply_to_store" && followed_by_paren {
        b.info.store_lines.push(line_no);
        // fall through to the call site below.
    }

    // Call sites. Skip macros (`name!(…)`) and non-calls.
    if !followed_by_paren || NON_CALLS.contains(&word) {
        return;
    }
    if start > 0 && chars[start - 1] == '!' {
        return;
    }
    let recv = if start >= 2 && chars[start - 2] == ':' && chars[start - 1] == ':' {
        // `Seg::name(` — walk back over the path segment.
        let seg_end = start - 2;
        let seg_start = (0..seg_end)
            .rev()
            .take_while(|&k| chars[k].is_alphanumeric() || chars[k] == '_')
            .last()
            .unwrap_or(seg_end);
        let seg: String = chars[seg_start..seg_end].iter().collect();
        if seg.chars().next().is_some_and(char::is_uppercase) {
            Recv::Typed(seg)
        } else {
            // Module path (`delta::maintain_memo(`): resolve by name.
            Recv::Free
        }
    } else if start > 0 && chars[start - 1] == '.' {
        let before: String = chars[..start - 1].iter().collect();
        if before.ends_with("self") && !before.ends_with("_self") {
            Recv::SelfMethod
        } else {
            Recv::Method
        }
    } else {
        Recv::Free
    };
    let _ = end;
    b.info.events.push(Event::Call {
        recv,
        method: word.to_owned(),
        line: line_no,
        held: b.held(),
    });
}

/// Qualifies an acquisition receiver into a lock identity:
/// `self.rewrite_cache` → `Type.rewrite_cache`; a bare name (fn
/// parameter) stays as-is; anything else (nested field paths on
/// non-self receivers) takes the final field name.
fn qualify_lock(recv: &str, impl_type: Option<&str>) -> Option<String> {
    let recv = recv.trim();
    if recv.is_empty() {
        return None;
    }
    if let Some(field) = recv.strip_prefix("self.") {
        let t = impl_type.unwrap_or("?");
        return Some(format!("{t}.{field}"));
    }
    recv.rsplit('.')
        .next()
        .map(str::to_owned)
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_'))
}

/// `impl Foo {` / `impl Trait for Foo<'_> {` / `pub trait Foo {` →
/// the implementing (or trait) type name.
fn impl_header(trimmed: &str) -> Option<String> {
    let rest = if let Some(r) = trimmed.strip_prefix("impl") {
        r
    } else {
        let r = trimmed
            .strip_prefix("pub trait ")
            .or_else(|| trimmed.strip_prefix("trait "))?;
        return Some(type_name(r));
    };
    // `impl<...>` generics or `impl ` — anything else (`impl_x`) is not
    // the keyword.
    let rest = match rest.chars().next() {
        Some('<') => skip_generics(rest),
        Some(' ') => rest,
        _ => return None,
    };
    let rest = rest.trim_start();
    let rest = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    Some(type_name(rest))
}

/// First path segment of a type expression, generics stripped.
fn type_name(s: &str) -> String {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(s.len());
    s[..end].rsplit("::").next().unwrap_or("").to_owned()
}

/// Balanced-`<>` skip for `impl<...>`.
fn skip_generics(s: &str) -> &str {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
    }
    s
}

/// `pub(crate) fn name(` → `name`, for lines that carry a fn header.
fn fn_header(trimmed: &str) -> Option<String> {
    let mut rest = trimmed;
    // Strip qualifiers; `const fn` / `pub(crate) fn` / `unsafe fn`.
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("pub") {
            rest = match r.strip_prefix('(') {
                Some(after) => after.split_once(')').map(|(_, t)| t)?,
                None if r.starts_with(' ') => r,
                _ => return None,
            };
        } else if let Some(r) = rest
            .strip_prefix("const ")
            .or_else(|| rest.strip_prefix("unsafe "))
            .or_else(|| rest.strip_prefix("extern "))
            .or_else(|| rest.strip_prefix("async "))
        {
            rest = r;
        } else {
            break;
        }
    }
    let r = rest.strip_prefix("fn ")?;
    let name: String = r
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn ws_of(src: &str) -> Workspace {
        Workspace::build(&[scan("crates/obda/src/fixture.rs", src)])
    }

    #[test]
    fn fn_and_impl_headers() {
        assert_eq!(fn_header("pub fn stats(&self) {"), Some("stats".into()));
        assert_eq!(fn_header("pub(crate) fn go() {"), Some("go".into()));
        assert_eq!(fn_header("const fn k() -> u32 {"), Some("k".into()));
        assert_eq!(fn_header("let x = f();"), None);
        assert_eq!(impl_header("impl AboxSystem {"), Some("AboxSystem".into()));
        assert_eq!(
            impl_header("impl QueryEngine for ObdaSystem {"),
            Some("ObdaSystem".into())
        );
        assert_eq!(
            impl_header("impl<'a> Iterator for RowIter<'a> {"),
            Some("RowIter".into())
        );
        assert_eq!(impl_header("implicit()"), None);
    }

    #[test]
    fn acquisitions_are_qualified_by_impl_type() {
        let ws = ws_of(
            "\
impl AboxSystem {
    fn with_data(&self) {
        let d = read_or_recover(&self.data);
        use_it(&d);
    }
}
",
        );
        let f = &ws.fns[0];
        assert_eq!(f.qname, "AboxSystem::with_data");
        let Event::Acquire { lock, held, .. } = &f.events[0] else {
            panic!("first event must be the acquisition: {:?}", f.events);
        };
        assert_eq!(lock, "AboxSystem.data");
        assert!(held.is_empty());
        let Event::Call { method, held, .. } = &f.events[1] else {
            panic!("second event must be the call: {:?}", f.events);
        };
        assert_eq!(method, "use_it");
        assert_eq!(held, &vec!["AboxSystem.data".to_owned()]);
    }

    #[test]
    fn temporaries_die_at_statement_end_but_span_struct_literals() {
        let ws = ws_of(
            "\
impl S {
    fn stats(&self) -> T {
        let epoch = lock_or_recover(&self.cache).epoch;
        after(epoch);
        T {
            a: lock_or_recover(&self.cache).stats,
            b: self.helper(),
        }
    }
}
",
        );
        let f = &ws.fns[0];
        // `after` runs with nothing held: the chained temp died at `;`.
        let held_of = |m: &str| {
            f.events
                .iter()
                .find_map(|e| match e {
                    Event::Call { method, held, .. } if method == m => Some(held.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no call {m}: {:?}", f.events))
        };
        assert!(held_of("after").is_empty());
        // `helper` runs inside the literal with the temp still held.
        assert_eq!(held_of("helper"), vec!["S.cache".to_owned()]);
    }

    #[test]
    fn let_guards_live_to_block_close_or_drop() {
        let ws = ws_of(
            "\
impl S {
    fn f(&self) {
        let g = lock_or_recover(&self.inner);
        inside(&g);
        drop(g);
        outside();
        {
            let h = lock_or_recover(&self.inner);
            scoped(&h);
        }
        free();
    }
}
",
        );
        let f = &ws.fns[0];
        let held_of = |m: &str| {
            f.events
                .iter()
                .find_map(|e| match e {
                    Event::Call { method, held, .. } if method == m => Some(held.clone()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(held_of("inside"), vec!["S.inner".to_owned()]);
        assert!(held_of("outside").is_empty());
        assert_eq!(held_of("scoped"), vec!["S.inner".to_owned()]);
        assert!(held_of("free").is_empty());
    }

    #[test]
    fn call_resolution_prefers_impl_methods_and_rejects_ambient_names() {
        let ws = ws_of(
            "\
impl S {
    fn a(&self) {
        self.b();
        S::c();
        unique_helper();
        v.push(x);
    }
    fn b(&self) {}
    fn c() {}
    fn push(&self) {}
}
fn unique_helper() {}
",
        );
        let a = ws
            .fns
            .iter()
            .position(|f| f.qname == "S::a")
            .expect("S::a parsed");
        let callees = ws.callees();
        let names: Vec<&str> = callees[a]
            .iter()
            .map(|&i| ws.fns[i].qname.as_str())
            .collect();
        assert!(names.contains(&"S::b"), "{names:?}");
        assert!(names.contains(&"S::c"), "{names:?}");
        assert!(names.contains(&"unique_helper"), "{names:?}");
        // `.push(` is ambient: never resolved through an unknown receiver.
        assert!(!names.contains(&"S::push"), "{names:?}");
    }

    #[test]
    fn transitive_locks_propagate_through_calls() {
        let ws = ws_of(
            "\
impl S {
    fn outer(&self) {
        self.inner_lock();
    }
    fn inner_lock(&self) {
        let g = lock_or_recover(&self.cache);
        let _ = g;
    }
}
",
        );
        let callees = ws.callees();
        let locks = ws.transitive_locks(&callees);
        let outer = ws.fns.iter().position(|f| f.name == "outer").unwrap();
        assert!(locks[outer].contains("S.cache"), "{:?}", locks[outer]);
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let ws = ws_of(
            "\
pub trait QueryEngine {
    fn stats(&self) -> EngineStats;
    fn invalidate(&self);
}
",
        );
        assert!(ws.fns.is_empty(), "{:?}", ws.fns);
    }

    #[test]
    fn version_bumps_memo_and_store_tokens_are_collected() {
        let ws = ws_of(
            "\
impl S {
    fn apply(&self) {
        apply_to_store(&mut d);
        d.version += 1;
        maintain_memo(&self.ndl_memo, epoch);
    }
    fn inval(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
        lock_or_recover(&self.ndl_memo).clear();
    }
}
",
        );
        let apply = &ws.fns[0];
        assert_eq!(apply.store_lines.len(), 1, "{apply:?}");
        assert_eq!(apply.bump_lines.len(), 1);
        assert_eq!(apply.memo_lines.len(), 1);
        let inval = &ws.fns[1];
        assert_eq!(inval.bump_lines.len(), 1, "{inval:?}");
        assert_eq!(inval.memo_lines.len(), 1);
    }
}
