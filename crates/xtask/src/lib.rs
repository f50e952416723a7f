//! # xtask — workspace automation
//!
//! The project's static-analysis pass and doc generator, std-only and
//! offline (no syn, no proc macros, no network):
//!
//! * `cargo run -p xtask -- lint [--json] [--update-baseline]` —
//!   scans every first-party Rust source (vendored crates excluded) and
//!   enforces the rule catalogue in [`rules`]: panic-path hygiene (R1),
//!   lock discipline (R2), unsafe audit (R3), the env-knob registry
//!   (R4, both directions, docs included), and test/doc hygiene (R5).
//!   Exit code 0 = clean, 1 = findings, 2 = usage/IO error.
//! * `cargo run -p xtask -- analyze [--json]` — the whole-workspace
//!   graph analyses in [`analyze`]: lock-order soundness (A1, held-set
//!   propagation over the call graph in [`graph`]), telemetry-name
//!   drift (A2), and invalidation soundness (A3, the PR 8 write-path
//!   invariants). Same exit-code contract as `lint`.
//! * `cargo run -p xtask -- env-docs [--write]` — syncs the README and
//!   DESIGN knob tables from `quonto::env::KNOBS`.
//! * `cargo run -p xtask -- obs-docs [--write]` — syncs the README and
//!   DESIGN telemetry-name tables from the collected literals.
//!
//! See DESIGN.md ("Static analysis & concurrency correctness") for the
//! rationale and the full rule table.

pub mod analyze;
pub mod baseline;
pub mod docs;
pub mod graph;
pub mod rules;
pub mod scanner;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rules::Finding;

/// Repo root, resolved from this crate's manifest (crates/xtask → ../..).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// First-party Rust sources: everything under `crates/` and `examples/`,
/// vendored third-party subsets excluded.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "examples"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// A full lint run: scanned sources + docs, findings split by baseline.
pub struct LintReport {
    /// Actionable findings (not in the baseline).
    pub findings: Vec<Finding>,
    /// Findings suppressed by the committed baseline.
    pub baselined: usize,
    /// Files scanned.
    pub files: usize,
    /// Fingerprints of every finding (for `--update-baseline`).
    pub fingerprints: BTreeSet<String>,
}

/// Runs the whole pass over the repo at `root`.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let is_registered = |name: &str| quonto::env::is_registered(name);
    let mut all: Vec<(Finding, String)> = Vec::new(); // finding + raw line
    let mut files = 0usize;

    for path in source_files(root) {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} is outside the repo root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        files += 1;
        let scanned = scanner::scan(&rel, &src);
        for f in rules::check_file(&scanned, &is_registered) {
            let raw = scanned
                .lines
                .get(f.line.saturating_sub(1))
                .map(|l| l.raw.clone())
                .unwrap_or_default();
            all.push((f, raw));
        }
    }

    // Docs: QUONTO_* drift + table sync (R4.docs).
    let table = quonto::env::markdown_table();
    for doc in docs::DOC_FILES {
        let path = root.join(doc);
        let content = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut doc_findings = Vec::new();
        rules::r4_docs(doc, &content, &is_registered, &mut doc_findings);
        match docs::sync_block(&content, &table) {
            docs::SyncOutcome::UpToDate => {}
            docs::SyncOutcome::Stale(_) => doc_findings.push(Finding {
                rule: "R4.docs",
                path: (*doc).to_owned(),
                line: 1,
                message: "embedded env-knob table is stale vs quonto::env::KNOBS".into(),
            }),
            docs::SyncOutcome::MissingMarkers => doc_findings.push(Finding {
                rule: "R4.docs",
                path: (*doc).to_owned(),
                line: 1,
                message: format!(
                    "missing `{}` / `{}` markers for the env-knob table",
                    docs::BEGIN,
                    docs::END
                ),
            }),
        }
        for f in doc_findings {
            let raw = content
                .lines()
                .nth(f.line.saturating_sub(1))
                .unwrap_or("")
                .to_owned();
            all.push((f, raw));
        }
        files += 1;
    }
    // Remaining doc files only get the drift check, not the table.
    for doc in ["EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md"] {
        let path = root.join(doc);
        let Ok(content) = std::fs::read_to_string(&path) else {
            continue;
        };
        let known = |name: &str| {
            is_registered(name) || (doc == "CHANGES.md" && rules::RETIRED_KNOBS.contains(&name))
        };
        let mut doc_findings = Vec::new();
        rules::r4_docs(doc, &content, &known, &mut doc_findings);
        for f in doc_findings {
            let raw = content
                .lines()
                .nth(f.line.saturating_sub(1))
                .unwrap_or("")
                .to_owned();
            all.push((f, raw));
        }
        files += 1;
    }

    let baseline = baseline::load(&root.join("lint-baseline.txt"));
    let mut fingerprints = BTreeSet::new();
    let mut findings = Vec::new();
    let mut baselined = 0usize;
    for (f, raw) in all {
        let fp = f.fingerprint(&raw);
        fingerprints.insert(fp.clone());
        if baseline.contains(&fp) {
            baselined += 1;
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    Ok(LintReport {
        findings,
        baselined,
        files,
        fingerprints,
    })
}

/// Renders findings as human-readable diagnostics.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    hint: {}\n",
            f.path,
            f.line,
            f.rule,
            f.message,
            f.hint()
        ));
    }
    out.push_str(&format!(
        "xtask lint: {} finding(s), {} baselined, {} file(s) scanned\n",
        report.findings.len(),
        report.baselined,
        report.files
    ));
    out
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array (machine-readable, for CI annotations).
pub fn render_json(report: &LintReport) -> String {
    let esc = json_escape;
    let items: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                r#"{{"rule":"{}","path":"{}","line":{},"message":"{}","hint":"{}"}}"#,
                esc(f.rule),
                esc(&f.path),
                f.line,
                esc(&f.message),
                esc(f.hint())
            )
        })
        .collect();
    format!(
        r#"{{"findings":[{}],"baselined":{},"files":{}}}"#,
        items.join(","),
        report.baselined,
        report.files
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_holds_the_workspace_manifest() {
        let root = repo_root();
        assert!(root.join("Cargo.toml").is_file(), "{}", root.display());
        assert!(root.join("crates/xtask/Cargo.toml").is_file());
    }

    #[test]
    fn source_walk_excludes_vendor() {
        let files = source_files(&repo_root());
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/server/src/json.rs")));
        assert!(!files
            .iter()
            .any(|p| { p.strip_prefix(repo_root()).unwrap().starts_with("vendor") }));
    }

    #[test]
    fn json_rendering_escapes_quotes() {
        let report = LintReport {
            findings: vec![Finding {
                rule: "R5.print",
                path: "a/b.rs".into(),
                line: 3,
                message: "a \"quoted\" thing".into(),
            }],
            baselined: 0,
            files: 1,
            fingerprints: BTreeSet::new(),
        };
        let j = render_json(&report);
        assert!(j.contains(r#"a \"quoted\" thing"#), "{j}");
        assert!(j.contains(r#""line":3"#));
    }
}
