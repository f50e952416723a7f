//! **A9 ablation**: UCQ (PerfectRef) vs NDL rewriting — rewrite size,
//! rewrite/compile time, and warm answering latency, on the `exp_chain`
//! presets (whose UCQ rewritings blow past the prune cap) and on the
//! standard university queries (where NDL must not be slower).
//!
//! ```text
//! ndl_report [--scale N] [--json FILE]
//! ```
//!
//! `--json FILE` appends one machine-readable record per row to a JSON
//! array at FILE — the format the EXPERIMENTS A9 table is generated
//! from (`BENCH_A9.json`).
//!
//! Both modes' answers, cold and warm, are compared for every row; the
//! report exits 1, naming each disagreement on stderr, when any differ.

use std::time::Instant;

use mastro::{ndl_compile, perfect_ref, Answers, DataMode, RewritingMode};
use obda_genont::{exp_chain, university_scenario};
use obda_server::Json;
use quonto::Classification;

struct Row {
    preset: String,
    query: String,
    ucq_disjuncts: usize,
    ndl_rules: usize,
    ucq_rewrite_us: u128,
    ndl_compile_us: u128,
    ucq_answer_us: u128,
    ndl_answer_us: u128,
    answers: usize,
    prune_capped: bool,
}

/// Records a disagreement between the two modes' answers to one query.
fn compare(disagreements: &mut Vec<String>, what: &str, ucq: &Answers, ndl: &Answers) {
    if ucq != ndl {
        disagreements.push(format!(
            "{what}: PerfectRef gave {} answers, NDL {}",
            ucq.len(),
            ndl.len()
        ));
    }
}

fn main() {
    let scale = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize);
    let json_path = std::env::args().skip_while(|a| a != "--json").nth(1);

    let mut rows: Vec<Row> = Vec::new();
    let mut disagreements: Vec<String> = Vec::new();
    let capped = obda_obs::registry().counter("rewrite_prune_capped");

    println!("A9 — UCQ (PerfectRef) vs NDL rewriting\n");

    // Cap-hitting presets: qualified-existential chains whose raw UCQ
    // is (branch+1)^depth while the NDL program stays polynomial.
    for (depth, branch) in [(4usize, 2usize), (5, 3), (6, 3)] {
        let c = exp_chain(depth, branch, 64);
        let q = mastro::parse_cq(&c.star_query, &c.tbox.sig).expect("star query parses");

        let t0 = Instant::now();
        let ucq = perfect_ref(&q, &c.tbox);
        let ucq_rewrite = t0.elapsed();
        let cls = Classification::classify(&c.tbox);
        let t1 = Instant::now();
        let prog = ndl_compile(&q, &cls);
        let ndl_compile_t = t1.elapsed();

        let pr = mastro::AboxSystem::new(c.tbox.clone(), c.abox.clone())
            .with_rewriting(RewritingMode::PerfectRef);
        let ndl = mastro::AboxSystem::new(c.tbox.clone(), c.abox.clone())
            .with_rewriting(RewritingMode::Ndl);
        let capped_before = capped.get();
        let a_pr = pr.answer_cq(&q); // cold: populate rewrite cache
        let prune_capped = capped.get() > capped_before;
        let a_ndl = ndl.answer_cq(&q); // cold: populate memo
        let preset = format!("exp_chain({depth},{branch})");
        compare(&mut disagreements, &format!("{preset} cold"), &a_pr, &a_ndl);
        let t2 = Instant::now();
        let warm_pr = pr.answer_cq(&q);
        let ucq_answer = t2.elapsed();
        let t3 = Instant::now();
        let warm_ndl = ndl.answer_cq(&q);
        let ndl_answer = t3.elapsed();
        compare(
            &mut disagreements,
            &format!("{preset} warm"),
            &warm_pr,
            &warm_ndl,
        );

        rows.push(Row {
            preset,
            query: "star".into(),
            ucq_disjuncts: ucq.len(),
            ndl_rules: prog.num_rules,
            ucq_rewrite_us: ucq_rewrite.as_micros(),
            ndl_compile_us: ndl_compile_t.as_micros(),
            ucq_answer_us: ucq_answer.as_micros(),
            ndl_answer_us: ndl_answer.as_micros(),
            answers: a_pr.len(),
            prune_capped,
        });
    }

    // Standard preset: the university query mix, materialized, where the
    // UCQ stays under the cap and NDL must hold its own.
    let scenario = university_scenario(scale, 42);
    let cls = Classification::classify(&scenario.tbox);
    let base = mastro::demo::build_system(&scenario).expect("scenario builds");
    let pr_sys = base
        .clone()
        .with_rewriting(RewritingMode::PerfectRef)
        .with_data_mode(DataMode::Materialized);
    let ndl_sys = base
        .with_rewriting(RewritingMode::Ndl)
        .with_data_mode(DataMode::Materialized);
    for qs in &scenario.queries {
        let q = mastro::parse_cq(&qs.text, &scenario.tbox.sig).expect("query parses");
        let t0 = Instant::now();
        let ucq = perfect_ref(&q, &scenario.tbox);
        let ucq_rewrite = t0.elapsed();
        let t1 = Instant::now();
        let prog = ndl_compile(&q, &cls);
        let ndl_compile_t = t1.elapsed();

        let capped_before = capped.get();
        let a_pr = pr_sys.answer(&qs.text).expect("answers");
        let prune_capped = capped.get() > capped_before;
        let a_ndl = ndl_sys.answer(&qs.text).expect("answers");
        let what = format!("university(scale {scale}) {}", qs.name);
        compare(&mut disagreements, &format!("{what} cold"), &a_pr, &a_ndl);
        let t2 = Instant::now();
        let warm_pr = pr_sys.answer(&qs.text).expect("answers");
        let ucq_answer = t2.elapsed();
        let t3 = Instant::now();
        let warm_ndl = ndl_sys.answer(&qs.text).expect("answers");
        let ndl_answer = t3.elapsed();
        compare(
            &mut disagreements,
            &format!("{what} warm"),
            &warm_pr,
            &warm_ndl,
        );

        rows.push(Row {
            preset: format!("university(scale {scale})"),
            query: qs.name.clone(),
            ucq_disjuncts: ucq.len(),
            ndl_rules: prog.num_rules,
            ucq_rewrite_us: ucq_rewrite.as_micros(),
            ndl_compile_us: ndl_compile_t.as_micros(),
            ucq_answer_us: ucq_answer.as_micros(),
            ndl_answer_us: ndl_answer.as_micros(),
            answers: a_pr.len(),
            prune_capped,
        });
    }

    let mut table = vec![vec![
        "preset".to_owned(),
        "query".into(),
        "UCQ CQs".into(),
        "NDL rules".into(),
        "UCQ rewrite".into(),
        "NDL compile".into(),
        "UCQ answer".into(),
        "NDL answer".into(),
        "answers".into(),
        "capped".into(),
    ]];
    for r in &rows {
        table.push(vec![
            r.preset.clone(),
            r.query.clone(),
            r.ucq_disjuncts.to_string(),
            r.ndl_rules.to_string(),
            format!("{}us", r.ucq_rewrite_us),
            format!("{}us", r.ndl_compile_us),
            format!("{}us", r.ucq_answer_us),
            format!("{}us", r.ndl_answer_us),
            r.answers.to_string(),
            if r.prune_capped { "yes" } else { "no" }.into(),
        ]);
    }
    println!("{}", obda_bench::render(&table));
    println!(
        "shape: the NDL program grows as depth·(branch+1)+1 where the raw UCQ grows as \
         (branch+1)^depth; past the prune cap the UCQ is evaluated raw (capped=yes) and the \
         shared-view evaluation pulls ahead."
    );

    if let Some(path) = json_path {
        let records: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("table", "A9".into()),
                    ("preset", r.preset.as_str().into()),
                    ("query", r.query.as_str().into()),
                    ("ucq_disjuncts", (r.ucq_disjuncts as u64).into()),
                    ("ndl_rules", (r.ndl_rules as u64).into()),
                    ("ucq_rewrite_us", (r.ucq_rewrite_us as u64).into()),
                    ("ndl_compile_us", (r.ndl_compile_us as u64).into()),
                    ("ucq_answer_us", (r.ucq_answer_us as u64).into()),
                    ("ndl_answer_us", (r.ndl_answer_us as u64).into()),
                    ("answers", (r.answers as u64).into()),
                    ("prune_capped", Json::Bool(r.prune_capped)),
                ])
            })
            .collect();
        if let Err(e) = append_json_records(&path, records) {
            eprintln!("ndl_report: writing --json {path} failed: {e}");
            std::process::exit(1);
        }
        eprintln!("ndl_report: appended {} records to {path}", rows.len());
    }

    if !disagreements.is_empty() {
        for d in &disagreements {
            eprintln!("answers differ: {d}");
        }
        std::process::exit(1);
    }
}

/// Appends `records` to the JSON array at `path` (created when absent).
fn append_json_records(path: &str, records: Vec<Json>) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(src) => match Json::parse(src.trim()) {
            Ok(Json::Arr(items)) => items,
            Ok(other) => return Err(format!("{path} holds {other}, not a JSON array")),
            Err(e) => return Err(format!("{path} is not valid JSON: {e}")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.extend(records);
    let mut out = String::from("[\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&run.to_string());
        if i + 1 < runs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out).map_err(|e| e.to_string())
}
