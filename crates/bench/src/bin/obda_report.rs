//! **A4 ablation**: end-to-end OBDA answering, virtual (unfold to SQL)
//! vs materialized (evaluate over the extracted ABox), across data
//! scales, then (A4b) the rewrite cache and eval threads.
//!
//! Every configuration's answers to each query are compared with the
//! first one's, and with the A4 answers at A4b's scale; the report
//! exits 1, naming each disagreement on stderr, when any two differ.

use std::collections::BTreeMap;
use std::time::Instant;

use mastro::{Answers, DataMode, EngineConfig, ObdaSystem, QueryEngine, QueryLang, RewritingMode};
use obda_genont::{university_scenario, UniversityScenario};
use obda_mapping::materialize;

/// A4b's data scale.
const CACHE_SCALE: usize = 16;

/// Answers per query, compared across configurations.
#[derive(Default)]
struct Agreement {
    /// The first answers seen per (scale, query).
    reference: BTreeMap<(usize, String), (String, Answers)>,
    disagreements: Vec<String>,
}

impl Agreement {
    /// Records `config`'s answers to `query` at `scale`: the first
    /// become the reference, later ones must equal it.
    fn check(&mut self, scale: usize, query: &str, config: &str, answers: Answers) {
        match self.reference.get(&(scale, query.to_owned())) {
            None => {
                self.reference
                    .insert((scale, query.to_owned()), (config.to_owned(), answers));
            }
            Some((first, want)) if *want != answers => self.disagreements.push(format!(
                "scale {scale} {query}: {config} gave {} answers, {first} {}",
                answers.len(),
                want.len()
            )),
            Some(_) => {}
        }
    }
}

fn main() {
    let mut agreement = Agreement::default();
    println!("A4 — OBDA answering: virtual vs materialized, scale sweep\n");
    let mut table = vec![vec![
        "scale".to_owned(),
        "rows".into(),
        "abox size".into(),
        "materialize".into(),
        "virtual q1..q6".into(),
        "materialized q1..q6".into(),
    ]];
    for scale in [1usize, 4, CACHE_SCALE, 32] {
        let scenario = university_scenario(scale, 42);
        let rows: usize = scenario.tables.iter().map(|t| t.rows.len()).sum();
        // Both modes go through the unified QueryEngine trait, built by
        // the EngineConfig — the same construction the server uses.
        let virtual_sys = mastro::demo::build_system(&scenario).expect("builds");
        let t0 = Instant::now();
        let abox = materialize(&virtual_sys.mappings, &virtual_sys.db).expect("materializes");
        let mat_time = t0.elapsed();
        let build = |dm: DataMode| -> Box<dyn QueryEngine> {
            let db = mastro::demo::load_database(&scenario).expect("loads");
            let mappings = mastro::demo::build_mappings(&scenario);
            Box::new(
                EngineConfig::new()
                    .rewriting(RewritingMode::Presto)
                    .data_mode(dm)
                    .build_obda(scenario.tbox.clone(), mappings, db)
                    .expect("builds"),
            )
        };
        let virtual_engine = build(DataMode::Virtual);
        let mat_engine = build(DataMode::Materialized);

        let t1 = Instant::now();
        let virtual_answers: Vec<Answers> = scenario
            .queries
            .iter()
            .map(|qs| {
                virtual_engine
                    .answer(QueryLang::Cq, &qs.text)
                    .expect("virtual answers")
            })
            .collect();
        let virtual_time = t1.elapsed();

        let t2 = Instant::now();
        let materialized_answers: Vec<Answers> = scenario
            .queries
            .iter()
            .map(|qs| {
                mat_engine
                    .answer(QueryLang::Cq, &qs.text)
                    .expect("materialized answers")
            })
            .collect();
        let materialized_time = t2.elapsed();
        for (qs, (v, m)) in scenario
            .queries
            .iter()
            .zip(virtual_answers.into_iter().zip(materialized_answers))
        {
            agreement.check(scale, &qs.name, "A4 virtual Presto", v);
            agreement.check(scale, &qs.name, "A4 materialized Presto", m);
        }

        table.push(vec![
            scale.to_string(),
            rows.to_string(),
            abox.len().to_string(),
            format!("{mat_time:.2?}"),
            format!("{virtual_time:.2?}"),
            format!("{materialized_time:.2?}"),
        ]);
    }
    println!("{}", obda_bench::render(&table));
    println!("shape: virtual mode pays per-query SQL cost but no upfront extraction; materialization cost grows linearly with the sources.");

    cache_report(&mut agreement);

    if !agreement.disagreements.is_empty() {
        for d in &agreement.disagreements {
            eprintln!("answers differ: {d}");
        }
        std::process::exit(1);
    }
}

/// Section 2: the rewrite cache and the parallel evaluator on the
/// materialized PerfectRef path. `cold` re-rewrites each round
/// (invalidating the cache), `warm` hits the cached pruned UCQ; the
/// thread columns shard the UCQ evaluation.
fn cache_report(agreement: &mut Agreement) {
    println!(
        "\nA4b — rewrite cache and eval threads (PerfectRef, materialized, scale {CACHE_SCALE})\n"
    );
    let scenario = university_scenario(CACHE_SCALE, 42);
    let rounds = 20;
    let mut table = vec![vec![
        "query".to_owned(),
        format!("cold x{rounds}"),
        format!("warm x{rounds}"),
        "warm 2t".into(),
        "warm 4t".into(),
        "answers".into(),
    ]];
    let mut sys1 = perfectref_system(&scenario, 1);
    let mut sys2 = perfectref_system(&scenario, 2);
    let mut sys4 = perfectref_system(&scenario, 4);
    for qs in &scenario.queries {
        let t0 = Instant::now();
        let mut answers = Answers::new();
        for _ in 0..rounds {
            sys1.invalidate_rewrites();
            answers = sys1.answer(&qs.text).expect("answers");
        }
        let cold = t0.elapsed();
        let count = answers.len();
        agreement.check(CACHE_SCALE, &qs.name, "A4b cold", answers);

        let mut warm_timed = |sys: &mut ObdaSystem, config: &str| {
            let _ = sys.answer(&qs.text).expect("warms");
            let t = Instant::now();
            let mut answers = Answers::new();
            for _ in 0..rounds {
                answers = sys.answer(&qs.text).expect("answers");
            }
            let elapsed = t.elapsed();
            agreement.check(CACHE_SCALE, &qs.name, config, answers);
            elapsed
        };
        let warm1 = warm_timed(&mut sys1, "A4b warm 1t");
        let warm2 = warm_timed(&mut sys2, "A4b warm 2t");
        let warm4 = warm_timed(&mut sys4, "A4b warm 4t");
        table.push(vec![
            qs.name.clone(),
            format!("{cold:.2?}"),
            format!("{warm1:.2?}"),
            format!("{warm2:.2?}"),
            format!("{warm4:.2?}"),
            count.to_string(),
        ]);
    }
    println!("{}", obda_bench::render(&table));
    let stats = sys1.rewrite_cache_stats();
    println!(
        "cache: {} hits / {} misses on the single-thread system; run with QUONTO_TIMINGS=1 to see the per-phase mastro-timings lines (warm queries report cache=hit rewrite_ms~0).",
        stats.hits, stats.misses
    );
}

/// A materialized PerfectRef system at `threads` eval threads, built
/// through `EngineConfig` and materialized up front.
fn perfectref_system(scenario: &UniversityScenario, threads: usize) -> ObdaSystem {
    let sys = EngineConfig::new()
        .rewriting(RewritingMode::PerfectRef)
        .data_mode(DataMode::Materialized)
        .eval_threads(threads)
        .build_obda(
            scenario.tbox.clone(),
            mastro::demo::build_mappings(scenario),
            mastro::demo::load_database(scenario).expect("loads"),
        )
        .expect("builds");
    let _ = sys.materialized_abox().expect("materializes");
    sys
}
