//! A4: end-to-end OBDA answering, virtual vs materialized, Presto vs
//! PerfectRef, on the university scenario — including rewrite-cache
//! cold vs warm.
//!
//! The mode matrix drives the engines through the unified
//! [`mastro::QueryEngine`] trait (constructed via
//! [`mastro::EngineConfig`]) — the same surface the server endpoints
//! hold — so what this bench measures is what serving pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mastro::{DataMode, EngineConfig, QueryEngine, QueryLang, RewritingMode};
use obda_genont::{university_scenario, UniversityScenario};

fn build_engine(
    scenario: &UniversityScenario,
    rw: RewritingMode,
    dm: DataMode,
) -> Box<dyn QueryEngine> {
    let db = mastro::demo::load_database(scenario).expect("loads");
    let mappings = mastro::demo::build_mappings(scenario);
    let sys = EngineConfig::new()
        .rewriting(rw)
        .data_mode(dm)
        .build_obda(scenario.tbox.clone(), mappings, db)
        .expect("builds");
    if dm == DataMode::Materialized {
        let _ = sys.materialized_abox().expect("materializes");
    }
    Box::new(sys)
}

fn obda_e2e(c: &mut Criterion) {
    let scenario = university_scenario(4, 42);
    let mut group = c.benchmark_group("obda_e2e");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.sample_size(10);
    let modes = [
        ("presto_virtual", RewritingMode::Presto, DataMode::Virtual),
        (
            "perfectref_virtual",
            RewritingMode::PerfectRef,
            DataMode::Virtual,
        ),
        (
            "presto_materialized",
            RewritingMode::Presto,
            DataMode::Materialized,
        ),
        (
            "perfectref_materialized",
            RewritingMode::PerfectRef,
            DataMode::Materialized,
        ),
    ];
    for (label, rw, dm) in modes {
        let engine = build_engine(&scenario, rw, dm);
        for qs in &scenario.queries {
            group.bench_with_input(BenchmarkId::new(label, &qs.name), &qs.text, |b, text| {
                b.iter(|| engine.answer(QueryLang::Cq, text).expect("answers"))
            });
        }
    }

    // Rewrite cache: cold re-rewrites every iteration, warm hits the
    // cached (pruned) UCQ. Uses the concrete system: the trait-level
    // `invalidate` also drops the materialized ABox, which would turn
    // "cold cache" into "cold everything".
    let mut sys = mastro::demo::build_system(&scenario)
        .expect("builds")
        .with_rewriting(RewritingMode::PerfectRef)
        .with_data_mode(DataMode::Materialized);
    let _ = sys.materialized_abox().expect("materializes");
    for qs in &scenario.queries {
        group.bench_with_input(
            BenchmarkId::new("perfectref_mat_cold", &qs.name),
            &qs.text,
            |b, text| {
                b.iter(|| {
                    sys.invalidate_rewrites();
                    sys.answer(text).expect("answers")
                })
            },
        );
        let _ = sys.answer(&qs.text).expect("warms the cache");
        group.bench_with_input(
            BenchmarkId::new("perfectref_mat_warm", &qs.name),
            &qs.text,
            |b, text| b.iter(|| sys.answer(text).expect("answers")),
        );
    }

    group.finish();
}

criterion_group!(benches, obda_e2e);
criterion_main!(benches);
