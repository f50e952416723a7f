//! Span accounting for per-query traces: every span's direct children
//! must fit inside it (modulo the ≥1µs duration clamp), a materialized
//! query records exactly one `eval` span whichever and however many
//! threads answer through the engine, and both engine shapes attribute
//! the documented phases on every query.

use mastro::{DataMode, EngineConfig, QueryEngine, QueryLang, RewritingMode};
use obda_dllite::{parse_tbox, Tbox};
use obda_genont::{random_abox, university_scenario};
use obda_obs::{QueryTrace, TraceCtx};
use proptest::prelude::*;

/// Answers `text` under a fresh trace context and returns the trace.
fn traced(engine: &dyn QueryEngine, text: &str) -> QueryTrace {
    let ctx = TraceCtx::new();
    let answers = engine
        .answer_traced(QueryLang::Cq, text, &ctx)
        .expect("query answers");
    ctx.finish("ok", answers.len() as u64)
        .expect("fresh contexts are enabled")
}

/// Depth-0 phase names in recording order.
fn phase_names(trace: &QueryTrace) -> Vec<&'static str> {
    trace.phases().iter().map(|(name, _)| *name).collect()
}

/// Checks the books: every span ends inside the trace, and for every
/// span the sum of its direct children's durations fits inside the
/// parent. Durations are clamped up to ≥1µs when recorded, so each
/// child may legitimately overshoot by up to 1µs — the tolerance is
/// one microsecond per child.
fn assert_children_fit(trace: &QueryTrace) {
    let spans = &trace.spans;
    for (i, parent) in spans.iter().enumerate() {
        assert!(
            parent.start_us + parent.dur_us <= trace.total_us + 1,
            "span `{}` [{}us +{}us] leaks past the trace total {}us",
            parent.name,
            parent.start_us,
            parent.dur_us,
            trace.total_us
        );
        let mut child_sum = 0u64;
        let mut children = 0u64;
        for s in &spans[i + 1..] {
            if s.depth <= parent.depth {
                break;
            }
            if s.depth == parent.depth + 1 {
                child_sum += s.dur_us;
                children += 1;
            }
        }
        assert!(
            child_sum <= parent.dur_us + children,
            "children of `{}` sum to {}us > parent {}us (+{}us clamp)",
            parent.name,
            child_sum,
            parent.dur_us,
            children
        );
    }
    // The depth-0 phases together fit in the trace total (same clamp).
    let phases = trace.phases();
    let phase_sum: u64 = phases.iter().map(|(_, us)| us).sum();
    assert!(
        phase_sum <= trace.total_us + phases.len() as u64,
        "phases sum to {}us > trace total {}us",
        phase_sum,
        trace.total_us
    );
}

#[test]
fn obda_paths_attribute_expected_phases() {
    let scenario = university_scenario(1, 42);
    let build = |rw: RewritingMode, dm: DataMode| {
        let db = mastro::demo::load_database(&scenario).expect("loads");
        let mappings = mastro::demo::build_mappings(&scenario);
        let sys = EngineConfig::new()
            .rewriting(rw)
            .data_mode(dm)
            .build_obda(scenario.tbox.clone(), mappings, db)
            .expect("builds");
        if dm == DataMode::Materialized {
            let _ = sys.materialized_abox().expect("materializes");
        }
        sys
    };
    let virtual_presto = build(RewritingMode::Presto, DataMode::Virtual);
    let virtual_pr = build(RewritingMode::PerfectRef, DataMode::Virtual);
    let mat_pr = build(RewritingMode::PerfectRef, DataMode::Materialized);
    for qs in &scenario.queries {
        for virt in [&virtual_presto, &virtual_pr] {
            let t = traced(virt, &qs.text);
            assert_children_fit(&t);
            let phases = phase_names(&t);
            for want in ["parse", "rewrite", "unfold", "sql"] {
                assert!(
                    phases.contains(&want),
                    "virtual trace for `{}` is missing `{want}`: {phases:?}",
                    qs.name
                );
            }
            assert!(
                t.counter("sql_queries") >= 1,
                "virtual trace for `{}` scanned no SQL",
                qs.name
            );
        }
        let t = traced(&mat_pr, &qs.text);
        assert_children_fit(&t);
        let phases = phase_names(&t);
        for want in ["parse", "rewrite", "eval"] {
            assert!(
                phases.contains(&want),
                "materialized trace for `{}` is missing `{want}`: {phases:?}",
                qs.name
            );
        }
        assert_eq!(
            t.spans.iter().filter(|s| s.name == "eval").count(),
            1,
            "`{}` should record one eval span: {:?}",
            qs.name,
            t.spans
        );
        assert!(t.counter("disjuncts") >= 1);
    }
}

#[test]
fn phase_set_is_invariant_across_eval_threads() {
    // A query is evaluated on whichever thread calls the engine (the
    // server's workers share one engine), so the trace must not depend
    // on how many threads answer through it at once.
    let scenario = university_scenario(1, 42);
    let db = mastro::demo::load_database(&scenario).expect("loads");
    let mappings = mastro::demo::build_mappings(&scenario);
    let engine = EngineConfig::new()
        .rewriting(RewritingMode::PerfectRef)
        .data_mode(DataMode::Materialized)
        .build_obda(scenario.tbox.clone(), mappings, db)
        .expect("builds");
    // Materialize eagerly so the first traced query looks like the rest.
    let _ = engine.materialized_abox().expect("materializes");
    for qs in &scenario.queries {
        let single = traced(&engine, &qs.text);
        assert_children_fit(&single);
        for threads in [4usize, 8] {
            let traces: Vec<QueryTrace> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| s.spawn(|| traced(&engine, &qs.text)))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker answers"))
                    .collect()
            });
            for t in &traces {
                assert_children_fit(t);
                assert_eq!(
                    t.spans.iter().filter(|s| s.name == "eval").count(),
                    1,
                    "`{}` should record one eval span: {:?}",
                    qs.name,
                    t.spans
                );
                assert_eq!(
                    phase_names(t),
                    phase_names(&single),
                    "`{}`: 1-thread vs {threads}-thread phases differ",
                    qs.name
                );
            }
        }
    }
}

fn sig_tbox() -> Tbox {
    parse_tbox("concept A B C\nrole p r\nattribute u").unwrap()
}

prop_compose! {
    fn arb_atom_text()(kind in 0..4, v1 in 0..3usize, v2 in 0..3usize) -> String {
        let vars = ["x", "y", "z"];
        match kind {
            0 => format!("A({})", vars[v1]),
            1 => format!("C({})", vars[v1]),
            2 => format!("r({}, {})", vars[v1], vars[v2]),
            _ => format!("u({}, n{})", vars[v1], v2),
        }
    }
}

prop_compose! {
    fn arb_query()(atoms in proptest::collection::vec(arb_atom_text(), 1..5)) -> String {
        // Head: the first variable occurring in the body (always safe).
        let body = atoms.join(", ");
        let head_var = body
            .chars()
            .skip_while(|c| *c != '(')
            .skip(1)
            .take_while(|c| *c != ',' && *c != ')')
            .collect::<String>();
        format!("q({head_var}) :- {body}")
    }
}

proptest! {
    /// Random queries over random ABoxes: the books balance, cold and
    /// warm, and both runs record the same phases.
    #[test]
    fn abox_span_accounting_holds(
        q_text in arb_query(),
        seed in 0u64..200,
    ) {
        let tbox = sig_tbox();
        let engine = EngineConfig::new().build_abox(tbox.clone(), random_abox(seed, &tbox, 4, 12));
        let cold = traced(&engine, &q_text);
        assert_children_fit(&cold);
        let warm = traced(&engine, &q_text);
        assert_children_fit(&warm);
        prop_assert_eq!(phase_names(&cold), vec!["parse", "rewrite", "eval"]);
        prop_assert_eq!(phase_names(&warm), phase_names(&cold));
    }
}
