//! Byte identity of the reply renderer. `answers_to_json` and
//! `ok_response` write their text straight from the answer set; clients
//! digest and compare reply bytes, so that text must equal, byte for
//! byte, the rendering of the `Json` tree the server used to build. That
//! tree-building code lives on here as the reference.

use mastro::{AnswerTerm, Answers};
use obda_dllite::Value;
use obda_server::proto::{answers_to_json, ok_response};
use obda_server::Json;
use proptest::collection;
use proptest::prelude::*;

/// The reference: one `Json::Str` of each term's display form per term.
fn answers_tree(answers: &Answers) -> Json {
    Json::Arr(
        answers
            .iter()
            .map(|tuple| Json::Arr(tuple.iter().map(|t| Json::Str(t.to_string())).collect()))
            .collect(),
    )
}

/// The reference `status: ok` reply object.
fn ok_tree(id: &Option<String>, answers: &Answers, wait_us: u64, exec_us: u64) -> Json {
    Json::obj(vec![
        ("id", id.clone().map_or(Json::Null, Json::Str)),
        ("status", "ok".into()),
        ("rows", answers.len().into()),
        ("answers", answers_tree(answers)),
        ("wait_us", wait_us.into()),
        ("exec_us", exec_us.into()),
    ])
}

/// The string escaper the tree writer used before it copied runs: one
/// char at a time.
fn escape_per_char(s: &str) -> String {
    let mut out = String::from('"');
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
    out.push('"');
    out
}

fn from_code(range: std::ops::Range<u32>) -> BoxedStrategy<char> {
    range.prop_map(|c| char::from_u32(c).unwrap_or('?'))
}

/// Characters that take every branch of both escapers: plain printable
/// ASCII (weighted up), the two JSON-special ASCII characters, every
/// control byte, DEL, non-ASCII letters and symbols, and combining
/// marks (which `Value`'s display form escapes on its own).
fn arb_char() -> BoxedStrategy<char> {
    prop_oneof![
        from_code(0x20..0x7f),
        from_code(0x20..0x7f),
        from_code(0x20..0x7f),
        prop_oneof![Just('"'), Just('\\')],
        from_code(0..0x20),
        Just('\u{7f}'),
        prop_oneof![
            Just('é'),
            Just('ß'),
            Just('😀'),
            Just('\u{a0}'),
            Just('\u{2028}')
        ],
        prop_oneof![Just('\u{300}'), Just('\u{301}'), Just('\u{20d7}')],
    ]
}

/// Text that is printable ASCII only (the renderer's direct path) or
/// mixed with everything else.
fn arb_text() -> BoxedStrategy<String> {
    prop_oneof![
        collection::vec(from_code(0x20..0x7f), 0..12),
        collection::vec(arb_char(), 0..12),
    ]
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_term() -> BoxedStrategy<AnswerTerm> {
    prop_oneof![
        arb_text().prop_map(AnswerTerm::Iri),
        any::<i64>().prop_map(|n| AnswerTerm::Value(Value::Int(n))),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0i64), Just(-1i64)]
            .prop_map(|n| AnswerTerm::Value(Value::Int(n))),
        arb_text().prop_map(|s| AnswerTerm::Value(Value::Text(s))),
    ]
}

// An answer set of one arity; arity 0 is an ASK result, either empty or
// the one empty tuple.
prop_compose! {
    fn arb_answers()(
        arity in 0usize..4,
        rows in 0usize..12,
        cells in collection::vec(arb_term(), 0..40),
    ) -> Answers {
        if arity == 0 {
            return (0..rows % 2).map(|_| Vec::new()).collect();
        }
        cells.chunks_exact(arity).take(rows).map(<[AnswerTerm]>::to_vec).collect()
    }
}

fn arb_id() -> BoxedStrategy<Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("q\"1\\\"".to_owned())),
        arb_text().prop_map(Some),
    ]
}

/// Small timings (the usual case) and any `u64` (past 2^53 the reference
/// writes an `f64`).
fn arb_us() -> BoxedStrategy<u64> {
    prop_oneof![0u64..1_000_000, any::<u64>()]
}

proptest! {
    #[test]
    fn strings_escape_as_they_did_one_char_at_a_time(texts in collection::vec(arb_text(), 1..16)) {
        for s in &texts {
            let want = escape_per_char(s);
            let mut written = String::new();
            Json::Str(s.clone()).write(&mut written);
            prop_assert_eq!(&written, &want);
            prop_assert_eq!(Json::Str(s.clone()).to_string(), want);
        }
    }

    #[test]
    fn answers_render_as_the_tree_did(sets in collection::vec(arb_answers(), 1..8)) {
        for answers in &sets {
            prop_assert_eq!(answers_to_json(answers), answers_tree(answers).to_string());
        }
    }

    #[test]
    fn ok_replies_render_as_the_tree_did(
        answers in arb_answers(),
        id in arb_id(),
        wait_us in arb_us(),
        exec_us in arb_us(),
    ) {
        prop_assert_eq!(
            ok_response(&id, &answers, wait_us, exec_us),
            ok_tree(&id, &answers, wait_us, exec_us).to_string()
        );
    }
}

#[test]
fn fixed_edge_cases_render_as_the_tree_did() {
    let row = |terms: &[AnswerTerm]| terms.to_vec();
    let sets: Vec<Answers> = vec![
        Answers::new(),
        [Vec::new()].into_iter().collect(),
        [
            row(&[
                AnswerTerm::Iri("person/\"1\"\\x\u{1}\u{7f}é".into()),
                AnswerTerm::Value(Value::Int(i64::MIN)),
            ]),
            row(&[
                AnswerTerm::Value(Value::Text("Ada Lovelace".into())),
                AnswerTerm::Value(Value::Text("say \"hi\"\n\t\\ \u{301}e\u{7f}😀".into())),
            ]),
        ]
        .into_iter()
        .collect(),
    ];
    for answers in &sets {
        assert_eq!(answers_to_json(answers), answers_tree(answers).to_string());
        for id in [None, Some("id \"with\" quotes\\".to_owned())] {
            assert_eq!(
                ok_response(&id, answers, 7, 42),
                ok_tree(&id, answers, 7, 42).to_string()
            );
        }
    }
}
