//! Self-tests of the benchmark: a seed fixes the request stream, every
//! printed metric is declared in `BENCHMARK.json`, and the correctness
//! gate fires on a wrong answer.
//!
//! ```sh
//! cargo test --release --offline --manifest-path wirebench/Cargo.toml
//! ```

use std::collections::BTreeSet;
use std::process::Command;

use fedex_core::{Fedex, Session};
use fedex_serve::json::{self, Json};
use fedex_serve::ExplainService;
use wirebench::gate::{self, Expected};
use wirebench::metrics::{valid_name, END_TO_END, PER_LAYER};
use wirebench::workload::{stream_bytes, Dataset, Op, Plan, TableSpec, Workload};

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    for w in Workload::ALL {
        let a = stream_bytes(&Plan::new(w, 7), 2);
        let b = stream_bytes(&Plan::new(w, 7), 2);
        assert!(!a.is_empty());
        assert!(
            a == b,
            "{}: seed 7 produced two different streams",
            w.name()
        );
        let c = stream_bytes(&Plan::new(w, 8), 2);
        assert!(
            a != c,
            "{}: seeds 7 and 8 produced the same stream",
            w.name()
        );
    }
}

#[test]
fn every_stream_line_is_one_json_request() {
    let bytes = stream_bytes(&Plan::new(Workload::TwoAnalysts, 3), 1);
    let text = String::from_utf8(bytes).unwrap();
    for line in text.lines() {
        let req = json::parse(line).expect("request line is JSON");
        assert!(req.get("cmd").and_then(Json::as_str).is_some());
    }
}

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn as_set(metrics: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_benchmark_declaration() {
    assert_eq!(as_set(END_TO_END), declared("end_to_end"));
    assert_eq!(as_set(PER_LAYER), declared("per_layer"));
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name:?} is not a valid metric name");
    }
}

/// Run the benchmark binary briefly and return the metric names and
/// units of its result line, which must be its last line.
fn printed_metrics(trace: &str) -> BTreeSet<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_wirebench"))
        .args([
            "--workload",
            "two-analysts",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = match &last {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("last line is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = last.get("metrics") else {
        panic!("no metrics")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(valid_name(name), "printed name {name:?} is not valid");
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    assert_eq!(printed_metrics("0"), declared("end_to_end"));
    assert_eq!(printed_metrics("1"), declared("per_layer"));
}

/// A small table, its upload, and an explain over it, answered by an
/// in-process service exactly as the server would answer them.
fn answered() -> (Op, String, Expected) {
    let table = TableSpec {
        name: "songs",
        dataset: Dataset::Spotify,
        rows: 2_000,
        seed: 5,
        epoch: 0,
    };
    let sql = "SELECT * FROM songs WHERE popularity > 65";
    let service = ExplainService::default();
    let registered = service.dispatch_line(&table.register_line("s"));
    assert!(registered.starts_with(r#"{"ok":true"#), "{registered}");
    let op = Op::Explain {
        sql: sql.to_string(),
        save_as: None,
        epoch: 0,
    };
    let answer = service.dispatch_line(&op.line("s"));

    let mut session = Session::new(Fedex::new());
    session.register("songs", table.generate());
    let entry = session.run(sql).unwrap();
    let mut expected = Expected::default();
    expected.explains.insert(
        (0, sql.to_string()),
        gate::expected_payload(
            entry.step.inputs[0].n_rows(),
            entry.step.output.n_rows(),
            &entry.explanations,
        ),
    );
    (op, answer, expected)
}

/// `answer` with `edit` applied to its parsed form.
fn altered(answer: &str, edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
    let Json::Obj(mut fields) = json::parse(answer).unwrap() else {
        panic!("answer is an object")
    };
    edit(&mut fields);
    Json::Obj(fields).to_string()
}

fn set(fields: &mut [(String, Json)], key: &str, value: Json) {
    fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
}

#[test]
fn gate_accepts_the_true_answer_and_rejects_altered_ones() {
    let (op, answer, expected) = answered();
    gate::check(&op, &answer, &expected).expect("the true answer passes the gate");

    // Timing fields are not part of the payload.
    let retimed = altered(&answer, |f| set(f, "encode_micros", Json::Num(123456.0)));
    gate::check(&op, &retimed, &expected).expect("timings are ignored");

    // One explanation's score nudged.
    let nudged = altered(&answer, |f| {
        let ex = &mut f.iter_mut().find(|(k, _)| k == "explanations").unwrap().1;
        let Json::Arr(items) = ex else {
            panic!("explanations is an array")
        };
        let Json::Obj(first) = &mut items[0] else {
            panic!("explanation is an object")
        };
        let score = &mut first.iter_mut().find(|(k, _)| k == "score").unwrap().1;
        *score = Json::Num(score.as_f64().unwrap() + 1e-9);
    });
    assert!(
        gate::check(&op, &nudged, &expected).is_err(),
        "a nudged score must fail"
    );

    let rerendered = altered(&answer, |f| set(f, "rendered", Json::Str("other".into())));
    assert!(
        gate::check(&op, &rerendered, &expected).is_err(),
        "other text must fail"
    );

    let degraded = altered(&answer, |f| f.push(("degraded".into(), Json::Bool(true))));
    assert!(
        gate::check(&op, &degraded, &expected).is_err(),
        "a degraded answer must fail"
    );

    let refused = r#"{"ok":false,"code":"overloaded","error":"queue full"}"#;
    assert!(
        gate::check(&op, refused, &expected).is_err(),
        "a refusal must fail"
    );
    assert!(
        gate::check(&op, "{not json", &expected).is_err(),
        "garbage must fail"
    );
}
