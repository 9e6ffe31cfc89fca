//! The correctness gate: every answer the server gives is checked
//! against an in-process [`Session`] run over the same generated tables.

use std::collections::HashMap;

use fedex_core::{render_all, to_json_array, ExecutionMode, Explanation, Fedex, Session};
use fedex_serve::json::{self, n, s, Json};

use crate::workload::{Op, Plan, Workload};

/// Render width the server uses when a request names none.
pub const WIDTH: usize = 44;

/// Expected answers, keyed by what determines them.
#[derive(Debug, Default)]
pub struct Expected {
    /// Canonical explain payload by `(table epoch, sql)`.
    pub explains: HashMap<(u64, String), String>,
    /// Content fingerprint (hex) by table epoch and name.
    pub registers: HashMap<(u64, String), String>,
}

/// The canonical payload of one explain: the fields that describe the
/// answer, in a fixed order, with every timing field dropped.
pub fn canonical_payload(
    n_rows_in: &Json,
    n_rows_out: &Json,
    explanations: &Json,
    rendered: &Json,
) -> String {
    let mut explanations = explanations.clone();
    strip_timings(&mut explanations);
    Json::Obj(vec![
        ("n_rows_in".into(), n_rows_in.clone()),
        ("n_rows_out".into(), n_rows_out.clone()),
        ("explanations".into(), explanations),
        ("rendered".into(), rendered.clone()),
    ])
    .to_string()
}

/// Remove every key that carries a timing (`*micros*`, `*_ms`,
/// `elapsed*`) from a JSON tree.
fn strip_timings(v: &mut Json) {
    match v {
        Json::Obj(fields) => {
            fields.retain(|(k, _)| {
                !(k.contains("micros") || k.ends_with("_ms") || k.starts_with("elapsed"))
            });
            for (_, f) in fields {
                strip_timings(f);
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(strip_timings),
        _ => {}
    }
}

/// The canonical payload an in-process run produced.
pub fn expected_payload(
    n_rows_in: usize,
    n_rows_out: usize,
    explanations: &[Explanation],
) -> String {
    let ex = json::parse(&to_json_array(explanations)).expect("explanations serialize to JSON");
    canonical_payload(
        &n(n_rows_in as f64),
        &n(n_rows_out as f64),
        &ex,
        &s(render_all(explanations, WIDTH)),
    )
}

/// Check one explain response against its expected payload.
pub fn check_explain(response: &Json, expected: &str) -> Result<(), String> {
    check_ok(response)?;
    if response.get("degraded").and_then(Json::as_bool) == Some(true) {
        return Err("answer was degraded".into());
    }
    let field = |k: &str| response.get(k).ok_or_else(|| format!("answer lacks '{k}'"));
    let got = canonical_payload(
        field("n_rows_in")?,
        field("n_rows_out")?,
        field("explanations")?,
        field("rendered")?,
    );
    if got != expected {
        let at = got
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(expected.len()));
        let lo = at.saturating_sub(40);
        return Err(format!(
            "payload differs from the in-process run at byte {at}: got …{}… want …{}…",
            got.get(lo..(at + 40).min(got.len())).unwrap_or(""),
            expected
                .get(lo..(at + 40).min(expected.len()))
                .unwrap_or("")
        ));
    }
    Ok(())
}

/// Check one register response against the table's fingerprint.
pub fn check_register(response: &Json, fingerprint: &str) -> Result<(), String> {
    check_ok(response)?;
    match response.get("fingerprint").and_then(Json::as_str) {
        Some(fp) if fp == fingerprint => Ok(()),
        other => Err(format!(
            "register fingerprint {other:?}, in-process table has {fingerprint}"
        )),
    }
}

/// Check a metrics response.
pub fn check_metrics(response: &Json) -> Result<(), String> {
    check_ok(response)?;
    if response.get("cache").is_none() || response.get("scheduler").is_none() {
        return Err("metrics answer lacks 'cache' or 'scheduler'".into());
    }
    Ok(())
}

fn check_ok(response: &Json) -> Result<(), String> {
    if response.get("ok") == Some(&Json::Bool(true)) {
        Ok(())
    } else {
        Err(format!(
            "answer not ok: code {:?}, error {:?}",
            response.get("code").and_then(Json::as_str).unwrap_or("-"),
            response.get("error").and_then(Json::as_str).unwrap_or("-")
        ))
    }
}

/// Run `steps` in an in-process session holding `tables`, recording the
/// expected payload of each under its epoch.
fn run_oracle(
    expected: &mut Expected,
    tables: &[crate::workload::TableSpec],
    steps: &[Op],
) -> Result<(), String> {
    // Serial: the oracle runs on two threads of its own, and execution
    // mode never changes an answer.
    let mut session = Session::new(Fedex::new().with_execution(ExecutionMode::Serial));
    for t in tables {
        let df = t.generate();
        expected
            .registers
            .insert((t.epoch, t.name.to_string()), df.fingerprint().to_hex());
        session.register(t.name, df);
    }
    for op in steps {
        let Op::Explain {
            sql,
            save_as,
            epoch,
        } = op
        else {
            continue;
        };
        let entry = match save_as {
            Some(name) => session.run_and_save(sql, *name),
            None => session.run(sql),
        }
        .map_err(|e| format!("in-process run of {sql:?} failed: {e}"))?;
        let payload = expected_payload(
            entry.step.inputs[0].n_rows(),
            entry.step.output.n_rows(),
            &entry.explanations,
        );
        expected.explains.insert((*epoch, sql.clone()), payload);
    }
    Ok(())
}

/// Compute the expected answers of every request a run sent: base-table
/// steps once, and each fresh table (by epoch) with its own steps.
pub fn expected_answers(plan: &Plan, fresh_epochs: &[u64]) -> Result<Expected, String> {
    let mut expected = Expected::default();
    if plan.workload == Workload::FreshTables {
        // One table per epoch: check them on two threads.
        let halves: Vec<Result<Expected, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [0, 1]
                .map(|half| {
                    scope.spawn(move || {
                        let mut part = Expected::default();
                        for &epoch in fresh_epochs.iter().skip(half).step_by(2) {
                            run_oracle(
                                &mut part,
                                &[plan.fresh_table(epoch)],
                                &plan.fresh_steps(epoch),
                            )?;
                        }
                        Ok(part)
                    })
                })
                .into_iter()
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        for part in halves {
            let part = part?;
            expected.explains.extend(part.explains);
            expected.registers.extend(part.registers);
        }
    } else {
        run_oracle(&mut expected, &plan.base_tables(), &plan.base_steps())?;
    }
    Ok(expected)
}

/// Check one answer of `op`; `Err` names what is wrong.
pub fn check(op: &Op, response_line: &str, expected: &Expected) -> Result<(), String> {
    let response = json::parse(response_line).map_err(|e| format!("unparseable answer: {e}"))?;
    match op {
        Op::Register(t) => {
            let fp = expected
                .registers
                .get(&(t.epoch, t.name.to_string()))
                .ok_or("no expected fingerprint")?;
            check_register(&response, fp)
        }
        Op::Explain { sql, epoch, .. } => {
            let want = expected
                .explains
                .get(&(*epoch, sql.clone()))
                .ok_or("no expected payload")?;
            check_explain(&response, want)
        }
        Op::Metrics => check_metrics(&response),
    }
}

/// A response field as a count (0 when absent).
pub fn count(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}
