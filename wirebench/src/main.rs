//! `wirebench` — the repository benchmark.
//!
//! ```text
//! wirebench --workload <drill-down|fresh-tables|two-analysts> --seed <n>
//!           --seconds <s> --trace <0|1>
//! wirebench summarize [--bounds BENCHMARK.json] <result.json>...
//! wirebench serve <fedex serve flags>        (the server child process)
//! ```
//!
//! See `README.md` next to this crate for what each workload and metric
//! means.

use std::process::ExitCode;

use wirebench::metrics::result_line;
use wirebench::workload::{Plan, Workload};
use wirebench::{context, run, summarize, trace};

const USAGE: &str = "usage: wirebench --workload <drill-down|fresh-tables|two-analysts> \
--seed <n> --seconds <s> --trace <0|1>\n       wirebench summarize [--bounds BENCHMARK.json] <result.json>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            // The server under test: exactly `fedex serve <flags>`.
            match fedex_cli::parse_args(&args).and_then(fedex_cli::run) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("summarize") => match summarize::main(&args[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wirebench summarize: {e}");
                ExitCode::from(2)
            }
        },
        _ => match parse(&args) {
            Ok((plan, seconds, traced)) => bench(&plan, seconds, traced),
            Err(e) => {
                eprintln!("wirebench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

fn parse(args: &[String]) -> Result<(Plan, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Plan::new(workload, seed.ok_or("--seed is required")?),
        seconds.ok_or("--seconds is required")?,
        traced.unwrap_or(false),
    ))
}

fn bench(plan: &Plan, seconds: f64, traced: bool) -> ExitCode {
    let outcome = if traced {
        trace::run_traced(plan, seconds)
    } else {
        run::run_untraced(plan, seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wirebench: {} run failed: {e}", plan.workload.name());
            return ExitCode::from(1);
        }
    };
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!(
            "wirebench: {} run measured no value for {name} ({value})",
            plan.workload.name()
        );
        return ExitCode::from(1);
    }
    let ctx = context::record(plan, seconds, traced);
    let failed = outcome.gate.failures.len() as u64;
    let correct = failed == 0;
    let line = result_line(correct, outcome.gate.attempted, failed, &outcome.metrics);
    for f in outcome.gate.failures.iter().take(20) {
        eprintln!("wirebench: wrong answer: {f}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# failed_share {} ({failed} of {} answers failed the gate)",
        failed as f64 / outcome.gate.attempted.max(1) as f64,
        outcome.gate.attempted
    );
    println!("# context {ctx}");
    if let Err(e) = context::save(plan, traced, &ctx, &line) {
        eprintln!("wirebench: could not save the result: {e}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("wirebench: {failed} answer(s) failed the correctness gate");
        ExitCode::from(1)
    }
}
