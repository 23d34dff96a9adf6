//! `ombench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the workload's metrics one per line (`workload name value unit`),
//! then, as the last line, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `--workload all` runs every workload in turn and
//! ends with one JSON object whose metric names are prefixed by the
//! workload. Exits 1 when any output check failed, 2 on bad arguments or a
//! failed set-up.

use ombench::{run, Config, Metric, Outcome, Size, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: ombench --workload spec92|scale-link|edit-relink|all \
                     --seed N --seconds S --trace 0|1";

fn parse() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::full(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(cfg)
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let fields: Vec<String> = metrics
        .filter(|(_, m)| m.value.is_finite())
        .map(|(name, m)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ombench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if cfg.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![cfg.workload.as_str()]
    };
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for name in names {
        let out = match run(&Config {
            workload: name.to_string(),
            ..cfg.clone()
        }) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ombench: {name}: {e}");
                return ExitCode::from(2);
            }
        };
        for m in out.report.iter().chain(&out.per_layer) {
            println!("{name} {} {} {}", m.name, m.value, m.unit);
        }
        outcomes.push((name, out));
    }
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let prefix = outcomes.len() > 1;
    let metrics = json_metrics(outcomes.iter().flat_map(|(name, o)| {
        let list = if cfg.trace {
            &o.per_layer
        } else {
            &o.end_to_end
        };
        list.iter().map(move |m| {
            (
                if prefix {
                    format!("{name}.{}", m.name)
                } else {
                    m.name.clone()
                },
                m,
            )
        })
    }));
    let correct = failed == 0 && attempted > 0;
    println!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
