//! The repository benchmark program.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`dc_large`, `wan_paced`, `fig5a_sweep`) for
//! about `--seconds`, checks every run's outputs, and prints a provenance line and
//! then, as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured untraced; with `--trace 1` they are the per-layer
//! split, and the span log is written to `.perfbench/trace-<workload>-seed<n>.json`.
//! See `perfbench/README.md`.

mod bench;
mod pins;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <dc_large|wan_paced|fig5a_sweep> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = sys::provenance(args.workload.name(), args.seed, 1, args.workload.lanes());
    println!("{{\"provenance\":{provenance}}}");

    let report = bench::run(args.workload, args.seed, args.seconds, args.trace);
    for e in &report.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    if args.trace {
        let path = std::path::Path::new(bench::OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let json = |metrics: &[bench::Metric]| {
            let fields: Vec<String> = metrics
                .iter()
                .map(|m| format!("{}:{}", trace::json_string(m.name), json_number(m.value)))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let body = format!(
            "{{\"provenance\":{provenance},\n\"layers\":{},\n\"families\":{},\n\"spans\":{}}}\n",
            json(&report.metrics),
            json(&report.detail),
            report.spans.to_json()
        );
        let written =
            std::fs::create_dir_all(bench::OUT_DIR).and_then(|_| std::fs::write(&path, body));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed,
    );
    ExitCode::SUCCESS
}

/// `v` as a JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
