//! `stackbench --workload <compile|exec|serve|hw> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::process::ExitCode;

use stackbench::{run, Options, Workload};

const USAGE: &str =
    "usage: stackbench --workload <compile|exec|serve|hw> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for f in report.failures.iter().take(20) {
        eprintln!("stackbench: FAILED {f}");
    }
    for (name, v) in &report.exact {
        eprintln!("stackbench: exact {name} = {v}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
