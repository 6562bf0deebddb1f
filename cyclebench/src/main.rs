//! `cyclebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed, as the
//! last line, by one JSON object: `correct`, `attempted`, `failed` and
//! the metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits 1 when an output check fails, 2 on bad arguments.

use cyclebench::{Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Directory (relative to the working directory) for checkpoint and
/// trace files.
const OUT_DIR: &str = ".cyclebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Six decimals, or scientific notation for values that would print as
/// zero or overflow the column.
fn readable(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.6e}")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cyclebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cyclebench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} cycles {} threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.cycles(args.seconds),
    );
    let out = args
        .workload
        .run(args.seed, args.seconds, args.trace, OUT_DIR.as_ref());
    for line in &out.report {
        println!("{line}");
    }
    for c in &out.checks {
        println!(
            "check {}: {} ({})",
            if c.passed { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        match out.metrics.iter().find(|m| m.name == *name) {
            Some(m) => println!("{name:<32} {:>14} {unit:<8} {}", readable(m.value), m.base),
            None => println!("{name:<32} {:>14} {unit:<8} not measured", "-"),
        }
    }
    println!("{}", out.json_line(table));
    if out.correct(table) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
