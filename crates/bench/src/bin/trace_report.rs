//! Cross-rank trace timeline of the distributed EnSF analysis.
//!
//! Runs the traced sequential driver ([`dist::trace_timeline`]) over a few
//! assimilation cycles and writes one JSON document that is simultaneously
//! a valid Chrome trace-event file (top-level `traceEvents`; load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>) and a structured
//! report: a per-cycle comm-vs-compute breakdown with critical-path
//! summary under `summary`, and — when `--baseline <BENCH_scaling.json>`
//! is given — a `reconciliation` block proving the timeline's modeled
//! comm seconds, collective counts, and byte counts equal the scaling
//! suite's for the same shape. Comm pricing is a pure α–β function of the
//! shape, so those checks are exact; measured compute is compared loosely
//! (warn only).
//!
//! Defaults trace the paper-scale shape (`d = 8192`, `P = 20`, 100 SDE
//! steps) at 4 ranks, matching the committed `BENCH_scaling.json` strong
//! row; `--quick` shrinks to the CI shape (`d = 512`, `P = 8`, 5 steps)
//! matching `BENCH_scaling_quick.json`.
//!
//! Run: `cargo run --release -p bench --bin trace_report -- [--quick]
//! [--ranks N] [--cycles N] [--out PATH] [--baseline BENCH_scaling.json]`

use bench::{header, Json};
use dist::{trace_timeline, TimelineResult, TimelineSpec};
use ensf::EnsfConfig;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Relative mismatch of two comm quantities (0 when both are 0).
fn rel_err(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// One exact reconciliation check: timeline value vs baseline value.
struct Check {
    name: &'static str,
    trace: f64,
    baseline: f64,
    ok: bool,
}

fn reconcile(result: &TimelineResult, spec: &TimelineSpec, baseline: &Json) -> (Vec<Check>, Json) {
    // Pick the strong-scaling row at our rank count.
    let rows = baseline
        .get("results")
        .and_then(|r| r.get("strong"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("baseline has no results.strong array"));
    let row = rows
        .iter()
        .find(|r| r.get("ranks").and_then(Json::as_i64) == Some(spec.ranks as i64))
        .unwrap_or_else(|| panic!("baseline has no strong row at {} ranks", spec.ranks));
    let field = |k: &str| {
        row.get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("baseline strong row missing {k}"))
    };
    let base_dim = field("dim") as usize;
    let base_members = field("members") as usize;
    assert_eq!(
        (base_dim, base_members),
        (spec.dim, spec.members),
        "baseline shape (d = {base_dim}, P = {base_members}) does not match the traced \
         shape (d = {}, P = {}); pass matching --quick / full modes",
        spec.dim,
        spec.members
    );

    // Every cycle runs one analysis of the baseline's shape, so the
    // per-cycle analysis quantities must equal the baseline row's.
    let cycles = result.breakdown.len() as f64;
    let comm_per_cycle: f64 =
        result.breakdown.iter().map(|b| b.analysis_comm_secs).sum::<f64>() / cycles;
    let coll_per_cycle: f64 =
        result.breakdown.iter().map(|b| b.analysis_collectives as f64).sum::<f64>() / cycles;
    let bytes_per_cycle: f64 =
        result.breakdown.iter().map(|b| b.analysis_bytes as f64).sum::<f64>() / cycles;

    let exact = 1e-9; // modeled comm is a pure function of the shape
    let checks = vec![
        Check {
            name: "collectives_per_analysis",
            trace: coll_per_cycle,
            baseline: field("collectives"),
            ok: coll_per_cycle == field("collectives"),
        },
        Check {
            name: "bytes_per_analysis",
            trace: bytes_per_cycle,
            baseline: field("exchanged_bytes"),
            ok: bytes_per_cycle == field("exchanged_bytes"),
        },
        Check {
            name: "modeled_comm_secs_per_analysis",
            trace: comm_per_cycle,
            baseline: field("modeled_comm_secs"),
            ok: rel_err(comm_per_cycle, field("modeled_comm_secs")) < exact,
        },
    ];

    // Compute is measured, not modeled: same code path, different run, so
    // only warn on large drift.
    let compute_per_cycle: f64 = result
        .breakdown
        .iter()
        .map(|b| b.compute_secs.iter().cloned().fold(0.0, f64::max))
        .sum::<f64>()
        / cycles;
    let base_analysis = field("analysis_secs");
    let compute_drift = rel_err(compute_per_cycle, base_analysis);

    let json = Json::obj(vec![
        ("ranks", Json::from(spec.ranks as u64)),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::from(c.name)),
                            ("trace", Json::Num(c.trace)),
                            ("baseline", Json::Num(c.baseline)),
                            ("ok", Json::Bool(c.ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("compute_secs_per_analysis", Json::Num(compute_per_cycle)),
        ("baseline_analysis_secs", Json::Num(base_analysis)),
        ("compute_rel_drift", Json::Num(compute_drift)),
    ]);
    (checks, json)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = arg_value(&args, "--out").unwrap_or_else(|| "TRACE_report.json".to_string());
    let ranks: usize =
        arg_value(&args, "--ranks").map_or(4, |v| v.parse().expect("--ranks wants a number"));
    let cycles: usize =
        arg_value(&args, "--cycles").map_or(2, |v| v.parse().expect("--cycles wants a number"));

    header("trace_report", "Cross-rank trace timeline of the distributed EnSF analysis");

    let (dim, tile, members, n_steps): (usize, usize, usize, usize) =
        if quick { (512, 64, 8, 5) } else { (8192, 64, 20, 100) };
    let spec = TimelineSpec {
        dim,
        tile,
        members,
        ranks,
        cycles,
        ensf: EnsfConfig { n_steps, seed: 9, ..Default::default() },
        seed: 7,
        forecast_hours: 12.0,
    };
    println!(
        "tracing {cycles} cycles: d = {dim}, tile {tile}, P = {members}, {n_steps} SDE steps, \
         {ranks} ranks\n"
    );

    let result = trace_timeline(&spec);

    println!(
        "{:>6} {:>11} {:>11} {:>12} {:>11} {:>11} {:>14}",
        "cycle", "forecast", "fc gather", "compute", "comm", "gather", "critical path"
    );
    for b in &result.breakdown {
        let slowest = b.compute_secs.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:>6} {:>10.4}s {:>10.4}s {:>11.4}s {:>10.4}s {:>10.4}s {:>13.4}s",
            b.cycle,
            b.forecast_secs.iter().cloned().fold(0.0, f64::max),
            b.forecast_gather_comm_secs,
            slowest,
            b.analysis_comm_secs,
            b.gather_comm_secs,
            b.critical_path_secs
        );
    }
    let total_compute: f64 =
        result.breakdown.iter().flat_map(|b| b.compute_secs.iter()).sum();
    let total_comm: f64 = result
        .breakdown
        .iter()
        .map(|b| b.forecast_gather_comm_secs + b.analysis_comm_secs + b.gather_comm_secs)
        .sum();
    let frac = total_comm / (total_comm + total_compute).max(f64::MIN_POSITIVE);
    println!(
        "\ntotals: {:.4}s compute (all ranks), {:.4}s modeled comm ({:.1}% of the sum)",
        total_compute,
        total_comm,
        100.0 * frac
    );
    println!("{} trace events across {} lanes (+1 comm lane)", result.events.len(), ranks);

    let mut failed = false;
    let reconciliation = match arg_value(&args, "--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
            let baseline = telemetry::json::parse(&text)
                .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
            let (checks, json) = reconcile(&result, &spec, &baseline);
            println!("\nreconciliation against {path}:");
            for c in &checks {
                println!(
                    "  {:<32} trace {:>14.6e}  baseline {:>14.6e}  {}",
                    c.name,
                    c.trace,
                    c.baseline,
                    if c.ok { "ok" } else { "MISMATCH" }
                );
                failed |= !c.ok;
            }
            json
        }
        None => {
            println!("\n(no --baseline given; skipping reconciliation)");
            Json::Null
        }
    };

    // One document: a loadable Chrome trace plus the structured report
    // (the trace-event format ignores unknown top-level keys).
    let mut doc = telemetry::chrome_trace(&result.events);
    if let Json::Obj(pairs) = &mut doc {
        pairs.push((
            "summary".to_string(),
            Json::obj(vec![
                ("ranks", Json::from(ranks as u64)),
                ("cycles", Json::from(cycles as u64)),
                ("dim", Json::from(dim as u64)),
                ("members", Json::from(members as u64)),
                ("n_steps", Json::from(n_steps as u64)),
                ("total_compute_secs", Json::Num(total_compute)),
                ("total_comm_secs", Json::Num(total_comm)),
                (
                    "per_cycle",
                    Json::Arr(result.breakdown.iter().map(|b| b.to_json()).collect()),
                ),
            ]),
        ));
        pairs.push(("reconciliation".to_string(), reconciliation));
    }
    telemetry::report::write_json(std::path::Path::new(&out), &doc)
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    println!("trace written to {out}");

    if failed {
        eprintln!("trace_report: reconciliation FAILED");
        std::process::exit(1);
    }
}
