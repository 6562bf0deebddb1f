//! Tracing must not change what the drivers compute: the traced runs
//! reproduce the untraced trajectories bit for bit. Run on a reduced grid
//! (16²×2, 8 members) so the suite stays fast.

use cyclebench::report::{Outcome, END_TO_END};
use cyclebench::trace::{coverage, Tracer};
use cyclebench::workloads::{bits, ensf_config, redrive, supervised, SerialSetup};
use da_core::osse::{nature_run, OsseConfig};
use dist::{run_dist_experiment, CommSpec, DistCycleConfig};
use sqg::SqgParams;
use std::path::PathBuf;
use std::time::Instant;

fn small_osse(cycles: usize) -> OsseConfig {
    OsseConfig {
        params: SqgParams {
            n: 16,
            ..SqgParams::default()
        },
        cycles,
        obs_sigma: 0.005,
        ens_size: 8,
        ic_sigma: 0.01,
        spinup_steps: 40,
        seed: 3,
        ..OsseConfig::default()
    }
}

fn checkpoint(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}.bin", std::process::id()))
}

#[test]
fn traced_supervised_run_matches_untraced_bitwise() {
    let config = small_osse(3);
    let ensf = ensf_config(7);
    let plain_ckpt = checkpoint("plain");
    let traced_ckpt = checkpoint("traced");
    let plain = supervised(&config, SerialSetup::new(&config, &ensf), &plain_ckpt, None).unwrap();
    let tracer = Tracer::new(Instant::now());
    let traced = supervised(
        &config,
        SerialSetup::new(&config, &ensf),
        &traced_ckpt,
        Some(&tracer),
    )
    .unwrap();
    let spans = tracer.finish();
    let _ = std::fs::remove_file(plain_ckpt);
    let _ = std::fs::remove_file(traced_ckpt);

    let (a, b) = (&plain.series, &traced.series);
    assert_eq!(a.label, b.label);
    assert_eq!(bits(&a.hours), bits(&b.hours));
    assert_eq!(bits(&a.rmse), bits(&b.rmse));
    assert_eq!(bits(&a.spread), bits(&b.spread));
    assert_eq!(bits(&a.final_mean), bits(&b.final_mean));
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.counters, traced.counters);

    // One cycle span per cycle, each holding one forecast and at least one
    // analysis, and no child longer than its cycle.
    let cov = coverage(0, &spans);
    assert_eq!(cov.len(), 3);
    for c in &cov {
        let names: Vec<&str> = c.children.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"sqg.forecast_ensemble"), "{names:?}");
        assert!(names.contains(&"ensf.analyze"), "{names:?}");
        assert!(c.unattributed_s() >= 0.0 && c.attributed_s() <= c.span_s);
    }
}

#[test]
fn sharded_redrive_reproduces_driver_bitwise() {
    let config = DistCycleConfig {
        osse: small_osse(2),
        ensf: ensf_config(5),
        comm: Some(CommSpec::clean(2)),
        ..DistCycleConfig::default()
    };
    let nature = nature_run(&config.osse);
    let driver = hpc::run_world(2, |comm| {
        run_dist_experiment(comm, &config, &nature).unwrap()
    });
    let epoch = Instant::now();
    let again = hpc::run_world(2, |comm| {
        let tracer = Tracer::new(epoch);
        let run = redrive(comm, &config, &nature, &tracer).unwrap();
        (run, tracer.finish())
    });
    for (rank, (d, (r, spans))) in driver.iter().zip(&again).enumerate() {
        assert_eq!(d.cycle_means.len(), r.cycle_means.len());
        for (a, b) in d.cycle_means.iter().zip(&r.cycle_means) {
            assert_eq!(bits(a), bits(b), "rank {rank} cycle means differ");
        }
        assert_eq!(bits(d.ensemble.as_slice()), bits(r.ensemble.as_slice()));
        assert_eq!(bits(&d.series.rmse), bits(&r.series.rmse));
        assert_eq!(
            d.stats, r.stats,
            "rank {rank} collective accounting differs"
        );
        assert_eq!(coverage(rank, spans).len(), 2);
    }
}

#[test]
fn result_line_names_every_metric_and_never_zeroes_a_missing_one() {
    let mut out = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    out.metric("cycle_s", 1.25, "");
    let line = out.json_line(&END_TO_END);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 0, \"metrics\": {")
    );
    assert!(line.contains("\"cycle_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    assert!(line.contains("\"setup_s\": {\"value\": null, \"unit\": \"s\"}"));
    for (name, _) in END_TO_END {
        assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
    }
}
