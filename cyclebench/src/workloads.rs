//! The three workloads, each as an untraced run (end-to-end metrics) and a
//! traced run (per-layer metrics), plus the output checks.
//!
//! Every workload is a closed loop in one process: each cycle waits for
//! the previous analysis. All inputs come from the `--seed` argument.

use crate::report::{median, peak_rss_mib, Outcome};
use crate::trace::{coverage, span_cost_s, CycleCoverage, Span, TracedModel, TracedScheme, Tracer};
use da_core::osse::{initial_ensemble, nature_run, CycleSeries, NatureRun, OsseConfig};
use da_core::resilience::{
    run_supervised, CheckpointConfig, FaultPlan, LoopState, ResilienceConfig, SupervisedRun,
};
use da_core::{AnalysisScheme, EnsfScheme, ForecastModel, OsseError, SqgForecast};
use dist::{dist_analyze, dist_obs_for, CommSpec, CommStats, DistCycleConfig, DistError};
use dist::{run_dist_experiment, DistRunResult, ShardPlan};
use ensf::EnsfConfig;
use hpc::{collective_with_retry, run_world, Collective, Comm};
use stats::gaussian::fill_standard_normal;
use stats::rng::{member_rng, split_seed};
use stats::Ensemble;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Observation error of every workload (the paper's σ_obs).
const OBS_SIGMA: f64 = 0.01;
/// Ensemble size of every workload.
const MEMBERS: usize = 20;
/// Simulated ranks of `sqg_sharded2` (the machine's core count).
const RANKS: usize = 2;
/// State dimension of `ensf_d131k`: a 256²×2 grid.
const ENSF_DIM: usize = 1 << 17;
/// Prior (background) error of the `ensf_d131k` inputs.
const PRIOR_SIGMA: f64 = 0.05;
/// SQG workloads pass the RMSE check when `analysis_rmse ≤ this × σ_obs`.
const RMSE_TOLERANCE: f64 = 2.0;

/// Nominal seconds per SQG cycle and per d = 2¹⁷ analysis. They turn
/// `--seconds` into a fixed amount of work, so two builds compared at the
/// same `--seconds` run the same cycles whatever their speed.
const NOMINAL_SQG_CYCLE_S: f64 = 6.0;
const NOMINAL_ANALYSIS_S: f64 = 2.0;
/// Fewest cycles per SQG run. On the [`paper_nature`] truth the EnSF
/// spread reaches ~240x the analysis RMSE by cycle 4, and on cycle 5 the
/// forecast blows members up on every seed: the supervisor quarantines
/// most members (and aborts on some seeds, when all 20 are outliers) and
/// the sharded driver returns a non-finite analysis. So the runs stop
/// after cycle 4 (see README.md, "Known defect").
const MIN_SQG_CYCLES: usize = 4;
const MIN_ANALYSES: usize = 4;
/// Salt separating the EnSF noise seed from the OSSE master seed.
const ENSF_SALT: u64 = 0xE5F0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-shape cycles through the supervised serial driver.
    SqgSerial,
    /// Paper-shape cycles through the sharded driver on two ranks.
    SqgSharded2,
    /// A stream of EnSF analyses at d = 2¹⁷.
    EnsfD131k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SqgSerial,
        Workload::SqgSharded2,
        Workload::EnsfD131k,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SqgSerial => "sqg_serial",
            Workload::SqgSharded2 => "sqg_sharded2",
            Workload::EnsfD131k => "ensf_d131k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups per run; `setup_s` is their median. The SQG set-up (a
    /// 500-step spin-up plus the nature run) takes seconds, the
    /// `ensf_d131k` one tens of milliseconds, so the latter repeats more.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::SqgSerial | Workload::SqgSharded2 => 3,
            Workload::EnsfD131k => 31,
        }
    }

    /// Cycles (analyses for `ensf_d131k`) one run of `seconds` makes.
    pub fn cycles(self, seconds: u64) -> usize {
        let (nominal, min) = match self {
            Workload::SqgSerial | Workload::SqgSharded2 => (NOMINAL_SQG_CYCLE_S, MIN_SQG_CYCLES),
            Workload::EnsfD131k => (NOMINAL_ANALYSIS_S, MIN_ANALYSES),
        };
        ((seconds as f64 / nominal).round() as usize).max(min)
    }

    /// Runs the workload. `out_dir` is a writable directory for the
    /// checkpoint and trace files.
    pub fn run(self, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Outcome {
        let cycles = self.cycles(seconds);
        match self {
            Workload::SqgSerial => sqg_serial(seed, cycles, traced, out_dir),
            Workload::SqgSharded2 => sqg_sharded(seed, cycles, traced, out_dir),
            Workload::EnsfD131k => ensf_stream(seed, cycles, traced, out_dir),
        }
    }
}

/// The paper-shape OSSE: 64²×2 SQG, 20 members, 12 h, σ_obs = 0.01.
/// `seed` draws the initial ensemble; the truth is [`paper_nature`]'s.
fn paper_osse(seed: u64, cycles: usize) -> OsseConfig {
    OsseConfig {
        cycles,
        seed,
        obs_sigma: OBS_SIGMA,
        ens_size: MEMBERS,
        ..OsseConfig::default()
    }
}

/// The nature run (truth and observations) of `config`'s experiment under
/// the repository's default seed, whatever `config.seed` is. The truth
/// trajectory alone sets how fast the EnSF spread grows (see README.md,
/// "Known defect"), so every run of an SQG workload cycles the same truth
/// and `--seed` varies the initial ensemble and the filter's noise.
fn paper_nature(config: &OsseConfig) -> NatureRun {
    nature_run(&OsseConfig {
        seed: OsseConfig::default().seed,
        ..config.clone()
    })
}

/// The default EnSF configuration on a seed derived from the run's.
pub fn ensf_config(seed: u64) -> EnsfConfig {
    EnsfConfig {
        seed: split_seed(seed, ENSF_SALT),
        ..EnsfConfig::default()
    }
}

/// Runs `build` `reps` times; returns the last result and the median
/// time.
fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let t = Instant::now();
        built = Some(std::hint::black_box(build()));
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up"), median(&times))
}

/// Everything the serial driver needs: the nature run, the model and the
/// scheme.
pub struct SerialSetup {
    nature: NatureRun,
    model: SqgForecast,
    scheme: EnsfScheme,
}

impl SerialSetup {
    /// Builds the set-up for `config`, on the [`paper_nature`] truth.
    pub fn new(config: &OsseConfig, ensf: &EnsfConfig) -> Self {
        SerialSetup {
            nature: paper_nature(config),
            model: SqgForecast::perfect(config.params.clone()),
            scheme: EnsfScheme::new(ensf.clone(), config.params.state_dim(), config.obs_sigma),
        }
    }
}

/// Runs the supervised serial driver with an empty fault plan and a
/// checkpoint after every cycle, wrapping the model and scheme in span
/// recorders when `tracer` is given.
pub fn supervised(
    config: &OsseConfig,
    setup: SerialSetup,
    checkpoint: &Path,
    tracer: Option<&Tracer>,
) -> Result<SupervisedRun, OsseError> {
    let resilience = ResilienceConfig {
        plan: FaultPlan::none(),
        health: None,
        checkpoint: Some(CheckpointConfig {
            path: checkpoint.to_path_buf(),
            every: 1,
        }),
    };
    let SerialSetup {
        nature,
        mut model,
        mut scheme,
    } = setup;
    let run = |model: &mut dyn ForecastModel, scheme: &mut dyn AnalysisScheme| {
        run_supervised("ensf", config, &resilience, &nature, model, scheme, None)
    };
    let Some(tracer) = tracer else {
        return run(&mut model, &mut scheme);
    };
    let root = tracer.enter("core.run_supervised");
    let result = run(
        &mut TracedModel::new(model, tracer),
        &mut TracedScheme::new(scheme, tracer),
    );
    tracer.end_cycle();
    drop(root);
    result
}

/// True when the supervisor ended the cycle degraded or repaired it.
fn cycle_degraded(state: LoopState, events: &[String]) -> bool {
    state != LoopState::Healthy || !events.is_empty()
}

/// RMSE and spread–skill error over the last half of a series.
fn skill(rmse: &[f64], spread: &[f64]) -> (f64, f64) {
    let tail = rmse.len() / 2;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let rmse = mean(&rmse[tail..]);
    let spread = mean(&spread[tail..]);
    (rmse, (spread / rmse).ln().abs())
}

/// Jeffreys estimate `(k + ½) / (n + 1)` of the per-cycle degradation
/// rate: it tends to `k / n` and is never 0, so ratios of it between runs
/// stay defined.
fn degraded_rate(degraded: u64, attempted: u64) -> f64 {
    (degraded as f64 + 0.5) / (attempted as f64 + 1.0)
}

/// Checks shared by the SQG workloads; returns `analysis_rmse` and
/// `spread_skill_err` (NaN when the series is incomplete).
fn sqg_checks(out: &mut Outcome, series: &CycleSeries, cycles: usize) -> (f64, f64) {
    let finite = series
        .rmse
        .iter()
        .chain(&series.spread)
        .chain(&series.final_mean)
        .all(|v| v.is_finite());
    out.check(
        "outputs finite",
        finite,
        "rmse, spread and final mean of every cycle",
    );
    let complete = series.rmse.len() == cycles && cycles > 0;
    out.check(
        "every cycle completed",
        complete,
        format!("{} of {cycles}", series.rmse.len()),
    );
    let (rmse, spread_skill_err) = if complete {
        skill(&series.rmse, &series.spread)
    } else {
        (f64::NAN, f64::NAN)
    };
    let limit = RMSE_TOLERANCE * OBS_SIGMA;
    out.check(
        "analysis RMSE within tolerance of obs error",
        rmse <= limit,
        format!("analysis_rmse {rmse:.5} vs {RMSE_TOLERANCE} x sigma_obs = {limit:.5}"),
    );
    (rmse, spread_skill_err)
}

/// The six end-to-end metrics.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    out: &mut Outcome,
    cycle_s: f64,
    unit: &str,
    setup_s: f64,
    (rmse, spread_skill_err): (f64, f64),
    degraded: u64,
    attempted: usize,
) {
    let how = if unit == "cycles" {
        "driver call time / cycles"
    } else {
        "median analyze call"
    };
    out.metric("cycle_s", cycle_s, format!("{how}, {attempted} {unit}"));
    out.metric("setup_s", setup_s, "median of the run's set-ups");
    out.metric(
        "analysis_rmse",
        rmse,
        format!("mean over the last half of the {unit}"),
    );
    out.metric(
        "spread_skill_err",
        spread_skill_err,
        "|ln(mean spread / mean rmse)|, same span",
    );
    out.metric(
        "degraded_cycle_frac",
        degraded_rate(degraded, attempted as u64),
        format!("(degraded {degraded} + 1/2) / ({unit} {attempted} + 1)"),
    );
    out.metric("peak_rss_mb", peak_rss_mib(), "VmHWM of this process");
}

/// Checkpoint file for this process under `out_dir`.
fn checkpoint_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("checkpoint-{}.bin", std::process::id()))
}

/// An outcome for `attempted` cycles, nothing measured yet.
fn attempting(attempted: usize) -> Outcome {
    Outcome {
        attempted: attempted as u64,
        ..Outcome::default()
    }
}

/// Marks every cycle failed because the driver returned an error; the
/// metrics stay unmeasured, so the result reads incorrect.
fn driver_failed(mut out: Outcome, error: impl std::fmt::Display) -> Outcome {
    out.failed = out.attempted;
    out.check("driver completed", false, error.to_string());
    out
}

/// Reports a supervised run the supervisor gave up on, with the cycles it
/// completed before that (read back from its last checkpoint).
fn aborted(out: Outcome, error: &OsseError, ckpt: &Path) -> Outcome {
    let mut out = driver_failed(out, error);
    if let Ok(ck) = da_core::resilience::Checkpoint::load(ckpt) {
        out.failed = out.attempted - ck.cycle as u64;
        let series = CycleSeries {
            label: String::new(),
            hours: ck.hours,
            rmse: ck.rmse,
            spread: ck.spread,
            final_mean: ck.prev_mean,
        };
        out.report
            .push(format!("completed {} cycles before the error", ck.cycle));
        out.report.push(series_line(&series));
        out.report
            .push(format!("recovery counters: {:?}", ck.counters));
    }
    out
}

/// Counts repeated event kinds: `member_quarantined x14, ...`.
fn summarize(events: &[String]) -> String {
    let mut kinds: Vec<(&str, usize)> = Vec::new();
    for e in events {
        let kind = e.split(':').next().unwrap_or(e);
        match kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => kinds.push((kind, 1)),
        }
    }
    kinds
        .iter()
        .map(|(k, n)| format!("{k} x{n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Per-cycle analysis RMSE and spread, one line.
fn series_line(series: &CycleSeries) -> String {
    let cycles: Vec<String> = series
        .rmse
        .iter()
        .zip(&series.spread)
        .map(|(r, s)| format!("{r:.4}/{s:.3}"))
        .collect();
    format!("rmse/spread by cycle: {}", cycles.join(" "))
}

fn empty_series(label: String) -> CycleSeries {
    CycleSeries {
        label,
        hours: vec![],
        rmse: vec![],
        spread: vec![],
        final_mean: vec![],
    }
}

fn sqg_serial(seed: u64, cycles: usize, traced: bool, out_dir: &Path) -> Outcome {
    let config = paper_osse(seed, cycles);
    let ensf = ensf_config(seed);
    let (setup, setup_s) = timed_setup(Workload::SqgSerial.setup_reps(), || {
        SerialSetup::new(&config, &ensf)
    });
    let ckpt = checkpoint_path(out_dir);
    let tracer = Tracer::new(Instant::now());
    let t = Instant::now();
    let run = supervised(&config, setup, &ckpt, traced.then_some(&tracer));
    let call_s = t.elapsed().as_secs_f64();
    let mut out = attempting(cycles);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            let out = aborted(out, &e, &ckpt);
            let _ = std::fs::remove_file(&ckpt);
            return out;
        }
    };
    let degraded = run
        .cycles
        .iter()
        .filter(|c| cycle_degraded(c.state, &c.events))
        .count() as u64;
    out.failed = run
        .cycles
        .iter()
        .filter(|c| c.events.iter().any(|e| e.starts_with("degraded_cycle")))
        .count() as u64;
    for c in run.cycles.iter().filter(|c| !c.events.is_empty()) {
        out.report.push(format!(
            "cycle {}: {} after {}",
            c.cycle + 1,
            c.state.name(),
            summarize(&c.events)
        ));
    }
    out.report
        .push(format!("recovery counters: {:?}", run.counters));
    out.report.push(series_line(&run.series));
    let skill = sqg_checks(&mut out, &run.series, cycles);
    if !traced {
        let _ = std::fs::remove_file(&ckpt);
        end_to_end(
            &mut out,
            call_s / cycles as f64,
            "cycles",
            setup_s,
            skill,
            degraded,
            cycles,
        );
        return out;
    }

    let save_s = {
        let _s = tracer.enter("checkpoint.save");
        let t = Instant::now();
        let saved = run.checkpoint.save(&ckpt);
        out.check(
            "final checkpoint saved",
            saved.is_ok(),
            format!("{saved:?}"),
        );
        t.elapsed().as_secs_f64()
    };
    let bytes = std::fs::metadata(&ckpt).map_or(f64::NAN, |m| m.len() as f64);
    let _ = std::fs::remove_file(&ckpt);
    let lanes = [tracer.finish()];
    let cov = trace_outcome(&mut out, &lanes, call_s);
    let n = cycles as f64;
    let cycle_span_s = cov.iter().map(|c| c.span_s).sum::<f64>() / n;
    let self_s = cov.iter().map(CycleCoverage::unattributed_s).sum::<f64>() / n;
    sqg_layer(
        &mut out,
        &lanes[0],
        n,
        steps_per_cycle(&config),
        cycle_span_s,
    );
    ensf_layer(
        &mut out,
        &lanes[0],
        &ensf,
        config.params.state_dim(),
        cycle_span_s,
    );
    out.metric(
        "core.driver_self_s",
        self_s,
        format!(
            "per cycle: cycle span minus its children; {}",
            pct(self_s, cycle_span_s)
        ),
    );
    out.metric(
        "checkpoint.save_s",
        save_s,
        format!(
            "one Checkpoint::save of the final checkpoint; {}",
            pct(save_s, cycle_span_s)
        ),
    );
    out.metric("checkpoint.bytes", bytes, "size of that checkpoint file");
    out.metric(
        "resilience.quarantined_members",
        run.counters.quarantined_members as f64,
        format!("total over the run's {cycles} cycles (RecoveryCounters)"),
    );
    idle(&mut out, &DIST_HPC, "sqg_serial calls no dist/hpc function");
    write_trace(&mut out, out_dir, Workload::SqgSerial, seed, &lanes);
    out
}

/// The sharded experiment at paper shape with a clean two-rank network.
fn sharded_config(seed: u64, cycles: usize) -> DistCycleConfig {
    DistCycleConfig {
        osse: paper_osse(seed, cycles),
        ensf: ensf_config(seed),
        comm: Some(CommSpec::clean(RANKS)),
        ..DistCycleConfig::default()
    }
}

/// Bit patterns of a slice, for exact comparison.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks that every rank returned the same trajectory and final
/// ensemble, bit for bit; returns rank 0's result.
fn agree(
    out: &mut Outcome,
    results: Vec<Result<DistRunResult, DistError>>,
) -> Result<DistRunResult, DistError> {
    let mut results = results.into_iter();
    let first = results
        .next()
        .expect("run_world returns one result per rank")?;
    let mut same = true;
    for other in results {
        let other = other?;
        same &= other
            .cycle_means
            .iter()
            .map(|m| bits(m))
            .eq(first.cycle_means.iter().map(|m| bits(m)))
            && bits(other.ensemble.as_slice()) == bits(first.ensemble.as_slice());
    }
    out.check(
        "ranks agree bitwise",
        same,
        "cycle means and final ensemble of every rank vs rank 0",
    );
    Ok(first)
}

fn sqg_sharded(seed: u64, cycles: usize, traced: bool, out_dir: &Path) -> Outcome {
    let config = sharded_config(seed, cycles);
    let (nature, setup_s) = timed_setup(Workload::SqgSharded2.setup_reps(), || {
        paper_nature(&config.osse)
    });
    let epoch = Instant::now();
    let results = run_world(RANKS, |comm| {
        let tracer = Tracer::new(epoch);
        let run = if traced {
            redrive(comm, &config, &nature, &tracer)
        } else {
            run_dist_experiment(comm, &config, &nature)
        };
        (run, tracer.finish())
    });
    let call_s = epoch.elapsed().as_secs_f64();
    let (runs, lanes): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let mut out = attempting(cycles);
    let run = match agree(&mut out, runs) {
        Ok(run) => run,
        Err(e) => return driver_failed(out, e),
    };
    let bad = run
        .cycle_means
        .iter()
        .filter(|m| !m.iter().all(|v| v.is_finite()))
        .count() as u64;
    out.failed = bad;
    out.report.push(series_line(&run.series));
    let skill = sqg_checks(&mut out, &run.series, cycles);
    if !traced {
        end_to_end(
            &mut out,
            call_s / cycles as f64,
            "cycles",
            setup_s,
            skill,
            bad,
            cycles,
        );
        return out;
    }

    let cov = trace_outcome(&mut out, &lanes, call_s);
    let n = cycles as f64;
    let ranks = lanes.len() as f64;
    let cycle_span_s = cov.iter().map(|c| c.span_s).sum::<f64>() / (n * ranks);
    let all: Vec<Span> = lanes.iter().flatten().cloned().collect();
    sqg_layer(
        &mut out,
        &all,
        n * ranks,
        steps_per_cycle(&config.osse),
        cycle_span_s,
    );
    idle(
        &mut out,
        &ENSF,
        "the sharded analysis runs dist's tile kernel, not ensf::Ensf",
    );
    idle(
        &mut out,
        &CORE,
        "the sharded driver has no supervisor or checkpoint",
    );
    for (metric, span) in [
        ("dist.forecast_s", "sqg.forecast_ensemble"),
        ("dist.analyze_s", "dist.analyze"),
        ("dist.gather_s", "dist.gather"),
    ] {
        let v = total(&all, span) / (n * ranks);
        out.metric(
            metric,
            v,
            format!("per rank per cycle; {}", pct(v, cycle_span_s)),
        );
    }
    let busy: Vec<f64> = lanes
        .iter()
        .map(|l| total(l, "sqg.forecast_ensemble") + total(l, "dist.analyze"))
        .collect();
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    out.metric(
        "dist.rank_imbalance",
        max_busy * ranks / busy.iter().sum::<f64>(),
        "max / mean over ranks of forecast + analyze busy time",
    );
    let stats = run.stats;
    out.metric(
        "hpc.collectives",
        stats.collectives as f64 / n,
        "per cycle, rank 0 CommStats",
    );
    out.metric(
        "hpc.bytes",
        stats.bytes as f64 / n,
        "payload per cycle, rank 0 CommStats",
    );
    out.metric(
        "hpc.modeled_comm_s",
        stats.modeled_comm_secs / n,
        "alpha-beta model per cycle, rank 0 CommStats (modeled, not measured)",
    );
    write_trace(&mut out, out_dir, Workload::SqgSharded2, seed, &lanes);
    out
}

/// Prices one modeled allgather the way the sharded driver prices its
/// block gather.
fn price_gather(
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
    ranks: usize,
    bytes: u64,
) -> Result<(), DistError> {
    stats.collectives += 1;
    stats.bytes += bytes;
    match spec {
        None => stats.attempts += 1,
        Some(spec) => {
            let r = collective_with_retry(
                &spec.topo,
                Collective::AllGather,
                ranks,
                bytes,
                &spec.faults,
                &spec.policy,
            )?;
            stats.attempts += u64::from(r.attempts);
            stats.modeled_comm_secs += r.time;
        }
    }
    Ok(())
}

/// One rank's cycle loop, driven from the benchmark through the public
/// calls `run_dist_experiment` makes (forecast_ensemble → `dist_analyze`
/// → `Comm::try_allgather`), with a span around each.
pub fn redrive(
    comm: &Comm,
    config: &DistCycleConfig,
    nature: &NatureRun,
    tracer: &Tracer,
) -> Result<DistRunResult, DistError> {
    let osse = &config.osse;
    let dim = osse.params.state_dim();
    let plan = ShardPlan::new(dim, config.tile, comm.size());
    let obs = dist_obs_for(osse);
    let spec = config.comm.as_ref();
    let mut model = SqgForecast::perfect(osse.params.clone());
    let mut ensemble = initial_ensemble(osse, &nature.truth[0]);
    let members = ensemble.members();
    let mut stats = CommStats::default();
    let mut series = empty_series(format!("dist-ensf@{}r", comm.size()));
    let mut cycle_means = Vec::with_capacity(osse.cycles);
    for cycle in 0..osse.cycles {
        tracer.begin_cycle(cycle as i64);
        {
            let _s = tracer.enter_counted("sqg.forecast_ensemble", members as u64);
            model.forecast_ensemble(&mut ensemble, osse.obs_interval_hours);
        }
        let local = {
            let _s = tracer.enter_counted("dist.analyze", members as u64);
            let y = &nature.observations[cycle];
            dist_analyze(
                comm,
                &plan,
                &config.ensf,
                cycle as u64,
                &ensemble,
                y,
                &obs,
                spec,
                &mut stats,
            )?
        };
        price_gather(spec, &mut stats, comm.size(), (members * dim * 8) as u64)?;
        let blocks = {
            let _s = tracer.enter("dist.gather");
            comm.try_allgather(&local)?
        };
        for (r, block) in blocks.iter().enumerate() {
            let (lo, hi) = plan.rank_range(r);
            let len = hi - lo;
            for p in 0..members {
                ensemble.member_mut(p)[lo..hi].copy_from_slice(&block[p * len..(p + 1) * len]);
            }
        }
        let mean = ensemble.mean();
        series
            .hours
            .push((cycle + 1) as f64 * osse.obs_interval_hours);
        series
            .rmse
            .push(stats::metrics::rmse(&mean, &nature.truth[cycle + 1]));
        series.spread.push(ensemble.spread());
        cycle_means.push(mean);
    }
    tracer.end_cycle();
    series.final_mean = cycle_means
        .last()
        .cloned()
        .unwrap_or_else(|| ensemble.mean());
    Ok(DistRunResult {
        series,
        cycle_means,
        ensemble,
        stats,
    })
}

/// Sum of the durations of spans named `name`.
fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Share of `part` in `whole`, as text.
fn pct(part: f64, whole: f64) -> String {
    format!(
        "{:.1}% of the {whole:.4} s cycle span",
        100.0 * part / whole
    )
}

/// Prints the coverage of every cycle span and records the
/// tracing-overhead and unattributed fractions.
fn trace_outcome(out: &mut Outcome, lanes: &[Vec<Span>], wall_s: f64) -> Vec<CycleCoverage> {
    let cov: Vec<CycleCoverage> = lanes
        .iter()
        .enumerate()
        .flat_map(|(r, s)| coverage(r, s))
        .collect();
    out.report
        .push("coverage (children of each cycle span):".to_string());
    for c in &cov {
        let kids: Vec<String> = c
            .children
            .iter()
            .map(|(n, s)| format!("{n} {s:.4} s ({:.1}%)", 100.0 * s / c.span_s))
            .collect();
        out.report.push(format!(
            "  rank {} cycle {}: span {:.4} s = {} + unattributed {:.4} s ({:.2}%)",
            c.rank,
            c.cycle,
            c.span_s,
            kids.join(" + "),
            c.unattributed_s(),
            100.0 * c.unattributed_s() / c.span_s
        ));
    }
    let span_s: f64 = cov.iter().map(|c| c.span_s).sum();
    let rest: f64 = cov.iter().map(CycleCoverage::unattributed_s).sum();
    let n_spans: usize = lanes.iter().map(Vec::len).sum();
    let per_span = span_cost_s();
    out.metric(
        "trace.overhead_frac",
        n_spans as f64 * per_span / (wall_s * lanes.len() as f64),
        format!(
            "{n_spans} spans x {:.0} ns measured per span / ({} lanes x traced wall {wall_s:.3} s)",
            per_span * 1e9,
            lanes.len()
        ),
    );
    out.metric(
        "trace.unattributed_frac",
        rest / span_s,
        format!("{rest:.4} s of {span_s:.4} s summed cycle spans"),
    );
    cov
}

/// Writes every lane's spans to `trace-<workload>-<seed>.json` in `dir`.
fn write_trace(out: &mut Outcome, dir: &Path, workload: Workload, seed: u64, lanes: &[Vec<Span>]) {
    let mut rows = Vec::new();
    for (rank, spans) in lanes.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            rows.push(format!(
                "{{\"rank\": {rank}, \"id\": {id}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}, \"parent\": {parent}, \"cycle\": {}, \"count\": {}}}",
                s.name, s.start, s.end, s.cycle, s.count
            ));
        }
    }
    let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
    match std::fs::write(
        &path,
        format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n")),
    ) {
        Ok(()) => out.report.push(format!(
            "{} spans written to {}",
            rows.len(),
            path.display()
        )),
        Err(e) => out.check("trace written", false, e.to_string()),
    }
}

/// Records metrics of layers a workload does not call, with the reason.
fn idle(out: &mut Outcome, names: &[&'static str], why: &str) {
    for &name in names {
        out.metric(name, 0.0, format!("not exercised: {why}"));
    }
}

const DIST_HPC: [&str; 7] = [
    "dist.forecast_s",
    "dist.analyze_s",
    "dist.gather_s",
    "dist.rank_imbalance",
    "hpc.collectives",
    "hpc.bytes",
    "hpc.modeled_comm_s",
];
const CORE: [&str; 4] = [
    "core.driver_self_s",
    "checkpoint.save_s",
    "checkpoint.bytes",
    "resilience.quarantined_members",
];
const SQG: [&str; 3] = ["sqg.forecast_s", "sqg.member_steps", "sqg.step_us"];
const ENSF: [&str; 3] = ["ensf.analyze_s", "ensf.sde_steps", "ensf.gflops_computed"];

/// SQG time steps one member takes per cycle.
fn steps_per_cycle(config: &OsseConfig) -> u64 {
    sqg::SqgModel::new(config.params.clone()).steps_per_hours(config.obs_interval_hours) as u64
}

/// `sqg.*` from the `sqg.forecast_ensemble` spans over `cycles` cycles.
fn sqg_layer(out: &mut Outcome, spans: &[Span], cycles: f64, steps: u64, cycle_span_s: f64) {
    let calls = spans.iter().filter(|s| s.name == "sqg.forecast_ensemble");
    let (secs, member_steps) =
        calls.fold((0.0, 0), |(t, n), s| (t + s.secs(), n + s.count * steps));
    let per_cycle = secs / cycles;
    out.metric(
        "sqg.forecast_s",
        per_cycle,
        format!("per cycle; {}", pct(per_cycle, cycle_span_s)),
    );
    out.metric(
        "sqg.member_steps",
        member_steps as f64 / cycles,
        format!("per cycle: members x {steps} RK4 steps"),
    );
    out.metric(
        "sqg.step_us",
        1e6 * secs / member_steps as f64,
        "forecast time / member steps",
    );
}

/// `ensf.*` from the `ensf.analyze` spans.
fn ensf_layer(
    out: &mut Outcome,
    spans: &[Span],
    config: &EnsfConfig,
    dim: usize,
    cycle_span_s: f64,
) {
    let calls: Vec<&Span> = spans.iter().filter(|s| s.name == "ensf.analyze").collect();
    let n = calls.len() as f64;
    let secs: f64 = calls.iter().map(|s| s.secs()).sum();
    // Two P×M×d GEMMs per step (score and recombination), 2 flop each.
    let flop: f64 = calls
        .iter()
        .map(|s| 4.0 * (s.count * s.count) as f64 * dim as f64 * config.n_steps as f64)
        .sum();
    out.metric(
        "ensf.analyze_s",
        secs / n,
        format!("per analysis ({n} calls); {}", pct(secs / n, cycle_span_s)),
    );
    out.metric(
        "ensf.sde_steps",
        config.n_steps as f64,
        "per analysis (EnsfConfig::n_steps)",
    );
    out.metric(
        "ensf.gflops_computed",
        flop / secs / 1e9,
        "computed 4*P*M*d*steps / analyze time, not a hardware count",
    );
}

/// One analysis problem: a truth, a prior ensemble around it, and an
/// observation of it.
struct AnalysisInputs {
    /// The state the observation measures.
    truth: Vec<f64>,
    /// Prior ensemble: truth + a shared offset + member noise, each with
    /// std [`PRIOR_SIGMA`].
    prior: Ensemble,
    /// Truth + noise with std [`OBS_SIGMA`].
    observation: Vec<f64>,
}

impl AnalysisInputs {
    /// Draws the inputs of analysis `k` from `seed`.
    fn draw(seed: u64, k: u64, dim: usize, members: usize) -> Self {
        let stream = split_seed(seed, k);
        let normals = |i: usize| {
            let mut v = vec![0.0; dim];
            fill_standard_normal(&mut member_rng(stream, i), &mut v);
            v
        };
        let truth = normals(0);
        let offset = normals(1);
        let mut prior = Ensemble::zeros(members, dim);
        for m in 0..members {
            let member = prior.member_mut(m);
            fill_standard_normal(&mut member_rng(stream, 2 + m), member);
            for ((x, t), b) in member.iter_mut().zip(&truth).zip(&offset) {
                *x = t + PRIOR_SIGMA * (b + *x);
            }
        }
        let mut observation = normals(2 + members);
        for (y, t) in observation.iter_mut().zip(&truth) {
            *y = t + OBS_SIGMA * *y;
        }
        AnalysisInputs {
            truth,
            prior,
            observation,
        }
    }
}

/// Per-analysis results of an analysis stream.
struct Stream {
    call_s: Vec<f64>,
    rmse: Vec<f64>,
    spread: Vec<f64>,
    prior_rmse: Vec<f64>,
}

/// Runs `analyses` analyses on fresh inputs; only the `analyze` calls are
/// timed.
fn analyze_stream(
    seed: u64,
    first: AnalysisInputs,
    scheme: &mut dyn AnalysisScheme,
    analyses: usize,
    tracer: Option<&Tracer>,
) -> Stream {
    let mut s = Stream {
        call_s: vec![],
        rmse: vec![],
        spread: vec![],
        prior_rmse: vec![],
    };
    let mut next = Some(first);
    for k in 0..analyses {
        if let Some(t) = tracer {
            t.begin_cycle(k as i64);
        }
        let inputs = next.take().unwrap_or_else(|| {
            let _s = tracer.map(|t| t.enter("bench.inputs"));
            AnalysisInputs::draw(seed, k as u64, ENSF_DIM, MEMBERS)
        });
        let t = Instant::now();
        let posterior = scheme.analyze(&inputs.prior, &inputs.observation);
        s.call_s.push(t.elapsed().as_secs_f64());
        let _v = tracer.map(|t| t.enter("bench.verify"));
        s.rmse
            .push(stats::metrics::rmse(&posterior.mean(), &inputs.truth));
        s.spread.push(posterior.spread());
        s.prior_rmse
            .push(stats::metrics::rmse(&inputs.prior.mean(), &inputs.truth));
    }
    s
}

fn ensf_stream(seed: u64, analyses: usize, traced: bool, out_dir: &Path) -> Outcome {
    let ensf = ensf_config(seed);
    let ((first, scheme), setup_s) = timed_setup(Workload::EnsfD131k.setup_reps(), || {
        let inputs = AnalysisInputs::draw(seed, 0, ENSF_DIM, MEMBERS);
        (inputs, EnsfScheme::new(ensf.clone(), ENSF_DIM, OBS_SIGMA))
    });
    let tracer = Tracer::new(Instant::now());
    let wall = Instant::now();
    let s = if traced {
        analyze_stream(
            seed,
            first,
            &mut TracedScheme::new(scheme, &tracer),
            analyses,
            Some(&tracer),
        )
    } else {
        analyze_stream(seed, first, &mut { scheme }, analyses, None)
    };
    let wall_s = wall.elapsed().as_secs_f64();
    let mut out = attempting(analyses);
    out.failed = s
        .rmse
        .iter()
        .zip(&s.spread)
        .filter(|(r, sp)| !(r.is_finite() && sp.is_finite()))
        .count() as u64;
    out.check(
        "outputs finite",
        out.failed == 0,
        "posterior rmse and spread of every analysis",
    );
    let improved = s
        .rmse
        .iter()
        .zip(&s.prior_rmse)
        .filter(|(post, prior)| post < prior)
        .count();
    let worst = s
        .rmse
        .iter()
        .zip(&s.prior_rmse)
        .map(|(post, prior)| post / prior)
        .fold(0.0, f64::max);
    out.check(
        "posterior RMSE below prior RMSE",
        improved == analyses,
        format!("{improved} of {analyses}; largest posterior/prior ratio {worst:.4}"),
    );
    if !traced {
        let skill = skill(&s.rmse, &s.spread);
        let cycle_s = median(&s.call_s);
        let failed = out.failed;
        end_to_end(
            &mut out, cycle_s, "analyses", setup_s, skill, failed, analyses,
        );
        return out;
    }

    let lanes = [tracer.finish()];
    let cov = trace_outcome(&mut out, &lanes, wall_s);
    let cycle_span_s = cov.iter().map(|c| c.span_s).sum::<f64>() / analyses as f64;
    ensf_layer(&mut out, &lanes[0], &ensf, ENSF_DIM, cycle_span_s);
    idle(&mut out, &SQG, "ensf_d131k has no forecast");
    idle(
        &mut out,
        &CORE,
        "ensf_d131k calls the scheme directly, not a driver",
    );
    idle(&mut out, &DIST_HPC, "ensf_d131k runs on one rank");
    write_trace(&mut out, out_dir, Workload::EnsfD131k, seed, &lanes);
    out
}
