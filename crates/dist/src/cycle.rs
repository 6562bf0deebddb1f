//! Distributed OSSE cycling: forecast → observe → analyze over ranks.
//!
//! The execution shape of the paper's Frontier campaigns (§IV) on the
//! simulated communicator, parallel along the ensemble for the forecast
//! and along the state for the analysis. Each rank **forecasts a
//! contiguous block of members** ([`forecast_members`]) and one allgather
//! rebuilds the full forecast ensemble on every rank; the SQG step is a
//! deterministic spectral integration of one member, so the gathered
//! ensemble is bitwise the same for any rank count. The analysis is
//! **sharded** along the state dimension ([`dist_analyze`]); afterwards one
//! allgather reassembles the analysis blocks into the replicated full
//! ensemble for the next forecast (the scatter is implicit: each rank reads
//! its block out of the replicated state). Diagnostics (RMSE, spread) are
//! computed redundantly on every rank from the reassembled ensemble, which
//! keeps them trivially consistent.

use crate::analysis::{dist_analyze, model_collective, CommSpec, CommStats};
use crate::shard::ShardPlan;
use crate::DistError;
use da_core::osse::{initial_ensemble, nature_run, CycleSeries, NatureRun, OsseConfig};
use da_core::{ForecastModel, ObsModel, SqgForecast};
use ensf::parallel::RankPlan;
use ensf::EnsfConfig;
use hpc::mpi::{run_world, Comm};
use hpc::Collective;
use stats::Ensemble;

/// Default tile width: 64 components. The paper's reduced test grid
/// (`n = 16`, `d = 512`) then has 8 tiles — enough to exercise 8 ranks —
/// while the production `d = 8192` state has 128.
pub const DEFAULT_TILE: usize = 64;

/// Configuration of one distributed OSSE experiment.
#[derive(Debug, Clone)]
pub struct DistCycleConfig {
    /// Twin-experiment setup (grid, cycles, observation noise, ensemble).
    pub osse: OsseConfig,
    /// EnSF filter settings (steps, kernel, seed, relaxation).
    pub ensf: EnsfConfig,
    /// Tile width of the state partition. Part of the *numerics*: changing
    /// it reassociates reductions and changes low-order bits; changing the
    /// rank count never does.
    pub tile: usize,
    /// Optional simulated-network model: prices every collective with the
    /// α–β cost model and applies scripted rank faults through the bounded
    /// retry path. `None` runs the clean data path only.
    pub comm: Option<CommSpec>,
}

impl Default for DistCycleConfig {
    fn default() -> Self {
        DistCycleConfig {
            osse: OsseConfig::default(),
            ensf: EnsfConfig::default(),
            tile: DEFAULT_TILE,
            comm: None,
        }
    }
}

/// The observation model the sharded analysis assimilates through: the
/// nature run's own ([`OsseConfig::obs_model`]), whose observations are
/// shrunk to the mask's observed components when the network is partial.
pub fn dist_obs_for(osse: &OsseConfig) -> ObsModel {
    osse.obs_model()
}

/// Forecasts this rank's block of members, then allgathers the blocks so
/// every rank holds the full forecast ensemble.
///
/// Group position `r` of `comm.size()` takes block `r` of
/// [`RankPlan::new`]`(members, size)` (earlier ranks take the extra member;
/// ranks beyond the member count take none) and advances it with one
/// [`ForecastModel::forecast`] call per member on the calling thread. The
/// partition comes from the communicator at every call, so a shrunken or
/// re-expanded group re-partitions by itself. The gather is priced as one
/// [`Collective::AllGather`] of the whole ensemble.
///
/// The gathered ensemble is the same for every rank count only if
/// `model.forecast` is a function of the member alone, as for the perfect
/// [`SqgForecast`]. A model carrying state across calls, such as
/// [`SqgForecast::imperfect`] with its model-error random stream, would
/// advance that state per rank block (and again when an elastic caller
/// redoes the forecast), so its bits would depend on the rank count.
///
/// # Errors
/// [`DistError::Collective`] when the priced gather exhausts its retry
/// budget, [`DistError::Mpi`] when a peer is dead or the epoch revoked. On
/// error `ensemble` still holds the prior, so the caller may shrink the
/// group and call again.
pub fn forecast_members<M: ForecastModel + ?Sized>(
    comm: &Comm,
    model: &mut M,
    ensemble: &mut Ensemble,
    hours: f64,
    spec: Option<&CommSpec>,
    stats: &mut CommStats,
) -> Result<(), DistError> {
    let dim = ensemble.dim();
    let plan = RankPlan::new(ensemble.members(), comm.size());
    let (lo, hi) = plan.blocks[comm.rank()];
    let mut block = ensemble.as_slice()[lo * dim..hi * dim].to_vec();
    for state in block.chunks_exact_mut(dim) {
        model.forecast(state, hours);
    }
    let bytes = (ensemble.as_slice().len() * 8) as u64;
    model_collective(spec, stats, Collective::AllGather, comm.size(), bytes)?;
    let blocks = comm.try_allgather(&block)?;
    for (&(lo, hi), block) in plan.blocks.iter().zip(&blocks) {
        ensemble.as_mut_slice()[lo * dim..hi * dim].copy_from_slice(block);
    }
    Ok(())
}

/// Result of one distributed experiment (identical on every rank).
#[derive(Debug, Clone)]
pub struct DistRunResult {
    /// Per-cycle verification series (same shape as the serial harness).
    pub series: CycleSeries,
    /// Analysis ensemble mean after every cycle — the bitwise fingerprint
    /// the determinism tests compare across rank counts.
    pub cycle_means: Vec<Vec<f64>>,
    /// Final analysis ensemble.
    pub ensemble: Ensemble,
    /// Collective accounting for this rank.
    pub stats: CommStats,
}

/// Runs one distributed OSSE experiment on this rank's slice of the world.
///
/// Every rank receives the same configuration and nature run and returns
/// the same [`DistRunResult`] (bar [`CommStats`], which is per-rank but
/// identical under a symmetric fault script) — the replicated-state
/// contract that [`run_osse`] asserts.
///
/// # Errors
/// [`DistError::Config`] when the nature run is too short or disagrees
/// with the model grid; [`DistError::Collective`] when a scripted fault
/// outlasts the retry budget (raised in the same cycle on every rank).
pub fn run_dist_experiment(
    comm: &Comm,
    config: &DistCycleConfig,
    nature: &NatureRun,
) -> Result<DistRunResult, DistError> {
    let Some(truth0) = nature.truth.first() else {
        return Err(DistError::Config("empty nature run".into()));
    };
    let dim = config.osse.params.state_dim();
    if truth0.len() != dim {
        return Err(DistError::Config(format!(
            "nature run dimension {} does not match model dimension {dim}",
            truth0.len()
        )));
    }
    if nature.observations.len() < config.osse.cycles {
        return Err(DistError::Config(format!(
            "nature run provides {} observations for {} cycles",
            nature.observations.len(),
            config.osse.cycles
        )));
    }
    if config.tile == 0 {
        return Err(DistError::Config("tile width must be positive".into()));
    }
    if let Err(msg) = config.ensf.validate() {
        return Err(DistError::Config(msg));
    }

    let plan = ShardPlan::new(dim, config.tile, comm.size());
    let obs = dist_obs_for(&config.osse);
    let spec = config.comm.as_ref();
    let mut model = SqgForecast::perfect(config.osse.params.clone());
    let mut ensemble = initial_ensemble(&config.osse, truth0);
    let members = ensemble.members();
    let (rank_lo, rank_hi) = plan.rank_range(comm.rank());

    let mut stats = CommStats::default();
    let mut hours = Vec::with_capacity(config.osse.cycles);
    let mut rmse = Vec::with_capacity(config.osse.cycles);
    let mut spread = Vec::with_capacity(config.osse.cycles);
    let mut cycle_means = Vec::with_capacity(config.osse.cycles);

    for cycle in 0..config.osse.cycles {
        let _span = telemetry::span!("dist.cycle");
        // Member-block forecast plus the gather that re-replicates it.
        let t_fc = telemetry::enabled().then(std::time::Instant::now);
        forecast_members(
            comm,
            &mut model,
            &mut ensemble,
            config.osse.obs_interval_hours,
            spec,
            &mut stats,
        )?;
        let forecast_secs = t_fc.map(|t| t.elapsed().as_secs_f64());

        // Forecast half of the per-cycle diagnostics, computed on rank 0
        // only (the record would be identical on every rank — replicated
        // state — so one rank speaks for the world).
        let pre_diag = (telemetry::enabled() && comm.rank() == 0).then(|| {
            da_core::diagnostics::forecast_stats_masked(
                &ensemble,
                &nature.observations[cycle],
                config.osse.obs_sigma,
                config.osse.obs_operator,
                config.osse.obs_mask,
                cycle as u64,
            )
        });

        // Sharded analysis on this rank's block.
        let t_an = telemetry::enabled().then(std::time::Instant::now);
        let local = dist_analyze(
            comm,
            &plan,
            &config.ensf,
            cycle as u64,
            &ensemble,
            &nature.observations[cycle],
            &obs,
            spec,
            &mut stats,
        )?;
        debug_assert_eq!(local.len(), members * (rank_hi - rank_lo));

        // Gather the analysis blocks back into the replicated ensemble.
        model_collective(spec, &mut stats, Collective::AllGather, comm.size(), (members * dim * 8) as u64)?;
        let blocks = comm.try_allgather(&local)?;
        for (r, block) in blocks.iter().enumerate() {
            let (lo, hi) = plan.rank_range(r);
            let len = hi - lo;
            for p in 0..members {
                ensemble.member_mut(p)[lo..hi].copy_from_slice(&block[p * len..(p + 1) * len]);
            }
        }
        let analysis_secs = t_an.map(|t| t.elapsed().as_secs_f64());

        let mean = ensemble.mean();
        hours.push((cycle + 1) as f64 * config.osse.obs_interval_hours);
        rmse.push(stats::metrics::rmse(&mean, &nature.truth[cycle + 1]));
        spread.push(ensemble.spread());
        if telemetry::enabled() {
            telemetry::counter_add("dist.cycles", 1);
            // INVARIANT: pushed immediately above.
            telemetry::gauge_set("dist.cycle.rmse", *rmse.last().unwrap());
            // INVARIANT: pushed immediately above.
            telemetry::gauge_set("dist.cycle.spread", *spread.last().unwrap());
            if let Some(pre) = &pre_diag {
                let diagnostics = da_core::diagnostics::complete_masked(
                    pre,
                    &ensemble,
                    &nature.observations[cycle],
                    // INVARIANT: pushed immediately above.
                    *rmse.last().unwrap(),
                    config.osse.obs_operator,
                    config.osse.obs_mask,
                    cycle as u64,
                );
                telemetry::gauge_set("dist.cycle.spread_skill", diagnostics.spread_skill);
                telemetry::gauge_set("dist.cycle.chi2", diagnostics.chi2);
                telemetry::record_cycle(telemetry::CycleRecord {
                    label: format!("dist-ensf@{}r", comm.size()),
                    cycle,
                    // INVARIANT: pushed immediately above.
                    hours: *hours.last().unwrap(),
                    rmse: *rmse.last().unwrap(), // INVARIANT: pushed above
                    spread: *spread.last().unwrap(), // INVARIANT: pushed above
                    obs_count: nature.observations[cycle].len(),
                    phases: vec![
                        ("forecast".to_string(), forecast_secs.unwrap_or(0.0)),
                        ("analysis".to_string(), analysis_secs.unwrap_or(0.0)),
                    ],
                    events: Vec::new(),
                    diagnostics: Some(diagnostics),
                });
            }
        }
        cycle_means.push(mean);
    }

    // INVARIANT: cycle_means has an entry per cycle; with zero cycles the
    // final mean is the initial ensemble's.
    let final_mean = cycle_means.last().cloned().unwrap_or_else(|| ensemble.mean());
    Ok(DistRunResult {
        series: CycleSeries {
            label: format!("dist-ensf@{}r", comm.size()),
            hours,
            rmse,
            spread,
            final_mean,
        },
        cycle_means,
        ensemble,
        stats,
    })
}

/// Convenience driver: generates the nature run, spins up `ranks` simulated
/// MPI ranks ([`run_world`]), runs the distributed experiment on each, and
/// returns rank 0's result after asserting the replicated-state contract.
///
/// # Errors
/// Propagates the (identical) per-rank [`DistError`].
///
/// # Panics
/// Panics if the ranks disagree on the analysis trajectory — a broken
/// internal invariant, not a user error.
pub fn run_osse(config: &DistCycleConfig, ranks: usize) -> Result<DistRunResult, DistError> {
    let nature = nature_run(&config.osse);
    let mut results = run_world(ranks, |comm| run_dist_experiment(comm, config, &nature));
    let first = results.remove(0)?;
    for (r, result) in results.into_iter().enumerate() {
        let result = result?;
        assert_eq!(
            result.cycle_means, first.cycle_means,
            "rank {} disagrees with rank 0 on the analysis trajectory",
            r + 1
        );
        assert_eq!(
            result.ensemble.as_slice(),
            first.ensemble.as_slice(),
            "rank {} disagrees with rank 0 on the final ensemble",
            r + 1
        );
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensf::ScoreKernel;
    use sqg::SqgParams;

    /// Reduced grid (d = 512, 8 tiles of 64): fast enough for unit tests.
    fn tiny_config(cycles: usize) -> DistCycleConfig {
        DistCycleConfig {
            osse: OsseConfig {
                params: SqgParams { n: 16, ..Default::default() },
                cycles,
                obs_sigma: 0.005,
                ens_size: 8,
                ic_sigma: 0.01,
                spinup_steps: 40,
                seed: 3,
                ..Default::default()
            },
            ensf: EnsfConfig { n_steps: 10, seed: 5, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn cycling_is_bitwise_identical_across_rank_counts() {
        // 8 members forecast as 3/3/2 on 3 ranks; 3 members on 4 ranks
        // leave the last rank an empty block for the forecast gather.
        for (members, rank_counts) in [(8, &[2, 3, 4][..]), (3, &[4][..])] {
            let mut config = tiny_config(2);
            config.osse.ens_size = members;
            let one = run_osse(&config, 1).unwrap();
            for &ranks in rank_counts {
                let many = run_osse(&config, ranks).unwrap();
                for (c, (a, b)) in one.cycle_means.iter().zip(&many.cycle_means).enumerate() {
                    let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                    let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits_a, bits_b, "cycle {c} diverged: {members} members, {ranks} ranks");
                }
                assert_eq!(one.ensemble.as_slice(), many.ensemble.as_slice());
            }
        }
    }

    #[test]
    fn masked_cycling_is_bitwise_identical_across_rank_counts() {
        // 25% contiguous outage spanning the top of level 0 and the bottom
        // of level 1; the shrunk observation vector and per-tile mask
        // partition must not leak any rank-count dependence into the bits.
        let mut config = tiny_config(2);
        config.osse.obs_mask = da_core::MaskKind::Block { start: 192, len: 128 };
        let one = run_osse(&config, 1).unwrap();
        for ranks in [2, 4] {
            let many = run_osse(&config, ranks).unwrap();
            for (c, (a, b)) in one.cycle_means.iter().zip(&many.cycle_means).enumerate() {
                let bits_a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_a, bits_b, "masked cycle {c} diverged at {ranks} ranks");
            }
            assert_eq!(one.ensemble.as_slice(), many.ensemble.as_slice());
        }
    }

    #[test]
    fn moving_track_mask_cycles_across_ranks() {
        // The satellite track advances each cycle, so consecutive cycles
        // see different observed windows (and observation lengths).
        let mut config = tiny_config(3);
        config.osse.obs_mask = da_core::MaskKind::Track { width: 256, speed: 40 };
        let one = run_osse(&config, 1).unwrap();
        let four = run_osse(&config, 4).unwrap();
        assert_eq!(one.cycle_means, four.cycle_means);
        assert!(one.series.rmse.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn assimilation_tracks_truth() {
        let config = tiny_config(4);
        let result = run_osse(&config, 2).unwrap();
        assert_eq!(result.series.rmse.len(), 4);
        assert!(result.series.rmse.iter().all(|r| r.is_finite()));
        // With tight observations the analysis stays near the truth
        // (free-running forecasts drift to O(climatology) errors).
        let last = *result.series.rmse.last().unwrap();
        assert!(last < 0.05, "distributed DA lost the truth: RMSE {last}");
    }

    #[test]
    fn reference_kernel_cycles_deterministically() {
        let mut config = tiny_config(2);
        config.ensf.kernel = ScoreKernel::Reference;
        let one = run_osse(&config, 1).unwrap();
        let four = run_osse(&config, 4).unwrap();
        assert_eq!(one.cycle_means, four.cycle_means);
    }

    #[test]
    fn comm_spec_prices_cycling_collectives() {
        let mut config = tiny_config(1);
        config.comm = Some(CommSpec::clean(2));
        let result = run_osse(&config, 2).unwrap();
        // Per cycle: the forecast gather of the member blocks, one
        // allgather per SDE step, and the analysis block gather.
        assert_eq!(result.stats.collectives, config.ensf.n_steps as u64 + 2);
        assert!(result.stats.modeled_comm_secs > 0.0);
    }

    #[test]
    fn config_errors_are_reported_not_fatal() {
        let mut config = tiny_config(1);
        config.osse.cycles = 99; // nature run generated for 99, then truncated
        let nature = {
            let mut n = nature_run(&tiny_config(1).osse);
            n.observations.clear();
            n
        };
        let errs = run_world(1, |comm| run_dist_experiment(comm, &config, &nature).unwrap_err());
        assert!(matches!(&errs[0], DistError::Config(_)));

        let mut bad_tile = tiny_config(1);
        bad_tile.tile = 0;
        let nature2 = nature_run(&bad_tile.osse);
        let errs =
            run_world(1, |comm| run_dist_experiment(comm, &bad_tile, &nature2).unwrap_err());
        assert!(matches!(&errs[0], DistError::Config(_)));
    }
}
