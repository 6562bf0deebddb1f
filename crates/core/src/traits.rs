//! Framework interfaces: forecast models and analysis schemes.
//!
//! The workflow of Fig. 1 is generic in both slots: the forecast model can
//! be the physics-based SQG, the ViT surrogate, or any AI foundation model;
//! the analysis scheme can be EnSF, LETKF, or nothing (free runs).

use crate::osse::{ObsModel, ObsOperatorKind};
use stats::Ensemble;

/// A forecast model advancing a flat state vector through time.
pub trait ForecastModel {
    /// State dimension.
    fn state_dim(&self) -> usize;

    /// Advances `state` by `hours` of simulated time in place.
    fn forecast(&mut self, state: &mut [f64], hours: f64);

    /// Advances every member of an ensemble (default: member loop).
    fn forecast_ensemble(&mut self, ensemble: &mut Ensemble, hours: f64) {
        for m in 0..ensemble.members() {
            self.forecast(ensemble.member_mut(m), hours);
        }
    }

    /// Online adaptation hook (Fig. 1): after each analysis the workflow
    /// feeds the analyzed transition back to the model, letting learned
    /// surrogates absorb observational information. Physics models ignore
    /// it (default no-op).
    fn assimilate_feedback(&mut self, _prev_analysis: &[f64], _curr_analysis: &[f64]) {}

    /// Serializes adaptive internal state for checkpointing. Stateless
    /// physics models return `None` (the default): their forecasts are a
    /// pure function of the state vector, so there is nothing to save.
    fn save_state(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`ForecastModel::save_state`]. Returns
    /// `false` when the blob is unsupported or invalid (default).
    fn load_state(&mut self, _bytes: &[u8]) -> bool {
        false
    }
}

/// An analysis scheme combining a forecast ensemble with one cycle's
/// observation vector (the full state in the paper's `h = I` OSSE
/// setting, the observed components under a partial mask).
pub trait AnalysisScheme {
    /// Human-readable name (used in reports).
    fn name(&self) -> &str;

    /// Produces the analysis ensemble from the forecast ensemble and the
    /// observation vector.
    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble;

    /// `(epoch, seed)` pinning the scheme's internal RNG streams and the
    /// cycle its mask resolves at, captured at checkpoint time. The epoch
    /// counts analyses; deterministic schemes return seed 0 (LETKF) and
    /// stateless ones `(0, 0)` (the default, free runs).
    fn rng_state(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Restores the `(epoch, seed)` captured by
    /// [`AnalysisScheme::rng_state`], so a resumed run replays the exact
    /// noise streams of the uninterrupted one. Default: no-op.
    fn set_rng_state(&mut self, _epoch: u64, _seed: u64) {}

    /// Switches the scheme onto a fresh internal noise stream — the
    /// supervised loop's retry path after a failed analysis. Deterministic
    /// schemes ignore it (a retry would reproduce the same failure, so the
    /// supervisor falls back instead).
    fn reseed(&mut self, _seed: u64) {}
}

/// The "no assimilation" scheme: analysis = forecast (free run).
#[derive(Debug, Clone, Default)]
pub struct NoAssimilation;

impl AnalysisScheme for NoAssimilation {
    fn name(&self) -> &str {
        "none"
    }

    fn analyze(&mut self, forecast: &Ensemble, _observation: &[f64]) -> Ensemble {
        forecast.clone()
    }
}

/// How a masked EnSF completes the observation vector before the dense
/// analysis. A full mask needs no completion, so the fill never acts there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskFill {
    /// Inpainting EnSF (Liang et al., arXiv:2501.12419): the obs-space
    /// innovation `y − h(x̄_f)` is harmonically inpainted across the outage
    /// on the two-level grid ([`crate::inpaint::harmonic_fill`]). Observed
    /// pixels keep their real measurements; masked pixels receive spatially
    /// interpolated pseudo-observations, which anchor the diffusion inside
    /// the outage to the surrounding network instead of leaving it to the
    /// prior score alone (which lets small ensembles drift).
    Inpaint,
    /// The mask-ignoring baseline, the canonical outage bug: dead sensors
    /// flat-line at zero in observation space and those zeros are
    /// assimilated as real measurements, pinning unobserved components
    /// toward zero. The comparison target inpainting must beat on
    /// unobserved regions.
    ZeroFill,
}

/// The Ensemble Score Filter over an observation model (operator × mask),
/// on either transport path of [`ensf::EnsfConfig::method`].
///
/// Under a full mask the observation vector is assimilated as is through
/// the dense [`ensf::IdentityObs`]/[`ensf::ArctanObs`] operator. Under a
/// partial mask it holds only the observed components; the scheme
/// completes it to a dense vector by its [`MaskFill`] and assimilates that
/// through the same dense operator. (Pure guidance masking — score-only
/// diffusion on masked pixels — is the [`ensf::MaskedObs`] operator, which
/// the sharded runtime applies per tile.)
///
/// The mask is resolved at the filter's analysis epoch
/// ([`AnalysisScheme::rng_state`]), which counts analyses; the supervised
/// loop pins it to the OSSE cycle before every attempt, so moving-track
/// masks stay aligned through dropped cycles and retries.
pub struct EnsfScheme {
    filter: ensf::Ensf,
    dim: usize,
    obs: ObsModel,
    fill: MaskFill,
}

impl EnsfScheme {
    /// The paper's scheme: a `dim`-dimensional state observed directly
    /// (`h = I`, full mask) with error `obs_sigma`.
    pub fn new(config: ensf::EnsfConfig, dim: usize, obs_sigma: f64) -> Self {
        Self::with_obs(config, dim, ObsModel::identity(obs_sigma), MaskFill::Inpaint)
    }

    /// A `dim`-dimensional state observed through `obs`; `fill` completes
    /// partial observation vectors.
    pub fn with_obs(config: ensf::EnsfConfig, dim: usize, obs: ObsModel, fill: MaskFill) -> Self {
        EnsfScheme { filter: ensf::Ensf::new(config), dim, obs, fill }
    }

    /// Completes the mask's observed components to a dense
    /// observation-space vector by the scheme's fill.
    fn complete(&self, forecast: &Ensemble, observation: &[f64]) -> Vec<f64> {
        let ObsModel { operator, mask, .. } = self.obs;
        let observed = mask.observed_indices(self.dim, self.filter.cycle());
        assert_eq!(
            observation.len(),
            observed.len(),
            "observation vector must hold exactly the mask's observed components"
        );
        let mut y_full = vec![0.0; self.dim];
        if self.fill == MaskFill::Inpaint {
            // Harmonic inpainting of the obs-space innovation field:
            // Dirichlet data at observed pixels, Laplace fill across the
            // outage.
            let mean = forecast.mean();
            let mut innovation = vec![0.0; self.dim];
            let mut known = vec![false; self.dim];
            for (&i, &y) in observed.iter().zip(observation) {
                innovation[i] = y - operator.h(mean[i]);
                known[i] = true;
            }
            crate::inpaint::harmonic_fill(&mut innovation, &known, crate::inpaint::FILL_SWEEPS);
            for i in (0..self.dim).filter(|&i| !known[i]) {
                y_full[i] = operator.h(mean[i]) + innovation[i];
            }
        }
        // Real measurements pass through exactly.
        for (&i, &y) in observed.iter().zip(observation) {
            y_full[i] = y;
        }
        y_full
    }
}

impl AnalysisScheme for EnsfScheme {
    fn name(&self) -> &str {
        use ensf::AnalysisMethod::{FlowMatching, ReverseSde};
        use ObsOperatorKind::{Arctan, Identity};
        match (self.filter.config().method, self.obs.mask.is_full(), self.obs.operator, self.fill) {
            (ReverseSde, true, Identity, _) => "EnSF",
            (ReverseSde, true, Arctan { .. }, _) => "EnSF-arctan",
            (FlowMatching, true, Identity, _) => "FlowEnSF",
            (FlowMatching, true, Arctan { .. }, _) => "FlowEnSF-arctan",
            (ReverseSde, false, _, MaskFill::Inpaint) => "EnSF-inpaint",
            (FlowMatching, false, _, MaskFill::Inpaint) => "FlowEnSF-inpaint",
            (ReverseSde, false, _, MaskFill::ZeroFill) => "EnSF-ignore",
            (FlowMatching, false, _, MaskFill::ZeroFill) => "FlowEnSF-ignore",
        }
    }

    /// # Panics
    /// Panics when a partial mask's observation vector does not hold
    /// exactly the mask's observed components at the current epoch, or a
    /// full mask's does not hold `dim` values.
    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
        let completed;
        // A full mask takes the observation as is: no fill arithmetic, so
        // the dense paths stay bitwise what they always were.
        let y = if self.obs.mask.is_full() {
            observation
        } else {
            completed = self.complete(forecast, observation);
            &completed
        };
        let (dim, sigma) = (self.dim, self.obs.sigma);
        match self.obs.operator {
            ObsOperatorKind::Identity => {
                self.filter.analyze(forecast, y, &ensf::IdentityObs::new(dim, sigma))
            }
            ObsOperatorKind::Arctan { gain } => {
                self.filter.analyze(forecast, y, &ensf::ArctanObs::with_gain(dim, sigma, gain))
            }
        }
    }

    fn rng_state(&self) -> (u64, u64) {
        (self.filter.cycle(), self.filter.config().seed)
    }

    fn set_rng_state(&mut self, epoch: u64, seed: u64) {
        self.filter.set_cycle(epoch);
        self.filter.reseed(seed);
    }

    fn reseed(&mut self, seed: u64) {
        self.filter.reseed(seed);
    }
}

/// LETKF over the two-level SQG grid and an identity observation model,
/// full or masked. Each observed component becomes a [`letkf::PointObs`]
/// at its true grid location, so localization spreads a partial network's
/// information into the outage — LETKF's native answer to sparse networks
/// and sensor outages, and the masked baseline the EnSF scenarios are
/// judged against.
///
/// The mask is resolved at the scheme's epoch, which counts analyses like
/// [`EnsfScheme`]'s and is restored and pinned through
/// [`AnalysisScheme::set_rng_state`].
pub struct LetkfScheme {
    filter: letkf::Letkf,
    dim: usize,
    obs: ObsModel,
    epoch: u64,
}

impl LetkfScheme {
    /// Builds the scheme for an `n × n × 2` grid with physical parameters
    /// from `params` (Rossby-coupled vertical localization), observed
    /// directly at every component with error `obs_sigma`.
    pub fn new(config: letkf::LetkfConfig, params: &sqg::SqgParams, obs_sigma: f64) -> Self {
        Self::with_obs(config, params, ObsModel::identity(obs_sigma))
    }

    /// Same grid, observed through `obs`.
    ///
    /// # Panics
    /// Panics unless `obs.operator` is the identity: LETKF linearizes about
    /// the forecast, so the saturating operators stay with EnSF.
    pub fn with_obs(config: letkf::LetkfConfig, params: &sqg::SqgParams, obs: ObsModel) -> Self {
        assert_eq!(obs.operator, ObsOperatorKind::Identity, "LETKF observes through h = I only");
        let geometry = letkf::GridGeometry::new(
            params.n,
            sqg::LEVELS,
            params.domain,
            params.rossby_radius(),
        );
        LetkfScheme {
            filter: letkf::Letkf::new(config, geometry),
            dim: params.state_dim(),
            obs,
            epoch: 0,
        }
    }
}

impl AnalysisScheme for LetkfScheme {
    fn name(&self) -> &str {
        if self.obs.mask.is_full() {
            "LETKF"
        } else {
            "LETKF-masked"
        }
    }

    /// # Panics
    /// Panics unless the observation vector holds exactly the mask's
    /// observed components at the current epoch (`dim` values under a full
    /// mask): a vector of another network would put values at the wrong
    /// grid points.
    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
        let observed = self.obs.mask.observed_indices(self.dim, self.epoch);
        assert_eq!(
            observation.len(),
            observed.len(),
            "observation vector must hold exactly the mask's observed components"
        );
        self.epoch += 1;
        let network: Vec<letkf::PointObs> = observed
            .iter()
            .zip(observation)
            .map(|(&i, &v)| letkf::PointObs { state_index: i, value: v, sigma: self.obs.sigma })
            .collect();
        self.filter.analyze(forecast, &network)
    }

    fn rng_state(&self) -> (u64, u64) {
        (self.epoch, 0)
    }

    fn set_rng_state(&mut self, epoch: u64, _seed: u64) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osse::MaskKind;

    struct Doubler;
    impl ForecastModel for Doubler {
        fn state_dim(&self) -> usize {
            3
        }
        fn forecast(&mut self, state: &mut [f64], hours: f64) {
            for v in state.iter_mut() {
                *v *= 2.0f64.powf(hours / 12.0);
            }
        }
    }

    /// An identity network under `mask`.
    fn masked(sigma: f64, mask: MaskKind) -> ObsModel {
        ObsModel { mask, ..ObsModel::identity(sigma) }
    }

    #[test]
    fn default_ensemble_forecast_maps_members() {
        let mut model = Doubler;
        let mut e = Ensemble::from_members(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        model.forecast_ensemble(&mut e, 12.0);
        assert_eq!(e.member(0), &[2.0, 4.0, 6.0]);
        assert_eq!(e.member(1), &[8.0, 10.0, 12.0]);
    }

    #[test]
    fn no_assimilation_is_identity() {
        let mut s = NoAssimilation;
        let e = Ensemble::from_members(&[vec![1.0], vec![2.0]]);
        let a = s.analyze(&e, &[5.0]);
        assert_eq!(a, e);
        assert_eq!(s.name(), "none");
    }

    #[test]
    fn scheme_names_follow_what_the_scheme_does() {
        use ensf::AnalysisMethod::{FlowMatching, ReverseSde};
        use MaskFill::{Inpaint, ZeroFill};
        let (id, arctan) = (ObsOperatorKind::Identity, ObsOperatorKind::Arctan { gain: 4.0 });
        let (full, block) = (MaskKind::Full, MaskKind::Block { start: 2, len: 4 });
        let full_stride = MaskKind::Strided { stride: 1, phase: 0 };
        let ensf_rows = [
            (ReverseSde, id, full, Inpaint, "EnSF"),
            (ReverseSde, arctan, full, Inpaint, "EnSF-arctan"),
            (FlowMatching, id, full, ZeroFill, "FlowEnSF"),
            (FlowMatching, arctan, full, Inpaint, "FlowEnSF-arctan"),
            (ReverseSde, id, block, Inpaint, "EnSF-inpaint"),
            (ReverseSde, arctan, block, Inpaint, "EnSF-inpaint"),
            (FlowMatching, id, block, Inpaint, "FlowEnSF-inpaint"),
            (ReverseSde, id, block, ZeroFill, "EnSF-ignore"),
            // A mask that hides nothing is the dense scheme, by name too.
            (ReverseSde, id, full_stride, Inpaint, "EnSF"),
            (FlowMatching, arctan, full_stride, ZeroFill, "FlowEnSF-arctan"),
        ];
        for (method, operator, mask, fill, want) in ensf_rows {
            let config = ensf::EnsfConfig { method, ..Default::default() };
            let obs = ObsModel { sigma: 0.1, operator, mask };
            assert_eq!(EnsfScheme::with_obs(config, 8, obs, fill).name(), want, "{obs:?} {fill:?}");
        }
        assert_eq!(EnsfScheme::new(ensf::EnsfConfig::default(), 8, 0.1).name(), "EnSF");

        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let letkf_rows = [(full, "LETKF"), (full_stride, "LETKF"), (block, "LETKF-masked")];
        for (mask, want) in letkf_rows {
            let config = letkf::LetkfConfig::default();
            let scheme = LetkfScheme::with_obs(config, &params, masked(0.1, mask));
            assert_eq!(scheme.name(), want, "{mask:?}");
        }
        assert_eq!(LetkfScheme::new(letkf::LetkfConfig::default(), &params, 0.1).name(), "LETKF");
    }

    #[test]
    fn arctan_scheme_pulls_toward_obs_space_target() {
        let dim = 8;
        let gain = 4.0;
        let obs =
            ObsModel { operator: ObsOperatorKind::Arctan { gain }, ..ObsModel::identity(0.05) };
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 20, seed: 7, ..Default::default() },
            dim,
            obs,
            MaskFill::Inpaint,
        );
        assert_eq!(scheme.name(), "EnSF-arctan");
        // Ensemble scattered around 0; truth at 0.8, observed through
        // arctan(gain·x). The analysis mean must move toward the truth.
        let members: Vec<Vec<f64>> =
            (0..12).map(|m| vec![0.1 * m as f64 - 0.55; dim]).collect();
        let fc = Ensemble::from_members(&members);
        let truth = 0.8;
        let y = vec![(gain * truth).atan(); dim];
        let an = scheme.analyze(&fc, &y);
        let before = (fc.mean()[0] - truth).abs();
        let after = (an.mean()[0] - truth).abs();
        assert!(after < before, "arctan EnSF must pull toward truth: {before} -> {after}");
    }

    #[test]
    fn ensf_scheme_assimilates() {
        let mut scheme = EnsfScheme::new(
            ensf::EnsfConfig { n_steps: 20, seed: 1, ..Default::default() },
            4,
            0.5,
        );
        assert_eq!(scheme.name(), "EnSF");
        let members: Vec<Vec<f64>> = (0..12).map(|m| vec![0.1 * m as f64 - 0.55; 4]).collect();
        let fc = Ensemble::from_members(&members);
        let an = scheme.analyze(&fc, &[1.0; 4]);
        let before = fc.mean()[0];
        let after = an.mean()[0];
        assert!((after - 1.0).abs() < (before - 1.0).abs(), "EnSF must pull toward obs");
    }

    #[test]
    fn sparse_schemes_only_use_their_network() {
        // A stride-2 network hands the scheme one value per comb component.
        // Zero-filled, they must land exactly on components 0, 2, 4, 6: the
        // result equals the dense scheme on the scattered vector, bit for
        // bit.
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.1 * m as f64; 8]).collect();
        let fc = Ensemble::from_members(&members);
        let config = ensf::EnsfConfig { n_steps: 15, seed: 2, ..Default::default() };
        let stride2 = masked(0.5, MaskKind::Strided { stride: 2, phase: 0 });
        let mut sparse = EnsfScheme::with_obs(config.clone(), 8, stride2, MaskFill::ZeroFill);
        let a1 = sparse.analyze(&fc, &[1.0, 2.0, 3.0, 4.0]);
        let mut dense = EnsfScheme::new(config, 8, 0.5);
        let a2 = dense.analyze(&fc, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        assert_eq!(a1.as_slice(), a2.as_slice());
    }

    #[test]
    fn letkf_stride_thins_network() {
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let config = letkf::LetkfConfig { rtps_alpha: 0.0, ..Default::default() };
        let mut dense = LetkfScheme::new(config.clone(), &params, 0.3);
        let stride4 = masked(0.3, MaskKind::Strided { stride: 4, phase: 0 });
        let mut sparse = LetkfScheme::with_obs(config, &params, stride4);
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.2 * m as f64 - 0.9; 32]).collect();
        let fc = Ensemble::from_members(&members);
        let ad = dense.analyze(&fc, &[1.0; 32]);
        let asp = sparse.analyze(&fc, &[1.0; 8]);
        let pull = |e: &Ensemble, i: usize| (e.mean()[i] - fc.mean()[i]).abs();
        // Component 1 is unobserved by the sparse network (and, with the
        // default 2000 km cutoff on this coarse 5000 km-spacing grid, out of
        // range of every sparse observation): only the dense network
        // updates it.
        assert!(pull(&ad, 1) > 1e-6, "dense must update component 1");
        assert!(pull(&asp, 1) < 1e-12, "sparse must leave component 1 alone");
        // The observed component moves under both.
        assert!(pull(&asp, 0) > 1e-6);
        assert!(pull(&ad, 0) > 1e-6);
    }

    #[test]
    fn masked_ensf_scheme_full_mask_matches_dense_scheme_bitwise() {
        // Masks that hide nothing take the dense path under either fill:
        // same operator, same observation vector, no fill arithmetic.
        let dim = 6;
        let config = ensf::EnsfConfig {
            n_steps: 12,
            seed: 9,
            kernel: ensf::ScoreKernel::Reference,
            ..Default::default()
        };
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.1 * m as f64 - 0.4; dim]).collect();
        let fc = Ensemble::from_members(&members);
        let y = vec![0.7; dim];
        let want = EnsfScheme::new(config.clone(), dim, 0.5).analyze(&fc, &y);
        let full_masks = [
            MaskKind::Full,
            MaskKind::Block { start: 2, len: 0 },
            MaskKind::Strided { stride: 1, phase: 0 },
        ];
        for mask in full_masks {
            for fill in [MaskFill::Inpaint, MaskFill::ZeroFill] {
                let mut scheme = EnsfScheme::with_obs(config.clone(), dim, masked(0.5, mask), fill);
                let got = scheme.analyze(&fc, &y);
                assert_eq!(got.as_slice(), want.as_slice(), "{mask:?} {fill:?}");
            }
        }
    }

    #[test]
    fn masked_ensf_scheme_accepts_shrunk_observation_vector() {
        let dim = 8;
        let mask = MaskKind::Block { start: 2, len: 4 };
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 10, seed: 3, ..Default::default() },
            dim,
            masked(0.5, mask),
            MaskFill::Inpaint,
        );
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.1 * m as f64; dim]).collect();
        let fc = Ensemble::from_members(&members);
        // Only 4 of 8 components observed.
        let an = scheme.analyze(&fc, &[1.0; 4]);
        assert_eq!(an.dim(), dim);
        assert!(an.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mask_ignoring_baseline_assimilates_dead_sensor_zeros() {
        let dim = 8;
        let mask = MaskKind::Block { start: 4, len: 4 };
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 15, seed: 4, ..Default::default() },
            dim,
            masked(0.05, mask),
            MaskFill::ZeroFill,
        );
        assert_eq!(scheme.name(), "EnSF-ignore");
        // Forecast mean sits at 0.55; real obs say 1.0, dead sensors say 0.
        let members: Vec<Vec<f64>> = (0..12).map(|m| vec![0.1 * m as f64; dim]).collect();
        let fc = Ensemble::from_members(&members);
        let an = scheme.analyze(&fc, &[1.0; 4]);
        // Observed half pulls toward 1.0; the outage is dragged toward the
        // flat-lined zeros instead of staying with the forecast.
        assert!((an.mean()[0] - 1.0).abs() < (fc.mean()[0] - 1.0).abs());
        // The test ensemble is perfectly cross-correlated, so the joint
        // prior tempers the conflict between the two halves; the zeros
        // still drag the outage below the forecast mean while the real
        // obs sit far above it.
        assert!(
            an.mean()[6] < fc.mean()[6] - 0.05,
            "dragged toward zero: {} vs forecast {}",
            an.mean()[6],
            fc.mean()[6]
        );
    }

    #[test]
    fn inpainting_scheme_fills_the_outage_from_the_surrounding_network() {
        // dim = 8 is a two-level 2x2 grid; blind the whole bottom level.
        // Every unknown pixel's vertical partner is observed, so the
        // harmonic fill reconstructs the (constant) innovation and the
        // analysis pulls the outage toward the observed value, not zero.
        let dim = 8;
        let mask = MaskKind::Block { start: 0, len: 4 };
        let mut scheme = EnsfScheme::with_obs(
            ensf::EnsfConfig { n_steps: 15, seed: 4, ..Default::default() },
            dim,
            masked(0.05, mask),
            MaskFill::Inpaint,
        );
        let members: Vec<Vec<f64>> = (0..12).map(|m| vec![0.1 * m as f64; dim]).collect();
        let fc = Ensemble::from_members(&members);
        let an = scheme.analyze(&fc, &[1.0; 4]);
        // The unobserved bottom level lands near the inpainted 1.0, far
        // from both zero and the 0.55 forecast mean.
        assert!((an.mean()[1] - 1.0).abs() < 0.15, "inpainted pull: {}", an.mean()[1]);
    }

    #[test]
    fn masked_letkf_updates_only_near_observed_components() {
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let mask = MaskKind::Block { start: 1, len: 30 };
        let mut scheme = LetkfScheme::with_obs(
            letkf::LetkfConfig { rtps_alpha: 0.0, ..Default::default() },
            &params,
            masked(0.3, mask),
        );
        assert_eq!(scheme.name(), "LETKF-masked");
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.2 * m as f64 - 0.9; 32]).collect();
        let fc = Ensemble::from_members(&members);
        // Observed indices are {0, 31}; y carries exactly those two slots.
        let an = scheme.analyze(&fc, &[1.0, 1.0]);
        let pull = |e: &Ensemble, i: usize| (e.mean()[i] - fc.mean()[i]).abs();
        assert!(pull(&an, 0) > 1e-6, "observed component must move");
        // Component 16 is state 0's vertically colocated partner — inside
        // the outage but within Rossby-coupled localization range, so the
        // partial network still updates it.
        assert!(pull(&an, 16) > 1e-9, "vertical partner of an observed point moves");
        // Component 10 (level 0, row 2, col 2) is >7000 km from both
        // observations on this coarse 5000 km-spacing grid — far outside
        // the 2000 km cutoff — and its vertical partner is unobserved too.
        assert!(pull(&an, 10) < 1e-12, "unobserved far component must not move");
        assert_eq!(scheme.rng_state().0, 1, "epoch advances");
    }

    #[test]
    #[should_panic(expected = "must hold exactly the mask's observed components")]
    fn dense_letkf_rejects_a_masked_observation_vector() {
        // A dense LETKF handed a shrunk vector (e.g. as the fallback of a
        // masked run) would read slot k as state component k.
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let mut scheme = LetkfScheme::new(letkf::LetkfConfig::default(), &params, 0.3);
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.2 * m as f64 - 0.9; 32]).collect();
        let _ = scheme.analyze(&Ensemble::from_members(&members), &[1.0; 24]);
    }

    #[test]
    #[should_panic(expected = "must hold exactly the mask's observed components")]
    fn masked_letkf_rejects_a_full_observation_vector() {
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let block = masked(0.3, MaskKind::Block { start: 8, len: 8 });
        let mut scheme = LetkfScheme::with_obs(letkf::LetkfConfig::default(), &params, block);
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.2 * m as f64 - 0.9; 32]).collect();
        let _ = scheme.analyze(&Ensemble::from_members(&members), &[1.0; 32]);
    }

    #[test]
    fn letkf_scheme_assimilates() {
        let params = sqg::SqgParams { n: 4, ..Default::default() };
        let mut scheme = LetkfScheme::new(
            letkf::LetkfConfig { rtps_alpha: 0.0, ..Default::default() },
            &params,
            0.3,
        );
        assert_eq!(scheme.name(), "LETKF");
        let members: Vec<Vec<f64>> = (0..10).map(|m| vec![0.2 * m as f64 - 0.9; 32]).collect();
        let fc = Ensemble::from_members(&members);
        let an = scheme.analyze(&fc, &[1.0; 32]);
        let before = fc.mean()[0];
        let after = an.mean()[0];
        assert!((after - 1.0).abs() < (before - 1.0).abs(), "LETKF must pull toward obs");
    }
}
