//! High-level model interface used by the DA framework.

use crate::dynamics::Stepper;
use crate::init;
use crate::params::SqgParams;
use crate::state::SqgState;

/// The SQG forecast model: owns the stepper (FFT plans + scratch) and
/// advances grid-space state vectors, which is the representation the DA
/// filters exchange. A clone integrates bit for bit like the original and
/// can run on another thread (it shares only the immutable FFT plans).
#[derive(Clone)]
pub struct SqgModel {
    stepper: Stepper,
}

impl SqgModel {
    /// Creates a model for the given parameters.
    pub fn new(params: SqgParams) -> Self {
        SqgModel { stepper: Stepper::new(params) }
    }

    /// Model parameters.
    pub fn params(&self) -> &SqgParams {
        &self.stepper.params
    }

    /// State dimension (`2 n²`).
    pub fn state_dim(&self) -> usize {
        self.stepper.params.state_dim()
    }

    /// Advances a spectral state `steps` model steps in place.
    pub fn step_spectral(&mut self, state: &mut SqgState, steps: usize) {
        for _ in 0..steps {
            self.stepper.step(state.levels_mut());
        }
    }

    /// Advances a flat grid-space state vector by `steps` model steps.
    ///
    /// Converts to spectral space, integrates, converts back.
    pub fn forecast(&mut self, state: &mut [f64], steps: usize) {
        let n = self.stepper.params.n;
        let mut spec = SqgState::from_state_vector(n, state);
        self.step_spectral(&mut spec, steps);
        let out = spec.to_state_vector();
        state.copy_from_slice(&out);
    }

    /// Number of model steps per `hours` of simulated time.
    pub fn steps_per_hours(&self, hours: f64) -> usize {
        (hours * 3600.0 / self.stepper.params.dt).round() as usize
    }

    /// Generates a spun-up "nature" state: random large-scale initial
    /// condition integrated through `spinup_steps` to reach the turbulent
    /// attractor.
    pub fn spinup_nature(&mut self, seed: u64, amplitude: f64, spinup_steps: usize) -> SqgState {
        let mut st = init::random_large_scale(self.stepper.params.n, amplitude, seed);
        self.step_spectral(&mut st, spinup_steps);
        st
    }

    /// Immutable access to the spectral grid tables (for diagnostics).
    pub fn grid(&self) -> &crate::grid::SpectralGrid {
        &self.stepper.grid
    }

    /// Sets the thermal-relaxation reference state (acts when
    /// `params.tdiab > 0`); typically [`init::zonal_jet`].
    pub fn set_reference(&mut self, reference: &SqgState) {
        assert_eq!(reference.n(), self.stepper.params.n, "reference grid mismatch");
        self.stepper
            .set_reference([reference.level(0).to_vec(), reference.level(1).to_vec()]);
    }

    /// Builds a jet-forced model: thermal relaxation toward a zonal jet of
    /// amplitude `jet_amp` with timescale `params.tdiab` (which must be
    /// positive). The jet's baroclinic zone then continuously regenerates
    /// eddies — the statistically steady turbulence configuration.
    pub fn with_jet_forcing(params: SqgParams, jet_amp: f64) -> Self {
        assert!(params.tdiab > 0.0, "jet forcing requires tdiab > 0");
        let jet = init::zonal_jet(params.n, jet_amp);
        let mut model = SqgModel::new(params);
        model.set_reference(&jet);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_is_deterministic() {
        let p = SqgParams { n: 16, ..Default::default() };
        let mut m1 = SqgModel::new(p.clone());
        let mut m2 = SqgModel::new(p);
        let st = init::random_large_scale(16, 0.05, 3);
        let mut v1 = st.to_state_vector();
        let mut v2 = v1.clone();
        m1.forecast(&mut v1, 5);
        m2.forecast(&mut v2, 5);
        assert_eq!(v1, v2);
    }

    #[test]
    fn forecast_changes_state() {
        let p = SqgParams { n: 16, ..Default::default() };
        let mut m = SqgModel::new(p);
        let st = init::random_large_scale(16, 0.05, 3);
        let v0 = st.to_state_vector();
        let mut v = v0.clone();
        m.forecast(&mut v, 5);
        let diff: f64 = v.iter().zip(&v0).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-8, "state did not evolve");
    }

    #[test]
    fn steps_per_hours_rounds() {
        let m = SqgModel::new(SqgParams { n: 16, dt: 900.0, ..Default::default() });
        assert_eq!(m.steps_per_hours(12.0), 48);
        assert_eq!(m.steps_per_hours(1.0), 4);
    }

    #[test]
    fn zero_steps_is_identity_up_to_round_trip() {
        let p = SqgParams { n: 16, ..Default::default() };
        let mut m = SqgModel::new(p);
        let st = init::random_large_scale(16, 0.05, 17);
        let v0 = st.to_state_vector();
        let mut v = v0.clone();
        m.forecast(&mut v, 0);
        for (a, b) in v.iter().zip(&v0) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn jet_forcing_sustains_turbulence() {
        // With relaxation toward a jet, the state must neither die out nor
        // blow up over a long run: statistically steady turbulence.
        let p = SqgParams { n: 16, tdiab: 5.0 * 86400.0, ekman: 0.05, ..Default::default() };
        let mut m = SqgModel::with_jet_forcing(p, 0.05);
        let mut st = init::random_large_scale(16, 0.01, 9);
        m.step_spectral(&mut st, 500);
        assert!(st.is_finite());
        let v_mid = st.total_variance();
        m.step_spectral(&mut st, 500);
        assert!(st.is_finite());
        let v_end = st.total_variance();
        assert!(v_end > 1e-8, "turbulence died out");
        assert!(v_end < 100.0 * v_mid.max(1e-8), "turbulence blew up");
    }

    #[test]
    fn chaotic_divergence_of_nearby_states() {
        // Two states differing by a tiny perturbation must separate — the
        // premise of the whole paper (rapid IC error growth).
        let p = SqgParams { n: 32, ..Default::default() };
        let mut m = SqgModel::new(p);
        let nature = m.spinup_nature(1, 0.05, 300);
        let mut a = nature.to_state_vector();
        let mut b = a.clone();
        b[0] += 1e-6;
        let d0: f64 = 1e-6;
        m.forecast(&mut a, 400);
        m.forecast(&mut b, 400);
        let d1: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(d1 > 10.0 * d0, "no chaotic growth: {d0} -> {d1}");
    }
}
