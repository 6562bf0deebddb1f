//! Forecast-model adapters: the physics-based SQG model (perfect or
//! imperfect) as a [`ForecastModel`].

use crate::model_error::ModelError;
use crate::traits::ForecastModel;
use ensf::parallel::RankPlan;
use sqg::{SqgModel, SqgParams};
use stats::Ensemble;

/// The SQG model as a forecast model, optionally corrupted by the
/// stochastic model-error process after each forecast interval
/// (the paper's imperfect-model scenario).
pub struct SqgForecast {
    model: SqgModel,
    error: Option<ModelError>,
}

impl SqgForecast {
    /// Perfect-model forecaster.
    pub fn perfect(params: SqgParams) -> Self {
        SqgForecast { model: SqgModel::new(params), error: None }
    }

    /// Imperfect-model forecaster: `error` fires once per `forecast` call.
    pub fn imperfect(params: SqgParams, error: ModelError) -> Self {
        SqgForecast { model: SqgModel::new(params), error: Some(error) }
    }

    /// Access to the wrapped model (diagnostics, spin-up).
    pub fn model_mut(&mut self) -> &mut SqgModel {
        &mut self.model
    }

    /// SQG parameters.
    pub fn params(&self) -> &SqgParams {
        self.model.params()
    }
}

/// Advances every `dim`-long member stored back to back in `members`.
fn forecast_block(model: &mut SqgModel, members: &mut [f64], dim: usize, steps: usize) {
    for state in members.chunks_exact_mut(dim) {
        model.forecast(state, steps);
    }
}

impl ForecastModel for SqgForecast {
    fn state_dim(&self) -> usize {
        self.model.state_dim()
    }

    fn forecast(&mut self, state: &mut [f64], hours: f64) {
        let steps = self.model.steps_per_hours(hours);
        self.model.forecast(state, steps);
        if let Some(err) = &mut self.error {
            err.perturb(state);
        }
    }

    /// Forecasts contiguous member blocks on one scoped thread per
    /// available CPU (the calling thread uses the model, every other
    /// thread a copy made for this call, with its spans nested under the
    /// caller's open span), then applies the model error in
    /// member order. Each member's integration depends on that
    /// member alone, and the error consumes its random stream member by
    /// member as the plain loop does, so the result is bitwise the loop's.
    fn forecast_ensemble(&mut self, ensemble: &mut Ensemble, hours: f64) {
        let members = ensemble.members();
        let dim = ensemble.dim();
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .clamp(1, members.max(1));
        let steps = self.model.steps_per_hours(hours);

        let mut rest = ensemble.as_mut_slice();
        let mut blocks = RankPlan::new(members, threads).blocks.into_iter().map(|(lo, hi)| {
            let (block, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * dim);
            rest = tail;
            block
        });
        let own = blocks.next().unwrap_or_default();
        let model = &mut self.model;
        let parent = &telemetry::span_parent();
        std::thread::scope(|scope| {
            for block in blocks {
                let mut copy = model.clone();
                scope.spawn(move || {
                    let _parent = parent.adopt();
                    forecast_block(&mut copy, block, dim, steps);
                });
            }
            forecast_block(model, own, dim, steps);
        });

        if let Some(err) = &mut self.error {
            for m in 0..members {
                err.perturb(ensemble.member_mut(m));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_error::ModelErrorConfig;

    fn params() -> SqgParams {
        SqgParams { n: 16, ..Default::default() }
    }

    #[test]
    fn perfect_forecast_is_deterministic() {
        let mut a = SqgForecast::perfect(params());
        let mut b = SqgForecast::perfect(params());
        let ic = a.model_mut().spinup_nature(3, 0.05, 5).to_state_vector();
        let mut s1 = ic.clone();
        let mut s2 = ic;
        a.forecast(&mut s1, 12.0);
        b.forecast(&mut s2, 12.0);
        assert_eq!(s1, s2);
    }

    #[test]
    fn imperfect_forecast_differs_from_perfect() {
        let mut perfect = SqgForecast::perfect(params());
        let mut imperfect = SqgForecast::imperfect(
            params(),
            ModelError::new(
                // Always-on error so the test is deterministic in effect.
                ModelErrorConfig { probabilities: vec![1.0], amplitudes: vec![0.2] },
                1,
            ),
        );
        let ic = perfect.model_mut().spinup_nature(3, 0.05, 5).to_state_vector();
        let mut s1 = ic.clone();
        let mut s2 = ic;
        perfect.forecast(&mut s1, 12.0);
        imperfect.forecast(&mut s2, 12.0);
        let diff: f64 = s1.iter().zip(&s2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-8, "model error must perturb the forecast");
    }

    /// `members` perturbed copies of a spun-up state, drawn per member.
    fn ensemble(f: &mut SqgForecast, members: usize) -> Ensemble {
        let truth = f.model_mut().spinup_nature(3, 0.05, 5);
        let states: Vec<Vec<f64>> = (0..members)
            .map(|m| sqg::init::perturb(&truth, 0.01, 100 + m as u64).to_state_vector())
            .collect();
        Ensemble::from_members(&states)
    }

    fn bits(e: &Ensemble) -> Vec<u64> {
        e.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `forecast_ensemble` against a `forecast` loop on a twin forecaster.
    fn assert_matches_member_loop(make: impl Fn() -> SqgForecast) {
        for members in [1, 5, 20] {
            let (mut threaded, mut looped) = (make(), make());
            let mut a = ensemble(&mut threaded, members);
            let mut b = ensemble(&mut looped, members);
            // Two intervals: the second continues the model error's random
            // stream from where the first left it.
            for _ in 0..2 {
                threaded.forecast_ensemble(&mut a, 3.0);
                for m in 0..members {
                    looped.forecast(b.member_mut(m), 3.0);
                }
            }
            assert_eq!(bits(&a), bits(&b), "{members} members");
        }
    }

    #[test]
    fn perfect_ensemble_forecast_matches_member_loop_bitwise() {
        assert_matches_member_loop(|| SqgForecast::perfect(params()));
    }

    #[test]
    fn imperfect_ensemble_forecast_matches_member_loop_bitwise() {
        // Always-firing components, so every member draws noise.
        let config = ModelErrorConfig { probabilities: vec![1.0, 0.5], amplitudes: vec![0.1, 0.2] };
        assert_matches_member_loop(|| {
            SqgForecast::imperfect(params(), ModelError::new(config.clone(), 11))
        });
    }

    #[test]
    fn model_changes_reach_every_thread() {
        // A reference state set between forecasts must act on every
        // member, as it does in the member loop.
        let p = SqgParams { tdiab: 9000.0, ..params() };
        let jet = sqg::init::zonal_jet(p.n, 0.1);
        let (mut threaded, mut looped) = (SqgForecast::perfect(p.clone()), SqgForecast::perfect(p));
        let mut a = ensemble(&mut threaded, 4);
        let mut b = ensemble(&mut looped, 4);
        threaded.forecast_ensemble(&mut a, 3.0);
        for m in 0..4 {
            looped.forecast(b.member_mut(m), 3.0);
        }
        threaded.model_mut().set_reference(&jet);
        looped.model_mut().set_reference(&jet);
        threaded.forecast_ensemble(&mut a, 3.0);
        for m in 0..4 {
            looped.forecast(b.member_mut(m), 3.0);
        }
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn state_dim_matches_grid() {
        let f = SqgForecast::perfect(params());
        assert_eq!(f.state_dim(), 512);
    }
}
