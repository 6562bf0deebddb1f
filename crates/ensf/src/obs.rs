//! Observation operators and likelihood scores.
//!
//! The EnSF update needs `∇_x log p(y | x)` — the likelihood score. With
//! additive Gaussian observation error `y = h(x) + ε`, `ε ~ N(0, R)` and
//! diagonal `R`, the score is `J_h(x)ᵀ R⁻¹ (y − h(x))`. Implementations
//! provide the forward map and the score directly so nonlinear operators
//! (a selling point of EnSF over LETKF) avoid materializing Jacobians.

/// An observation operator `h` with additive Gaussian error of per-component
/// standard deviation `sigma` (diagonal R).
pub trait ObservationOperator: Sync {
    /// Dimension of the observation vector.
    fn obs_dim(&self) -> usize;

    /// Applies `h` to a state, writing into `out` (`out.len() == obs_dim`).
    fn apply(&self, state: &[f64], out: &mut [f64]);

    /// Per-component observation error standard deviation.
    fn sigma(&self) -> f64;

    /// Likelihood score `∇_x log p(y | x)` accumulated into `score_out`
    /// (added, not overwritten, scaled by `weight`), so the filter can fold
    /// the damping factor in without a temporary.
    fn add_likelihood_score(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]);

    /// Overwriting variant of [`add_likelihood_score`]
    /// (Self::add_likelihood_score): writes the weighted score into
    /// `score_out` directly. The default zeroes and delegates; dense
    /// operators override to save the clearing pass in the per-step hot
    /// loop. Must produce the same values as the default.
    fn likelihood_score_into(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        score_out.fill(0.0);
        self.add_likelihood_score(state, y, weight, score_out);
    }

    /// Writes the squared row norm of the observation Jacobian per state
    /// component, `out[i] = Σ_j (∂h_j/∂x_i)²`, used by the stabilized
    /// reverse-SDE integrator to bound the likelihood pull by its *local*
    /// stiffness. Default: 1 everywhere (identity-like operators).
    fn jacobian_sq(&self, _state: &[f64], out: &mut [f64]) {
        out.fill(1.0);
    }

    /// If [`jacobian_sq`](Self::jacobian_sq) is the same state-independent
    /// constant for *every* component, that constant; otherwise `None`.
    ///
    /// Lets the batched reverse-SDE integrator compute the likelihood
    /// damping factor once per step instead of one `exp` per state element.
    /// Only return `Some` when `jacobian_sq` writes exactly this value into
    /// every slot for every state — operators with per-component patterns
    /// (e.g. strided masks) or state-dependent Jacobians must return `None`.
    fn constant_jacobian_sq(&self) -> Option<f64> {
        None
    }

    /// Log-likelihood `log p(y | x)` up to an additive constant.
    fn log_likelihood(&self, state: &[f64], y: &[f64]) -> f64 {
        let mut hx = vec![0.0; self.obs_dim()];
        self.apply(state, &mut hx);
        let inv2s2 = 0.5 / (self.sigma() * self.sigma());
        -hx.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() * inv2s2
    }
}

/// Fully observed state: `h = I` (the paper's SQG experiment setting).
#[derive(Debug, Clone)]
pub struct IdentityObs {
    dim: usize,
    sigma: f64,
}

impl IdentityObs {
    /// Identity operator on a `dim`-dimensional state with error std `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0`.
    pub fn new(dim: usize, sigma: f64) -> Self {
        assert!(sigma > 0.0, "observation error must be positive");
        IdentityObs { dim, sigma }
    }
}

impl ObservationOperator for IdentityObs {
    fn obs_dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, state: &[f64], out: &mut [f64]) {
        out.copy_from_slice(state);
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn add_likelihood_score(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        let w = weight / (self.sigma * self.sigma);
        for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
            *s += w * (yi - x);
        }
    }

    fn likelihood_score_into(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        let w = weight / (self.sigma * self.sigma);
        for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
            *s = w * (yi - x);
        }
    }

    fn constant_jacobian_sq(&self) -> Option<f64> {
        Some(1.0)
    }
}

/// Nonlinear observation `h(x) = arctan(γ x)` componentwise — the stress
/// test used in the EnSF papers to demonstrate non-Gaussian DA. The gain γ
/// controls how hard the saturation bites: with γ |x| ≫ 1 the Jacobian
/// vanishes and the observation carries almost no amplitude information.
#[derive(Debug, Clone)]
pub struct ArctanObs {
    dim: usize,
    sigma: f64,
    gain: f64,
}

impl ArctanObs {
    /// Componentwise `arctan(x)` observation with error `sigma` (gain 1).
    pub fn new(dim: usize, sigma: f64) -> Self {
        Self::with_gain(dim, sigma, 1.0)
    }

    /// Componentwise `arctan(gain · x)` observation.
    pub fn with_gain(dim: usize, sigma: f64, gain: f64) -> Self {
        assert!(sigma > 0.0 && gain > 0.0);
        ArctanObs { dim, sigma, gain }
    }
}

impl ObservationOperator for ArctanObs {
    fn obs_dim(&self) -> usize {
        self.dim
    }

    fn jacobian_sq(&self, state: &[f64], out: &mut [f64]) {
        for (o, x) in out.iter_mut().zip(state) {
            let g = self.gain;
            let j = g / (1.0 + (g * x) * (g * x));
            *o = j * j;
        }
    }

    fn apply(&self, state: &[f64], out: &mut [f64]) {
        for (o, x) in out.iter_mut().zip(state) {
            *o = (self.gain * x).atan();
        }
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn add_likelihood_score(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        // d/dx atan(gx) = g/(1+(gx)²).
        let w = weight / (self.sigma * self.sigma);
        let g = self.gain;
        for ((s, x), yi) in score_out.iter_mut().zip(state).zip(y) {
            *s += w * (yi - (g * x).atan()) * g / (1.0 + (g * x) * (g * x));
        }
    }
}

/// The componentwise observation map `h` of an observing network:
/// applied to the truth when observations are generated, and by the
/// analysis schemes and diagnostics when comparing states against
/// observations.
///
/// `Identity` is the paper's baseline `h = I`; `Arctan` is the EnSF
/// papers' saturating stress operator `h(x) = arctan(γ x)`. A partial
/// network applies the same map at the components its mask leaves
/// visible ([`MaskedObs`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ObsOperatorKind {
    /// Direct observation of every state component (`h = I`).
    #[default]
    Identity,
    /// Componentwise saturating observation `h(x) = arctan(gain · x)`.
    Arctan {
        /// Saturation gain γ (> 0): larger values bite harder.
        gain: f64,
    },
}

impl ObsOperatorKind {
    /// Applies `h` to one state component.
    pub fn h(self, v: f64) -> f64 {
        match self {
            ObsOperatorKind::Identity => v,
            ObsOperatorKind::Arctan { gain } => (gain * v).atan(),
        }
    }

    /// Maps a full state into observation space.
    pub fn apply(self, state: &[f64]) -> Vec<f64> {
        state.iter().map(|&v| self.h(v)).collect()
    }
}

/// Partial observation of an explicit set of state components — the
/// inpainting-EnSF operator (Liang et al., arXiv:2501.12419).
///
/// The observation vector holds only the observed components, in ascending
/// state-index order. The likelihood score and its squared Jacobian are
/// *exactly zero* at unobserved components, so the reverse-SDE and
/// probability-flow integrators apply pure score-driven diffusion there
/// (inpainting) and observation-guided transport on the observed set — no
/// special-casing in the integrators themselves.
#[derive(Debug, Clone)]
pub struct MaskedObs {
    observed: Vec<usize>,
    base: ObsOperatorKind,
    sigma: f64,
}

impl MaskedObs {
    /// Observes the `observed` components (ascending, unique, all
    /// `< state_dim`) of a `state_dim` state through `base`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0`, an arctan gain is positive, and the index
    /// list is strictly ascending and in range.
    pub fn new(state_dim: usize, observed: Vec<usize>, base: ObsOperatorKind, sigma: f64) -> Self {
        assert!(sigma > 0.0, "observation error must be positive");
        if let ObsOperatorKind::Arctan { gain } = base {
            assert!(gain > 0.0, "arctan gain must be positive");
        }
        assert!(
            observed.windows(2).all(|w| w[0] < w[1]),
            "observed indices must be strictly ascending"
        );
        if let Some(&last) = observed.last() {
            assert!(last < state_dim, "observed index {last} out of range {state_dim}");
        }
        MaskedObs { observed, base, sigma }
    }
}

impl ObservationOperator for MaskedObs {
    fn obs_dim(&self) -> usize {
        self.observed.len()
    }

    fn apply(&self, state: &[f64], out: &mut [f64]) {
        for (o, &i) in out.iter_mut().zip(&self.observed) {
            *o = self.base.h(state[i]);
        }
    }

    fn sigma(&self) -> f64 {
        self.sigma
    }

    fn jacobian_sq(&self, state: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        match self.base {
            ObsOperatorKind::Identity => {
                for &i in &self.observed {
                    out[i] = 1.0;
                }
            }
            ObsOperatorKind::Arctan { gain } => {
                for &i in &self.observed {
                    let x = state[i];
                    let j = gain / (1.0 + (gain * x) * (gain * x));
                    out[i] = j * j;
                }
            }
        }
    }

    fn add_likelihood_score(&self, state: &[f64], y: &[f64], weight: f64, score_out: &mut [f64]) {
        // Expression order mirrors IdentityObs / ArctanObs exactly so a
        // full mask reproduces the dense operators bit-for-bit.
        let w = weight / (self.sigma * self.sigma);
        match self.base {
            ObsOperatorKind::Identity => {
                for (&i, yi) in self.observed.iter().zip(y) {
                    score_out[i] += w * (yi - state[i]);
                }
            }
            ObsOperatorKind::Arctan { gain } => {
                let g = gain;
                for (&i, yi) in self.observed.iter().zip(y) {
                    let x = state[i];
                    score_out[i] += w * (yi - (g * x).atan()) * g / (1.0 + (g * x) * (g * x));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_score<O: ObservationOperator>(op: &O, x: &[f64], y: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        let mut g = vec![0.0; x.len()];
        let mut xp = x.to_vec();
        for i in 0..x.len() {
            xp[i] = x[i] + h;
            let lp = op.log_likelihood(&xp, y);
            xp[i] = x[i] - h;
            let lm = op.log_likelihood(&xp, y);
            xp[i] = x[i];
            g[i] = (lp - lm) / (2.0 * h);
        }
        g
    }

    /// A sparse network observing components `0, stride, 2·stride, …`.
    fn strided(dim: usize, stride: usize, sigma: f64) -> MaskedObs {
        MaskedObs::new(dim, (0..dim).step_by(stride).collect(), ObsOperatorKind::Identity, sigma)
    }

    #[test]
    fn identity_score_matches_finite_difference() {
        let op = IdentityObs::new(4, 0.7);
        let x = [0.3, -1.2, 2.0, 0.0];
        let y = [0.5, -1.0, 1.5, 0.2];
        let mut s = vec![0.0; 4];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn arctan_score_matches_finite_difference() {
        let op = ArctanObs::new(3, 0.5);
        let x = [0.3, -2.0, 5.0];
        let mut y = vec![0.0; 3];
        op.apply(&[0.1, -1.8, 4.0], &mut y);
        let mut s = vec![0.0; 3];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn strided_obs_picks_components() {
        let op = strided(6, 2, 1.0);
        assert_eq!(op.obs_dim(), 3);
        let mut out = vec![0.0; 3];
        op.apply(&[10.0, 11.0, 12.0, 13.0, 14.0, 15.0], &mut out);
        assert_eq!(out, vec![10.0, 12.0, 14.0]);
    }

    #[test]
    fn strided_score_only_touches_observed_components() {
        let op = strided(4, 2, 1.0);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [0.0, 0.0];
        let mut s = vec![0.0; 4];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        assert!(s[0] != 0.0 && s[2] != 0.0);
        assert_eq!(s[1], 0.0);
        assert_eq!(s[3], 0.0);
    }

    #[test]
    fn likelihood_score_into_matches_zeroed_add() {
        // The overwriting variant must agree with fill(0) + add for every
        // operator (IdentityObs overrides it; the rest use the default).
        let x = [1.0, -2.0, 0.5, 3.0];
        let y = [0.5, 0.5, 0.5, 0.5];
        let ops: Vec<Box<dyn ObservationOperator>> = vec![
            Box::new(IdentityObs::new(4, 0.7)),
            Box::new(ArctanObs::new(4, 0.3)),
            Box::new(strided(4, 2, 0.5)),
        ];
        for op in &ops {
            let mut via_add = vec![0.0; 4];
            op.add_likelihood_score(&x, &y, 1.3, &mut via_add);
            let mut via_into = vec![f64::NAN; 4]; // must overwrite, not read
            op.likelihood_score_into(&x, &y, 1.3, &mut via_into);
            for (a, b) in via_add.iter().zip(&via_into) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn constant_jacobian_sq_agrees_with_jacobian_sq() {
        // Some(c) must mean jacobian_sq writes exactly c everywhere.
        let x = [0.4, -1.1, 2.0];
        let ident = IdentityObs::new(3, 1.0);
        let c = ident.constant_jacobian_sq().unwrap();
        let mut js = vec![0.0; 3];
        ident.jacobian_sq(&x, &mut js);
        assert!(js.iter().all(|&j| j == c));
        // Non-uniform / state-dependent operators must opt out.
        assert!(strided(4, 2, 1.0).constant_jacobian_sq().is_none());
        assert!(ArctanObs::new(3, 0.3).constant_jacobian_sq().is_none());
    }

    #[test]
    fn score_weight_scales_linearly() {
        let op = IdentityObs::new(2, 1.0);
        let x = [1.0, -1.0];
        let y = [0.0, 0.0];
        let mut s1 = vec![0.0; 2];
        let mut s2 = vec![0.0; 2];
        op.add_likelihood_score(&x, &y, 1.0, &mut s1);
        op.add_likelihood_score(&x, &y, 0.5, &mut s2);
        for (a, b) in s1.iter().zip(&s2) {
            assert!((0.5 * a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn arctan_gain_controls_saturation() {
        let sharp = ArctanObs::with_gain(1, 0.1, 1.0);
        let mild = ArctanObs::with_gain(1, 0.1, 0.2);
        let mut js = vec![0.0];
        let mut jm = vec![0.0];
        sharp.jacobian_sq(&[5.0], &mut js);
        mild.jacobian_sq(&[5.0], &mut jm);
        // At x = 5 the mild-gain operator retains far more sensitivity.
        assert!(jm[0] > 2.0 * js[0], "{jm:?} vs {js:?}");
    }

    #[test]
    fn jacobian_sq_matches_operators() {
        let id = IdentityObs::new(3, 1.0);
        let mut out = vec![9.0; 3];
        id.jacobian_sq(&[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![1.0, 1.0, 1.0]);

        let strided = strided(4, 2, 1.0);
        let mut out = vec![9.0; 4];
        strided.jacobian_sq(&[0.0; 4], &mut out);
        assert_eq!(out, vec![1.0, 0.0, 1.0, 0.0]);

        let atan = ArctanObs::new(2, 1.0);
        let mut out = vec![0.0; 2];
        atan.jacobian_sq(&[0.0, 3.0], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!((out[1] - (1.0f64 / 10.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn log_likelihood_peaks_at_consistent_state() {
        let op = IdentityObs::new(2, 1.0);
        let y = [1.0, 2.0];
        assert!(op.log_likelihood(&[1.0, 2.0], &y) > op.log_likelihood(&[0.0, 0.0], &y));
    }

    #[test]
    fn tighter_sigma_means_stronger_pull() {
        let tight = IdentityObs::new(1, 0.1);
        let loose = IdentityObs::new(1, 1.0);
        let mut st = vec![0.0];
        let mut sl = vec![0.0];
        tight.add_likelihood_score(&[0.0], &[1.0], 1.0, &mut st);
        loose.add_likelihood_score(&[0.0], &[1.0], 1.0, &mut sl);
        assert!(st[0] > sl[0]);
    }

    #[test]
    #[should_panic(expected = "observation error must be positive")]
    fn identity_zero_sigma_rejected() {
        // A zero-variance observation makes the likelihood score singular;
        // the constructor is the only guard.
        let _ = IdentityObs::new(4, 0.0);
    }

    #[test]
    #[should_panic]
    fn strided_zero_sigma_rejected() {
        let _ = strided(4, 2, 0.0);
    }

    #[test]
    #[should_panic]
    fn arctan_zero_sigma_rejected() {
        let _ = ArctanObs::new(4, 0.0);
    }

    #[test]
    fn masked_identity_score_matches_finite_difference() {
        let op = MaskedObs::new(5, vec![0, 2, 4], ObsOperatorKind::Identity, 0.7);
        let x = [0.3, -1.2, 2.0, 0.0, -0.4];
        let y = [0.5, 1.5, -0.1];
        let mut s = vec![0.0; 5];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert_eq!(s[1], 0.0);
        assert_eq!(s[3], 0.0);
    }

    #[test]
    fn masked_arctan_score_matches_finite_difference() {
        let op = MaskedObs::new(4, vec![1, 3], ObsOperatorKind::Arctan { gain: 3.0 }, 0.5);
        let x = [9.0, 0.3, 9.0, -0.8];
        let mut y = vec![0.0; 2];
        op.apply(&[0.0, 0.2, 0.0, -0.7], &mut y);
        let mut s = vec![0.0; 4];
        op.add_likelihood_score(&x, &y, 1.0, &mut s);
        let fd = finite_diff_score(&op, &x, &y);
        for (a, b) in s.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert_eq!(s[0], 0.0);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn full_masked_obs_reduces_to_dense_operators_bitwise() {
        let dim = 6;
        let all: Vec<usize> = (0..dim).collect();
        let x = [1.0, -2.0, 3.0, -0.5, 0.25, 4.0];
        let y = [0.5, 0.25, -0.5, 1.0, 0.0, -1.0];

        let masked = MaskedObs::new(dim, all.clone(), ObsOperatorKind::Identity, 0.7);
        let dense = IdentityObs::new(dim, 0.7);
        let (mut a, mut b) = (vec![0.0; dim], vec![0.0; dim]);
        masked.add_likelihood_score(&x, &y, 1.3, &mut a);
        dense.add_likelihood_score(&x, &y, 1.3, &mut b);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.to_bits(), v.to_bits());
        }

        let masked = MaskedObs::new(dim, all, ObsOperatorKind::Arctan { gain: 40.0 }, 0.7);
        let dense = ArctanObs::with_gain(dim, 0.7, 40.0);
        let (mut a, mut b) = (vec![0.0; dim], vec![0.0; dim]);
        masked.add_likelihood_score(&x, &y, 0.9, &mut a);
        dense.add_likelihood_score(&x, &y, 0.9, &mut b);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn masked_jacobian_vanishes_off_mask() {
        let op = MaskedObs::new(4, vec![1, 2], ObsOperatorKind::Identity, 1.0);
        let mut out = vec![9.0; 4];
        op.jacobian_sq(&[0.0; 4], &mut out);
        assert_eq!(out, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(op.constant_jacobian_sq().is_none());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn masked_obs_rejects_unsorted_indices() {
        let _ = MaskedObs::new(4, vec![2, 1], ObsOperatorKind::Identity, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn masked_obs_rejects_out_of_range_index() {
        let _ = MaskedObs::new(4, vec![0, 4], ObsOperatorKind::Identity, 1.0);
    }

    #[test]
    fn strided_obs_with_stride_one_is_the_identity_network() {
        let dense = strided(5, 1, 0.7);
        let ident = IdentityObs::new(5, 0.7);
        assert_eq!(dense.obs_dim(), 5);
        let x = [1.0, -2.0, 3.0, -4.0, 5.0];
        let y = [0.5; 5];
        let (mut a, mut b) = (vec![0.0; 5], vec![0.0; 5]);
        dense.add_likelihood_score(&x, &y, 2.0, &mut a);
        ident.add_likelihood_score(&x, &y, 2.0, &mut b);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        let (mut ja, mut jb) = (vec![9.0; 5], vec![9.0; 5]);
        dense.jacobian_sq(&x, &mut ja);
        ident.jacobian_sq(&x, &mut jb);
        assert_eq!(ja, jb);
    }

    #[test]
    fn strided_obs_wider_than_state_keeps_one_component() {
        // stride > dim: only component 0 is observed; the score leaves
        // every other component untouched.
        let op = strided(4, 10, 1.0);
        assert_eq!(op.obs_dim(), 1);
        let mut out = vec![0.0; 1];
        op.apply(&[9.0, 8.0, 7.0, 6.0], &mut out);
        assert_eq!(out, vec![9.0]);
        let mut s = vec![0.0; 4];
        op.add_likelihood_score(&[9.0, 8.0, 7.0, 6.0], &[0.0], 1.0, &mut s);
        assert!(s[0] != 0.0); // lint: allow(float-exact-compare, reason="score of the observed component is an exact nonzero product")
        assert_eq!(&s[1..], &[0.0, 0.0, 0.0]);
    }
}
