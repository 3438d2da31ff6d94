//! Small-scale fading and shadowing.
//!
//! Two random components sit on top of the deterministic path loss:
//!
//! * **Log-normal shadowing** — slowly varying attenuation caused by
//!   buildings, parked cars and street furniture. It is *spatially
//!   coherent*: two packets transmitted a few metres apart see almost the
//!   same shadowing value. We model that coherence with a Gauss–Markov
//!   process over the distance travelled by the receiver, which is what
//!   creates the "lumpy" reception curves of the paper's Figures 3–5
//!   (stretches of several consecutive packets lost, rather than
//!   independent coin flips).
//! * **Fast (Rayleigh-style) fading** — per-frame multipath variation,
//!   modelled as an independent exponential power gain per frame.

use serde::{Deserialize, Serialize};
use sim_core::StreamRng;

/// A per-frame fading model, expressed as a random extra gain in dB
/// (negative values are fades).
pub trait FadingModel: std::fmt::Debug {
    /// Samples the fading gain in dB for one frame.
    fn sample_db(&self, rng: &mut StreamRng) -> f64;
}

/// The absence of fast fading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoFading;

impl FadingModel for NoFading {
    fn sample_db(&self, _rng: &mut StreamRng) -> f64 {
        0.0
    }
}

/// Rayleigh-style fast fading: the power gain is exponentially distributed
/// with unit mean, i.e. `gain_db = 10 log10(Exp(1))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RayleighFading;

impl FadingModel for RayleighFading {
    fn sample_db(&self, rng: &mut StreamRng) -> f64 {
        let gain = rng.exponential(1.0).max(1e-6);
        10.0 * gain.log10()
    }
}

/// Rician fast fading: a dominant line-of-sight component of relative power
/// `K` plus scattered multipath. The larger `K`, the shallower the fades; a
/// street-canyon link with the AP in view is typically K ≈ 4–8 dB, which is
/// what keeps mid-coverage losses in the paper's testbed at the 20–30 % level
/// rather than the 50 %+ a pure Rayleigh channel would produce.
///
/// The two amplitudes the draw needs are computed once, by
/// [`RicianFading::new`], so a sample costs two normal draws and a `log10`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RicianFading {
    /// Amplitude of the line-of-sight component, `sqrt(K / (K + 1))`.
    los: f64,
    /// Standard deviation of each scattered quadrature,
    /// `sqrt(1 / (2 (K + 1)))`.
    sigma: f64,
}

impl RicianFading {
    /// Creates a Rician fading model with the given K factor in dB.
    pub fn new(k_db: f64) -> Self {
        let k = 10f64.powf(k_db / 10.0);
        // Complex gain = LOS component + scattered component, normalised so
        // that the mean power is 1: E[|h|^2] = K/(K+1) + 1/(K+1) = 1.
        let los = (k / (k + 1.0)).sqrt();
        let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
        RicianFading { los, sigma }
    }
}

impl FadingModel for RicianFading {
    fn sample_db(&self, rng: &mut StreamRng) -> f64 {
        let re = self.los + self.sigma * rng.standard_normal();
        let im = self.sigma * rng.standard_normal();
        let power = (re * re + im * im).max(1e-9);
        10.0 * power.log10()
    }
}

/// Selects the per-frame fast-fading model of a channel configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum FadingKind {
    /// No fast fading (deterministic channel apart from shadowing).
    None,
    /// Rayleigh fading — rich scattering, no line-of-sight component.
    #[default]
    Rayleigh,
    /// Rician fading — a line-of-sight component of `k_db` dB over the
    /// scattered power, typical of street-canyon links with the AP in view.
    Rician {
        /// The K factor in dB.
        k_db: f64,
    },
}

impl FadingKind {
    /// Samples the per-frame fading gain in dB.
    pub fn sample_db(&self, rng: &mut StreamRng) -> f64 {
        self.prepare().sample_db(rng)
    }

    /// The model with its constants computed, for callers that sample it
    /// many times.
    pub(crate) fn prepare(&self) -> PreparedFading {
        match self {
            FadingKind::None => PreparedFading::None,
            FadingKind::Rayleigh => PreparedFading::Rayleigh,
            FadingKind::Rician { k_db } => PreparedFading::Rician(RicianFading::new(*k_db)),
        }
    }
}

/// A [`FadingKind`] ready to sample: the Rician amplitudes are computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PreparedFading {
    None,
    Rayleigh,
    Rician(RicianFading),
}

impl FadingModel for PreparedFading {
    fn sample_db(&self, rng: &mut StreamRng) -> f64 {
        match self {
            PreparedFading::None => NoFading.sample_db(rng),
            PreparedFading::Rayleigh => RayleighFading.sample_db(rng),
            PreparedFading::Rician(rician) => rician.sample_db(rng),
        }
    }
}

/// Spatially correlated log-normal shadowing.
///
/// The shadowing value is a Gauss–Markov (AR(1)) process indexed by the
/// distance the receiver has travelled: moving `decorrelation_m` metres
/// decorrelates the process to `1/e`.
///
/// # Examples
///
/// ```
/// use sim_core::StreamRng;
/// use vanet_radio::Shadowing;
///
/// let mut rng = StreamRng::derive(3, "shadowing");
/// let mut sh = Shadowing::new(6.0, 20.0);
/// let a = sh.sample_at(0.0, &mut rng);
/// let b = sh.sample_at(0.5, &mut rng);   // half a metre later: nearly identical
/// let c = sh.sample_at(500.0, &mut rng); // far away: essentially independent
/// assert!((a - b).abs() < 2.0);
/// let _ = c;
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Shadowing {
    /// Standard deviation of the shadowing in dB.
    pub sigma_db: f64,
    /// Decorrelation distance in metres.
    pub decorrelation_m: f64,
    state: Option<(f64, f64)>,
}

impl Shadowing {
    /// Creates a shadowing process with the given standard deviation (dB) and
    /// decorrelation distance (metres).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_db` is negative or `decorrelation_m` is not positive.
    pub fn new(sigma_db: f64, decorrelation_m: f64) -> Self {
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        assert!(decorrelation_m > 0.0, "decorrelation distance must be positive");
        Shadowing { sigma_db, decorrelation_m, state: None }
    }

    /// Typical urban street shadowing: σ = 6 dB, 20 m decorrelation.
    pub fn urban() -> Self {
        Shadowing::new(6.0, 20.0)
    }

    /// Open highway shadowing: σ = 3 dB, 50 m decorrelation.
    pub fn highway() -> Self {
        Shadowing::new(3.0, 50.0)
    }

    /// Samples the shadowing value (dB) at a receiver that has travelled
    /// `position_m` metres along its trajectory. Calls must be made with
    /// non-decreasing positions for the correlation structure to be exact;
    /// out-of-order calls fall back to treating the step as its absolute
    /// distance.
    pub fn sample_at(&mut self, position_m: f64, rng: &mut StreamRng) -> f64 {
        match self.state {
            None => {
                let v = rng.normal(0.0, self.sigma_db);
                self.state = Some((position_m, v));
                v
            }
            Some((last_pos, last_val)) => {
                let step = (position_m - last_pos).abs();
                let rho = (-step / self.decorrelation_m).exp();
                let innovation_sigma = self.sigma_db * (1.0 - rho * rho).sqrt();
                let v = rho * last_val + rng.normal(0.0, innovation_sigma);
                self.state = Some((position_m, v));
                v
            }
        }
    }

    /// Forgets the process state (e.g. between experiment rounds).
    pub fn reset(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fading_is_zero() {
        let mut rng = StreamRng::derive(1, "nf");
        assert_eq!(NoFading.sample_db(&mut rng), 0.0);
    }

    #[test]
    fn rayleigh_mean_power_is_about_unity() {
        let mut rng = StreamRng::derive(2, "ray");
        let n = 20_000;
        let mean_power: f64 =
            (0..n).map(|_| 10f64.powf(RayleighFading.sample_db(&mut rng) / 10.0)).sum::<f64>()
                / n as f64;
        assert!((mean_power - 1.0).abs() < 0.05, "mean power {mean_power}");
        // Deep fades must exist.
        let deep = (0..n).filter(|_| RayleighFading.sample_db(&mut rng) < -10.0).count();
        assert!(deep > 0);
    }

    #[test]
    fn rician_mean_power_is_unity_and_fades_are_shallower_than_rayleigh() {
        let mut rng = StreamRng::derive(12, "rice");
        let rice = RicianFading::new(6.0);
        let n = 20_000;
        let mean_power: f64 =
            (0..n).map(|_| 10f64.powf(rice.sample_db(&mut rng) / 10.0)).sum::<f64>() / n as f64;
        assert!((mean_power - 1.0).abs() < 0.05, "mean power {mean_power}");
        let deep_rice = (0..n).filter(|_| rice.sample_db(&mut rng) < -10.0).count();
        let deep_rayleigh = (0..n).filter(|_| RayleighFading.sample_db(&mut rng) < -10.0).count();
        assert!(
            deep_rice * 4 < deep_rayleigh,
            "Rician K=6 dB must fade far less often ({deep_rice} vs {deep_rayleigh})"
        );
    }

    #[test]
    fn prepared_rician_matches_the_per_draw_formula_bit_for_bit() {
        // The formula as it stood before the amplitudes were hoisted.
        let formula = |k_db: f64, rng: &mut StreamRng| {
            let k = 10f64.powf(k_db / 10.0);
            let los = (k / (k + 1.0)).sqrt();
            let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
            let re = los + sigma * rng.standard_normal();
            let im = sigma * rng.standard_normal();
            10.0 * (re * re + im * im).max(1e-9).log10()
        };
        for k_db in [-3.0, 0.0, 6.0, 10.0] {
            let prepared = RicianFading::new(k_db);
            let kind = FadingKind::Rician { k_db };
            let mut twin_a = StreamRng::derive(21, "rice-twin");
            let mut twin_b = StreamRng::derive(21, "rice-twin");
            let mut twin_c = StreamRng::derive(21, "rice-twin");
            for _ in 0..2_000 {
                let want = formula(k_db, &mut twin_a).to_bits();
                assert_eq!(prepared.sample_db(&mut twin_b).to_bits(), want, "K = {k_db} dB");
                assert_eq!(kind.sample_db(&mut twin_c).to_bits(), want, "K = {k_db} dB");
            }
        }
    }

    #[test]
    fn higher_k_means_shallower_fades() {
        let mut rng = StreamRng::derive(13, "rice-k");
        let n = 10_000;
        let deep = |k_db: f64, rng: &mut StreamRng| {
            let model = RicianFading::new(k_db);
            (0..n).filter(|_| model.sample_db(rng) < -6.0).count()
        };
        let low_k = deep(0.0, &mut rng);
        let high_k = deep(10.0, &mut rng);
        assert!(high_k < low_k, "K=10 dB ({high_k}) must fade less than K=0 dB ({low_k})");
    }

    #[test]
    fn shadowing_is_spatially_coherent() {
        let mut rng = StreamRng::derive(3, "sh");
        let mut sh = Shadowing::new(8.0, 20.0);
        // Correlation between consecutive samples 1 m apart should be high;
        // estimate it over a long walk.
        let mut prev = sh.sample_at(0.0, &mut rng);
        let mut num = 0.0;
        let mut den_a = 0.0;
        let mut den_b = 0.0;
        for i in 1..5_000 {
            let cur = sh.sample_at(i as f64, &mut rng);
            num += prev * cur;
            den_a += prev * prev;
            den_b += cur * cur;
            prev = cur;
        }
        let corr = num / (den_a.sqrt() * den_b.sqrt());
        assert!(corr > 0.85, "1 m correlation {corr}");
    }

    #[test]
    fn shadowing_long_run_variance_matches_sigma() {
        let mut rng = StreamRng::derive(4, "shvar");
        let mut sh = Shadowing::new(6.0, 10.0);
        // Sample every 100 m so draws are nearly independent.
        let n = 5_000;
        let draws: Vec<f64> = (0..n).map(|i| sh.sample_at(i as f64 * 100.0, &mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var.sqrt() - 6.0).abs() < 0.5, "sigma {}", var.sqrt());
    }

    #[test]
    fn reset_forgets_state() {
        let mut rng = StreamRng::derive(5, "reset");
        let mut sh = Shadowing::urban();
        let _ = sh.sample_at(0.0, &mut rng);
        sh.reset();
        assert_eq!(sh.state, None);
        let _ = sh.sample_at(1_000.0, &mut rng);
        assert!(sh.state.is_some());
    }

    #[test]
    #[should_panic(expected = "decorrelation")]
    fn zero_decorrelation_rejected() {
        let _ = Shadowing::new(3.0, 0.0);
    }

    #[test]
    fn presets_have_expected_ordering() {
        assert!(Shadowing::urban().sigma_db > Shadowing::highway().sigma_db);
    }
}
