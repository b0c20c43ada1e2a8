//! Branching processes (Lemma 6's domination argument).

use ba_rng::Rng64;

/// A Galton–Watson branching process with a finite offspring distribution.
#[derive(Debug, Clone)]
pub struct GaltonWatson {
    /// `pmf[k]` = probability an individual leaves `k` offspring.
    pmf: Vec<f64>,
}

impl GaltonWatson {
    /// Creates the process from an offspring pmf.
    ///
    /// # Panics
    ///
    /// Panics unless the pmf is non-empty, non-negative, and sums to 1
    /// within 1e-9.
    pub fn new(pmf: Vec<f64>) -> Self {
        assert!(!pmf.is_empty(), "offspring pmf must be non-empty");
        assert!(pmf.iter().all(|&p| p >= 0.0), "probabilities must be >= 0");
        let total: f64 = pmf.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "offspring pmf must sum to 1, got {total}"
        );
        Self { pmf }
    }

    /// The mean offspring count ρ.
    pub fn mean_offspring(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum()
    }

    /// Samples one offspring count.
    fn sample_offspring<R: Rng64>(&self, rng: &mut R) -> usize {
        let mut u = rng.gen_f64();
        for (k, &p) in self.pmf.iter().enumerate() {
            if u < p {
                return k;
            }
            u -= p;
        }
        self.pmf.len() - 1
    }

    /// Simulates `generations` generations from one ancestor; returns the
    /// population size per generation (index 0 = 1 ancestor). Stops early
    /// if the population dies out or exceeds `cap`.
    pub fn simulate<R: Rng64>(&self, generations: usize, cap: u64, rng: &mut R) -> Vec<u64> {
        let mut sizes = vec![1u64];
        for _ in 0..generations {
            let current = *sizes.last().expect("non-empty");
            if current == 0 || current > cap {
                break;
            }
            let mut next = 0u64;
            for _ in 0..current {
                next += self.sample_offspring(rng) as u64;
            }
            sizes.push(next);
        }
        sizes
    }

    /// Estimates the extinction probability from `trials` simulations of up
    /// to `generations` generations (population 0 = extinct; hitting `cap`
    /// counts as survival).
    pub fn extinction_probability<R: Rng64>(
        &self,
        trials: u64,
        generations: usize,
        cap: u64,
        rng: &mut R,
    ) -> f64 {
        let mut extinct = 0u64;
        for _ in 0..trials {
            let sizes = self.simulate(generations, cap, rng);
            if *sizes.last().expect("non-empty") == 0 {
                extinct += 1;
            }
        }
        extinct as f64 / trials as f64
    }
}

/// Simulates the *exact* ancestry-list growth process from Lemma 6: start
/// with `B = 1` bin; for each of the `t_n = ⌈T·n⌉` balls (walking backward
/// in time), with probability `min(B·d/n, 1)` the ball hits the list and
/// adds `d − 1` bins. Returns the final list size.
///
/// Lemma 6 dominates this by a Galton–Watson process and concludes
/// `E[B_{Tn}] ≤ e^{T·d(d−1)}` — a constant — with exponential tails.
pub fn ancestry_growth<R: Rng64>(n: u64, t_scale: f64, d: u32, rng: &mut R) -> u64 {
    assert!(n > 0, "need at least one bin");
    assert!(t_scale >= 0.0, "time scale must be non-negative");
    assert!(d >= 2, "ancestry growth needs d >= 2");
    let steps = (t_scale * n as f64).ceil() as u64;
    let mut b = 1u64;
    for _ in 0..steps {
        let p = (b as f64 * d as f64 / n as f64).min(1.0);
        if rng.gen_bool(p) {
            b += (d - 1) as u64;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn mean_offspring_computed() {
        let gw = GaltonWatson::new(vec![0.25, 0.0, 0.75]);
        assert!((gw.mean_offspring() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn pmf_must_normalize() {
        GaltonWatson::new(vec![0.5, 0.4]);
    }

    #[test]
    fn subcritical_process_dies() {
        // ρ = 0.5 < 1: extinction is certain.
        let gw = GaltonWatson::new(vec![0.5, 0.5]);
        let mut r = rng(1);
        let p = gw.extinction_probability(2000, 200, 1 << 20, &mut r);
        assert!(p > 0.999, "subcritical extinction prob {p}");
    }

    #[test]
    fn supercritical_extinction_probability() {
        // Offspring: 0 w.p. 1/4, 2 w.p. 3/4 → extinction prob is the
        // smallest root of s = 1/4 + 3/4 s², i.e. s = 1/3. A lineage
        // that grows past the cap of 64 goes extinct with probability at
        // most (1/3)^65, so counting it as a survivor moves the
        // estimate's expectation by less than that.
        let gw = GaltonWatson::new(vec![0.25, 0.0, 0.75]);
        let mut r = rng(2);
        let p = gw.extinction_probability(20_000, 60, 64, &mut r);
        assert!((p - 1.0 / 3.0).abs() < 0.02, "extinction prob {p}");
    }

    #[test]
    fn critical_process_mean_stays_one() {
        // ρ = 1: E[Z_g] = 1 for every generation.
        let gw = GaltonWatson::new(vec![0.5, 0.0, 0.5]);
        let mut r = rng(3);
        let g = 8;
        let total: u64 = (0..30_000)
            .map(|_| *gw.simulate(g, 1 << 20, &mut r).last().unwrap())
            .sum();
        let mean = total as f64 / 30_000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean generation-{g} size {mean}");
    }

    #[test]
    fn simulate_stops_at_extinction() {
        let gw = GaltonWatson::new(vec![1.0]);
        let sizes = gw.simulate(100, 1 << 20, &mut rng(4));
        assert_eq!(sizes, vec![1, 0], "all-die pmf must stop after one step");
    }

    #[test]
    fn ancestry_growth_mean_bounded_by_lemma() {
        // Lemma 6: E[B_{Tn}] ≤ e^{T·d(d−1)}. T = 1, d = 3 → bound e^6 ≈ 403.
        // The actual mean is much smaller; check both the bound and sanity.
        let n = 1u64 << 12;
        let mut r = rng(5);
        let trials = 2000;
        let total: u64 = (0..trials)
            .map(|_| ancestry_growth(n, 1.0, 3, &mut r))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!(mean < 403.0, "mean {mean} violates the Lemma 6 bound");
        assert!(mean > 1.0, "growth never happened?");
    }

    #[test]
    fn ancestry_growth_scales_with_d() {
        let n = 1u64 << 12;
        let mut r = rng(6);
        let mean = |d: u32, r: &mut Xoshiro256StarStar| {
            let trials = 1500;
            (0..trials)
                .map(|_| ancestry_growth(n, 1.0, d, r))
                .sum::<u64>() as f64
                / trials as f64
        };
        let m2 = mean(2, &mut r);
        let m4 = mean(4, &mut r);
        assert!(m4 > m2, "d=4 mean {m4} should exceed d=2 mean {m2}");
    }

    #[test]
    fn ancestry_growth_zero_time() {
        assert_eq!(ancestry_growth(100, 0.0, 3, &mut rng(7)), 1);
    }
}
