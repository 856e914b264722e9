//! Exact absorption laws for batched endgame walk segments.
//!
//! When a Simple-Global-Line-style execution collapses to a handful of
//! leader walkers, each walker performs an unbiased random walk on the
//! interior of its own path component, absorbed at either endpoint. The
//! per-step engines pay Θ(ℓ²) candidate draws per walk segment; this
//! module provides the closed-form laws that let
//! [`BucketSim`](crate::BucketSim) sample whole segments at once:
//!
//! * exit side: the classical gambler's-ruin probability `(L−z)/L`,
//!   sampled from an exact integer draw;
//! * absorption time conditioned on the exit side: the spectral CDF of
//!   the finite path chain (eigenvalues `cos(πj/L)`), inverted by
//!   bisection, with an exact dynamic-programming evaluator for small
//!   times;
//! * the alive-position propagator and its future-conditioned variant
//!   (for walkers that lose a race and must resume mid-flight);
//! * exact large-parameter discrete samplers (gamma / beta / binomial /
//!   Poisson) used to embed multi-walker races in continuous time and to
//!   reconstruct the rejected-draw gaps between effective steps.
//!
//! Every sampler here is exact up to `f64` rounding — the same epistemic
//! status as the engines' existing `geometric_skip` /
//! `hypergeometric_skip` inversions. Spectral sums are truncated only
//! where the dropped tail is below `e⁻⁴⁵` relative, far under `f64`
//! resolution.
//!
//! Model: positions `0..=L` on a path, absorbing barriers at `0` and
//! `L`, walker starts at interior `z`, each step moves `±1` with
//! probability ½.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt};

use crate::engine::unit_open01;

/// Absorption times are capped at `16·L² + 64` steps. The survival mass
/// beyond the cap is below `2⁻⁵³` of the exit probability, i.e. smaller
/// than the resolution of the uniform used to invert the CDF.
#[must_use]
pub fn time_cap(len: usize) -> u64 {
    16 * (len as u64) * (len as u64) + 64
}

/// Exact exit-side sample: `true` means the walker exits at `0`, with
/// probability `(L−z)/L` (gambler's ruin, an exact rational sampled from
/// an integer draw — no floating point involved).
pub(crate) fn sample_exit0(rng: &mut SmallRng, z: usize, len: usize) -> bool {
    debug_assert!(z >= 1 && z < len);
    (rng.random_range(0..len as u64) as usize) < len - z
}

/// `G_E(t) = P(T ≤ t, exit = E)` for a walker started at `z` on `0..=L`.
///
/// Uses an exact windowed DP for `t ≤ 1024` and the spectral form
/// `G₀(t) = (L−z)/L − (1/L)·Σⱼ sin(πjz/L)·sin(πj/L)·λⱼᵗ/(1−λⱼ)`
/// (and its mirrored variant for exit `L`) beyond, truncated where
/// `|λⱼ|ᵗ < e⁻⁴⁵`.
#[must_use]
pub fn exit_cdf(z: usize, len: usize, exit0: bool, t: u64) -> f64 {
    debug_assert!(z >= 1 && z < len);
    if t <= DP_TIME_LIMIT {
        return dp_exit_cdf(z, len, exit0, t);
    }
    let lf = len as f64;
    let limit = if exit0 {
        (len - z) as f64 / lf
    } else {
        z as f64 / lf
    };
    let mut tail = 0.0;
    spectral_terms(len, t, |j, lam_pow_t| {
        let jf = j as f64;
        let s_end = (std::f64::consts::PI * jf / lf).sin();
        // sin(πj(L−1)/L) = (−1)^{j+1}·sin(πj/L): hitting the far end
        // flips the sign of odd/even modes relative to the near end.
        let s_hit = if exit0 || j % 2 == 1 { s_end } else { -s_end };
        let lam = (std::f64::consts::PI * jf / lf).cos();
        tail += (std::f64::consts::PI * jf * z as f64 / lf).sin() * s_hit * lam_pow_t
            / (1.0 - lam);
    });
    (limit - tail / lf).clamp(0.0, 1.0)
}

/// `P(T > t)`: survival of the walker, `1 − G₀(t) − G_L(t)`.
#[must_use]
pub fn survival(z: usize, len: usize, t: u64) -> f64 {
    (1.0 - exit_cdf(z, len, true, t) - exit_cdf(z, len, false, t)).max(0.0)
}

/// Samples the walker's absorption jointly — `(exit0, T)`.
///
/// Short paths (`L ≤ 64`) are simulated directly: the expected `O(L²)`
/// coin flips undercut the spectral bisection's constant, and a direct
/// simulation is exact by construction. Longer paths use the exact
/// gambler's-ruin side draw (`sample_exit0`) followed by the
/// conditional CDF inversion (`sample_time_given_exit`); the joint law
/// is identical either way.
pub fn sample_absorption(rng: &mut SmallRng, z: usize, len: usize) -> (bool, u64) {
    debug_assert!(z >= 1 && z < len);
    if len <= 64 {
        let mut x = z;
        let mut t = 0u64;
        loop {
            x = if rng.random_bool(0.5) { x - 1 } else { x + 1 };
            t += 1;
            if x == 0 {
                return (true, t);
            }
            if x == len {
                return (false, t);
            }
        }
    }
    let exit0 = sample_exit0(rng, z, len);
    (exit0, sample_time_given_exit(rng, z, len, exit0))
}

/// Samples the absorption time conditioned on the exit side by CDF
/// bisection: the minimal `t` with `G_E(t) ≥ u·G_E(cap)`. The returned
/// time has the correct parity (`t ≡ z (mod 2)` for exit `0`,
/// `t ≡ L−z (mod 2)` for exit `L`) because the CDF is flat off-parity.
pub(crate) fn sample_time_given_exit(rng: &mut SmallRng, z: usize, len: usize, exit0: bool) -> u64 {
    let cap = time_cap(len);
    let total = exit_cdf(z, len, exit0, cap);
    let target = unit_open01(rng.next_u64()) * total;
    let (mut lo, mut hi) = (0u64, cap); // invariant: G(lo) < target ≤ G(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if exit_cdf(z, len, exit0, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Position weights for a walker known to be alive after `j` steps *and*
/// committed to absorb at side `exit0` after `rem` further steps:
/// `w[x] = Pʲ(z, x) · f_E(x, rem)`.
#[must_use]
pub(crate) fn bridge_weights_with_future(
    z: usize,
    len: usize,
    j: u64,
    rem: u64,
    exit0: bool,
) -> Vec<f64> {
    let mut w = propagator_row(z, len, j);
    for (x, wx) in w.iter_mut().enumerate() {
        if *wx > 0.0 {
            *wx *= hit_pmf(x, len, exit0, rem);
        }
    }
    w
}

/// Samples an index proportional to non-negative `weights` (linear CDF
/// inversion on a single uniform). Returns the last positive-weight
/// index if rounding pushes the target past the total.
pub(crate) fn sample_weighted(rng: &mut SmallRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weighted sample over empty support");
    let target = unit_open01(rng.next_u64()) * total;
    let mut acc = 0.0;
    let mut last = 0;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            last = i;
            acc += w;
            if acc >= target {
                return i;
            }
        }
    }
    last
}

/// `f_E(x, r) = P(absorbed at side E at time exactly r | start x)`.
///
/// `f₀(x, r) = ½·P^{r−1}(x, 1)`; boundary cases: from the exit itself the
/// walker is already absorbed (`r == 0`), from anywhere else `r == 0` is
/// impossible.
#[must_use]
pub(crate) fn hit_pmf(x: usize, len: usize, exit0: bool, r: u64) -> f64 {
    let exit_at = if exit0 { 0 } else { len };
    if x == exit_at {
        return if r == 0 { 1.0 } else { 0.0 };
    }
    if x == 0 || x == len || r == 0 {
        return 0.0;
    }
    let pre = if exit0 { 1 } else { len - 1 };
    0.5 * propagator(x, len, r - 1, pre)
}

/// One step of the Doob h-transformed walk: the walker at `x` with a
/// commitment to absorb at side `exit0` in exactly `rem` more steps
/// moves to `x−1` with probability `f_E(x−1, rem−1) / (f_E(x−1, rem−1) +
/// f_E(x+1, rem−1))`. Consumes one uniform; returns the new position.
pub(crate) fn h_step(rng: &mut SmallRng, x: usize, len: usize, exit0: bool, rem: u64) -> usize {
    debug_assert!(x >= 1 && x < len && rem >= 1);
    let wl = hit_weight_after(x - 1, len, exit0, rem - 1);
    let wr = hit_weight_after(x + 1, len, exit0, rem - 1);
    debug_assert!(wl + wr > 0.0, "h_step with impossible commitment");
    if unit_open01(rng.next_u64()) * (wl + wr) <= wl {
        x - 1
    } else {
        x + 1
    }
}

fn hit_weight_after(x: usize, len: usize, exit0: bool, rem: u64) -> f64 {
    // Stepping onto the wrong barrier has weight 0; onto the committed
    // exit, weight 1 iff the commitment is exactly spent.
    hit_pmf(x, len, exit0, rem)
}

/// `Pᵗ(z, x)` for a single target position.
#[must_use]
pub(crate) fn propagator(z: usize, len: usize, t: u64, x: usize) -> f64 {
    if x == 0 || x == len {
        return 0.0;
    }
    if t <= DP_TIME_LIMIT {
        let row = dp_alive_row(z, len, t);
        return row[x];
    }
    let lf = len as f64;
    let mut sum = 0.0;
    spectral_terms(len, t, |j, lam_pow_t| {
        let jf = j as f64;
        sum += (std::f64::consts::PI * jf * z as f64 / lf).sin()
            * (std::f64::consts::PI * jf * x as f64 / lf).sin()
            * lam_pow_t;
    });
    (2.0 / lf * sum).max(0.0)
}

fn propagator_row(z: usize, len: usize, t: u64) -> Vec<f64> {
    if t <= DP_TIME_LIMIT {
        return dp_alive_row(z, len, t);
    }
    let lf = len as f64;
    let mut row = vec![0.0; len + 1];
    spectral_terms(len, t, |j, lam_pow_t| {
        let jf = j as f64;
        let a = (std::f64::consts::PI * jf * z as f64 / lf).sin() * lam_pow_t;
        for (x, rx) in row.iter_mut().enumerate().take(len).skip(1) {
            *rx += a * (std::f64::consts::PI * jf * x as f64 / lf).sin();
        }
    });
    let parity = (z as u64 + t) % 2;
    for (x, rx) in row.iter_mut().enumerate() {
        if x as u64 % 2 != parity || x == 0 || x == len {
            *rx = 0.0;
        } else {
            *rx = (*rx * 2.0 / lf).max(0.0);
        }
    }
    row
}

const DP_TIME_LIMIT: u64 = 1024;

/// Visits every spectral mode whose weight `|λⱼ|ᵗ` exceeds `e⁻⁴⁵`,
/// passing `(j, λⱼᵗ)`. Modes come in `(j, L−j)` pairs with opposite-sign
/// eigenvalues; both wings are visited.
fn spectral_terms(len: usize, t: u64, mut f: impl FnMut(usize, f64)) {
    let lf = len as f64;
    // |cos(πj/L)|^t < e⁻⁴⁵ once (πj/L)²·t/2 > 45 ⟺ j > (L/π)·√(90/t).
    let cut = (lf / std::f64::consts::PI * (90.0 / t as f64).sqrt()).ceil() as usize + 4;
    let tf = t as f64;
    let visit = |j: usize, f: &mut dyn FnMut(usize, f64)| {
        let lam = (std::f64::consts::PI * j as f64 / lf).cos();
        let lam_pow_t = if lam == 0.0 {
            0.0
        } else {
            let p = tf * lam.abs().ln();
            if p < -745.0 {
                0.0
            } else {
                let mag = p.exp();
                if lam < 0.0 && t % 2 == 1 { -mag } else { mag }
            }
        };
        if lam_pow_t != 0.0 {
            f(j, lam_pow_t);
        }
    };
    if 2 * cut >= len - 1 {
        for j in 1..len {
            visit(j, &mut f);
        }
    } else {
        for j in 1..=cut {
            visit(j, &mut f);
        }
        for j in (len - cut)..len {
            visit(j, &mut f);
        }
    }
}

/// Windowed forward DP: exact (rational-arithmetic-free but exactly
/// representable dyadic) evolution of the chain for small `t`.
fn dp_exit_cdf(z: usize, len: usize, exit0: bool, t: u64) -> f64 {
    let (row, g0, gl) = dp_evolve(z, len, t);
    drop(row);
    if exit0 { g0 } else { gl }
}

fn dp_alive_row(z: usize, len: usize, t: u64) -> Vec<f64> {
    dp_evolve(z, len, t).0
}

fn dp_evolve(z: usize, len: usize, t: u64) -> (Vec<f64>, f64, f64) {
    let t = t as usize;
    let lo = z.saturating_sub(t);
    let hi = (z + t).min(len);
    let width = hi - lo + 1;
    let mut cur = vec![0.0f64; width];
    let mut next = vec![0.0f64; width];
    cur[z - lo] = 1.0;
    let mut g0 = 0.0;
    let mut gl = 0.0;
    for _ in 0..t {
        for v in next.iter_mut() {
            *v = 0.0;
        }
        for i in 0..width {
            let p = cur[i];
            if p == 0.0 {
                continue;
            }
            let x = lo + i;
            if x == 0 || x == len {
                continue;
            }
            let half = 0.5 * p;
            if x - 1 == 0 && lo == 0 {
                g0 += half;
            } else if x > lo {
                next[i - 1] += half;
            }
            if x + 1 == len && hi == len {
                gl += half;
            } else if x < hi {
                next[i + 1] += half;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let mut row = vec![0.0; len + 1];
    for (i, &p) in cur.iter().enumerate() {
        let x = lo + i;
        if x != 0 && x != len {
            row[x] = p;
        }
    }
    (row, g0, gl)
}

// ---------------------------------------------------------------------
// Large-parameter discrete samplers.
// ---------------------------------------------------------------------

/// A standard normal via the polar (Marsaglia) method. Consumes a
/// variable, seed-determined number of uniforms.
pub(crate) fn standard_normal(rng: &mut SmallRng) -> f64 {
    loop {
        let v1 = 2.0 * unit_open01(rng.next_u64()) - 1.0;
        let v2 = 2.0 * unit_open01(rng.next_u64()) - 1.0;
        let s = v1 * v1 + v2 * v2;
        if s > 0.0 && s < 1.0 {
            return v1 * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Gamma(shape, 1) for `shape ≥ 1` via Marsaglia–Tsang squeeze-rejection
/// (exact up to `f64` rounding; valid for arbitrarily large shapes).
pub(crate) fn sample_gamma(rng: &mut SmallRng, shape: f64) -> f64 {
    debug_assert!(shape >= 1.0);
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u = unit_open01(rng.next_u64());
        let x2 = x * x;
        if u < 1.0 - 0.0331 * x2 * x2 {
            return d * v3;
        }
        if u.ln() < 0.5 * x2 + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Beta(a, b) for `a, b ≥ 1` via the two-gamma construction.
pub(crate) fn sample_beta(rng: &mut SmallRng, a: f64, b: f64) -> f64 {
    let x = sample_gamma(rng, a);
    let y = sample_gamma(rng, b);
    x / (x + y)
}

/// Binomial(n, p), exact for arbitrarily large `n` via the recursive
/// beta-split (the median-order-statistic reduction): `O(log n)` gamma
/// draws, then a direct Bernoulli count on the small remainder.
pub(crate) fn sample_binomial(rng: &mut SmallRng, mut n: u64, mut p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    let mut acc = 0u64;
    while n > 64 {
        let m = n / 2 + 1;
        // The m-th smallest of n uniforms is Beta(m, n+1−m).
        let x = sample_beta(rng, m as f64, (n - m + 1) as f64);
        if x <= p {
            acc += m;
            n -= m;
            p = (p - x) / (1.0 - x);
        } else {
            n = m - 1;
            p /= x;
        }
        p = p.clamp(0.0, 1.0);
    }
    for _ in 0..n {
        if unit_open01(rng.next_u64()) < p {
            acc += 1;
        }
    }
    acc
}

/// Binomial(n, p) for a `u128` count: the sum of one
/// [`sample_binomial`] per `u64` chunk of `n` (binomials over the same
/// `p` add). A count that fits `u64` makes exactly one call, so it
/// draws the same coins as [`sample_binomial`] itself.
pub(crate) fn sample_binomial_u128(rng: &mut SmallRng, n: u128, p: f64) -> u128 {
    let mut left = n;
    let mut acc = 0u128;
    loop {
        let chunk = u64::try_from(left).unwrap_or(u64::MAX);
        acc += u128::from(sample_binomial(rng, chunk, p));
        left -= u128::from(chunk);
        if left == 0 {
            return acc;
        }
    }
}

/// Poisson(λ), exact for arbitrarily large `λ` via the gamma-splitting
/// recursion (Ahrens–Dieter): `O(log λ)` gamma draws plus a small
/// product-of-uniforms remainder.
pub(crate) fn sample_poisson(rng: &mut SmallRng, mut lambda: f64) -> u128 {
    debug_assert!(lambda >= 0.0 && lambda.is_finite());
    let mut acc: u128 = 0;
    while lambda > 32.0 {
        let m = (lambda * 7.0 / 8.0).floor();
        let g = sample_gamma(rng, m);
        if g <= lambda {
            // m-th arrival of the unit Poisson process landed inside.
            acc += m as u128;
            lambda -= g;
        } else {
            // Count of arrivals strictly before time λ among the m−1
            // arrivals preceding g: uniform order statistics on [0, g].
            return acc + u128::from(sample_binomial(rng, m as u64 - 1, lambda / g));
        }
    }
    // Knuth product-of-uniforms for the small remainder.
    let limit = (-lambda).exp();
    let mut prod = unit_open01(rng.next_u64());
    while prod > limit {
        acc += 1;
        prod *= unit_open01(rng.next_u64());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn dp_and_spectral_exit_cdfs_agree() {
        for &(z, len) in &[(1usize, 5usize), (3, 7), (4, 9), (7, 16), (13, 40)] {
            for t in [1u64, 2, 3, 10, 50, 200, 900] {
                for exit0 in [true, false] {
                    let dp = dp_exit_cdf(z, len, exit0, t);
                    // Force the spectral branch by faking a large-t call
                    // shape: evaluate the closed form directly.
                    let limit = if exit0 {
                        (len - z) as f64 / len as f64
                    } else {
                        z as f64 / len as f64
                    };
                    let lf = len as f64;
                    let mut tail = 0.0;
                    for j in 1..len {
                        let jf = j as f64;
                        let lam = (std::f64::consts::PI * jf / lf).cos();
                        let s_end = (std::f64::consts::PI * jf / lf).sin();
                        let s_hit = if exit0 || j % 2 == 1 { s_end } else { -s_end };
                        tail += (std::f64::consts::PI * jf * z as f64 / lf).sin()
                            * s_hit
                            * lam.powi(t as i32)
                            / (1.0 - lam);
                    }
                    let spectral = limit - tail / lf;
                    assert!(
                        (dp - spectral).abs() < 1e-9,
                        "z={z} L={len} t={t} exit0={exit0}: dp={dp} spectral={spectral}"
                    );
                }
            }
        }
    }

    #[test]
    fn exit_cdf_limits_are_gamblers_ruin() {
        for &(z, len) in &[(2usize, 6usize), (5, 11), (1, 3)] {
            let cap = time_cap(len);
            let g0 = exit_cdf(z, len, true, cap);
            let gl = exit_cdf(z, len, false, cap);
            assert!((g0 - (len - z) as f64 / len as f64).abs() < 1e-9);
            assert!((gl - z as f64 / len as f64).abs() < 1e-9);
            assert!(survival(z, len, cap) < 1e-12);
        }
    }

    #[test]
    fn propagator_row_sums_to_survival() {
        for t in [4u64, 33, 211, 1500, 5000] {
            let (z, len) = (6usize, 15usize);
            let row = propagator_row(z, len, t);
            let sum: f64 = row.iter().sum();
            let s = survival(z, len, t);
            assert!(
                (sum - s).abs() < 1e-9,
                "t={t}: row sum {sum} vs survival {s}"
            );
            let parity = (z as u64 + t) % 2;
            for (x, &w) in row.iter().enumerate() {
                if x as u64 % 2 != parity {
                    assert_eq!(w, 0.0, "parity violation at x={x}, t={t}");
                }
            }
        }
    }

    #[test]
    fn sampled_times_match_the_conditional_cdf() {
        let (z, len) = (3usize, 8usize);
        let mut r = rng(0xA11CE);
        let trials = 4000;
        let mut times = Vec::with_capacity(trials);
        for _ in 0..trials {
            let t = sample_time_given_exit(&mut r, z, len, true);
            assert_eq!(t % 2, z as u64 % 2, "exit-0 parity");
            times.push(t);
        }
        let total = exit_cdf(z, len, true, time_cap(len));
        for probe in [3u64, 9, 21, 49, 121] {
            let model = exit_cdf(z, len, true, probe) / total;
            let seen = times.iter().filter(|&&t| t <= probe).count() as f64 / trials as f64;
            assert!(
                (model - seen).abs() < 0.03,
                "P(T ≤ {probe}): model {model} vs empirical {seen}"
            );
        }
    }

    #[test]
    fn hit_pmf_sums_to_exit_probability() {
        let (x, len) = (4usize, 9usize);
        let mut acc = 0.0;
        for r in 0..time_cap(len) {
            acc += hit_pmf(x, len, true, r);
            if r > 4000 {
                break;
            }
        }
        assert!((acc - (len - x) as f64 / len as f64).abs() < 1e-9);
    }

    #[test]
    fn h_step_respects_the_commitment() {
        // A walker at 1 with rem=1 committed to exit 0 must step left.
        let mut r = rng(7);
        for _ in 0..50 {
            assert_eq!(h_step(&mut r, 1, 6, true, 1), 0);
        }
        // Committed walks terminate exactly on schedule.
        for seed in 0..40u64 {
            let mut r = rng(seed);
            let (len, z) = (10usize, 4usize);
            let exit0 = sample_exit0(&mut r, z, len);
            let t = sample_time_given_exit(&mut r, z, len, exit0);
            let mut x = z;
            for rem in (1..=t).rev() {
                x = h_step(&mut r, x, len, exit0, rem);
                if rem > 1 {
                    assert!(x >= 1 && x < len, "absorbed early");
                }
            }
            assert_eq!(x, if exit0 { 0 } else { len });
        }
    }

    #[test]
    fn bridge_weights_have_support_consistent_with_future() {
        let (z, len) = (3usize, 9usize);
        let (j, rem) = (7u64, 12u64);
        let w = bridge_weights_with_future(z, len, j, rem, true);
        let total: f64 = w.iter().sum();
        assert!(total > 0.0);
        for (x, &wx) in w.iter().enumerate() {
            if wx > 0.0 {
                assert_eq!((x as u64 + j) % 2, z as u64 % 2);
                assert!(hit_pmf(x, len, true, rem) > 0.0);
            }
        }
    }

    #[test]
    fn binomial_matches_direct_counts_in_distribution() {
        let mut r = rng(99);
        let (n, p, trials) = (500u64, 0.3f64, 3000);
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 0..trials {
            let x = sample_binomial(&mut r, n, p) as f64;
            let d = x - mean;
            mean += d / (i + 1) as f64;
            m2 += d * (x - mean);
        }
        let var = m2 / trials as f64;
        let (em, ev) = (n as f64 * p, n as f64 * p * (1.0 - p));
        assert!((mean - em).abs() < 4.0 * (ev / trials as f64).sqrt() + 0.5);
        assert!((var / ev - 1.0).abs() < 0.15, "var {var} vs {ev}");
        assert_eq!(sample_binomial(&mut r, 1000, 0.0), 0);
        assert_eq!(sample_binomial(&mut r, 1000, 1.0), 1000);
    }

    /// A count below 2⁶⁴ draws exactly `sample_binomial`'s coins; past
    /// it the chunk sums keep the mean `n·p` (within 10σ at n = 2⁶⁶).
    #[test]
    fn wide_binomial_chunks_past_u64() {
        for n in [1u64, 64, 65, 1_000_000, u64::MAX] {
            let (mut a, mut b) = (rng(n), rng(n));
            let wide = sample_binomial_u128(&mut a, u128::from(n), 0.37);
            assert_eq!(wide, u128::from(sample_binomial(&mut b, n, 0.37)));
            assert_eq!(a, b, "n = {n}: coin streams diverged");
        }
        let (n, p) = (1u128 << 66, 0.3f64);
        let (mean, sd) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
        let mut r = rng(66);
        for _ in 0..8 {
            let x = sample_binomial_u128(&mut r, n, p);
            assert!(x <= n);
            assert!((x as f64 - mean).abs() < 10.0 * sd, "{x} vs mean {mean}");
        }
    }

    #[test]
    fn poisson_matches_its_moments() {
        let mut r = rng(123);
        for &lambda in &[3.0f64, 80.0, 5_000.0] {
            let trials = 2000;
            let mut mean = 0.0;
            let mut m2 = 0.0;
            for i in 0..trials {
                let x = sample_poisson(&mut r, lambda) as f64;
                let d = x - mean;
                mean += d / (i + 1) as f64;
                m2 += d * (x - mean);
            }
            let var = m2 / trials as f64;
            let se = (lambda / trials as f64).sqrt();
            assert!((mean - lambda).abs() < 5.0 * se + 0.5, "λ={lambda}: mean {mean}");
            assert!((var / lambda - 1.0).abs() < 0.2, "λ={lambda}: var {var}");
        }
    }
}
