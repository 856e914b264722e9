//! Shared engine internals: convergence bookkeeping and the dense core
//! of the dense event engines.
//!
//! The engines agree on what they record per interaction — total steps,
//! effective interactions, edge events, and the steps of the last output
//! change / last effective interaction — so their loops share one
//! [`Bookkeeping`] value and one way of turning it into a
//! [`RunOutcome`]. Likewise, the dense configuration
//! and its incrementally maintained set of "pairs that currently have an
//! applicable transition" — a row rescan per endpoint whose state
//! changed, else one pair, and one repair per fault kind — live in one
//! [`DenseCore`], on which [`EventSim`](crate::EventSim) and
//! [`RoundSim`](crate::RoundSim) keep only their schedulers' bookkeeping.

use crate::compiled::EnumerableMachine;
use crate::fault::{FaultPlan, FaultState};
use crate::sim::{RunOutcome, StepResult};
use crate::{EngineView, Link, Population, StateId};

/// Maps a raw 64-bit draw to a uniform value on the half-open unit
/// interval `(0, 1]` with 53-bit resolution — the draw both event engines
/// feed into [`geometric_skip`].
///
/// The `+ 1` excludes 0 (whose logarithm is −∞) and includes 1 (zero
/// skips), mirroring the inversion convention of the original `EventSim`
/// sampler bit for bit.
#[inline]
#[must_use]
pub fn unit_open01(raw: u64) -> f64 {
    ((raw >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Inversion of the geometric law shared by [`EventSim`](crate::EventSim)
/// and [`BucketSim`](crate::BucketSim): the number of consecutive
/// scheduler draws that miss a candidate set hit with probability `p`,
/// derived from one uniform `u ∈ (0, 1]` as `⌊ln u / ln(1−p)⌋`.
///
/// `P(skips ≥ t) = (1−p)^t` exactly (up to f64 rounding), so feeding both
/// engines the same *skip schedule* (the same stream of `u`s) makes their
/// skip counts directly comparable: the engine with the larger candidate
/// set (larger `p`) never skips more — the monotonicity the coin-level
/// proptests pin.
///
/// Returns an `f64` so callers can compare against a remaining-budget
/// window before truncating (the value can exceed `u64::MAX` when `p` is
/// tiny and `u` is close to 0).
#[inline]
#[must_use]
pub fn geometric_skip(u01: f64, p: f64) -> f64 {
    debug_assert!(p > 0.0 && p <= 1.0);
    geometric_skip_unfloored(u01, p).floor()
}

/// [`geometric_skip`] before its floor. [`BucketSim`](crate::BucketSim)
/// compares this value with its integer budget directly (`⌊x⌋ ≥ r ⇔
/// x ≥ r`, and `⌊x⌋ as u64 == x as u64` for `x ≥ 0`), so it gets the same
/// skips without a `floor` call per draw.
#[inline]
pub(crate) fn geometric_skip_unfloored(u01: f64, p: f64) -> f64 {
    u01.ln() / (-p).ln_1p()
}

/// The uniform engines' skip decision, with `k` of the `m` equally likely
/// draws a candidate: `Some(skips)` when the next candidate lands within
/// the `remaining ≥ 1` draws of the budget, `None` when it lands past it —
/// then the whole window is ineffective, exactly: `P(skips ≥ r)` is the
/// naive engine's probability of `r` misses in a row. Draws one raw
/// `u64` unless `k == m` (every draw is a candidate). Compares the
/// unfloored quotient: `⌊x⌋ ≥ r ⇔ x ≥ r`, and `x as u64` floors.
#[inline]
pub(crate) fn uniform_skip(
    rng: &mut impl rand::Rng,
    k: u64,
    m: u64,
    remaining: u64,
) -> Option<u64> {
    if k == m {
        return Some(0);
    }
    let x = geometric_skip_unfloored(unit_open01(rng.next_u64()), k as f64 / m as f64);
    (x < remaining as f64).then_some(x as u64)
}

/// Below this bound every integer is an exact `f64`, and so is every
/// `x ± 1.0` with `x` such an integer: the samplers step their factors
/// in `f64` there instead of converting fresh `u64`s each iteration —
/// the same values, bit for bit, at a fraction of the cost. From it on
/// they convert each factor afresh.
const EXACT_F64: u64 = 1 << 53;

/// Whether the negative hypergeometric survival function at `t`,
/// `S(t) = ∏_{j=0}^{hits−1} (remaining − t − j)/(remaining − j)`, is
/// below `u01`: the probability that the first `t` draws of a uniform
/// random permutation of `remaining` items, `hits` of them marked, are
/// all unmarked.
///
/// This is the `hits`-factor form (each of the `hits` marked items
/// independently-ish avoids the length-`t` prefix), equal to the
/// draw-by-draw product `∏_{i=0}^{t−1} (misses − i)/(remaining − i)` that
/// the naive engine realizes one scheduler draw at a time. Every factor
/// is at most 1 and IEEE rounding is monotone, so the running product
/// never rises: the answer is settled as soon as it drops below `u01`.
/// For the same reason the rounded `S` is non-increasing in `t`, which
/// makes this predicate monotone in `t`.
fn nh_survival_below(u01: f64, remaining: u64, hits: u64, t: u64) -> bool {
    if t > remaining - hits {
        return true;
    }
    let mut s = 1.0f64;
    let (mut num, mut den) = ((remaining - t) as f64, remaining as f64);
    for j in 0..hits {
        if remaining >= EXACT_F64 {
            (num, den) = ((remaining - t - j) as f64, (remaining - j) as f64);
        }
        s *= num / den;
        if s < u01 {
            return true;
        }
        num -= 1.0;
        den -= 1.0;
    }
    false
}

/// The real `t` with `(1 − t/R̄)^hits = u`, `R̄ = remaining − (hits−1)/2`:
/// the closed-form approximation of the crossing `S(t) = u`.
fn nh_guess(ln_u: f64, remaining: u64, hits: u64) -> f64 {
    let rbar = remaining as f64 - (hits - 1) as f64 / 2.0;
    rbar * -(ln_u / hits as f64).exp_m1()
}

/// Smallest `t` in `[lo, hi]` with `S(t + 1) < u01`, or `hi` if there is
/// none below it. The caller guarantees the answer lies in the window.
///
/// The search starts from the closed-form guess
/// `g = ⌈R̄·(1 − u^{1/hits})⌉ − 1` with `R̄ = remaining − (hits−1)/2`
/// (the inversion of `S(t) ≈ (1 − t/R̄)^hits`), gallops out from it with
/// doubling steps until the answer is bracketed, then bisects inside the
/// bracket. The predicate is monotone, so any bracket yields the same
/// smallest `t` as a bisection over the whole window — typically after
/// 2–4 survival evaluations instead of `log₂(hi − lo)`.
fn nh_bisect(u01: f64, remaining: u64, hits: u64, lo: u64, hi: u64) -> u64 {
    let below = |t: u64| t >= hi || nh_survival_below(u01, remaining, hits, t + 1);
    let guess = nh_guess(u01.ln(), remaining, hits).ceil() - 1.0;
    let g = (guess.max(0.0) as u64).clamp(lo, hi);
    let (mut lo, mut hi) = (lo, hi);
    let mut step = 1u64;
    if below(g) {
        hi = g;
        while lo < hi {
            let x = hi.saturating_sub(step).max(lo);
            if !below(x) {
                lo = x + 1;
                break;
            }
            hi = x;
            step = step.saturating_mul(2);
        }
    } else {
        lo = g + 1;
        while lo < hi {
            let x = g.saturating_add(step).min(hi);
            if below(x) {
                hi = x;
                break;
            }
            lo = x + 1;
            step = step.saturating_mul(2);
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The certified path of [`hypergeometric_skip`] only runs when the
/// expected skip count is at least this (shorter walks are cheap) …
const CERTIFY_MIN_EXPECT: u64 = 64;

/// … and only answers `t` with at least this many misses left after it,
/// so the Stirling series of [`ln_survival`] is truncated at `x ≥ 1024`.
const CERTIFY_MIN_TAIL: u64 = 1024;

/// Relative error allowed per summed term of [`ln_survival`] and per
/// `ln`/`ln_1p` result: 64 unit roundoffs, three times the ~19 that the
/// operations need with a libm good to 4 ulps.
const LN_TERM_REL_ERR: f64 = 32.0 * f64::EPSILON;

/// `ln x! − ((x + ½)·ln x − x + ½·ln 2π)`: the Stirling series
/// `1/(12x) − 1/(360x³) + 1/(1260x⁵)`, whose truncation error is below
/// the first omitted term `1/(1680x⁷)` (< 10⁻²⁴ for `x ≥ 1024`).
fn stirling_tail(x: f64) -> f64 {
    let r = 1.0 / x;
    let r2 = r * r;
    r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0))
}

/// `ln S(t) = Σ_{i<t} ln((misses − i)/(remaining − i))` in O(1), with the
/// sum of the magnitudes of its terms (the scale of its rounding error).
/// `ln_miss_ratio` is `ln(misses/remaining)`.
///
/// `S(t) = misses!·(remaining − t)! / ((misses − t)!·remaining!)`, and
/// with `y = misses − t`, `z = remaining − t` Stirling's formula turns
/// `ln misses! − ln y!` into `(y + ½)·ln(1 + t/y) + t·ln misses − t`
/// plus series tails; the `t·ln` and `t` terms of the two factorial
/// ratios cancel analytically into `t·ln(misses/remaining)`. What is left
/// are three terms of size at most `t` and four tails below `10⁻⁴`, so
/// the error grows with `t·ε`, not with `t·ε·ln remaining`.
/// Requires `y ≥ 1024`.
fn ln_survival(remaining: u64, hits: u64, t: u64, ln_miss_ratio: f64) -> (f64, f64) {
    let misses = remaining - hits;
    let (tf, y, z) = (t as f64, (misses - t) as f64, (remaining - t) as f64);
    let a = (y + 0.5) * (tf / y).ln_1p();
    let b = (z + 0.5) * (tf / z).ln_1p();
    let c = tf * ln_miss_ratio;
    let tails = stirling_tail(misses as f64) - stirling_tail(y) - stirling_tail(remaining as f64)
        + stirling_tail(z);
    (a - b + c + tails, a + b - c + 1.0)
}

/// The answer of [`hypergeometric_skip`]'s exact code, when it can be
/// proven without running it; `None` sends the call to that code.
///
/// The exact code answers the smallest `t` with `Ŝ(t + 1) < u01`, where
/// `Ŝ` is the rounded survival product it multiplies out: the walk's
/// `t`-factor product below `walk_cap`, then the `hits`-factor product
/// of the search (`walk_cap = 0` when it only searches). Both products
/// are non-increasing in `t`. A Newton step from the closed-form guess
/// finds the crossing `t` of [`ln_survival`], and `t` is returned only if
/// `Ŝ(t) ≥ u01 > Ŝ(t + 1)` holds for every value the rounded products
/// can take: the approximation's own error bound plus, per factor, 2
/// roundings (4 from `2⁵³` on, where both operands are converted) of
/// relative size `ε` each. Past the cap the walk must also survive to it,
/// `Ŝ_walk(walk_cap) ≥ u01`, which the bound at `t ≥ walk_cap` implies.
/// Draws the bounds cannot separate from a threshold fall back.
fn certified_skip(u01: f64, remaining: u64, hits: u64, expect: u64, walk_cap: u64) -> Option<u64> {
    let misses = remaining - hits;
    if expect < CERTIFY_MIN_EXPECT || misses <= CERTIFY_MIN_TAIL {
        return None;
    }
    let ln_u = u01.ln();
    let (rf, hf) = (remaining as f64, hits as f64);
    let last = (misses - CERTIFY_MIN_TAIL) as f64;
    let guess = nh_guess(ln_u, remaining, hits);
    // Consecutive ln S differ by at least hits/remaining; skip draws
    // whose error bound would rarely fit inside that gap (and far tails,
    // where products could approach the subnormal range).
    let gap = hf / rf;
    if guess >= last || ln_u < -600.0 || 8.0 * LN_TERM_REL_ERR * (guess + 1.0) > gap {
        return None;
    }
    let ln_miss_ratio = (-hf / rf).ln_1p();
    let step = |t: u64| (-hf / (remaining - t) as f64).ln_1p();
    let g = guess as u64;
    let tau = g as f64 + (ln_u - ln_survival(remaining, hits, g, ln_miss_ratio).0) / step(g);
    if !(tau >= 0.0 && tau < last) {
        return None;
    }
    let t = tau as u64;
    let (at, magnitude) = ln_survival(remaining, hits, t, ln_miss_ratio);
    let s = step(t);
    let err = LN_TERM_REL_ERR * (magnitude - s + ln_u.abs());
    // ε = f64::EPSILON is twice the unit roundoff: a factor-2 margin.
    let per_factor = if remaining >= EXACT_F64 { 4.0 } else { 2.0 } * f64::EPSILON;
    let (k_at, k_next) = if t < walk_cap {
        (t, t + 1)
    } else {
        (hits.max(walk_cap), hits)
    };
    let survives = at - err - k_at as f64 * per_factor >= ln_u;
    let stops = at + s + err + k_next as f64 * per_factor < ln_u;
    (survives && stops).then_some(t)
}

/// Inversion of the *negative hypergeometric* skip law used by
/// [`RoundSim`](crate::RoundSim): drawing without replacement from
/// `remaining` unscheduled pairs of which `hits` are candidates, the
/// number of non-candidate draws before the first candidate, derived from
/// one uniform `u ∈ (0, 1]`.
///
/// This is the within-round counterpart of [`geometric_skip`]: under the
/// ShuffledRounds scheduler the rest of a round is a uniform permutation
/// of the remaining pairs, so `P(skips ≥ t) = ∏_{i<t} (misses−i)/(remaining−i)`
/// (hypergeometric counts instead of the i.i.d. `(1−p)^t`). Like its
/// geometric sibling the law is self-similar under truncation — `t`
/// failures leave a uniform permutation of `remaining − t` pairs with the
/// same `hits` — so stopping mid-skip at a budget and resampling on
/// resume is exact, which is what lets `run_to` pause anywhere.
///
/// The returned skip count never exceeds `remaining − hits` (a round
/// cannot run out of candidates before its last candidate is drawn).
/// Cost: O(1) for most draws once the expected skip count reaches 64. A
/// certified closed-form inversion evaluates `ln S` by Stirling's formula
/// and returns the exact code's answer only when it can prove it, with a
/// bound on both its own error and the rounding of the product the exact
/// code would multiply out; the answers are therefore bit-identical to
/// that code's. Short expected skips, and draws the bound cannot separate
/// from a threshold (near one, or where the bound outgrows the gap
/// `hits/remaining` between consecutive survival values: few hits among
/// very many pairs), run the exact code at
/// `O(min(skips, hits·log|g − t|))` — a short sequential walk of the
/// draw-by-draw product when the candidate set is dense, and when it is
/// sparse a search on the `hits`-factor survival form that brackets the
/// answer `t` outward from its closed-form guess `g`, adding a few
/// survival evaluations past the guess.
///
/// # Panics
///
/// Debug-asserts `1 ≤ hits ≤ remaining` and `u01 ∈ (0, 1]`.
#[must_use]
pub fn hypergeometric_skip(u01: f64, remaining: u64, hits: u64) -> u64 {
    debug_assert!(hits >= 1 && hits <= remaining);
    debug_assert!(u01 > 0.0 && u01 <= 1.0);
    if hits == remaining {
        return 0;
    }
    // The result is the smallest t with S(t+1) < u (the same bracketing
    // convention as geometric_skip: S(t) ≥ u > S(t+1) ⇔ skips = t).
    let (expect, cap) = skip_plan(remaining, hits);
    certified_skip(u01, remaining, hits, expect, cap)
        .unwrap_or_else(|| exact_skip(u01, remaining, hits, cap))
}

/// `(expect, walk_cap)` of a skip over `remaining` pairs with `hits`
/// candidates: one more than the expected skip count, and how far the
/// exact code walks the draw-by-draw product before it searches.
///
/// A dense candidate set has a tiny expected skip count, so the walk
/// runs; its cap bounds a pathological tail (probability ≲ e⁻³²) which
/// falls through to the search. A sparse one searches at once
/// (`walk_cap = 0`).
fn skip_plan(remaining: u64, hits: u64) -> (u64, u64) {
    let misses = remaining - hits;
    let expect = misses / (hits + 1) + 1;
    let walk = hits.saturating_mul(34) > expect.saturating_mul(4);
    let cap = if walk {
        expect.saturating_mul(32).min(misses)
    } else {
        0
    };
    (expect, cap)
}

/// [`hypergeometric_skip`]'s exact code: the draw-by-draw walk for
/// `t < walk_cap`, then the bracketed search over `[walk_cap, misses]`.
fn exact_skip(u01: f64, remaining: u64, hits: u64, walk_cap: u64) -> u64 {
    let misses = remaining - hits;
    let mut surv = 1.0f64;
    let (mut num, mut den) = (misses as f64, remaining as f64);
    for t in 0..walk_cap {
        if remaining >= EXACT_F64 {
            (num, den) = ((misses - t) as f64, (remaining - t) as f64);
        }
        surv *= num / den;
        if surv < u01 {
            return t;
        }
        num -= 1.0;
        den -= 1.0;
    }
    if walk_cap == misses {
        // S(misses + 1) = 0 < u: the permutation is out of misses.
        return misses;
    }
    nh_bisect(u01, remaining, hits, walk_cap, misses)
}

/// Probability tables up to this length live on the stack: the sparse
/// round engine's ledger replays draw mostly from ranges below it.
const STACK_PMF: usize = 64;

/// Builds the unnormalized hypergeometric pmf on `[wlo, whi]` by ratio
/// recurrences outward from `mode` (whose mass is pinned at 1, so
/// nothing near the bulk under- or overflows) and returns the smallest
/// `x` in the window with `CDF(x) ≥ u01` over the window's mass.
fn invert_pmf_window(
    u01: f64,
    marked: u64,
    total: u64,
    draws: u64,
    wlo: u64,
    whi: u64,
    mode: u64,
) -> u64 {
    let len = (whi - wlo + 1) as usize;
    let mut stack = [0.0f64; STACK_PMF];
    let mut heap = Vec::new();
    let pmf = if len <= STACK_PMF {
        &mut stack[..len]
    } else {
        heap.resize(len, 0.0);
        &mut heap[..]
    };
    // q(x+1)/q(x) = (a·b)/(c·d) for the pmf q(x) = C(marked, x)·C(unmarked,
    // draws−x), with a = marked − x, b = draws − x, c = x + 1 and
    // d = unmarked + x + 1 − draws.
    let unmarked = total - marked;
    let factors = |x: u64| {
        let (a, b) = ((marked - x) as f64, (draws - x) as f64);
        (a, b, (x + 1) as f64, (unmarked + x + 1 - draws) as f64)
    };
    pmf[(mode - wlo) as usize] = 1.0;
    let (mut a, mut b, mut c, mut d) = factors(mode);
    let mut q = 1.0f64;
    for x in mode..whi {
        if total >= EXACT_F64 {
            (a, b, c, d) = factors(x);
        }
        q *= (a * b) / (c * d);
        pmf[(x + 1 - wlo) as usize] = q;
        (a, b, c, d) = (a - 1.0, b - 1.0, c + 1.0, d + 1.0);
    }
    let (mut a, mut b, mut c, mut d) = factors(mode);
    q = 1.0;
    for x in (wlo..mode).rev() {
        (a, b, c, d) = (a + 1.0, b + 1.0, c - 1.0, d - 1.0);
        if total >= EXACT_F64 {
            (a, b, c, d) = factors(x);
        }
        q /= (a * b) / (c * d);
        pmf[(x - wlo) as usize] = q;
    }
    let z: f64 = pmf.iter().sum();
    let target = u01 * z;
    let mut cum = 0.0f64;
    for (i, &p) in pmf.iter().enumerate() {
        cum += p;
        if cum >= target {
            return wlo + i as u64;
        }
    }
    whi
}

/// The mode `⌊(draws+1)(marked+1)/(total+2)⌋` of the hypergeometric
/// count law, clamped into its support `[lo, hi]`.
fn hypergeometric_mode(marked: u64, total: u64, draws: u64, lo: u64, hi: u64) -> u64 {
    let mode = (u128::from(draws + 1) * u128::from(marked + 1)) / u128::from(total + 2);
    (mode as u64).clamp(lo, hi)
}

/// Inversion of the hypergeometric *count* law: drawing `draws` items
/// without replacement from `total` items of which `marked` are marked,
/// the number of marked items drawn, derived from one uniform
/// `u ∈ (0, 1]`.
///
/// [`RoundSim`](crate::RoundSim) uses it to split a batch of skipped
/// ineffective draws between the explicitly-tracked resolved pairs and
/// the anonymous unresolved pool: the skips are uniform without
/// replacement over their union, so the split is exactly this law.
///
/// The probability table is built by ratio recurrences outward from the
/// mode (whose unnormalized mass is pinned at 1, so nothing near the
/// bulk under- or overflows), then inverted as the smallest `x` with
/// `CDF(x) ≥ u`. Cost is O(range) where
/// `range = min(marked, draws, total − marked, total − draws)`, with no
/// heap allocation while the table fits 64 entries (range ≤ 63).
///
/// # Panics
///
/// Debug-asserts `marked ≤ total`, `draws ≤ total`, and `u01 ∈ (0, 1]`.
#[must_use]
pub fn hypergeometric_count(u01: f64, marked: u64, total: u64, draws: u64) -> u64 {
    debug_assert!(marked <= total && draws <= total);
    debug_assert!(u01 > 0.0 && u01 <= 1.0);
    let lo = draws.saturating_sub(total - marked);
    let hi = marked.min(draws);
    if lo == hi {
        return lo;
    }
    let mode = hypergeometric_mode(marked, total, draws, lo, hi);
    invert_pmf_window(u01, marked, total, draws, lo, hi, mode)
}

/// Windowed variant of [`hypergeometric_count`] for huge parameters:
/// identical law, but the ratio-recurrence table is built only on a
/// `±(12σ + 32)` window around the mode instead of the full support, so
/// the cost is O(σ) instead of O(range). The truncated tail mass is
/// below `e⁻⁷²` relative — smaller than the `f64` rounding already
/// inherent in the dense table — so the two functions agree in
/// distribution; they may differ only on draws landing more than 12
/// standard deviations into a tail. Delegates to the exact-support
/// version whenever the full range is small.
///
/// The sparse round engine uses this to split skipped scheduled
/// occurrences between pools whose sizes scale with `n²`.
///
/// # Panics
///
/// Debug-asserts the same preconditions as [`hypergeometric_count`].
#[must_use]
pub fn hypergeometric_count_large(u01: f64, marked: u64, total: u64, draws: u64) -> u64 {
    debug_assert!(marked <= total && draws <= total);
    debug_assert!(u01 > 0.0 && u01 <= 1.0);
    let lo = draws.saturating_sub(total - marked);
    let hi = marked.min(draws);
    if hi - lo <= 4096 {
        return hypergeometric_count(u01, marked, total, draws);
    }
    let (nf, kf, mf) = (total as f64, draws as f64, marked as f64);
    let p = mf / nf;
    let sigma = (kf * p * (1.0 - p) * ((nf - kf) / (nf - 1.0))).sqrt();
    let half = (12.0 * sigma) as u64 + 32;
    let mode = hypergeometric_mode(marked, total, draws, lo, hi);
    let wlo = mode.saturating_sub(half).max(lo);
    let whi = mode.saturating_add(half).min(hi);
    invert_pmf_window(u01, marked, total, draws, wlo, whi, mode)
}

/// The per-run counters every engine maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Bookkeeping {
    /// Scheduler-selected interactions so far (including ineffective ones).
    pub(crate) steps: u64,
    /// Effective interactions so far.
    pub(crate) effective_steps: u64,
    /// Edge activations/deactivations so far.
    pub(crate) edge_events: u64,
    /// Step of the most recent edge change (0 if none yet).
    pub(crate) last_output_change: u64,
    /// Step of the most recent effective interaction (0 if none yet).
    pub(crate) last_effective: u64,
}

impl Bookkeeping {
    /// Records an effective interaction at the current `steps` count.
    pub(crate) fn record_effective(&mut self, edge_changed: bool) {
        self.record_edge_changes(usize::from(edge_changed));
        self.effective_steps += 1;
        self.last_effective = self.steps;
    }

    /// Records `k` edge changes (an interaction's, or a fault's
    /// deletions) at the current `steps` count.
    pub(crate) fn record_edge_changes(&mut self, k: usize) {
        if k > 0 {
            self.edge_events += k as u64;
            self.last_output_change = self.steps;
        }
    }

    /// The [`RunOutcome`] for a stable predicate observed right now.
    pub(crate) fn stabilized_now(&self) -> RunOutcome {
        RunOutcome::Stabilized {
            detected_at: self.steps,
            converged_at: self.last_output_change,
            last_effective: self.last_effective,
        }
    }
}

/// A set of unordered node pairs supporting O(1) insert, remove,
/// membership, and uniform sampling by position.
///
/// The members live in a dense vector (swap-remove keeps it compact); the
/// position map is a full `n × n` matrix — twice the memory of a
/// triangular map (`4n²` bytes), but a row rescan then reads one
/// *contiguous* row of the touched node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSet {
    n: usize,
    /// Words per row of the membership bitset.
    row_words: usize,
    /// Packed members `(u << 16) | v` with `u < v`.
    members: Vec<u32>,
    /// `pos[u * n + v]` (and mirror `[v * n + u]`) → position in
    /// `members` + 1, or 0 when absent.
    pos: Vec<u32>,
    /// Membership bitset, one row per node (bit `v` of row `u` and bit
    /// `u` of row `v`): lets the engines diff a whole row against a
    /// desired-membership mask word-wise.
    rows: Vec<u64>,
}

impl PairSet {
    /// Creates an empty set over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n > 65535` (members are packed into `u16` halves).
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        assert!(n <= usize::from(u16::MAX), "PairSet packs nodes into u16");
        let row_words = n.div_ceil(64);
        Self {
            n,
            row_words,
            members: Vec::new(),
            pos: vec![0; n * n],
            rows: vec![0; n * row_words],
        }
    }

    /// Builds the set over `n` nodes from each node's desired membership
    /// row, which `fill(u, row)` writes. The rows must describe a
    /// symmetric relation (bit `v` of row `u` ⇔ bit `u` of row `v`), as
    /// they do for a machine whose `can_affect` is symmetric. The member
    /// vector is reserved to its exact size up front and filled in
    /// `(u, v)` lexicographic order — the order ascending
    /// [`set`](Self::set) calls over every `u < v` would produce, in
    /// O(n²/64 + members) instead of O(n²).
    pub(crate) fn from_rows(n: usize, mut fill: impl FnMut(usize, &mut [u64])) -> Self {
        let mut s = Self::new(n);
        let wpr = s.row_words;
        for u in 0..n {
            fill(u, &mut s.rows[u * wpr..(u + 1) * wpr]);
        }
        let total: u32 = s.rows.iter().map(|w| w.count_ones()).sum();
        s.members.reserve_exact(total as usize / 2);
        for u in 0..n {
            for k in u / 64..wpr {
                let mut bits = s.rows[u * wpr + k];
                if k == u / 64 {
                    bits &= (!0u64 << (u % 64)) << 1;
                }
                while bits != 0 {
                    let v = k * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    debug_assert!(s.rows[v * wpr + u / 64] >> (u % 64) & 1 == 1, "asymmetric rows");
                    s.members.push((u as u32) << 16 | v as u32);
                    let at = s.members.len() as u32;
                    s.pos[u * n + v] = at;
                    s.pos[v * n + u] = at;
                }
            }
        }
        debug_assert_eq!(2 * s.members.len(), total as usize, "asymmetric rows");
        s
    }

    /// The membership bitset row of node `u` (bit `v` ⇔ `{u, v}` is a
    /// member).
    #[must_use]
    pub(crate) fn row_bits(&self, u: usize) -> &[u64] {
        &self.rows[u * self.row_words..(u + 1) * self.row_words]
    }

    /// The number of member pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `{u, v}` is a member.
    #[must_use]
    pub fn contains(&self, u: usize, v: usize) -> bool {
        self.pos[u * self.n + v] != 0
    }

    /// Inserts or removes `{u, v}` according to `member` (no-ops when the
    /// membership already matches).
    pub(crate) fn set(&mut self, u: usize, v: usize, member: bool) {
        debug_assert!(u != v && u < self.n && v < self.n);
        let i = u * self.n + v;
        let p = self.pos[i];
        if member {
            if p == 0 {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                self.members.push((a as u32) << 16 | b as u32);
                let at = u32::try_from(self.members.len()).expect("≤ n²/2 members");
                self.pos[i] = at;
                self.pos[v * self.n + u] = at;
                self.rows[u * self.row_words + v / 64] |= 1u64 << (v % 64);
                self.rows[v * self.row_words + u / 64] |= 1u64 << (u % 64);
            }
        } else if p != 0 {
            let hole = (p - 1) as usize;
            let last = *self.members.last().expect("non-empty: p != 0");
            self.members.swap_remove(hole);
            self.pos[i] = 0;
            self.pos[v * self.n + u] = 0;
            self.rows[u * self.row_words + v / 64] &= !(1u64 << (v % 64));
            self.rows[v * self.row_words + u / 64] &= !(1u64 << (u % 64));
            if hole < self.members.len() {
                let (lu, lv) = ((last >> 16) as usize, (last & 0xFFFF) as usize);
                self.pos[lu * self.n + lv] = p;
                self.pos[lv * self.n + lu] = p;
            }
        }
    }

    /// The member at position `i` (for uniform sampling), as `(u, v)` with
    /// `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub(crate) fn get(&self, i: usize) -> (usize, usize) {
        let packed = self.members[i];
        ((packed >> 16) as usize, (packed & 0xFFFF) as usize)
    }

    /// Iterates the member pairs in arbitrary order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.members
            .iter()
            .map(|&p| ((p >> 16) as usize, (p & 0xFFFF) as usize))
    }

    /// Removes every member in O(members) — the per-round reset of the
    /// [`RoundSim`](crate::RoundSim) bookkeeping sets (the Θ(n²) position
    /// matrix is only ever touched where members actually lived).
    pub(crate) fn clear(&mut self) {
        for i in 0..self.members.len() {
            let packed = self.members[i];
            let (u, v) = ((packed >> 16) as usize, (packed & 0xFFFF) as usize);
            self.pos[u * self.n + v] = 0;
            self.pos[v * self.n + u] = 0;
            self.rows[u * self.row_words + v / 64] &= !(1u64 << (v % 64));
            self.rows[v * self.row_words + u / 64] &= !(1u64 << (u % 64));
        }
        self.members.clear();
    }

    /// Bytes of heap memory held by this set (position matrix, membership
    /// bitset, member vector) — the Θ(n²) bulk of the dense event engine.
    #[must_use]
    pub(crate) fn approx_mem_bytes(&self) -> u64 {
        (self.pos.capacity() * 4 + self.rows.capacity() * 8 + self.members.capacity() * 4) as u64
    }
}

/// The configuration and exact effective-pair set shared by the dense
/// engines [`EventSim`](crate::EventSim) and [`RoundSim`](crate::RoundSim):
/// the one place an interaction is applied to a dense configuration and
/// each fault repair is made to it. The set's member order, which the
/// samplers index by position, is part of the engines' reproducibility
/// contract: every row update applies the XOR diff of the desired row
/// against the current one, in increasing-`v` order.
#[derive(Debug, Clone)]
pub(crate) struct DenseCore<M: EnumerableMachine> {
    machine: M,
    pop: Population<M::State>,
    /// The exact effective set `E` of the current configuration.
    pairs: PairSet,
    /// One node bitset per state (bit `u` of row `s` ⇔ node `u` is
    /// present in state `s`), `row_words` words each — the input of the
    /// word-parallel rescan. Absent nodes (crashed or not yet arrived)
    /// are in no row and hold no active edges, so no rescan names them.
    state_nodes: Vec<u64>,
    /// Scratch row for the desired-membership mask.
    scratch: Vec<u64>,
    row_words: usize,
}

impl<M: EnumerableMachine> DenseCore<M> {
    /// The core of `pop`, its effective set built from one desired row
    /// per node (`O(n²·|Q|/64 + |E| + members)`). Panics if the
    /// population has fewer than 2 nodes.
    pub(crate) fn new(machine: M, pop: Population<M::State>) -> Self {
        let n = pop.n();
        assert!(n >= 2, "pairwise interactions need at least 2 processes");
        let row_words = n.div_ceil(64);
        let mut state_nodes = vec![0u64; machine.num_states() * row_words];
        for (u, s) in pop.states().iter().enumerate() {
            state_nodes[s.index() * row_words + u / 64] |= 1u64 << (u % 64);
        }
        let mut core = Self {
            machine,
            pop,
            pairs: PairSet::new(0),
            state_nodes,
            scratch: vec![0u64; row_words],
            row_words,
        };
        core.pairs = PairSet::from_rows(n, |u, row| core.desired_row(u, row));
        core
    }

    /// The core of a faulted engine: `n` present nodes in the initial
    /// state plus one retired ghost slot per planned arrival (the
    /// [`fault`](crate::fault) ghost-node model). Panics if `n < 2`.
    pub(crate) fn new_faulted(machine: M, n: usize, plan: FaultPlan) -> (Self, FaultState) {
        assert!(n >= 2, "pairwise interactions need at least 2 processes");
        let fs = FaultState::new(plan, n);
        let pop = Population::new(fs.capacity(), machine.initial_state());
        let mut core = Self::new(machine, pop);
        for ghost in n..fs.capacity() {
            core.retire(ghost);
        }
        (core, fs)
    }

    /// The current configuration.
    pub(crate) fn pop(&self) -> &Population<M::State> {
        &self.pop
    }

    /// The exact effective pair set.
    pub(crate) fn pairs(&self) -> &PairSet {
        &self.pairs
    }

    /// The configuration as predicates and the fault layer read it.
    pub(crate) fn view<'a>(&'a self, faults: Option<&'a FaultState>) -> EngineView<'a, M> {
        EngineView::Dense {
            pop: &self.pop,
            machine: &self.machine,
            faults,
        }
    }

    /// Bytes of heap memory held by the core (heap payloads *inside*
    /// composite states are not counted).
    pub(crate) fn approx_mem_bytes(&self) -> u64 {
        let states = (self.pop.n() * std::mem::size_of::<M::State>()) as u64;
        self.pairs.approx_mem_bytes()
            + self.pop.edges().approx_mem_bytes()
            + states
            + ((self.state_nodes.capacity() + self.scratch.capacity()) * 8) as u64
            + self.machine.effect_table().approx_mem_bytes()
    }

    /// Applies `interact` to `(u, v)` with real coins from `rng` and
    /// updates the effective set (a sampled identity changes nothing).
    /// A pair `{u, w}` with `w ≠ v` can flip only if `u`'s state changed;
    /// if it did not, the one pair `{u, v}` is reclassified in place of
    /// `u`'s rescan — the set operation that rescan would make, in the
    /// same order before `v`'s row — so a link-only step costs one
    /// [`PairSet::set`]. Relies on `can_affect` being symmetric in its
    /// node arguments, as every compiled table is.
    pub(crate) fn interact(&mut self, u: usize, v: usize, rng: &mut impl rand::Rng) -> StepResult {
        let pair = (u, v);
        let link = Link::from(self.pop.edges().is_active(u, v));
        let (iu, iv) = (self.pop.state(u).index(), self.pop.state(v).index());
        let Some((a2, b2, l2)) = self.machine.interact_indexed(iu, iv, link, rng) else {
            return StepResult::Ineffective { pair };
        };
        let edge_changed = l2 != link;
        if edge_changed {
            self.pop.edges_mut().set(u, v, l2.is_on());
        }
        let u_changed = self.move_node(u, a2);
        let v_changed = self.move_node(v, b2);
        if u_changed {
            self.rescan(u);
        } else {
            self.pairs.set(u, v, self.machine.effect_table().can_affect(iu, b2, l2));
        }
        if v_changed {
            self.rescan(v);
        }
        StepResult::Effective { pair, edge_changed }
    }

    /// Retires node `x` (a crash, or a ghost slot at construction): drops
    /// its active edges, takes it out of its state's node bitset and
    /// clears its effective row, keeping its state index (an arrival
    /// re-enters in its unchanged initial state). Returns the former
    /// neighbours in ascending order.
    pub(crate) fn retire(&mut self, x: usize) -> Vec<usize> {
        let neighbors: Vec<usize> = self.pop.edges().neighbors(x).collect();
        for &w in &neighbors {
            self.pop.edges_mut().set(x, w, false);
        }
        let word = self.pop.state(x).index() * self.row_words + x / 64;
        self.state_nodes[word] &= !(1u64 << (x % 64));
        let mut zeros = std::mem::take(&mut self.scratch);
        zeros.fill(0);
        self.apply_row(x, &zeros);
        self.scratch = zeros;
        neighbors
    }

    /// Re-admits absent node `x` (an arrival: it holds its initial state
    /// and no edges) and rescans its effective row.
    pub(crate) fn readmit(&mut self, x: usize) {
        let (word, bit) = (self.pop.state(x).index() * self.row_words + x / 64, 1u64 << (x % 64));
        debug_assert!(self.state_nodes[word] & bit == 0, "readmit of a present node");
        self.state_nodes[word] |= bit;
        self.rescan(x);
    }

    /// Moves node `u` to state index `q` (a crash notification) and
    /// rescans its effective row.
    pub(crate) fn set_state_index(&mut self, u: usize, q: usize) {
        self.move_node(u, q);
        self.rescan(u);
    }

    /// Deactivates edge `{u, v}` and reclassifies its pair: `None` if the
    /// edge was inactive, else whether the pair's membership flipped.
    pub(crate) fn deactivate_edge(&mut self, u: usize, v: usize) -> Option<bool> {
        if !self.pop.edges().is_active(u, v) {
            return None;
        }
        self.pop.edges_mut().set(u, v, false);
        // A dead endpoint implies an inactive edge, so both ends are
        // alive here; only the link of this one pair changed.
        let (iu, iv) = (self.pop.state(u).index(), self.pop.state(v).index());
        let eff = self.machine.effect_table().can_affect(iu, iv, Link::Off);
        let flipped = self.pairs.contains(u, v) != eff;
        self.pairs.set(u, v, eff);
        Some(flipped)
    }

    /// Moves node `u` to state index `new`, keeping the per-state node
    /// bitsets in sync; returns whether its state changed.
    fn move_node(&mut self, u: usize, new: usize) -> bool {
        let old = self.pop.state(u).index();
        if old != new {
            let (word, bit) = (u / 64, 1u64 << (u % 64));
            self.state_nodes[old * self.row_words + word] &= !bit;
            self.state_nodes[new * self.row_words + word] |= bit;
            self.pop.set_state(u, StateId::new(new as u16));
        }
        old != new
    }

    /// Recomputes the membership of every pair incident to `u`: only the
    /// XOR diff of its desired row against its current row touches the
    /// set (`O(n·|Q|/64 + degree + changes)`).
    fn rescan(&mut self, u: usize) {
        let mut desired = std::mem::take(&mut self.scratch);
        self.desired_row(u, &mut desired);
        self.apply_row(u, &desired);
        self.scratch = desired;
    }

    /// Applies a desired-membership row for node `u`: only the XOR diff
    /// against the current row touches the set, in increasing-`v` order.
    fn apply_row(&mut self, u: usize, desired: &[u64]) {
        for (k, &want) in desired.iter().enumerate() {
            let mut changed = want ^ self.pairs.row_bits(u)[k];
            while changed != 0 {
                let b = changed.trailing_zeros() as usize;
                changed &= changed - 1;
                self.pairs.set(u, k * 64 + b, want >> b & 1 == 1);
            }
        }
    }

    /// Writes into `out` the membership row node `u` should have: bit `w`
    /// set ⇔ `{u, w}` can be effective and `w` is present.
    ///
    /// It is *word-parallel*: the OR of the node bitsets of the states
    /// named by the set off-link bits of `u`'s effect row (edge-blind —
    /// absent nodes are in none of them), patched for the O(degree)
    /// active neighbours with the edge-on relation.
    fn desired_row(&self, u: usize, out: &mut [u64]) {
        let table = self.machine.effect_table();
        let iu = self.pop.state(u).index();
        let wpr = self.row_words;
        out.fill(0);
        for (k, &word) in table.affect_row(iu).iter().enumerate() {
            // Bit `s·2` of the row is `can_affect(iu, s, Off)`.
            let mut off = word & 0x5555_5555_5555_5555;
            while off != 0 {
                let s = k * 32 + off.trailing_zeros() as usize / 2;
                off &= off - 1;
                for (d, &w) in out.iter_mut().zip(&self.state_nodes[s * wpr..(s + 1) * wpr]) {
                    *d |= w;
                }
            }
        }
        for w in self.pop.edges().neighbors(u) {
            if table.can_affect(iu, self.pop.state(w).index(), Link::On) {
                out[w / 64] |= 1u64 << (w % 64);
            } else {
                out[w / 64] &= !(1u64 << (w % 64));
            }
        }
        out[u / 64] &= !(1u64 << (u % 64));
    }
}

/// Brute-force checks of the candidate set shared by the dense engines'
/// unit tests.
#[cfg(test)]
pub(crate) mod index_check {
    use super::DenseCore;
    use crate::{CompiledTable, EnumerableMachine, Link, Population, ProtocolBuilder, StateId};

    /// A 100-state ring table on 300 nodes, three per state: its effect
    /// rows span four words, so [`DenseCore`](super::DenseCore)'s rescan
    /// reads states past the first word's 32.
    pub(crate) fn many_states() -> (CompiledTable, Population<StateId>) {
        let mut b = ProtocolBuilder::new("many-states");
        let ids: Vec<_> = (0..100).map(|i| b.state(format!("s{i}"))).collect();
        for i in 0..100 {
            b.rule(
                (ids[i], ids[(i + 1) % 100], Link::Off),
                (ids[(i + 2) % 100], ids[(i + 3) % 100], Link::On),
            );
        }
        let mut pop = Population::new(300, ids[0]);
        for u in 0..300 {
            pop.set_state(u, ids[u % 100]);
        }
        (b.build().expect("valid").compile(), pop)
    }

    /// Asserts that the core's effective set holds exactly the pairs
    /// `can_affect` accepts, recomputed over all `n(n−1)/2` pairs.
    pub(crate) fn assert_exact<M: EnumerableMachine>(core: &DenseCore<M>) {
        let (machine, pop, pairs) = (&core.machine, &core.pop, &core.pairs);
        let mut expected = 0;
        for u in 0..pop.n() {
            for v in u + 1..pop.n() {
                let link = Link::from(pop.edges().is_active(u, v));
                let eff = machine.can_affect(pop.state(u), pop.state(v), link);
                assert_eq!(pairs.contains(u, v), eff, "pair ({u}, {v})");
                expected += usize::from(eff);
            }
        }
        assert_eq!(pairs.len(), expected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_set_insert_remove_sample() {
        let mut s = PairSet::new(6);
        assert!(s.is_empty());
        s.set(4, 1, true);
        s.set(2, 3, true);
        s.set(1, 4, true); // duplicate (order-insensitive): no-op
        assert_eq!(s.len(), 2);
        assert!(s.contains(1, 4) && s.contains(3, 2));
        let mut all: Vec<_> = s.iter().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(1, 4), (2, 3)]);
        s.set(1, 4, false);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(4, 1));
        assert_eq!(s.get(0), (2, 3));
        s.set(2, 3, false);
        s.set(2, 3, false); // removing an absent pair is a no-op
        assert!(s.is_empty());
    }

    #[test]
    fn pair_set_swap_remove_keeps_positions_consistent() {
        let mut s = PairSet::new(8);
        for u in 0..8 {
            for v in (u + 1)..8 {
                s.set(u, v, true);
            }
        }
        assert_eq!(s.len(), 28);
        // Remove half the pairs in an arbitrary order and verify the
        // remaining memberships survive all the swap-removes.
        for u in 0..8 {
            for v in (u + 1)..8 {
                if (u + v) % 2 == 0 {
                    s.set(u, v, false);
                }
            }
        }
        for u in 0..8 {
            for v in (u + 1)..8 {
                assert_eq!(s.contains(u, v), (u + v) % 2 == 1, "pair ({u},{v})");
            }
        }
        let from_iter: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(from_iter.len(), s.len());
    }

    #[test]
    fn pair_set_clear_empties_everything() {
        let mut s = PairSet::new(9);
        for u in 0..9 {
            for v in (u + 1)..9 {
                if (u * v) % 3 == 0 {
                    s.set(u, v, true);
                }
            }
        }
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        for u in 0..9 {
            for v in 0..9 {
                if u != v {
                    assert!(!s.contains(u, v), "({u},{v}) survived clear");
                }
            }
        }
        assert!(s.row_bits(4).iter().all(|&w| w == 0));
        // The set is fully reusable after a clear.
        s.set(2, 7, true);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), (2, 7));
    }

    /// Exact negative-hypergeometric survival by draw-by-draw rationals.
    fn nh_survival_exact(remaining: u64, hits: u64, t: u64) -> f64 {
        let misses = remaining - hits;
        if t > misses {
            return 0.0;
        }
        (0..t)
            .map(|i| (misses - i) as f64 / (remaining - i) as f64)
            .product()
    }

    #[test]
    fn hypergeometric_skip_brackets_the_survival_function() {
        // skip = t ⇔ S(t) ≥ u > S(t+1), for both the walk regime (dense
        // hits) and the bisection regime (sparse hits).
        for &(r, k) in &[(10u64, 1u64), (10, 5), (10, 9), (400, 2), (400, 300), (5000, 3)] {
            for i in 0..200u64 {
                let u = (i as f64 + 0.5) / 200.0;
                let t = hypergeometric_skip(u, r, k);
                assert!(t <= r - k);
                let hi = nh_survival_exact(r, k, t);
                let lo = nh_survival_exact(r, k, t + 1);
                assert!(
                    u <= hi * (1.0 + 1e-9) && u > lo * (1.0 - 1e-9),
                    "r={r} k={k} u={u}: skip {t} outside bracket ({lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn hypergeometric_skip_edge_cases() {
        // All pairs are candidates: never skip.
        assert_eq!(hypergeometric_skip(0.3, 7, 7), 0);
        // u = 1 maps to zero skips (the geometric convention).
        assert_eq!(hypergeometric_skip(1.0, 100, 1), 0);
        // One candidate among many, u tiny: the round exhausts its misses
        // and the skip count saturates at remaining − hits.
        assert_eq!(hypergeometric_skip(1e-300, 50, 1), 49);
        // Two remaining, one candidate: S(1) = 1/2 splits the unit draw.
        assert_eq!(hypergeometric_skip(0.6, 2, 1), 0);
        assert_eq!(hypergeometric_skip(0.4, 2, 1), 1);
    }

    /// The rounded product the exact code compares with its draw when it
    /// decides whether to skip past `t`: the walk's `t`-factor product
    /// below the cap, the search's `hits`-factor product from it on.
    fn exact_threshold(remaining: u64, hits: u64, t: u64, walk_cap: u64) -> f64 {
        let misses = remaining - hits;
        if t < walk_cap {
            (0..t).fold(1.0, |s, i| {
                s * ((misses - i) as f64 / (remaining - i) as f64)
            })
        } else {
            (0..hits).fold(1.0, |s, j| {
                s * ((remaining - t - j) as f64 / (remaining - j) as f64)
            })
        }
    }

    /// `(remaining, hits)` where the certified path runs: the walk and the
    /// search at the matching-100k engine's ~5·10⁹ pairs per round, a
    /// round of `RoundSim` at n = 512, and the walk past 2⁵³.
    const CERTIFIED_REGIMES: [(u64, u64); 6] = [
        (4_800_000_000, 24_000),
        (4_900_000_000, 5_000_000),
        (4_900_000_000, 5000),
        (130_816, 300),
        (60_000, 40),
        (EXACT_F64 + 12_345, 9_000_000_000_000),
    ];

    #[test]
    fn certified_skip_declines_at_the_exact_jump_draws() {
        // At the exact code's own threshold Ŝ(t + 1), and one ulp above
        // it, no error bound can separate the draw from the threshold: a
        // sound bound must fall back to the exact code there.
        for (r, k) in CERTIFIED_REGIMES {
            let (expect, cap) = skip_plan(r, k);
            for i in 1..16 {
                let t = exact_skip(f64::from(i) / 16.0, r, k, cap);
                let s = exact_threshold(r, k, t + 1, cap);
                for u in [s, s.next_up()] {
                    assert_eq!(
                        certified_skip(u, r, k, expect, cap),
                        None,
                        "u={u:e} remaining={r} hits={k} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn certified_skip_answers_most_draws_exactly() {
        for (r, k) in CERTIFIED_REGIMES {
            let (expect, cap) = skip_plan(r, k);
            let mut answered = 0;
            for i in 0..200 {
                let u = (f64::from(i) + 0.5) / 200.0;
                if let Some(t) = certified_skip(u, r, k, expect, cap) {
                    assert_eq!(
                        t,
                        exact_skip(u, r, k, cap),
                        "u={u:e} remaining={r} hits={k}"
                    );
                    answered += 1;
                }
            }
            assert!(
                answered >= 190,
                "remaining={r} hits={k}: {answered}/200 certified"
            );
        }
        // Too few expected skips, and a bound wider than the gap between
        // consecutive survival values: the exact code answers.
        let (expect, cap) = skip_plan(10_000, 500);
        assert_eq!(certified_skip(0.5, 10_000, 500, expect, cap), None);
        let (expect, cap) = skip_plan(3_541_621_206, 1);
        assert_eq!(certified_skip(0.5, 3_541_621_206, 1, expect, cap), None);
    }

    /// Exact hypergeometric pmf via factorial ratios (small inputs).
    fn hg_pmf_exact(marked: u64, total: u64, draws: u64, x: u64) -> f64 {
        fn choose(n: u64, k: u64) -> f64 {
            if k > n {
                return 0.0;
            }
            (0..k).map(|i| (n - i) as f64 / (k - i) as f64).product()
        }
        choose(marked, x) * choose(total - marked, draws - x) / choose(total, draws)
    }

    #[test]
    fn hypergeometric_count_inverts_the_cdf() {
        for &(marked, total, draws) in
            &[(3u64, 10u64, 4u64), (5, 12, 7), (1, 6, 5), (6, 9, 8), (4, 8, 4)]
        {
            for i in 0..400u64 {
                let u = (i as f64 + 0.5) / 400.0;
                let x = hypergeometric_count(u, marked, total, draws);
                // x is the smallest value with CDF(x) ≥ u.
                let cdf = |y: u64| -> f64 {
                    (0..=y).map(|j| hg_pmf_exact(marked, total, draws, j)).sum()
                };
                assert!(
                    cdf(x) >= u * (1.0 - 1e-9),
                    "m={marked} t={total} d={draws} u={u}: CDF({x}) too small"
                );
                if x > draws.saturating_sub(total - marked) {
                    assert!(
                        cdf(x - 1) < u * (1.0 + 1e-9),
                        "m={marked} t={total} d={draws} u={u}: {x} not minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn hypergeometric_count_degenerate_ranges() {
        // Everything must be drawn from the marked side.
        assert_eq!(hypergeometric_count(0.5, 4, 4, 3), 3);
        // No marked items at all.
        assert_eq!(hypergeometric_count(0.5, 0, 9, 4), 0);
        // Drawing the whole population takes every marked item.
        assert_eq!(hypergeometric_count(0.5, 3, 7, 7), 3);
        // draws > unmarked forces a lower bound above zero.
        assert_eq!(hypergeometric_count(1e-12, 5, 8, 6), 3);
    }

    /// The windowed large-parameter splitter delegates exactly on small
    /// ranges and lands inside the correct CDF bracket on huge ones.
    #[test]
    fn hypergeometric_count_large_matches_the_law() {
        // Small ranges: bit-identical delegation.
        for &(m, t, d) in &[(5u64, 12u64, 7u64), (300, 1000, 400), (2000, 9000, 3000)] {
            for i in 0..50u64 {
                let u = (i as f64 + 0.5) / 50.0;
                assert_eq!(
                    hypergeometric_count_large(u, m, t, d),
                    hypergeometric_count(u, m, t, d)
                );
            }
        }
        // Huge parameters: the result must bracket u in the normalized
        // window CDF (checked via the same mode-pinned recurrence).
        let (m, t, d) = (40_000_000u64, 100_000_000u64, 25_000_000u64);
        let mean = d as f64 * m as f64 / t as f64;
        let sigma = (d as f64 * 0.4 * 0.6 * ((t - d) as f64 / (t - 1) as f64)).sqrt();
        for i in 0..40u64 {
            let u = (i as f64 + 0.5) / 40.0;
            let x = hypergeometric_count_large(u, m, t, d) as f64;
            assert!(
                (x - mean).abs() < 8.0 * sigma,
                "u={u}: {x} implausibly far from mean {mean} (σ={sigma})"
            );
        }
        // Monotone in u (a CDF inversion must be).
        let mut prev = 0;
        for i in 0..200u64 {
            let u = (i as f64 + 0.5) / 200.0;
            let x = hypergeometric_count_large(u, m, t, d);
            assert!(x >= prev, "inversion not monotone at u={u}");
            prev = x;
        }
    }

    #[test]
    fn bookkeeping_records_and_reports() {
        let mut b = Bookkeeping {
            steps: 10,
            ..Bookkeeping::default()
        };
        b.record_effective(false);
        assert_eq!((b.effective_steps, b.last_effective, b.edge_events), (1, 10, 0));
        b.steps = 17;
        b.record_effective(true);
        assert_eq!((b.edge_events, b.last_output_change, b.last_effective), (1, 17, 17));
        assert_eq!(
            b.stabilized_now(),
            RunOutcome::Stabilized {
                detected_at: 17,
                converged_at: 17,
                last_effective: 17
            }
        );
    }
}
