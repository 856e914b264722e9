//! Interaction schedulers.
//!
//! The model's adversary picks one unordered pair of processes per step.
//! For running-time analysis the paper fixes the *uniform random
//! scheduler*, which picks each of the `n(n−1)/2` pairs independently and
//! uniformly (and is fair with probability 1). The deterministic
//! schedulers here are fair in the weaker "every pair infinitely often"
//! sense and are used to exercise protocol correctness under adversarial
//! but non-random interaction patterns.

use rand::{Rng, RngExt};

/// A source of pairwise interactions.
///
/// [`next_pair`](Scheduler::next_pair) is generic over the generator, so
/// the naive loop's per-draw pair choice is monomorphized against its
/// concrete `SmallRng` and inlined — no virtual call per draw. The price
/// is that the trait is not object-safe: schedulers are chosen by type
/// parameter (`Simulation<M, S>`), never as `dyn Scheduler`.
pub trait Scheduler {
    /// Returns the next interacting pair `(u, v)`, `u != v`, both `< n`.
    ///
    /// `rng` is the simulation's generator; deterministic schedulers
    /// ignore it.
    fn next_pair<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> (usize, usize);

    /// A display name for reports.
    fn name(&self) -> &'static str;
}

/// The uniform random scheduler (§3.1): every step selects one of the
/// `n(n−1)/2` pairs independently and uniformly at random.
///
/// # Example
///
/// ```
/// use netcon_core::{Scheduler, Uniform};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let (u, v) = Uniform.next_pair(10, &mut rng);
/// assert!(u != v && u < 10 && v < 10);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Scheduler for Uniform {
    #[inline]
    fn next_pair<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> (usize, usize) {
        debug_assert!(n >= 2, "interactions need at least two processes");
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n - 1);
        if v >= u {
            v += 1;
        }
        (u, v)
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// A deterministic fair scheduler that cycles through all pairs in
/// lexicographic order: `(0,1), (0,2), …, (n−2,n−1), (0,1), …`.
///
/// Every pair occurs once per `n(n−1)/2` steps, so every pair occurs
/// infinitely often. Note this is *weak* fairness: it does not satisfy the
/// paper's configuration-based fairness condition in general, but it is a
/// legitimate adversary for protocols whose correctness argument only
/// needs every pair to keep interacting.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: Option<(usize, usize)>,
}

impl RoundRobin {
    /// Creates the scheduler, starting from pair `(0, 1)`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn next_pair<R: Rng + ?Sized>(&mut self, n: usize, _rng: &mut R) -> (usize, usize) {
        debug_assert!(n >= 2, "interactions need at least two processes");
        let (u, v) = match self.next {
            Some(p) if p.1 < n => p,
            _ => (0, 1),
        };
        // Advance lexicographically.
        self.next = Some(if v + 1 < n {
            (u, v + 1)
        } else if u + 2 < n {
            (u + 1, u + 2)
        } else {
            (0, 1)
        });
        (u, v)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// A fair randomized scheduler that plays every pair exactly once per
/// round, in a fresh random order each round (a random-permutation "box"
/// schedule).
///
/// Compared with [`Uniform`] it removes the coupon-collector slack inside
/// a round while keeping long-run statistics uniform, which makes it a
/// useful robustness check: a protocol whose correctness silently relied
/// on the uniform scheduler's independence tends to misbehave here.
///
/// For measurement (rather than adversarial stepping), prefer
/// [`RoundSim`](crate::RoundSim): it reproduces this scheduler's output
/// distribution exactly — including round-denominated convergence
/// times — while skipping the ineffective bulk of every round.
#[derive(Debug, Clone, Default)]
pub struct ShuffledRounds {
    order: Vec<(u32, u32)>,
    pos: usize,
}

impl ShuffledRounds {
    /// Creates the scheduler; the first round is shuffled on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a round: (re)builds the pair list if `n` changed, then
    /// shuffles it — once per `n(n−1)/2` draws, so kept out of line.
    #[cold]
    #[inline(never)]
    fn start_round<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) {
        let m = n * (n - 1) / 2;
        if self.order.len() != m {
            self.order.clear();
            for u in 0..n {
                for v in (u + 1)..n {
                    self.order.push((u as u32, v as u32));
                }
            }
            self.pos = 0;
        }
        // Fisher–Yates over the whole round.
        for i in (1..m).rev() {
            let j = rng.random_range(0..=i);
            self.order.swap(i, j);
        }
    }
}

impl Scheduler for ShuffledRounds {
    #[inline]
    fn next_pair<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> (usize, usize) {
        debug_assert!(n >= 2, "interactions need at least two processes");
        let m = n * (n - 1) / 2;
        if self.pos == 0 || self.order.len() != m {
            self.start_round(n, rng);
        }
        let (u, v) = self.order[self.pos];
        self.pos += 1;
        if self.pos == m {
            self.pos = 0;
        }
        (u as usize, v as usize)
    }

    fn name(&self) -> &'static str {
        "shuffled-rounds"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn collect_pairs<S: Scheduler>(mut s: S, n: usize, steps: usize) -> Vec<(usize, usize)> {
        let mut rng = SmallRng::seed_from_u64(0);
        (0..steps).map(|_| s.next_pair(n, &mut rng)).collect()
    }

    #[test]
    fn uniform_pairs_are_valid_and_cover() {
        let pairs = collect_pairs(Uniform, 6, 2000);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in pairs {
            assert!(u != v && u < 6 && v < 6);
            seen.insert((u.min(v), u.max(v)));
        }
        assert_eq!(seen.len(), 15, "all pairs should occur in 2000 draws");
    }

    #[test]
    fn uniform_is_unbiased_over_pairs() {
        let n = 5;
        let m = 10;
        let mut counts = vec![0usize; m];
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = Uniform;
        let trials = 40_000;
        let es = netcon_graph::EdgeSet::new(n);
        for _ in 0..trials {
            let (u, v) = s.next_pair(n, &mut rng);
            counts[es.pair_index(u, v)] += 1;
        }
        let expect = trials as f64 / m as f64;
        for c in counts {
            assert!(
                (c as f64 - expect).abs() < 5.0 * expect.sqrt(),
                "pair count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn round_robin_covers_each_round() {
        let n = 5;
        let m = n * (n - 1) / 2;
        let pairs = collect_pairs(RoundRobin::new(), n, 2 * m);
        let first: std::collections::HashSet<_> = pairs[..m].iter().copied().collect();
        assert_eq!(first.len(), m);
        assert_eq!(&pairs[..m], &pairs[m..], "rounds repeat identically");
    }

    #[test]
    fn shuffled_rounds_cover_each_round() {
        let n = 6;
        let m = n * (n - 1) / 2;
        let pairs = collect_pairs(ShuffledRounds::new(), n, 3 * m);
        for round in pairs.chunks(m) {
            let distinct: std::collections::HashSet<_> = round.iter().copied().collect();
            assert_eq!(distinct.len(), m, "each round is a permutation of all pairs");
        }
    }

    #[test]
    fn round_robin_adapts_to_population_size() {
        // If n changes between calls the scheduler restarts cleanly.
        let mut s = RoundRobin::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = s.next_pair(10, &mut rng);
        let (u, v) = s.next_pair(2, &mut rng);
        assert!(u < 2 && v < 2 && u != v);
    }
}
