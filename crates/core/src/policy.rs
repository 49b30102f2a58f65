//! Tile-selection policies (§3.1, "Processing Partially Contained Tiles").
//!
//! The paper scores each candidate tile as
//! `s(t) = α·ŵ(t) + (1−α)/ĉ(t)` with `ŵ` (tile-CI width) and `ĉ`
//! (`count(t∩Q)`, the processing-cost proxy) normalized to `[0, 1]`, then
//! processes tiles in descending score order until the constraint is met.
//! As written the inverse-count term is unbounded for tiny counts, so we
//! normalize it onto `[0, 1]` too (`c_min/c(t)`); for the paper's evaluated
//! setting α = 1 the two readings coincide.
//!
//! Besides the paper's policy we ship ablation baselines: pure
//! benefit/cost greedy, random order, and the α-extremes.

use pai_common::{PaiError, Result};

/// A candidate as seen by a policy: its current interval width (already
/// reduced over the query's aggregates), its cost proxy, and whether it is
/// unbounded (no metadata at all — always top priority).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateView {
    /// Width of the tile's contribution interval (∞ when unbounded).
    pub width: f64,
    /// `count(t∩Q)` — the paper's processing-cost proxy.
    pub selected: u64,
    /// The real I/O cost of processing: objects that would be read
    /// (selected for window-only reads, whole tile for full reads).
    pub cost: u64,
}

/// Strategy choosing which candidate tile to process next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionPolicy {
    /// The paper's score `s(t) = α·ŵ(t) + (1−α)·(ĉ_min/ĉ(t))`.
    /// `α = 1` (width only) is the paper's evaluated configuration.
    ScoreGreedy { alpha: f64 },
    /// Maximize width-per-cost `w(t)/cost(t)` — a knapsack-style greedy
    /// that explicitly prices the I/O of processing a tile.
    CostBenefit,
    /// Deterministic pseudo-random order (ablation floor).
    Random { seed: u64 },
}

impl Default for SelectionPolicy {
    fn default() -> Self {
        // The paper's evaluation sets α = 1.
        SelectionPolicy::ScoreGreedy { alpha: 1.0 }
    }
}

impl SelectionPolicy {
    pub fn validate(&self) -> Result<()> {
        if let SelectionPolicy::ScoreGreedy { alpha } = self {
            if !(0.0..=1.0).contains(alpha) || alpha.is_nan() {
                return Err(PaiError::config(format!(
                    "score alpha must lie in [0, 1], got {alpha}"
                )));
            }
        }
        Ok(())
    }

    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            SelectionPolicy::ScoreGreedy { alpha } => format!("score(alpha={alpha})"),
            SelectionPolicy::CostBenefit => "cost-benefit".into(),
            SelectionPolicy::Random { .. } => "random".into(),
        }
    }

    /// Picks the index of the candidate to process next. `step` is the
    /// number of tiles already processed for this query (for deterministic
    /// randomness).
    ///
    /// # Panics
    /// Panics on an empty candidate slice — the engine never asks then.
    fn pick(&self, candidates: &[CandidateView], step: usize) -> usize {
        assert!(!candidates.is_empty(), "policy asked to pick from nothing");
        // Unbounded candidates block any finite error bound: handle first.
        if let Some(i) = candidates.iter().position(|c| c.width.is_infinite()) {
            return i;
        }
        match *self {
            SelectionPolicy::ScoreGreedy { alpha } => {
                let w_max = candidates.iter().map(|c| c.width).fold(0.0f64, f64::max);
                let c_min = candidates
                    .iter()
                    .map(|c| c.selected.max(1))
                    .min()
                    .expect("nonempty");
                argmax(candidates.iter().map(|c| {
                    let w_norm = if w_max > 0.0 { c.width / w_max } else { 0.0 };
                    let inv_cost = c_min as f64 / c.selected.max(1) as f64;
                    alpha * w_norm + (1.0 - alpha) * inv_cost
                }))
            }
            SelectionPolicy::CostBenefit => {
                argmax(candidates.iter().map(|c| c.width / c.cost.max(1) as f64))
            }
            SelectionPolicy::Random { seed } => {
                (splitmix64(seed ^ (step as u64).wrapping_mul(0x9E3779B97F4A7C15))
                    % candidates.len() as u64) as usize
            }
        }
    }
}

impl SelectionPolicy {
    /// Picks up to `k` of `n` candidates in **sequential processing
    /// order**: the batch is exactly the prefix the one-at-a-time loop
    /// would have processed, so a batched engine that applies the picks in
    /// order (re-checking its stop rule after each) reproduces the
    /// sequential trajectory.
    ///
    /// Because processing a tile changes the relative scores of the
    /// remaining candidates (score normalization is computed over the
    /// still-open set), the caller supplies `views_for`, which builds the
    /// policy views for any subset of candidates — `alive` holds original
    /// candidate indices, in the same swap-remove order the engine's state
    /// uses, so deterministic policies (e.g. [`SelectionPolicy::Random`])
    /// see exactly the slices the sequential loop would have seen.
    pub fn pick_batch(
        &self,
        n: usize,
        step: usize,
        k: usize,
        mut views_for: impl FnMut(&[usize]) -> Vec<CandidateView>,
    ) -> Vec<usize> {
        let mut alive: Vec<usize> = (0..n).collect();
        let mut out = Vec::with_capacity(k.min(n));
        let mut step = step;
        while out.len() < k && !alive.is_empty() {
            let views = views_for(&alive);
            debug_assert_eq!(views.len(), alive.len());
            let i = self.pick(&views, step);
            out.push(alive[i]);
            alive.swap_remove(i);
            step += 1;
        }
        out
    }
}

fn argmax(scores: impl Iterator<Item = f64>) -> usize {
    let mut best = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (i, s) in scores.enumerate() {
        if s > best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

/// SplitMix64 — tiny, deterministic, good-enough mixing for the random
/// baseline (no `rand` dependency needed here).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(specs: &[(f64, u64)]) -> Vec<CandidateView> {
        specs
            .iter()
            .map(|&(width, selected)| CandidateView {
                width,
                selected,
                cost: selected,
            })
            .collect()
    }

    #[test]
    fn validation() {
        assert!(SelectionPolicy::ScoreGreedy { alpha: 0.5 }
            .validate()
            .is_ok());
        assert!(SelectionPolicy::ScoreGreedy { alpha: -0.1 }
            .validate()
            .is_err());
        assert!(SelectionPolicy::ScoreGreedy { alpha: 1.1 }
            .validate()
            .is_err());
        assert!(SelectionPolicy::ScoreGreedy { alpha: f64::NAN }
            .validate()
            .is_err());
        assert!(SelectionPolicy::CostBenefit.validate().is_ok());
    }

    #[test]
    fn alpha_one_picks_widest() {
        let p = SelectionPolicy::ScoreGreedy { alpha: 1.0 };
        let cands = views(&[(5.0, 100), (20.0, 1000), (1.0, 1)]);
        assert_eq!(p.pick(&cands, 0), 1);
    }

    #[test]
    fn alpha_zero_picks_cheapest() {
        let p = SelectionPolicy::ScoreGreedy { alpha: 0.0 };
        let cands = views(&[(5.0, 100), (20.0, 1000), (1.0, 3)]);
        assert_eq!(p.pick(&cands, 0), 2);
    }

    #[test]
    fn blended_alpha_trades_off() {
        // Candidate 0: widest but expensive. Candidate 1: cheap but narrow.
        let cands = views(&[(10.0, 1000), (6.0, 10)]);
        assert_eq!(
            SelectionPolicy::ScoreGreedy { alpha: 1.0 }.pick(&cands, 0),
            0
        );
        assert_eq!(
            SelectionPolicy::ScoreGreedy { alpha: 0.0 }.pick(&cands, 0),
            1
        );
        // Mid alpha: candidate 1 scores 0.5*0.6 + 0.5*1.0 = 0.8 vs
        // candidate 0: 0.5*1.0 + 0.5*0.01 = 0.505.
        assert_eq!(
            SelectionPolicy::ScoreGreedy { alpha: 0.5 }.pick(&cands, 0),
            1
        );
    }

    #[test]
    fn unbounded_goes_first_in_every_policy() {
        let mut cands = views(&[(5.0, 10), (7.0, 20)]);
        cands.push(CandidateView {
            width: f64::INFINITY,
            selected: 9999,
            cost: 9999,
        });
        for p in [
            SelectionPolicy::ScoreGreedy { alpha: 1.0 },
            SelectionPolicy::CostBenefit,
            SelectionPolicy::Random { seed: 1 },
        ] {
            assert_eq!(p.pick(&cands, 0), 2, "{}", p.name());
        }
    }

    #[test]
    fn cost_benefit_ratio() {
        // widths/cost: 10/100=0.1 vs 5/10=0.5 vs 20/500=0.04.
        let cands = views(&[(10.0, 100), (5.0, 10), (20.0, 500)]);
        assert_eq!(SelectionPolicy::CostBenefit.pick(&cands, 0), 1);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let p = SelectionPolicy::Random { seed: 42 };
        let cands = views(&[(1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4)]);
        let picks: Vec<usize> = (0..10).map(|s| p.pick(&cands, s)).collect();
        let again: Vec<usize> = (0..10).map(|s| p.pick(&cands, s)).collect();
        assert_eq!(picks, again);
        assert!(picks.iter().all(|&i| i < 4));
        // Different steps shouldn't all collapse to one index.
        assert!(picks.iter().collect::<std::collections::HashSet<_>>().len() > 1);
    }

    #[test]
    fn zero_widths_fall_back_gracefully() {
        let p = SelectionPolicy::ScoreGreedy { alpha: 1.0 };
        let cands = views(&[(0.0, 10), (0.0, 5)]);
        // All scores equal(0); first index wins; must not panic or NaN.
        assert_eq!(p.pick(&cands, 0), 0);
    }

    #[test]
    #[should_panic(expected = "pick from nothing")]
    fn empty_candidates_panic() {
        SelectionPolicy::default().pick(&[], 0);
    }

    /// Simulates the engine's swap-remove bookkeeping for a candidate set
    /// whose views do not change as candidates are removed.
    fn static_views_for(all: &[CandidateView]) -> impl FnMut(&[usize]) -> Vec<CandidateView> + '_ {
        move |alive: &[usize]| alive.iter().map(|&i| all[i]).collect()
    }

    #[test]
    fn pick_batch_is_sequential_prefix() {
        let all = views(&[(5.0, 100), (20.0, 1000), (1.0, 1), (7.0, 10)]);
        for policy in [
            SelectionPolicy::ScoreGreedy { alpha: 1.0 },
            SelectionPolicy::ScoreGreedy { alpha: 0.5 },
            SelectionPolicy::CostBenefit,
            SelectionPolicy::Random { seed: 9 },
        ] {
            // Reference: run the sequential loop by hand.
            let mut alive: Vec<usize> = (0..all.len()).collect();
            let mut sequential = Vec::new();
            for step in 0..all.len() {
                let sub: Vec<CandidateView> = alive.iter().map(|&i| all[i]).collect();
                let i = policy.pick(&sub, step);
                sequential.push(alive[i]);
                alive.swap_remove(i);
            }
            for k in 1..=all.len() {
                let batch = policy.pick_batch(all.len(), 0, k, static_views_for(&all));
                assert_eq!(batch, sequential[..k], "{} k={k}", policy.name());
            }
        }
    }

    #[test]
    fn pick_batch_clamps_to_candidate_count() {
        let all = views(&[(5.0, 10), (2.0, 20)]);
        let p = SelectionPolicy::default();
        let batch = p.pick_batch(all.len(), 0, 99, static_views_for(&all));
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.iter().collect::<std::collections::HashSet<_>>().len(),
            2,
            "no duplicates"
        );
        assert!(p
            .pick_batch(0, 0, 4, |_alive| unreachable!("no candidates to view"))
            .is_empty());
    }
}
