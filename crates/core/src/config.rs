//! Engine configuration.

use pai_common::{PaiError, Result};
use pai_index::AdaptConfig;

use crate::policy::SelectionPolicy;

/// Extra adaptation after the accuracy constraint is met.
///
/// The paper's future work proposes "enabling more index adaptation even if
/// the accuracy constraints have been satisfied" to avoid the late-phase
/// crossover where the exact method overtakes the approximate ones. This
/// knob implements that: after meeting `φ`, keep processing up to
/// `extra_tiles` more candidates per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EagerRefinement {
    /// Stop as soon as the constraint is met (the paper's evaluated method).
    #[default]
    Off,
    /// Process up to this many additional tiles after meeting `φ`.
    ExtraTiles(usize),
}

/// Full configuration of the approximate engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Shared adaptation machinery (split/read/enrich policies, thresholds).
    pub adapt: AdaptConfig,
    /// Tile-selection policy (paper: score greedy with α = 1).
    pub policy: SelectionPolicy,
    /// Post-constraint adaptation (paper future work; default off).
    pub eager: EagerRefinement,
    /// Candidate tiles planned and fetched together per adaptation
    /// iteration. `1` (the default) reproduces the sequential
    /// tile-at-a-time loop byte-for-byte; larger batches coalesce many
    /// tiles' locators into one `read_rows` call (fewer syscalls,
    /// cross-tile run coalescing on binary backends) while the apply stage
    /// still re-checks the accuracy stop rule after every tile, so answers
    /// and confidence intervals are identical to the sequential loop.
    pub adapt_batch: usize,
    /// Overlap the fetch and apply stages: with `> 1`, a batch's fetch
    /// units (one coalesced call per distinct attribute set) are issued by
    /// a producer thread and streamed into the apply stage as they
    /// complete, so decode/apply of early units runs while later fetches
    /// are still in flight. Fetch units are issued in exactly the order the
    /// sequential path issues them and plans still apply in pick order with
    /// the stop rule re-checked per tile, so answers, CIs, trajectories,
    /// and every logical meter are identical at any worker count. `1` (the
    /// default) is the strictly sequential fetch-then-apply path.
    pub fetch_workers: usize,
    /// Block synopses as a second zero-I/O tier: when the tile index's own
    /// metadata answer misses φ, and before any fetch is planned, try to
    /// answer the accuracy-constrained query from the backend's per-block
    /// synopses (`RawFile::block_synopses`). When the synopsis confidence
    /// interval meets φ the query returns with **zero data I/O**
    /// (`fetch_wall_us == 0`, `synopsis_hits` metered); otherwise
    /// evaluation proceeds unchanged. A query the index answers from
    /// metadata never consults them. Either way the synopses seed global
    /// attribute bounds for a `MetadataPolicy::None` cold start. `false`
    /// (the default) preserves the historical data-first path
    /// byte-for-byte.
    pub synopsis: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            adapt: AdaptConfig::default(),
            policy: SelectionPolicy::default(),
            eager: EagerRefinement::Off,
            adapt_batch: 1,
            fetch_workers: 1,
            synopsis: false,
        }
    }
}

impl EngineConfig {
    /// The configuration used in the paper's evaluation: α = 1 (score is
    /// the tile-confidence-interval width only), midpoint estimates,
    /// window-only reads, query-aligned splits.
    pub fn paper_evaluation() -> Self {
        EngineConfig {
            policy: SelectionPolicy::ScoreGreedy { alpha: 1.0 },
            ..Default::default()
        }
    }

    /// This config with the block-synopsis tier switched on.
    pub fn with_synopsis(mut self) -> Self {
        self.synopsis = true;
        self
    }

    /// Validates every nested knob.
    pub fn validate(&self) -> Result<()> {
        self.adapt.validate()?;
        self.policy.validate()?;
        if let EagerRefinement::ExtraTiles(0) = self.eager {
            return Err(PaiError::config(
                "EagerRefinement::ExtraTiles(0) is EagerRefinement::Off; pick one",
            ));
        }
        if self.adapt_batch == 0 {
            return Err(PaiError::config(
                "adapt_batch must be >= 1 (1 = sequential tile-at-a-time)",
            ));
        }
        if self.fetch_workers == 0 {
            return Err(PaiError::config(
                "fetch_workers must be >= 1 (1 = sequential fetch-then-apply)",
            ));
        }
        Ok(())
    }
}

/// Validates a user accuracy constraint φ (a relative error, so a small
/// non-negative number; φ = 0 demands exact answering).
pub fn validate_phi(phi: f64) -> Result<()> {
    if !phi.is_finite() || phi < 0.0 {
        return Err(PaiError::config(format!(
            "accuracy constraint must be a finite value >= 0, got {phi}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_valid() {
        assert!(EngineConfig::default().validate().is_ok());
        assert!(EngineConfig::paper_evaluation().validate().is_ok());
    }

    #[test]
    fn zero_batch_and_parallelism_rejected() {
        let cfg = EngineConfig {
            adapt_batch: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = EngineConfig {
            fetch_workers: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = EngineConfig {
            adapt_batch: 8,
            fetch_workers: 8,
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_eager_tiles_rejected() {
        let cfg = EngineConfig {
            eager: EagerRefinement::ExtraTiles(0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn phi_validation() {
        assert!(validate_phi(0.0).is_ok());
        assert!(validate_phi(0.05).is_ok());
        assert!(validate_phi(-0.1).is_err());
        assert!(validate_phi(f64::NAN).is_err());
        assert!(validate_phi(f64::INFINITY).is_err());
    }
}
