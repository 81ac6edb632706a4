//! Scale-out experiment points (DESIGN.md §14): the client-count ladder
//! behind fig. 3's scale table and the observatory study's overhead
//! gate, so both always run the same worlds.
//!
//! Each point runs the scAtteR C12 deployment with clients spread over
//! [`SCALE_SITES`] access sites and streaming per-client metrics, for a
//! short fixed horizon — long enough for the event mix to reach steady
//! state, short enough that the 100k-client point stays in CI budget.

use orchestra::PlacementSpec;
use scatter::config::{placements, RunConfig, ScaleConfig};
use scatter::Mode;
use simcore::SimDuration;

use crate::common::SEED;

/// Client counts of the standard scale ladder (ascending, so a single
/// process's `VmHWM` high-water mark read after each stage reflects
/// that stage's own peak).
pub const SCALE_CLIENTS: [usize; 3] = [1_000, 10_000, 100_000];

/// Access sites the clients round-robin over.
pub const SCALE_SITES: usize = 16;

/// Simulated seconds per scale point (plus [`SCALE_WARMUP_SECS`] of
/// warmup inside it).
pub const SCALE_SECS: u64 = 2;
pub const SCALE_WARMUP_SECS: u64 = 1;

/// The deployment every scale point runs: scAtteR on C12.
pub fn scale_placement() -> PlacementSpec {
    placements::c12()
}

/// Build the standard scale-point config for `clients`.
pub fn scale_cfg(clients: usize) -> RunConfig {
    RunConfig::new(Mode::Scatter, scale_placement(), clients)
        .with_duration(SimDuration::from_secs(SCALE_SECS))
        .with_warmup(SimDuration::from_secs(SCALE_WARMUP_SECS))
        .with_seed(SEED)
        .with_scale(ScaleConfig::new(SCALE_SITES))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ascending() {
        assert!(SCALE_CLIENTS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn scale_point_runs_and_streams() {
        let r = scatter::run_experiment(scale_cfg(200));
        let s = r.scale.as_ref().expect("scale points stream");
        assert_eq!(s.sites, SCALE_SITES);
        assert!(r.fps() > 0.0, "fps {}", r.fps());
        assert!(r.per_client_fps.is_empty(), "streaming keeps no vectors");
    }
}
