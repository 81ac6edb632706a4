//! The resilience control plane: failure detection knobs, the client's
//! response-deadline/retry policy, and the graceful-degradation ladder.
//!
//! The paper's two dominant failure modes are replica loss (§3.2's
//! detect-and-redeploy loop) and overload collapse (FPS falls off a
//! cliff past ~4 clients, §4). This module holds the *policy* for
//! surviving both, shared verbatim by the DES ([`crate::world`]) and
//! the real-UDP runtime ([`crate::runtime`]):
//!
//! - [`DetectionConfig`] tunes the heartbeat/φ-accrual failure detector
//!   ([`orchestra::FailureDetector`]) that drives automatic redeploy
//!   and sticky-flow rebinding;
//! - [`DeadlineConfig`] gives clients a bounded-retry policy for lost
//!   responses, so a crashed replica costs a detection window instead
//!   of a permanently stuck frame stream;
//! - [`LadderConfig`] + [`OverloadController`] turn the scalability
//!   cliff into a controlled quality/latency trade: full resolution →
//!   pyramid-downscaled frames → halved frame rate → admission-denied
//!   with an explicit NACK, stepped with hysteresis off the sidecar's
//!   backpressure signal.
//!
//! Everything here is pure state machines — no clocks, no RNG, no I/O —
//! so both planes stay exactly as deterministic as their drivers.

use std::sync::Once;

use simcore::SimDuration;

use crate::config::env_knob;

/// Failure-detection tuning (heartbeat cadence + suspicion threshold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Nominal heartbeat interval.
    pub hb_interval: SimDuration,
    /// Uniform jitter added to each heartbeat send (drawn from a
    /// dedicated RNG stream in the DES so runs stay bit-identical).
    pub hb_jitter: SimDuration,
    /// Suspect after `suspect_factor × expected interval` of silence.
    pub suspect_factor: f64,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            hb_interval: SimDuration::from_millis(50),
            hb_jitter: SimDuration::from_millis(5),
            suspect_factor: 3.0,
        }
    }
}

impl DetectionConfig {
    /// The detector-math view of this config.
    pub fn detector(&self) -> orchestra::DetectorConfig {
        orchestra::DetectorConfig {
            interval_ms: self.hb_interval.as_millis_f64(),
            suspect_factor: self.suspect_factor,
            alpha: 0.2,
        }
    }

    /// Apply the `SCATTER_HB_INTERVAL` / `SCATTER_HB_SUSPECT` env
    /// overrides (warn-once on invalid values, keep the defaults).
    pub fn from_env() -> Self {
        let mut cfg = DetectionConfig::default();
        if let Some(ms) = hb_interval_ms_env() {
            cfg.hb_interval = SimDuration::from_nanos((ms * 1e6) as u64);
        }
        if let Some(f) = hb_suspect_env() {
            cfg.suspect_factor = f;
        }
        cfg
    }
}

/// Heartbeat interval override in milliseconds: `SCATTER_HB_INTERVAL`.
/// Unparsable or non-positive values warn once on stderr and fall back
/// to the built-in default.
pub fn hb_interval_ms_env() -> Option<f64> {
    static WARN: Once = Once::new();
    env_knob(
        "SCATTER_HB_INTERVAL",
        &WARN,
        |&v: &f64| v > 0.0 && v.is_finite(),
        "positive milliseconds",
        "using default 50",
    )
}

/// Suspicion-threshold override in missed intervals: `SCATTER_HB_SUSPECT`.
/// Values must exceed 1.0 (suspecting within one nominal interval would
/// flap on ordinary jitter); invalid values warn once and are ignored.
pub fn hb_suspect_env() -> Option<f64> {
    static WARN: Once = Once::new();
    env_knob(
        "SCATTER_HB_SUSPECT",
        &WARN,
        |&v: &f64| v > 1.0 && v.is_finite(),
        "a factor > 1",
        "using default 3",
    )
}

/// Client-side response deadline + bounded retry with exponential
/// backoff. A frame whose result has not returned within `deadline` is
/// given up on (late arrivals are re-attributed, not double-counted)
/// and re-captured up to `max_retries` times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    /// How long the client waits for a frame's result.
    pub deadline: SimDuration,
    /// Re-emissions after the original attempt.
    pub max_retries: u32,
    /// Backoff before retry `k` is `backoff × 2^k`.
    pub backoff: SimDuration,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            deadline: SimDuration::from_millis(250),
            max_retries: 2,
            backoff: SimDuration::from_millis(40),
        }
    }
}

impl DeadlineConfig {
    /// Wait before re-emitting attempt `attempt` (1-based: the first
    /// retry is attempt 1).
    pub fn retry_delay(&self, attempt: u32) -> SimDuration {
        self.backoff * (1u64 << attempt.saturating_sub(1).min(16))
    }
}

/// The degradation ladder's rungs, mildest first.
pub const LADDER_FULL: u8 = 0;
/// Rung 1: the client sends pyramid-downscaled frames (half resolution
/// per side via [`vision`]'s pyramid; the payload and the GPU work both
/// shrink).
pub const LADDER_DOWNSCALE: u8 = 1;
/// Rung 2: downscaled *and* halved frame rate.
pub const LADDER_HALF_RATE: u8 = 2;
/// Rung 3: admission denied — the client gets an explicit NACK per
/// frame instead of silently losing it past the knee.
pub const LADDER_DENIED: u8 = 3;

/// Overload-controller tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderConfig {
    /// Controller tick period (backpressure sampling cadence).
    pub tick: SimDuration,
    /// Escalate while the backpressure signal sits above this.
    pub high_water_ms: f64,
    /// Relax only once it has fallen below this (hysteresis band).
    pub low_water_ms: f64,
    /// Consecutive over-water ticks required per escalation step.
    pub down_ticks: u32,
    /// Consecutive under-water ticks required per relax step (recovery
    /// is deliberately slower than degradation).
    pub up_ticks: u32,
    /// Payload multiplier at [`LADDER_DOWNSCALE`] and above (a half-res
    /// pyramid level carries ≈ a quarter of the pixels plus headers).
    pub downscale_payload: f64,
    /// Service-time multiplier for downscaled frames.
    pub downscale_compute: f64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            tick: SimDuration::from_millis(100),
            high_water_ms: 60.0,
            low_water_ms: 25.0,
            down_ticks: 2,
            up_ticks: 12,
            downscale_payload: 0.35,
            downscale_compute: 0.55,
        }
    }
}

/// One applied ladder transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderStep {
    pub client: usize,
    pub level: u8,
}

/// The overload controller: per-client ladder levels stepped off a
/// scalar backpressure signal (the worst sidecar's projected wait) with
/// hysteresis. Pure and deterministic — escalation spreads the mildest
/// rung across clients (highest id first) before anyone is pushed
/// deeper, and relaxation unwinds in exactly the reverse order.
#[derive(Debug, Clone)]
pub struct OverloadController {
    cfg: LadderConfig,
    levels: Vec<u8>,
    over: u32,
    under: u32,
    /// Total applied transitions (both directions).
    pub steps: u64,
    /// Deepest rung ever reached.
    pub max_level_seen: u8,
}

impl OverloadController {
    pub fn new(cfg: LadderConfig, clients: usize) -> Self {
        OverloadController {
            cfg,
            levels: vec![LADDER_FULL; clients],
            over: 0,
            under: 0,
            steps: 0,
            max_level_seen: LADDER_FULL,
        }
    }

    pub fn config(&self) -> &LadderConfig {
        &self.cfg
    }

    /// Current rung for `client`.
    pub fn level(&self, client: usize) -> u8 {
        self.levels.get(client).copied().unwrap_or(LADDER_FULL)
    }

    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Feed one backpressure sample; returns the transitions applied
    /// this tick (empty almost always — hysteresis).
    pub fn tick(&mut self, backpressure_ms: f64) -> Vec<LadderStep> {
        let mut out = Vec::new();
        if backpressure_ms > self.cfg.high_water_ms {
            self.under = 0;
            self.over += 1;
            if self.over >= self.cfg.down_ticks {
                self.over = 0;
                // The further past the high-water mark, the more steps
                // at once: a collapsing queue must not wait N ticks for
                // N clients to degrade one by one.
                let n = ((backpressure_ms / self.cfg.high_water_ms) as usize)
                    .clamp(1, self.levels.len().max(1));
                for _ in 0..n {
                    match self.escalate() {
                        Some(step) => out.push(step),
                        None => break,
                    }
                }
            }
        } else if backpressure_ms < self.cfg.low_water_ms {
            self.over = 0;
            self.under += 1;
            if self.under >= self.cfg.up_ticks {
                self.under = 0;
                if let Some(step) = self.relax() {
                    out.push(step);
                }
            }
        } else {
            // In the deadband: hold position.
            self.over = 0;
            self.under = 0;
        }
        out
    }

    /// Push the least-degraded client (ties: highest id) one rung down.
    fn escalate(&mut self) -> Option<LadderStep> {
        let (client, &lvl) = self
            .levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l < LADDER_DENIED)
            .min_by_key(|&(i, &l)| (l, std::cmp::Reverse(i)))?;
        self.levels[client] = lvl + 1;
        self.steps += 1;
        self.max_level_seen = self.max_level_seen.max(lvl + 1);
        Some(LadderStep {
            client,
            level: lvl + 1,
        })
    }

    /// Pull the most-degraded client (ties: highest id — the inverse of
    /// [`Self::escalate`]) one rung back up.
    fn relax(&mut self) -> Option<LadderStep> {
        let (client, &lvl) = self
            .levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > LADDER_FULL)
            .max_by_key(|&(i, &l)| (l, i))?;
        self.levels[client] = lvl - 1;
        self.steps += 1;
        Some(LadderStep {
            client,
            level: lvl - 1,
        })
    }

    /// Emission period multiplier for a client at its current rung.
    pub fn period_factor(&self, client: usize) -> u64 {
        if self.level(client) >= LADDER_HALF_RATE {
            2
        } else {
            1
        }
    }
}

/// The whole plane's configuration; `None` fields disable that leg, and
/// the all-`None` default is byte-identical to a pre-resilience run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceConfig {
    pub detection: Option<DetectionConfig>,
    pub deadline: Option<DeadlineConfig>,
    pub ladder: Option<LadderConfig>,
}

impl ResilienceConfig {
    pub fn enabled(&self) -> bool {
        self.detection.is_some() || self.deadline.is_some() || self.ladder.is_some()
    }

    pub fn with_detection(mut self, d: DetectionConfig) -> Self {
        self.detection = Some(d);
        self
    }

    pub fn with_deadline(mut self, d: DeadlineConfig) -> Self {
        self.deadline = Some(d);
        self
    }

    pub fn with_ladder(mut self, l: LadderConfig) -> Self {
        self.ladder = Some(l);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> LadderConfig {
        LadderConfig {
            tick: SimDuration::from_millis(100),
            high_water_ms: 60.0,
            low_water_ms: 25.0,
            down_ticks: 2,
            up_ticks: 3,
            downscale_payload: 0.35,
            downscale_compute: 0.55,
        }
    }

    #[test]
    fn hysteresis_requires_consecutive_ticks() {
        let mut c = OverloadController::new(ladder(), 2);
        assert!(c.tick(100.0).is_empty(), "one over tick is not enough");
        assert!(c.tick(40.0).is_empty(), "deadband resets the counter");
        assert!(c.tick(100.0).is_empty());
        let steps = c.tick(100.0);
        assert_eq!(steps.len(), 1, "two consecutive over ticks escalate");
        assert_eq!(steps[0].client, 1, "highest id degrades first");
        assert_eq!(steps[0].level, LADDER_DOWNSCALE);
    }

    #[test]
    fn escalation_spreads_before_deepening() {
        let mut c = OverloadController::new(ladder(), 3);
        // Each escalation: 2 over-ticks at just-over-high (1 step each).
        for _ in 0..3 {
            c.tick(61.0);
            c.tick(61.0);
        }
        assert_eq!(c.levels(), &[1, 1, 1], "everyone downscales first");
        c.tick(61.0);
        c.tick(61.0);
        assert_eq!(c.levels(), &[1, 1, 2], "only then does anyone halve rate");
    }

    #[test]
    fn severe_overload_escalates_in_bulk() {
        let mut c = OverloadController::new(ladder(), 4);
        c.tick(200.0);
        let steps = c.tick(200.0); // 200/60 → 3 steps at once
        assert_eq!(steps.len(), 3);
        assert_eq!(c.levels(), &[0, 1, 1, 1]);
    }

    #[test]
    fn relaxation_unwinds_in_reverse_with_slower_cadence() {
        let mut c = OverloadController::new(ladder(), 2);
        for _ in 0..3 {
            c.tick(61.0);
            c.tick(61.0);
        }
        assert_eq!(c.levels(), &[1, 2], "client 1 first down then deeper");
        assert_eq!(c.max_level_seen, LADDER_HALF_RATE);
        // Recovery: up_ticks (3) quiet ticks per single step.
        let mut transitions = Vec::new();
        for _ in 0..12 {
            transitions.extend(c.tick(10.0));
        }
        assert_eq!(c.levels(), &[0, 0], "fully recovered");
        let order: Vec<(usize, u8)> = transitions.iter().map(|s| (s.client, s.level)).collect();
        assert_eq!(
            order,
            vec![(1, 1), (1, 0), (0, 0)],
            "deepest rung relaxes first"
        );
    }

    #[test]
    fn ladder_never_exceeds_denied() {
        let mut c = OverloadController::new(ladder(), 1);
        for _ in 0..40 {
            c.tick(500.0);
        }
        assert_eq!(c.level(0), LADDER_DENIED);
        assert_eq!(c.period_factor(0), 2);
        assert_eq!(c.period_factor(99), 1, "unknown clients run full rate");
    }

    #[test]
    fn retry_backoff_doubles() {
        let d = DeadlineConfig {
            deadline: SimDuration::from_millis(250),
            max_retries: 3,
            backoff: SimDuration::from_millis(40),
        };
        assert_eq!(d.retry_delay(1).as_millis(), 40);
        assert_eq!(d.retry_delay(2).as_millis(), 80);
        assert_eq!(d.retry_delay(3).as_millis(), 160);
    }

    #[test]
    fn default_config_is_inert() {
        assert!(!ResilienceConfig::default().enabled());
        assert!(ResilienceConfig::default()
            .with_ladder(LadderConfig::default())
            .enabled());
    }
}
