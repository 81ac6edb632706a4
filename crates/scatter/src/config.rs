//! Experiment configuration: pipeline mode, placement, workload, network
//! conditions — one [`RunConfig`] fully determines one experiment run.

use std::str::FromStr;
use std::sync::Once;

use orchestra::PlacementSpec;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use simnet::NetemProfile;

use crate::message::SERVICE_NAMES;

/// Read one `SCATTER_*` override: the trimmed value of `name` parsed as
/// `T` and accepted by `valid`. Unset reads as `None`; so does anything
/// else, after one `warning: invalid NAME="raw" (want {want}); {fallback}`
/// on stderr per process (`warn` is the knob's own latch).
pub fn env_knob<T: FromStr>(
    name: &str,
    warn: &'static Once,
    valid: impl FnOnce(&T) -> bool,
    want: &str,
    fallback: &str,
) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let parsed = raw.trim().parse().ok().filter(valid);
    if parsed.is_none() {
        warn.call_once(|| eprintln!("warning: invalid {name}={raw:?} (want {want}); {fallback}"));
    }
    parsed
}

/// Which pipeline generation to run.
///
/// scAtteR++ bundles two independent design changes — a stateless `sift`
/// and sidecar ingress queues. The two ablation modes apply each change
/// alone, letting experiments attribute the improvement (the paper
/// evaluates only the bundle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// The baseline: stateful `sift`, drop-on-busy services.
    Scatter,
    /// The redesign: stateless `sift`, sidecar queues with the 100 ms
    /// staleness filter.
    ScatterPP,
    /// Ablation: stateless `sift` (no fetch loop, 480 KB frames) but
    /// still drop-on-busy — no sidecar queues.
    StatelessOnly,
    /// Ablation: sidecar queues on every service, but `sift` stays
    /// stateful and `matching` still fetches.
    SidecarOnly,
}

impl Mode {
    /// Does `sift` embed its state in the forwarded frame?
    pub fn stateless_sift(self) -> bool {
        matches!(self, Mode::ScatterPP | Mode::StatelessOnly)
    }

    /// Do services front their ingress with a sidecar queue?
    pub fn sidecar_queue(self) -> bool {
        matches!(self, Mode::ScatterPP | Mode::SidecarOnly)
    }
}

/// Analytic wire-protocol model for the DES plane (see
/// [`crate::wirev2`]). When set, client uplink bytes stop being the
/// cost model's abstract payload and become the bytes the *real*
/// encoder pipeline would put on the wire: the scene generator + DCT
/// encoder + [`UplinkTx`](crate::wirev2::tx::UplinkTx) key/delta state
/// machine + store-if-smaller codec, framed as v1 or v2 datagrams.
/// The schedule is precomputed at world build
/// ([`crate::wirev2::predict`]), so the simulation draws no extra
/// randomness — and `None` leaves every byte of a run untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSimConfig {
    /// Model v2 framing (delta + codec + envelope); `false` models the
    /// same client pixels under v1 framing — the baseline side of the
    /// cross-plane bytes gate.
    pub v2: bool,
    /// Client capture geometry and encoder quality, shared verbatim
    /// with the runtime clients.
    pub width: usize,
    pub height: usize,
    pub quality: u8,
    /// Uplink shaping knobs (ignored when `v2` is off).
    pub policy: crate::wirev2::tx::UplinkPolicy,
    /// Client-side encode cost of the v2 transforms (delta + codec),
    /// applied as a fixed delay between capture and uplink send. Zero
    /// for v1.
    pub codec_cost_ms: f64,
    /// Corrupt the first `n` uplink datagrams in flight — the DES twin
    /// of [`LinkImpairment::corrupt_first`](crate::runtime::impair::LinkImpairment):
    /// under v2 each one dies at ingress as a counted `InvalidCrc`
    /// drop; under v1 the damage is silently accepted and the frame
    /// sails on, which is exactly the contrast the wire experiment
    /// gates.
    pub corrupt_first: u64,
}

impl Default for WireSimConfig {
    fn default() -> Self {
        WireSimConfig {
            v2: true,
            width: 256,
            height: 144,
            quality: 85,
            policy: crate::wirev2::tx::UplinkPolicy::default(),
            codec_cost_ms: 0.2,
            corrupt_first: 0,
        }
    }
}

impl WireSimConfig {
    pub fn v1() -> Self {
        WireSimConfig {
            v2: false,
            codec_cost_ms: 0.0,
            ..Default::default()
        }
    }

    pub fn with_corrupt_first(mut self, n: u64) -> Self {
        self.corrupt_first = n;
        self
    }
}

/// Scale-out shape of a run (see DESIGN.md §14). `None` on
/// [`RunConfig::scale`] — the default — runs the legacy paper-sized
/// world and is bit-identical to a pre-scale run. `Some` attaches
/// clients to access sites and optionally replaces the O(clients)
/// exact per-client metric collectors with O(sites + buckets) streaming
/// aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Access-site nodes standing in for the single client host
    /// (clamped to ≥ 1). Clients attach round-robin; each site carries
    /// the client-host link set (Ethernet→E1, LAN→E2, Internet→cloud).
    pub sites: usize,
    /// Streaming metrics: per-client QoS folds into histograms +
    /// counters instead of per-event vectors. Exact for counts and
    /// means; quantiles within one log-bucket width (≈2 %).
    pub streaming: bool,
}

impl ScaleConfig {
    pub fn new(sites: usize) -> Self {
        ScaleConfig {
            sites,
            streaming: true,
        }
    }

    /// Keep the exact per-client collectors (small-n validation runs).
    pub fn exact(mut self) -> Self {
        self.streaming = false;
        self
    }
}

/// One experiment run, fully specified.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub mode: Mode,
    /// Service placement (machine names per replica).
    pub placement: PlacementSpec,
    /// Number of concurrent clients (each replays the 30 FPS video).
    pub clients: usize,
    /// Experiment length (the paper runs five minutes; tests use less).
    pub duration: SimDuration,
    /// Measurement warmup discarded from aggregates.
    pub warmup: SimDuration,
    /// Optional netem condition on the client ↔ ingress link (fig. 9).
    pub netem: Option<NetemProfile>,
    /// Root RNG seed: equal seeds give bit-identical runs.
    pub seed: u64,
    /// Staggered client arrivals: when set, client `i` starts emitting at
    /// `i × stagger` (fig. 12's stepped load); otherwise all start at 0
    /// with small phase offsets.
    pub stagger: Option<SimDuration>,
    /// Failure injection: `(crash time, service, replica)` — the
    /// instance loses all in-memory state (including sift's frame
    /// store and sidecar queue) and is re-deployed by the orchestrator
    /// after `recovery`.
    pub failures: Vec<(SimDuration, crate::message::ServiceKind, usize)>,
    /// Orchestrator detection + container-restart delay.
    pub recovery: SimDuration,
    /// Per-frame causal tracing. `None` (the default) disables tracing
    /// entirely — the tracer short-circuits on an unsampled context, so
    /// the disabled path costs a branch per record site. `Some` enables
    /// span collection with the configured 1-in-N sampling.
    pub trace: Option<trace::TraceConfig>,
    /// The resilience control plane (failure detection + failover,
    /// client deadlines/retries, the degradation ladder). The default
    /// is fully inert and byte-identical to a pre-resilience run.
    pub resilience: crate::resilience::ResilienceConfig,
    /// Wire-protocol model for the client uplink. `None` (the default)
    /// keeps the cost model's abstract bytes and is bit-identical to a
    /// pre-wirev2 run.
    pub wire: Option<WireSimConfig>,
    /// Scale-out shape: access sites, streaming metrics.
    /// `None` (the default) is the legacy paper-sized world.
    pub scale: Option<ScaleConfig>,
    /// The observatory plane: tail-sampled tracing, anomaly-triggered
    /// flight recorder, driver self-profiling. `None` (the default)
    /// changes nothing; when set, tail sampling supersedes `trace`'s
    /// head sampling (both planes record at the same sites).
    pub observatory: Option<observatory::ObservatoryConfig>,
}

impl RunConfig {
    pub fn new(mode: Mode, placement: PlacementSpec, clients: usize) -> Self {
        RunConfig {
            mode,
            placement,
            clients,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(5),
            netem: None,
            seed: 7,
            stagger: None,
            failures: Vec::new(),
            recovery: SimDuration::from_secs(2),
            trace: None,
            resilience: crate::resilience::ResilienceConfig::default(),
            wire: None,
            scale: None,
            observatory: None,
        }
    }

    /// Enable the observatory plane (tail sampling + flight recorder +
    /// self-profiler) for this run.
    pub fn with_observatory(mut self, o: observatory::ObservatoryConfig) -> Self {
        self.observatory = Some(o);
        self
    }

    /// Run the scale-out world shape (sites / streaming).
    pub fn with_scale(mut self, s: ScaleConfig) -> Self {
        self.scale = Some(s);
        self
    }

    /// Model the wire protocol (v1 or v2 per `w.v2`) on the uplink.
    pub fn with_wire(mut self, w: WireSimConfig) -> Self {
        self.wire = Some(w);
        self
    }

    /// Enable (parts of) the resilience control plane for this run.
    pub fn with_resilience(mut self, r: crate::resilience::ResilienceConfig) -> Self {
        self.resilience = r;
        self
    }

    /// Enable per-frame causal tracing for this run.
    pub fn with_trace(mut self, t: trace::TraceConfig) -> Self {
        self.trace = Some(t);
        self
    }

    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    pub fn with_warmup(mut self, d: SimDuration) -> Self {
        self.warmup = d;
        self
    }

    pub fn with_netem(mut self, p: NetemProfile) -> Self {
        self.netem = Some(p);
        self
    }

    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    pub fn with_stagger(mut self, d: SimDuration) -> Self {
        self.stagger = Some(d);
        self
    }

    /// Schedule a crash of `service`'s replica `replica` at `at`.
    pub fn with_failure(
        mut self,
        at: SimDuration,
        service: crate::message::ServiceKind,
        replica: usize,
    ) -> Self {
        self.failures.push((at, service, replica));
        self
    }

    pub fn with_recovery(mut self, d: SimDuration) -> Self {
        self.recovery = d;
        self
    }
}

/// The paper's named placement configurations (§4), in the figures'
/// ordering `[primary, sift, encoding, lsh, matching]`.
pub mod placements {
    use super::*;

    /// C1: all services on E1.
    pub fn c1() -> PlacementSpec {
        PlacementSpec::all_on(&SERVICE_NAMES, "E1")
    }

    /// C2: all services on E2.
    pub fn c2() -> PlacementSpec {
        PlacementSpec::all_on(&SERVICE_NAMES, "E2")
    }

    /// C12 = [E1, E1, E2, E2, E2]: ingress + stateful `sift` on E1.
    pub fn c12() -> PlacementSpec {
        PlacementSpec::pipeline(&SERVICE_NAMES, &["E1", "E1", "E2", "E2", "E2"])
    }

    /// C21 = [E2, E2, E1, E1, E1].
    pub fn c21() -> PlacementSpec {
        PlacementSpec::pipeline(&SERVICE_NAMES, &["E2", "E2", "E1", "E1", "E1"])
    }

    /// Cloud-only: the full pipeline on the AWS VM (fig. 4).
    pub fn cloud_only() -> PlacementSpec {
        PlacementSpec::all_on(&SERVICE_NAMES, "cloud")
    }

    /// Hybrid [E1, C, C, C, C] (fig. 11): ingress at the edge, the rest
    /// in the cloud.
    pub fn hybrid_edge_cloud() -> PlacementSpec {
        PlacementSpec::pipeline(&SERVICE_NAMES, &["E1", "cloud", "cloud", "cloud", "cloud"])
    }

    /// Replica-count configuration over the baseline-on-E2 deployment:
    /// counts `[primary, sift, encoding, lsh, matching]` where the first
    /// replica lives on E2 and any additional replica on E1 ("QoS over E2
    /// with another replica on E1", fig. 3). A third replica (fig. 7's
    /// `[1,3,2,1,3]`) goes back on E2, using its second GPU.
    pub fn replicas(counts: [usize; 5]) -> PlacementSpec {
        let ring = ["E2", "E1", "E2"];
        let assignments: Vec<(String, Vec<String>)> = SERVICE_NAMES
            .iter()
            .zip(counts)
            .map(|(s, n)| {
                assert!(n >= 1 && n <= ring.len(), "unsupported replica count {n}");
                (s.to_string(), (0..n).map(|i| ring[i].to_string()).collect())
            })
            .collect();
        PlacementSpec { assignments }
    }
}

#[cfg(test)]
mod tests {
    use super::placements::*;
    use super::*;

    #[test]
    fn named_configs_match_paper_vectors() {
        assert_eq!(c12().replicas_of("sift").unwrap(), &["E1".to_string()]);
        assert_eq!(c12().replicas_of("lsh").unwrap(), &["E2".to_string()]);
        assert_eq!(c21().replicas_of("primary").unwrap(), &["E2".to_string()]);
        assert_eq!(c21().replicas_of("matching").unwrap(), &["E1".to_string()]);
        assert_eq!(cloud_only().total_instances(), 5);
        assert_eq!(
            hybrid_edge_cloud().replicas_of("primary").unwrap(),
            &["E1".to_string()]
        );
    }

    #[test]
    fn replica_vectors() {
        let p = replicas([2, 2, 1, 1, 1]);
        assert_eq!(p.replicas_of("primary").unwrap().len(), 2);
        assert_eq!(
            p.replicas_of("sift").unwrap(),
            &["E2".to_string(), "E1".to_string()]
        );
        assert_eq!(p.replicas_of("matching").unwrap(), &["E2".to_string()]);
        let p7 = replicas([1, 3, 2, 1, 3]);
        assert_eq!(p7.total_instances(), 10);
        assert_eq!(
            p7.replicas_of("sift").unwrap(),
            &["E2".to_string(), "E1".to_string(), "E2".to_string()]
        );
    }

    #[test]
    fn builder_chain() {
        let cfg = RunConfig::new(Mode::ScatterPP, c1(), 4)
            .with_duration(SimDuration::from_secs(10))
            .with_seed(99)
            .with_stagger(SimDuration::from_secs(1));
        assert_eq!(cfg.clients, 4);
        assert_eq!(cfg.seed, 99);
        assert!(cfg.stagger.is_some());
    }
}
