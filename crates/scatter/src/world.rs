//! The discrete-event simulation of scAtteR / scAtteR++ on the testbed.
//!
//! One [`run_experiment`] call builds the paper's topology and cluster,
//! deploys the configured placement, replays the client video streams,
//! and returns a [`RunReport`]. All stochastic elements draw from streams
//! split off the config seed, so runs are bit-for-bit reproducible.
//!
//! The semantics encoded here are the paper's, not idealizations:
//!
//! - every service processes one frame at a time;
//! - scAtteR drops requests that reach a busy service, and `matching`
//!   must fetch per-frame feature state from the exact `sift` replica
//!   that produced it (sticky binding), busy-waiting until a timeout;
//! - scAtteR++ queues requests in a per-service sidecar that filters
//!   frames older than the 100 ms staleness threshold, and `sift`
//!   embeds its state in the forwarded (≈480 KB) frame;
//! - co-located GPU services contend for the machine's physical GPUs;
//! - all transport is UDP: oversized datagrams fragment, losses kill the
//!   whole frame, nothing is retransmitted.

use std::collections::HashMap;
use std::sync::Once;

use metrics::{LogHistogram, TimeSeries};
use orchestra::{Balancer, BalancerKind, Cluster, ServiceSla};

use simcore::{Sim, SimDuration, SimRng, SimTime};
use simnet::{NodeId, SiteMap, Testbed, UdpNet};

use crate::client::{ClientState, FRAME_PERIOD};
use crate::config::{env_knob, Mode, RunConfig};
use crate::costmodel::CostModel;
use crate::gpu::GpuPool;
use crate::message::{FrameMsg, ServiceKind, SERVICE_NAMES};
use crate::obs::{DesObs, DesTelemetry};
use crate::report::{MachineReport, RunReport, ServiceReport};
use crate::service::{StateEntry, SvcRuntime};
use crate::sidecar::Sidecar;

/// Simulation world: everything the event closures mutate.
pub struct PipelineWorld {
    pub cfg: RunConfig,
    pub cost: CostModel,
    pub net: UdpNet,
    pub cluster: Cluster,
    pub testbed: Testbed,
    /// All deployed instances; index = "slot".
    pub services: Vec<SvcRuntime>,
    /// Slots per service kind, replica-ordered.
    pub replicas: [Vec<usize>; 5],
    pub balancers: [Balancer; 5],
    /// GPU token pool per cluster machine index.
    pub gpu_pools: Vec<GpuPool>,
    pub clients: Vec<ClientState>,
    /// Service-time sampling stream.
    pub rng_service: SimRng,
    /// Client phase / misc stream.
    pub rng_misc: SimRng,
    /// Sampled per-slot resident memory in GB (1 Hz).
    pub mem_series: Vec<TimeSeries>,
    /// Sampled per-machine total memory in GB (1 Hz).
    pub machine_mem: Vec<TimeSeries>,
    pub end_at: SimTime,
    pub warmup_at: SimTime,
    /// SLAs kept for the orchestrator's failure re-deploys.
    pub slas: Vec<ServiceSla>,
    /// Latency breakdown over completed frames: per-stage compute, per-
    /// stage queue/fetch wait, and the network residual, all ms.
    pub breakdown_compute: [metrics::Summary; 5],
    pub breakdown_queue: [metrics::Summary; 5],
    pub breakdown_network: metrics::Summary,
    /// Per-frame causal tracing: inert, head-sampled (`cfg.trace`), or
    /// tail-sampled (`cfg.observatory`). Event recording is append-only
    /// and draws no randomness, so enabling it cannot perturb the
    /// simulation's determinism.
    pub tracer: observatory::DesSink,
    /// Trace track per service slot (parallel to `services`).
    pub track_of_slot: Vec<trace::TrackId>,
    /// Trace track per client (the result's return transit lands here).
    pub client_tracks: Vec<trace::TrackId>,
    /// Live telemetry (inert unless a registry was passed in). Like the
    /// tracer it is an observer — no RNG, no scheduled events, no
    /// feedback — so telemetered runs stay bit-identical.
    pub obs: Option<DesObs>,
    // --- resilience control plane (inert unless `cfg.resilience` has a
    // leg enabled; every field below then stays at its default) ---
    /// Cluster instance id per slot (parallel to `services`) — the
    /// identity the failure detector and redeploy bookkeeping use.
    pub instance_ids: Vec<orchestra::InstanceId>,
    /// Heartbeat failure detector (detection leg only).
    pub detector: Option<orchestra::FailureDetector>,
    /// Heartbeat-jitter stream — a 4th root split taken ONLY when the
    /// detection leg is on, so baseline runs keep their stream
    /// assignments (and bytes) untouched.
    pub rng_hb: Option<SimRng>,
    /// Slots the balancer currently routes to, per kind: position `p`
    /// in `routable[ki]` is balancer replica `p`. Equal to `replicas`
    /// until a detection removes an instance; empty = service outage.
    pub routable: [Vec<usize>; 5],
    /// Slots the detector has removed from routing (parallel to
    /// `services`). A frame dispatched to a `derouted` slot is a
    /// failover bug — counted, and gated to zero by the experiments.
    pub derouted: Vec<bool>,
    /// Crash instants awaiting detection (detection-latency numerator).
    pub crash_pending: HashMap<usize, SimTime>,
    /// Per-original-frame client deadline state (deadline leg only).
    pub inflight: HashMap<(usize, u64), InflightFrame>,
    /// The degradation-ladder controller (ladder leg only).
    pub ladder: Option<crate::resilience::OverloadController>,
    /// Resilience-plane accumulators, moved into the report at the end.
    pub resilience: crate::report::ResilienceReport,
    /// Wire-protocol model (inert `None` unless `cfg.wire` is set): the
    /// precomputed per-client uplink byte schedule plus accumulators.
    pub wire: Option<WireSim>,
    // --- scale-out plane (DESIGN.md §14; inert unless `cfg.scale` is
    // set — a `None` run is byte-identical to a pre-scale build) ---
    /// Client → access-site assignment. `None` = the legacy single
    /// `client-host` node.
    pub site_map: Option<SiteMap>,
    /// Streaming-metrics mode: per-client QoS folds into [`crate::client::StreamQos`]
    /// counters and the run-wide histogram below instead of per-event vectors.
    pub streaming: bool,
    /// Run-wide E2E latency histogram (`Some` iff `streaming`).
    pub scale_e2e: Option<LogHistogram>,
    // --- observatory (inert unless `cfg.observatory` is set) ---
    /// Anomaly-triggered flight recorder. Rings are keyed by *client*
    /// (plus ring 0 for control-plane events).
    pub flight: Option<observatory::FlightRecorder>,
    /// Sampled self-profiler over the DES hot paths (see [`DES_PHASES`]).
    pub prof: Option<observatory::PhaseProfiler>,
    /// SLO events already mirrored into the flight recorder.
    pub slo_seen: usize,
}

/// Self-profiler phases over the DES hot paths. Indices are the `PH_*`
/// constants; the observatory bin reconciles these against the report's
/// `latency_breakdown`.
pub const DES_PHASES: &[&str] = &["net-decide", "cost-sample", "deliver", "slo-tick"];
const PH_NET: usize = 0;
const PH_COST: usize = 1;
const PH_DELIVER: usize = 2;
const PH_SLO: usize = 3;

impl PipelineWorld {
    /// The network node a client's frames originate from (and results
    /// return to): its access site at scale, `client-host` otherwise.
    fn client_node(&self, client: usize) -> NodeId {
        match &self.site_map {
            Some(sm) => sm.node_of(client),
            None => self.testbed.client_host,
        }
    }

    /// Flight-recorder ring for one client's drop events. Rings `1..`
    /// are client-keyed (ring 0 carries control-plane events) — a pure
    /// function of the event, so recording order and placement replay
    /// exactly.
    fn flight_ring(&self, client: u16) -> usize {
        self.flight
            .as_ref()
            .map_or(0, |f| 1 + client as usize % (f.ring_count() - 1).max(1))
    }
}

/// Live state of the DES wire model: the uplink byte schedule computed
/// at world build by running the *real* client pipeline
/// ([`crate::wirev2::predict`]), plus run accumulators. Everything here
/// is deterministic given the config — the model draws no randomness.
pub struct WireSim {
    pub cfg: crate::config::WireSimConfig,
    /// Per-client, per-frame uplink datagram bytes (headers included).
    schedule: Vec<Vec<u64>>,
    /// Uplink datagrams routed so far (the `corrupt_first` counter —
    /// mirrors the impairment shim's per-link send index).
    sent: u64,
    /// Total uplink datagram bytes offered at the send site.
    pub uplink_bytes: u64,
    /// Corrupted datagrams the v2 ingress CRC caught.
    pub invalid_crc: u64,
}

impl WireSim {
    fn build(cfg: &RunConfig) -> Option<WireSim> {
        let w = cfg.wire?;
        // One schedule entry per capture-grid slot over the run, plus
        // slack for half-rate frame-number skips and end-of-run edges.
        let frames = (cfg.duration.as_secs_f64() / FRAME_PERIOD.as_secs_f64()).ceil() as usize + 8;
        let schedule = (0..cfg.clients)
            .map(|cid| {
                if w.v2 {
                    crate::wirev2::predict::uplink_schedule_v2(
                        cfg.seed, cid as u16, w.width, w.height, w.quality, frames, w.policy,
                    )
                } else {
                    crate::wirev2::predict::uplink_schedule_v1(
                        cfg.seed, cid as u16, w.width, w.height, w.quality, frames,
                    )
                }
            })
            .collect();
        Some(WireSim {
            cfg: w,
            schedule,
            sent: 0,
            uplink_bytes: 0,
            invalid_crc: 0,
        })
    }

    /// Uplink datagram bytes for one frame. Frame numbers past the
    /// schedule (half-rate skips) reuse the last entry — v2's key/delta
    /// cadence has long settled by then.
    fn frame_bytes(&self, client: usize, frame_no: u64) -> u64 {
        let s = &self.schedule[client];
        s.get(frame_no as usize)
            .or(s.last())
            .copied()
            .expect("schedule is never empty")
    }
}

/// Client-side deadline state for one original frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct InflightFrame {
    /// A completion was already counted; later arrivals are duplicates.
    settled: bool,
    /// Attempts `0..expired_attempts` passed their deadline — their late
    /// results re-attribute to [`trace::DropReason::ResponseDeadline`].
    expired_attempts: u8,
    /// The latest attempt armed (deadline events for older ones no-op).
    attempt: u8,
}

type SimW = Sim<PipelineWorld>;

/// Build a sidecar for a service instance (sidecar modes only). The
/// projection estimates come from the sidecar's own collected metrics;
/// they are seeded from the cost model: this service's expected time on
/// this machine plus the expected remainder of the pipeline (base times
/// + a small per-hop transit allowance).
fn make_sidecar(
    mode: Mode,
    cost: &CostModel,
    cluster: &Cluster,
    machine: usize,
    kind_index: usize,
) -> Option<Sidecar> {
    if !mode.sidecar_queue() {
        return None;
    }
    let arch = cluster.machines()[machine]
        .gpu_arch
        .map_or(1.0, |a| a.speed_multiplier());
    let service_est = SimDuration::from_millis_f64(cost.base_ms[kind_index] * arch);
    let hop_ms = 1.0;
    let downstream_ms: f64 = cost.base_ms[kind_index + 1..]
        .iter()
        .map(|b| b + hop_ms)
        .sum::<f64>()
        + hop_ms;
    Some(Sidecar::new(
        cost.threshold(),
        service_est,
        SimDuration::from_millis_f64(downstream_ms),
    ))
}

/// Everything the observatory plane collects beyond the report and the
/// trace log: tail-sampling retention accounting, frozen flight-recorder
/// dumps, and the self-profiler snapshots (world phases + the simulator
/// core's own queue loop).
#[derive(Default)]
pub struct ObsArtifacts {
    /// Tail-sampling stats (`Some` iff `cfg.observatory` was set).
    pub tail: Option<observatory::TailStats>,
    /// Flight-recorder dumps frozen by anomaly triggers, in trigger order.
    pub flight_dumps: Vec<observatory::FlightDump>,
    /// World-phase profile (`Some` iff `cfg.observatory` was set).
    pub prof: Option<observatory::ProfSnapshot>,
    /// Simulator-core pop/exec counters (`Some` iff profiling was on).
    pub sim_prof: Option<simcore::SimProfStats>,
}

/// Build the world, run to completion, and report.
pub fn run_experiment(cfg: RunConfig) -> RunReport {
    run_experiment_with(cfg, CostModel::default())
}

/// Run with an explicit cost model (ablation studies override fields).
pub fn run_experiment_with(cfg: RunConfig, cost: CostModel) -> RunReport {
    run_world(cfg, cost, None).0 .0
}

/// Run and additionally return the causal trace log. Callers usually set
/// `cfg.trace` first — without it the log is empty (but the report is
/// identical to [`run_experiment`]'s, which is the point: tracing is an
/// observer, not a participant).
pub fn run_experiment_traced(cfg: RunConfig) -> (RunReport, trace::TraceLog) {
    let ((report, _), log, _) = run_world(cfg, CostModel::default(), None);
    (report, log)
}

/// Traced run with an explicit cost model — what the chaos study uses to
/// run a low-noise calibration whose fault windows can be reasoned about
/// exactly (see `experiments --bin chaos`).
pub fn run_experiment_traced_with(cfg: RunConfig, cost: CostModel) -> (RunReport, trace::TraceLog) {
    let ((report, _), log, _) = run_world(cfg, cost, None);
    (report, log)
}

/// Run with the observatory plane on (callers set `cfg.observatory`):
/// tail-sampled tracing, the flight recorder, and the self-profiler.
/// Like every other observer, none of it perturbs the report.
pub fn run_experiment_observed(cfg: RunConfig) -> (RunReport, trace::TraceLog, ObsArtifacts) {
    run_experiment_observed_with(cfg, CostModel::default())
}

/// Observed run with an explicit cost model (the observatory bin's
/// chaos-schedule retention gate uses the low-noise calibration).
pub fn run_experiment_observed_with(
    cfg: RunConfig,
    cost: CostModel,
) -> (RunReport, trace::TraceLog, ObsArtifacts) {
    let ((report, _), log, artifacts) = run_world(cfg, cost, None);
    (report, log, artifacts)
}

/// Run with live telemetry recording into `registry`. Every service
/// records ingress/processed/latency/drops-by-reason, clients record
/// emissions/completions/e2e latency, and 1 Hz gauges sample queue
/// depth, memory, and machine CPU/GPU. Returns the report plus the SLO
/// event log and per-window scrapes; the caller keeps the registry for
/// exposition. Telemetry is an observer: the report is bit-identical to
/// [`run_experiment`]'s.
pub fn run_experiment_telemetered(
    cfg: RunConfig,
    registry: telemetry::Registry,
) -> (RunReport, DesTelemetry) {
    run_world(cfg, CostModel::default(), Some(registry)).0
}

/// Telemetered *and* observed run — what the observatory bin's
/// cross-plane gate uses: the SLO event log and the flight dumps come
/// from the same run, so their anomaly counts can be reconciled.
pub fn run_experiment_telemetered_observed(
    cfg: RunConfig,
    registry: telemetry::Registry,
) -> (RunReport, DesTelemetry, ObsArtifacts) {
    let ((report, tele), _, artifacts) = run_world(cfg, CostModel::default(), Some(registry));
    (report, tele, artifacts)
}

/// Parse the `SCATTER_OBS_SAMPLE` override: the tail sampler's reservoir
/// rate (keep 1 in N healthy frames; anomalous frames are always kept).
/// Invalid values warn once and fall back to the config's rate.
fn env_obs_sample() -> Option<u64> {
    static WARN: Once = Once::new();
    env_knob(
        "SCATTER_OBS_SAMPLE",
        &WARN,
        |&n| n >= 1,
        "a positive integer",
        "using the config's reservoir rate",
    )
}

/// Parse the `SCATTER_FLIGHTREC` override: per-ring flight-recorder
/// capacity (events kept per ring). Invalid values warn once and fall
/// back to the config's capacity. Shared with the runtime plane, whose
/// always-on recorder uses the same knob over its built-in default.
pub(crate) fn env_flightrec() -> Option<usize> {
    static WARN: Once = Once::new();
    env_knob(
        "SCATTER_FLIGHTREC",
        &WARN,
        |&n| n >= 1,
        "a positive integer",
        "using the config's ring capacity",
    )
}

fn run_world(
    cfg: RunConfig,
    cost: CostModel,
    registry: Option<telemetry::Registry>,
) -> ((RunReport, DesTelemetry), trace::TraceLog, ObsArtifacts) {
    let mut root = SimRng::new(cfg.seed);
    let rng_net = root.split();
    let rng_service = root.split();
    let mut rng_misc = root.split();
    // Heartbeat jitter draws from its own stream, split off the root
    // ONLY when the detection leg is on: a resilience-off run takes the
    // exact same three splits as before and stays byte-identical.
    let rng_hb = cfg.resilience.detection.map(|_| root.split());

    // Scale-out plane (DESIGN.md §14).
    let scale = cfg.scale;
    let streaming = scale.is_some_and(|sc| sc.streaming);

    // Topology + netem overrides on the client↔ingress link(s). At
    // scale the clients attach to per-site access nodes; `build_with_sites(1)`
    // reproduces the legacy topology exactly.
    let (mut topo, testbed, site_nodes) = match scale {
        Some(sc) => Testbed::build_with_sites(sc.sites),
        None => {
            let (topo, testbed) = Testbed::build();
            (topo, testbed, Vec::new())
        }
    };
    // Client-side endpoints for netem/burst overrides: every access
    // site at scale, the single legacy client host otherwise.
    let client_side: Vec<NodeId> = if site_nodes.is_empty() {
        vec![testbed.client_host]
    } else {
        site_nodes.clone()
    };
    let mut cluster = Cluster::testbed(testbed.e1, testbed.e2, testbed.cloud);
    if let Some(profile) = &cfg.netem {
        let ingress_machines = cfg
            .placement
            .replicas_of("primary")
            .expect("placement must include primary")
            .to_vec();
        for name in ingress_machines {
            let mi = cluster.machine_index(&name).expect("known machine");
            let node = cluster.machines()[mi].net;
            for &cs in &client_side {
                topo.connect(cs, node, profile.to_link());
            }
        }
    }
    let mut net = UdpNet::new(topo, rng_net);
    // Bursty access-network loss (extension): install Gilbert–Elliott
    // channels on both directions of every client↔ingress link.
    if let Some(profile) = &cfg.netem {
        if let Some(burst_len) = profile.burst_len {
            let ingress: Vec<NodeId> = cfg
                .placement
                .replicas_of("primary")
                .expect("placement must include primary")
                .iter()
                .map(|name| {
                    let mi = cluster.machine_index(name).expect("known machine");
                    cluster.machines()[mi].net
                })
                .collect();
            for node in ingress {
                for &cs in &client_side {
                    net.set_burst_channel(
                        cs,
                        node,
                        simnet::GilbertElliott::with_average_loss(profile.loss, burst_len),
                    );
                    net.set_burst_channel(
                        node,
                        cs,
                        simnet::GilbertElliott::with_average_loss(profile.loss, burst_len),
                    );
                }
            }
        }
    }
    let site_map = scale.map(|_| SiteMap::round_robin(cfg.clients, &site_nodes));

    // Deploy the placement through the orchestrator.
    let slas: Vec<ServiceSla> = SERVICE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let kind = ServiceKind::from_index(i);
            ServiceSla::new(name, 0.5, 2.0, kind.needs_gpu())
        })
        .collect();
    let deployed = cluster
        .deploy_placement(&slas, &cfg.placement)
        .expect("placement must deploy");
    let slas_kept = slas.clone();

    // Materialize runtime slots in pipeline order.
    let mut services = Vec::new();
    let mut replicas: [Vec<usize>; 5] = Default::default();
    let mut instance_ids: Vec<orchestra::InstanceId> = Vec::new();
    for (i, name) in SERVICE_NAMES.iter().enumerate() {
        let kind = ServiceKind::from_index(i);
        let ids = deployed
            .iter()
            .find(|(s, _)| s == name)
            .map(|(_, ids)| ids.clone())
            .unwrap_or_default();
        for (r, id) in ids.iter().enumerate() {
            let machine = cluster.instance(*id).machine;
            let sidecar = make_sidecar(cfg.mode, &cost, &cluster, machine, i);
            let slot = services.len();
            services.push(SvcRuntime::new(kind, r, machine, sidecar));
            replicas[i].push(slot);
            instance_ids.push(*id);
        }
        assert!(
            !replicas[i].is_empty(),
            "placement is missing service {name}"
        );
    }

    // Frames are balanced round-robin everywhere — including across sift
    // replicas. The statefulness shows up one hop later: the frame stays
    // *tied* to the sift replica that processed it, so matching's fetch
    // cannot be re-balanced to an idle replica ("frames balanced across
    // sift instances remain tied to that replica due to state
    // restrictions").
    let balancers: [Balancer; 5] =
        std::array::from_fn(|i| Balancer::new(BalancerKind::RoundRobin, replicas[i].len()));

    let gpu_pools = cluster
        .machines()
        .iter()
        .map(|m| GpuPool::new(m.gpu_count.max(1) as usize))
        .collect();

    // Clients with deterministic phase offsets (or staggered arrivals).
    let clients: Vec<ClientState> = (0..cfg.clients)
        .map(|i| {
            let start = match cfg.stagger {
                Some(s) => SimTime::ZERO + s * i as u64,
                None => {
                    SimTime::ZERO
                        + SimDuration::from_secs_f64(
                            rng_misc.uniform(0.0, FRAME_PERIOD.as_secs_f64()),
                        )
                }
            };
            ClientState::new(i, start)
        })
        .collect();

    let mem_series = services.iter().map(|_| TimeSeries::new()).collect();
    let machine_mem = cluster
        .machines()
        .iter()
        .map(|_| TimeSeries::new())
        .collect();

    // Trace tracks: one per service instance per machine, one per client.
    // Registration is unconditional (cheap) so slot ↔ track stays aligned
    // whether or not tracing is on. The observatory's tail sampler
    // supersedes head sampling: every frame is traced and the
    // keep/discard decision happens at its terminal.
    let mut tracer = match (cfg.observatory, cfg.trace) {
        (Some(oc), _) => {
            let mut tc = oc.tail;
            // Fold the run seed in so the reservoir decorrelates across
            // seeds without the caller managing a second seed. The
            // decision stays a pure function of (seed, trace_id).
            tc.seed ^= cfg.seed;
            if let Some(n) = env_obs_sample() {
                tc.reservoir_1_in = n;
            }
            observatory::DesSink::tail(observatory::TailSampler::new(tc))
        }
        (None, Some(tc)) => observatory::DesSink::head(trace::Tracer::new(tc)),
        (None, None) => observatory::DesSink::disabled(),
    };
    let track_of_slot: Vec<trace::TrackId> = services
        .iter()
        .map(|svc| {
            tracer.register_track(
                format!("{}#{}", svc.kind.name(), svc.replica),
                cluster.machines()[svc.machine].name.clone(),
            )
        })
        .collect();
    // At scale, per-client tracks would overflow the u16 track id space
    // (and churn a String per client); all clients share one track — the
    // per-client distinction lives in the trace ctx, not the track.
    let client_tracks: Vec<trace::TrackId> = if scale.is_some() {
        let shared = tracer.register_track("clients".to_string(), "client-host");
        vec![shared; cfg.clients]
    } else {
        (0..cfg.clients)
            .map(|i| tracer.register_track(format!("client-{i}"), "client-host"))
            .collect()
    };

    let end_at = SimTime::ZERO + cfg.duration;
    let warmup_at = SimTime::ZERO + cfg.warmup;

    // Streaming mode: services fold arrivals/drops into counters over
    // the measurement window instead of per-event series.
    if streaming {
        for svc in &mut services {
            svc.streaming_window = Some((warmup_at, end_at));
        }
    }

    // Live telemetry handles (only if the caller passed a registry).
    let obs = registry.map(|reg| {
        let machine_names: Vec<String> =
            cluster.machines().iter().map(|m| m.name.clone()).collect();
        let mut obs = DesObs::new(reg, &machine_names);
        obs.slots = services
            .iter()
            .map(|svc| {
                obs.register_slot(
                    svc.kind.name(),
                    svc.replica,
                    &cluster.machines()[svc.machine].name,
                )
            })
            .collect();
        obs
    });

    // Observatory: flight recorder + world-phase profiler (both `None`
    // when `cfg.observatory` is unset — the hot paths then only pay a
    // branch-not-taken per site, same discipline as `obs`).
    let flight = cfg.observatory.map(|oc| {
        let cap = env_flightrec().unwrap_or(oc.flight_cap);
        // One ring per access site (clamped) plus ring 0 for the
        // control plane.
        let data_rings = scale.map_or(1, |sc| sc.sites).clamp(1, 15);
        observatory::FlightRecorder::new(1 + data_rings, cap)
    });
    let mut prof = cfg
        .observatory
        .map(|oc| observatory::PhaseProfiler::new(DES_PHASES, oc.prof_shift));
    if let (Some(p), Some(o)) = (prof.as_mut(), obs.as_ref()) {
        p.attach_registry(&o.registry, crate::obs::PLANE);
    }

    // Resilience-plane state (all `None`/empty when the plane is off).
    let detector = cfg.resilience.detection.map(|d| {
        let mut det = orchestra::FailureDetector::new(d.detector());
        for &id in &instance_ids {
            det.register(id, 0.0);
        }
        det
    });
    let ladder = cfg
        .resilience
        .ladder
        .map(|l| crate::resilience::OverloadController::new(l, cfg.clients));
    let derouted = vec![false; services.len()];
    let routable = replicas.clone();
    let wire = WireSim::build(&cfg);

    let mut world = PipelineWorld {
        cfg,
        cost,
        net,
        cluster,
        testbed,
        services,
        replicas,
        balancers,
        gpu_pools,
        clients,
        rng_service,
        rng_misc,
        mem_series,
        machine_mem,
        end_at,
        warmup_at,
        slas: slas_kept,
        breakdown_compute: Default::default(),
        breakdown_queue: Default::default(),
        breakdown_network: metrics::Summary::new(),
        tracer,
        track_of_slot,
        client_tracks,
        obs,
        instance_ids,
        detector,
        rng_hb,
        routable,
        derouted,
        crash_pending: HashMap::new(),
        inflight: HashMap::new(),
        ladder,
        resilience: crate::report::ResilienceReport::default(),
        wire,
        site_map,
        streaming,
        scale_e2e: streaming.then(LogHistogram::for_latency_ms),
        flight,
        prof,
        slo_seen: 0,
    };

    let mut sim: SimW = Sim::new();
    // The simulator core's own pop/exec phase timers ride the same
    // sampling shift as the world profiler.
    if let Some(oc) = world.cfg.observatory {
        sim.enable_profiling(oc.prof_shift);
    }
    // Kick off client sources.
    for i in 0..world.clients.len() {
        let at = world.clients[i].start_at;
        sim.schedule_at(at, move |w, s| client_emit(w, s, i));
    }
    // 1 Hz metric sampling.
    sim.schedule(SimDuration::from_secs(1), sample_metrics);
    // 5 Hz sidecar estimate refresh (scAtteR++): propagate each stage's
    // observed cost into upstream projections.
    if world.cfg.mode.sidecar_queue() {
        sim.schedule(SimDuration::from_millis(200), refresh_estimates);
    }
    // 4 Hz sift state eviction sweep (scAtteR only; harmless otherwise).
    sim.schedule(SimDuration::from_millis(250), evict_sweep);
    // Resilience: per-instance heartbeats + the detector's sweep loop.
    if let Some(det_cfg) = world.cfg.resilience.detection {
        for slot in 0..world.services.len() {
            sim.schedule(det_cfg.hb_interval, move |w, s| heartbeat(w, s, slot));
        }
        sim.schedule(det_cfg.hb_interval, detector_check);
    }
    // Resilience: the overload controller's backpressure sampling tick.
    if let Some(lcfg) = world.cfg.resilience.ladder {
        sim.schedule(lcfg.tick, ladder_tick);
    }
    // Failure injection schedule.
    for (at, kind, replica) in world.cfg.failures.clone() {
        sim.schedule_at(SimTime::ZERO + at, move |w, s| {
            crash_instance(w, s, kind, replica)
        });
    }

    sim.run_until(&mut world, end_at);
    let events_executed = sim.executed();
    let (log, tail_stats) = std::mem::take(&mut world.tracer).finish(end_at.as_nanos());
    let artifacts = ObsArtifacts {
        tail: tail_stats,
        flight_dumps: world
            .flight
            .as_ref()
            .map_or_else(Vec::new, |f| f.take_dumps()),
        prof: world.prof.as_ref().map(|p| p.snapshot()),
        sim_prof: sim.profile(),
    };
    let des_telemetry = match world.obs.take() {
        Some(obs) => DesTelemetry {
            slo_events: obs.slo_events,
            window_snapshots: obs.window_snapshots,
            slo: obs.slo,
        },
        None => DesTelemetry {
            slo_events: Vec::new(),
            window_snapshots: Vec::new(),
            slo: telemetry::SloTracker::new(telemetry::SloConfig::default()),
        },
    };
    (
        (build_report(world, events_executed), des_telemetry),
        log,
        artifacts,
    )
}

/// Network-loss drop reason: a multi-fragment datagram dies to
/// fragment loss, a single-fragment one to plain netem loss.
fn net_loss_reason(payload_bytes: usize) -> trace::DropReason {
    if simnet::Link::fragments(payload_bytes) > 1 {
        trace::DropReason::FragmentLoss
    } else {
        trace::DropReason::NetemLoss
    }
}

// ---------------------------------------------------------------------
// Event functions
// ---------------------------------------------------------------------

fn client_emit(w: &mut PipelineWorld, sim: &mut SimW, client: usize) {
    let now = sim.now();
    if now >= w.end_at {
        return;
    }
    let frame_no = w.clients[client].emitted;
    w.clients[client].emitted += 1;
    if now >= w.warmup_at {
        w.clients[client].emitted_measured += 1;
    }
    // Degradation ladder: the client's current rung shapes (or denies)
    // this capture.
    let level = w.ladder.as_ref().map_or(0, |l| l.level(client));
    let mut bytes = w.cost.payload_into(ServiceKind::Primary, w.cfg.mode);
    if level >= crate::resilience::LADDER_DOWNSCALE {
        let lcfg = w.cfg.resilience.ladder.expect("rung > 0 implies a ladder");
        bytes = ((bytes as f64) * lcfg.downscale_payload).max(1.0) as usize;
    }
    if let Some(ws) = &w.wire {
        // Wire model: the uplink carries what the real encoder pipeline
        // produces for this frame (overriding the abstract cost-model
        // payload, and any ladder downscale — the model owns the bytes).
        bytes = ws.frame_bytes(client, frame_no) as usize;
    }
    let mut msg = FrameMsg::new(client, frame_no, w.client_node(client), now, bytes);
    msg.quality = level.min(crate::resilience::LADDER_HALF_RATE);
    msg.trace = w.tracer.ctx(client as u16, frame_no as u32);
    w.tracer.emitted(msg.trace, now.as_nanos());
    if let Some(o) = &w.obs {
        o.frames_emitted.inc();
    }
    if level >= crate::resilience::LADDER_DENIED {
        // The ladder's last rung: admission denied with an explicit NACK
        // — the client knows immediately instead of silently losing the
        // frame past the knee.
        w.resilience.admission_nacks += 1;
        w.tracer.terminal(
            msg.trace,
            now.as_nanos(),
            trace::FrameFate::Dropped(trace::DropReason::AdmissionNack),
        );
        if let Some(o) = w.obs.as_mut() {
            o.slo_breach(now.as_secs_f64());
        }
    } else {
        if msg.quality >= crate::resilience::LADDER_DOWNSCALE {
            w.resilience.degraded_frames += 1;
        }
        arm_deadline(w, sim, client, frame_no, 0);
        send_uplink(w, sim, msg);
    }

    // Half-rate rungs skip every other slot on the capture grid (the
    // camera effectively runs at 15 FPS; skipped slots never become
    // frames, so the skipped frame numbers read as inter-update gaps).
    if w.ladder.as_ref().map_or(1, |l| l.period_factor(client)) == 2 {
        w.clients[client].emitted += 1;
    }
    // Next frame: grid-scheduled with per-frame capture jitter so
    // concurrent clients cannot phase-lock against each other.
    let jitter = SimDuration::from_millis_f64(w.rng_misc.uniform(0.0, w.cost.emit_jitter_ms));
    let next = w.clients[client].next_emit_at() + jitter;
    sim.schedule_at(next, move |w, s| client_emit(w, s, client));
}

/// Re-emit a fresh capture after a response deadline expired. AR cannot
/// usefully re-send the stale original pixels, so the retry is a *new*
/// capture of the scene at `now` — staleness filtering measures from the
/// retry's own emission — carrying the same frame number with a distinct
/// per-attempt trace identity (frame conservation holds attempt by
/// attempt).
fn client_retry(w: &mut PipelineWorld, sim: &mut SimW, client: usize, frame_no: u64, attempt: u8) {
    let now = sim.now();
    if now >= w.end_at {
        return;
    }
    let level = w.ladder.as_ref().map_or(0, |l| l.level(client));
    if level >= crate::resilience::LADDER_DENIED {
        // Admission control outranks the retry policy.
        return;
    }
    let mut bytes = w.cost.payload_into(ServiceKind::Primary, w.cfg.mode);
    if level >= crate::resilience::LADDER_DOWNSCALE {
        let lcfg = w.cfg.resilience.ladder.expect("rung > 0 implies a ladder");
        bytes = ((bytes as f64) * lcfg.downscale_payload).max(1.0) as usize;
    }
    if let Some(ws) = &w.wire {
        // A retry re-captures the scene at the same grid slot, so it
        // re-ships the same frame's schedule entry.
        bytes = ws.frame_bytes(client, frame_no) as usize;
    }
    let mut msg = FrameMsg::new(client, frame_no, w.client_node(client), now, bytes);
    msg.quality = level.min(crate::resilience::LADDER_HALF_RATE);
    msg.attempt = attempt;
    msg.trace = w
        .tracer
        .ctx(client as u16, frame_no as u32 | ((attempt as u32) << 24));
    w.tracer.emitted(msg.trace, now.as_nanos());
    if let Some(o) = &w.obs {
        o.frames_emitted.inc();
    }
    w.resilience.retries += 1;
    arm_deadline(w, sim, client, frame_no, attempt);
    send_uplink(w, sim, msg);
}

/// Ship a client frame toward `primary`. Under the v2 wire model the
/// send is delayed by the client-side codec cost (delta + compression
/// are work the capture pipeline must do before the first datagram
/// leaves); otherwise it goes out immediately, exactly as before.
fn send_uplink(w: &mut PipelineWorld, sim: &mut SimW, msg: FrameMsg) {
    let codec_ms = match &w.wire {
        Some(ws) if ws.cfg.v2 => ws.cfg.codec_cost_ms,
        _ => 0.0,
    };
    let src = msg.client_addr;
    if codec_ms > 0.0 {
        sim.schedule(SimDuration::from_millis_f64(codec_ms), move |w, s| {
            route_to_service(w, s, ServiceKind::Primary, msg, src)
        });
    } else {
        route_to_service(w, sim, ServiceKind::Primary, msg, src);
    }
}

/// Arm (or re-arm, for a retry) the client's response deadline for one
/// frame attempt. No-op when the deadline leg is off.
fn arm_deadline(w: &mut PipelineWorld, sim: &mut SimW, client: usize, frame_no: u64, attempt: u8) {
    let Some(dcfg) = w.cfg.resilience.deadline else {
        return;
    };
    let entry = w.inflight.entry((client, frame_no)).or_default();
    entry.attempt = attempt;
    sim.schedule(dcfg.deadline, move |w, s| {
        deadline_expire(w, s, client, frame_no, attempt)
    });
}

/// A frame attempt's response deadline fired: if the result has not
/// come back, give up on the attempt (its late result, should one still
/// arrive, re-attributes to `ResponseDeadline`) and schedule a
/// backed-off retry while the budget lasts.
fn deadline_expire(
    w: &mut PipelineWorld,
    sim: &mut SimW,
    client: usize,
    frame_no: u64,
    attempt: u8,
) {
    let now = sim.now();
    let Some(dcfg) = w.cfg.resilience.deadline else {
        return;
    };
    let Some(entry) = w.inflight.get_mut(&(client, frame_no)) else {
        return;
    };
    if entry.settled || entry.attempt != attempt {
        return;
    }
    entry.expired_attempts = attempt + 1;
    w.resilience.deadline_expired += 1;
    if (attempt as u32) < dcfg.max_retries {
        let delay = dcfg.retry_delay(attempt as u32 + 1);
        if now + delay < w.end_at {
            sim.schedule(delay, move |w, s| {
                client_retry(w, s, client, frame_no, attempt + 1)
            });
        }
    }
}

/// Pick a replica via the service's balancer and ship the message over
/// the network from `src_node`.
fn route_to_service(
    w: &mut PipelineWorld,
    sim: &mut SimW,
    kind: ServiceKind,
    mut msg: FrameMsg,
    src_node: simnet::NodeId,
) {
    let ki = kind.index();
    if w.routable[ki].is_empty() {
        // Every replica of the next service is detected-failed (only
        // reachable with the detection leg on): an explicit, counted
        // outage drop instead of a datagram into a dead port.
        let now = sim.now();
        w.resilience.outage_drops += 1;
        w.tracer.terminal(
            msg.trace,
            now.as_nanos(),
            trace::FrameFate::Dropped(trace::DropReason::ServiceOutage),
        );
        if let Some(o) = w.obs.as_mut() {
            o.slo_breach(now.as_secs_f64());
        }
        return;
    }
    let n_replicas = w.balancers[ki].n_replicas();
    // matching must reach the sift replica holding the frame state; that
    // path bypasses this router (see send_fetch). Frames to sift record
    // their replica binding for the later fetch.
    let replica = w.balancers[ki].pick(msg.client as u64);
    // Identical to `routable[ki][replica]`: `revive` keeps the balancer
    // and the map in step.
    let slot = w.routable[ki][replica % w.routable[ki].len()];
    if w.derouted[slot] {
        // Failover correctness: the balancer must never hand a frame to
        // an instance the detector already removed. Counted (and gated
        // to zero) rather than asserted so a regression is observable.
        w.resilience.post_detection_misroutes += 1;
    }
    if kind == ServiceKind::Sift {
        // The binding is recorded as the *stable* replica ordinal (the
        // index into `replicas`), not the balancer position — failover
        // compacts balancer positions but never reorders `replicas`.
        msg.sift_replica = w.replicas[ki].iter().position(|&s| s == slot);
    }
    msg.step = kind;
    let dst_node = w.cluster.machines()[w.services[slot].machine].net;
    let lb_extra = if n_replicas > 1 {
        SimDuration::from_millis_f64(w.cost.lb_overhead_ms)
    } else {
        SimDuration::ZERO
    };
    let now = sim.now();
    // An uplink send is one originating at the frame's own client node
    // (legacy: always `client-host`; at scale: the client's site).
    if kind == ServiceKind::Primary && src_node == msg.client_addr {
        if let Some(ws) = w.wire.as_mut() {
            // Bytes are counted where they are *offered* — the same
            // send-site definition the runtime's per-socket counter
            // uses, so the two planes agree datagram for datagram.
            ws.uplink_bytes += msg.payload_bytes as u64;
            let idx = ws.sent;
            ws.sent += 1;
            if idx < ws.cfg.corrupt_first {
                msg.corrupted = true;
            }
        }
    }
    let t0 = w.prof.as_mut().and_then(|p| p.enter(PH_NET));
    let delivery = w.net.send(src_node, dst_node, msg.payload_bytes, now);
    if let Some(p) = w.prof.as_mut() {
        p.exit(PH_NET, t0);
    }
    match delivery {
        simnet::Delivery::Lost => {
            let reason = net_loss_reason(msg.payload_bytes);
            w.tracer
                .terminal(msg.trace, now.as_nanos(), trace::FrameFate::Dropped(reason));
            if let Some(o) = w.obs.as_mut() {
                match reason {
                    trace::DropReason::FragmentLoss => o.net_drop_fragment.inc(),
                    _ => o.net_drop_netem.inc(),
                }
                o.slo_breach(now.as_secs_f64());
            }
        }
        simnet::Delivery::Delayed(d) => {
            // The transit span is recorded up front (the arrival event may
            // fall past the run's end); clamp to the horizon so run-end
            // terminals never precede a span's end.
            let arrive_ns = (now + d + lb_extra).as_nanos().min(w.end_at.as_nanos());
            w.tracer.span(
                msg.trace,
                w.track_of_slot[slot],
                ki as u8,
                trace::Phase::NetworkTransit,
                now.as_nanos(),
                arrive_ns,
            );
            sim.schedule(d + lb_extra, move |w, s| frame_arrive(w, s, slot, msg));
        }
    }
}

fn frame_arrive(w: &mut PipelineWorld, sim: &mut SimW, slot: usize, msg: FrameMsg) {
    let now = sim.now();
    w.services[slot].record_ingress(now);
    if let Some(o) = &w.obs {
        o.slots[slot].ingress.inc();
    }
    if w.services[slot].down_until.is_some() {
        // Nothing is listening on a crashed container's port.
        w.services[slot].drops.down += 1;
        w.services[slot].record_drop(now);
        w.tracer.terminal(
            msg.trace,
            now.as_nanos(),
            trace::FrameFate::Dropped(trace::DropReason::Crash),
        );
        if let Some(o) = w.obs.as_mut() {
            o.slots[slot].drop_crash.inc();
            o.slo_breach(now.as_secs_f64());
        }
        return;
    }
    // v1 ingress has no integrity check: a corrupted payload is accepted
    // silently and sails on — the contrast the wire experiment makes
    // visible. Only a v2 ingress catches the damage here.
    if msg.corrupted
        && msg.step == ServiceKind::Primary
        && w.wire.as_ref().is_some_and(|ws| ws.cfg.v2)
    {
        // v2 ingress: the envelope CRC catches the in-flight damage
        // before anything is parsed — a counted, attributed drop.
        if let Some(ws) = w.wire.as_mut() {
            ws.invalid_crc += 1;
        }
        w.services[slot].record_drop(now);
        w.tracer.terminal(
            msg.trace,
            now.as_nanos(),
            trace::FrameFate::Dropped(trace::DropReason::InvalidCrc),
        );
        if let Some(o) = w.obs.as_mut() {
            o.slo_breach(now.as_secs_f64());
        }
        return;
    }
    if !w.cfg.mode.sidecar_queue() {
        // Drop-on-busy ingress.
        if w.services[slot].busy {
            w.services[slot].drops.busy += 1;
            w.services[slot].record_drop(now);
            w.tracer.terminal(
                msg.trace,
                now.as_nanos(),
                trace::FrameFate::Dropped(trace::DropReason::BusyIngress),
            );
            if let Some(o) = w.obs.as_mut() {
                o.slots[slot].drop_busy.inc();
                o.slo_breach(now.as_secs_f64());
            }
            return;
        }
        accept_frame(w, sim, slot, msg);
    } else {
        let rejected = {
            let svc = &mut w.services[slot];
            let sc = svc.sidecar.as_mut().expect("sidecar mode has sidecars");
            sc.enqueue_or_reject(msg, now)
        };
        if let Some(rejected) = rejected {
            w.services[slot].drops.stale += 1;
            w.services[slot].record_drop(now);
            w.tracer.terminal(
                rejected.trace,
                now.as_nanos(),
                trace::FrameFate::Dropped(trace::DropReason::ThresholdFilter),
            );
            if let Some(o) = w.obs.as_mut() {
                o.slots[slot].drop_threshold.inc();
                o.slo_breach(now.as_secs_f64());
            }
        }
        if !w.services[slot].busy {
            pull_from_sidecar(w, sim, slot);
        }
    }
}

/// scAtteR++: pull the next fresh frame from the sidecar, if any.
fn pull_from_sidecar(w: &mut PipelineWorld, sim: &mut SimW, slot: usize) {
    let now = sim.now();
    let kind_idx = w.services[slot].kind.index();
    let (msg, waited, filtered) = {
        let svc = &mut w.services[slot];
        let sc = svc.sidecar.as_mut().expect("scAtteR++ has sidecars");
        let (outcome, mut msg, filtered) = sc.dequeue_with_drops(now);
        let waited = match outcome {
            crate::sidecar::Dequeue::Serve(wt) => Some(wt),
            crate::sidecar::Dequeue::Empty => None,
        };
        if let (Some(wt), Some(m)) = (waited, msg.as_mut()) {
            m.stage_queue_ms[kind_idx] += wt.as_millis_f64();
        }
        (msg, waited, filtered)
    };
    if !filtered.is_empty() {
        w.services[slot].drops.stale += filtered.len() as u64;
        w.services[slot].record_drop(now);
        for f in &filtered {
            w.tracer.terminal(
                f.trace,
                now.as_nanos(),
                trace::FrameFate::Dropped(trace::DropReason::ThresholdFilter),
            );
        }
        if let Some(o) = w.obs.as_mut() {
            o.slots[slot].drop_threshold.add(filtered.len() as u64);
            for _ in &filtered {
                o.slo_breach(now.as_secs_f64());
            }
        }
    }
    if let Some(msg) = msg {
        if let Some(wt) = waited {
            w.tracer.span(
                msg.trace,
                w.track_of_slot[slot],
                kind_idx as u8,
                trace::Phase::SidecarHold,
                now.as_nanos().saturating_sub(wt.as_nanos()),
                now.as_nanos(),
            );
        }
        accept_frame(w, sim, slot, msg);
    }
}

/// A service takes ownership of a frame: becomes busy and either starts
/// compute (everything except scAtteR `matching`) or launches the
/// feature fetch (scAtteR `matching`).
fn accept_frame(w: &mut PipelineWorld, sim: &mut SimW, slot: usize, msg: FrameMsg) {
    w.services[slot].busy = true;
    let kind = w.services[slot].kind;
    if kind == ServiceKind::Matching && !w.cfg.mode.stateless_sift() {
        send_fetch(w, sim, slot, msg);
    } else {
        start_compute(w, sim, slot, msg);
    }
}

/// Charge the machine for this service's execution and schedule its
/// completion. GPU services contend for the machine's token pool.
fn start_compute(w: &mut PipelineWorld, sim: &mut SimW, slot: usize, msg: FrameMsg) {
    let now = sim.now();
    let kind = w.services[slot].kind;
    let machine = w.services[slot].machine;
    let spec = &w.cluster.machines()[machine];
    let arch_mult = spec.gpu_arch.map_or(1.0, |a| a.speed_multiplier());
    let occ_mult = spec.gpu_arch.map_or(1.0, |a| a.gpu_occupancy_multiplier());
    let virtualized = spec.virtualized;
    // Wall time (what the service latency metric sees) vs GPU occupancy
    // (what contends on the token pool): a virtualized V100 is slow in
    // wall time without saturating its GPU.
    let t0 = w.prof.as_mut().and_then(|p| p.enter(PH_COST));
    let duration = w
        .cost
        .sample_service_time(kind, arch_mult, virtualized, &mut w.rng_service);
    if let Some(p) = w.prof.as_mut() {
        p.exit(PH_COST, t0);
    }
    // Pyramid-downscaled captures (ladder rung ≥ 1) cost proportionally
    // less work at every stage. The sample above is drawn regardless so
    // the RNG stream stays aligned with a ladder-off run.
    let duration = if msg.quality >= crate::resilience::LADDER_DOWNSCALE {
        let f = w.cfg.resilience.ladder.map_or(1.0, |l| l.downscale_compute);
        SimDuration::from_secs_f64(duration.as_secs_f64() * f)
    } else {
        duration
    };
    // Processor-sharing GPU contention: the kernel starts now, slowed by
    // the machine's current GPU oversubscription.
    let (wall, occupancy, ps_weight) = if kind.needs_gpu() {
        let weight = (occ_mult / arch_mult).min(1.0);
        let slowdown = w.gpu_pools[machine].ps_begin(weight);
        let wall = SimDuration::from_secs_f64(duration.as_secs_f64() * slowdown);
        let occ = SimDuration::from_secs_f64(duration.as_secs_f64() * weight);
        (wall, occ, weight)
    } else {
        (duration, SimDuration::ZERO, 0.0)
    };
    let completion = now + wall;
    // Hardware meters: GPU time for GPU stages, CPU for primary plus a
    // driver-side fraction for GPU stages.
    let meters = w.cluster.meters_mut(machine);
    if kind.needs_gpu() {
        meters.gpu.add_busy(completion, occupancy);
        meters.cpu.add_busy(
            completion,
            SimDuration::from_secs_f64(duration.as_secs_f64() * w.cost.gpu_cpu_fraction),
        );
    } else {
        meters.cpu.add_busy(completion, duration);
    }
    let accepted_at = now;
    let generation = w.services[slot].generation;
    sim.schedule_at(completion, move |w, s| {
        if ps_weight > 0.0 {
            let m = w.services[slot].machine;
            w.gpu_pools[m].ps_end(ps_weight);
        }
        // A crash between acceptance and completion voids the execution.
        if w.services[slot].generation != generation {
            w.tracer.terminal(
                msg.trace,
                s.now().as_nanos(),
                trace::FrameFate::Dropped(trace::DropReason::Crash),
            );
            if let Some(o) = w.obs.as_mut() {
                o.slo_breach(s.now().as_secs_f64());
            }
            return;
        }
        complete_compute(w, s, slot, msg, accepted_at)
    });
}

fn complete_compute(
    w: &mut PipelineWorld,
    sim: &mut SimW,
    slot: usize,
    mut msg: FrameMsg,
    accepted_at: SimTime,
) {
    let now = sim.now();
    let kind = w.services[slot].kind;
    let observed_ms = now.saturating_since(accepted_at).as_millis_f64();
    w.tracer.span(
        msg.trace,
        w.track_of_slot[slot],
        kind.index() as u8,
        trace::Phase::Compute,
        accepted_at.as_nanos(),
        now.as_nanos(),
    );
    msg.stage_compute_ms[kind.index()] += observed_ms;
    w.services[slot].service_latency_ms.record(observed_ms);
    // Feed the sidecar's projection with what the service actually costs
    // under current contention (EWMA over recent executions).
    let ewma = if w.services[slot].ewma_service_ms == 0.0 {
        observed_ms
    } else {
        0.9 * w.services[slot].ewma_service_ms + 0.1 * observed_ms
    };
    w.services[slot].ewma_service_ms = ewma;
    if let Some(sc) = w.services[slot].sidecar.as_mut() {
        // The sidecar folds the raw observation into its own running
        // EWMA (seeded from the cost model at deploy time) — the same
        // estimate its backpressure export is built from.
        sc.observe_service_ms(observed_ms);
    }
    w.services[slot].processed += 1;
    w.services[slot].busy = false;
    if let Some(o) = &w.obs {
        o.slots[slot].latency_ms.record(observed_ms);
        o.slots[slot].processed.inc();
    }

    let src_node = w.cluster.machines()[w.services[slot].machine].net;
    match kind {
        ServiceKind::Primary => {
            msg.payload_bytes = w.cost.payload_into(ServiceKind::Sift, w.cfg.mode);
            route_to_service(w, sim, ServiceKind::Sift, msg, src_node);
        }
        ServiceKind::Sift => {
            if !w.cfg.mode.stateless_sift() {
                // Stateful: park the features until matching fetches them.
                let key = msg.key();
                let bytes = w.cost.state_entry_bytes;
                w.services[slot].store_state(
                    key,
                    StateEntry {
                        stored_at: now,
                        bytes,
                    },
                );
            }
            msg.payload_bytes = w.cost.payload_into(ServiceKind::Encoding, w.cfg.mode);
            route_to_service(w, sim, ServiceKind::Encoding, msg, src_node);
        }
        ServiceKind::Encoding => {
            msg.payload_bytes = w.cost.payload_into(ServiceKind::Lsh, w.cfg.mode);
            route_to_service(w, sim, ServiceKind::Lsh, msg, src_node);
        }
        ServiceKind::Lsh => {
            msg.payload_bytes = w.cost.payload_into(ServiceKind::Matching, w.cfg.mode);
            route_to_service(w, sim, ServiceKind::Matching, msg, src_node);
        }
        ServiceKind::Matching => {
            msg.payload_bytes = w.cost.result_bytes();
            deliver_result(w, sim, msg, src_node);
        }
    }

    // Sidecar modes: the freed service immediately pulls the next queued
    // frame. Stateful modes: a freed sift serves buffered fetches first.
    if kind == ServiceKind::Sift && !w.cfg.mode.stateless_sift() {
        drain_fetch_queue(w, sim, slot);
    }
    if w.cfg.mode.sidecar_queue() {
        pull_from_sidecar(w, sim, slot);
    }
}

/// scAtteR `matching`: request the frame's feature state from the sift
/// replica that produced it. `matching` stays busy ("busy waiting for
/// sift's output") until the response or the timeout.
fn send_fetch(w: &mut PipelineWorld, sim: &mut SimW, slot: usize, mut msg: FrameMsg) {
    let now = sim.now();
    // Stamp the fetch start; the wait until the response is charged to
    // matching's queue share of the latency breakdown.
    msg.stage_queue_ms[ServiceKind::Matching.index()] -= now.as_millis_f64();
    let sift_replica = msg
        .sift_replica
        .expect("frame reached matching without a sift binding");
    let sift_slot = w.replicas[ServiceKind::Sift.index()][sift_replica];
    let src_node = w.cluster.machines()[w.services[slot].machine].net;
    let dst_node = w.cluster.machines()[w.services[sift_slot].machine].net;

    let timeout_id = {
        let key = msg.key();
        sim.schedule(w.cost.fetch_timeout(), move |w, s| {
            fetch_timeout(w, s, slot, key)
        })
    };
    w.services[slot].pending_fetch = Some((msg, timeout_id, now));

    match w
        .net
        .send(src_node, dst_node, w.cost.fetch_request_bytes(), now)
    {
        simnet::Delivery::Lost => {}
        simnet::Delivery::Delayed(d) => {
            sim.schedule(d, move |w, s| fetch_arrive_at_sift(w, s, sift_slot, slot));
        }
    }
}

/// Socket-buffer bound for fetch requests parked at a busy sift.
const FETCH_QUEUE_CAP: usize = 16;

/// The fetch request reaches sift. The tiny request datagram sits in the
/// kernel socket buffer while sift is busy (overflow is dropped and the
/// matching timeout fires); an idle sift serves it and ships the features.
fn fetch_arrive_at_sift(
    w: &mut PipelineWorld,
    sim: &mut SimW,
    sift_slot: usize,
    matching_slot: usize,
) {
    let key = match &w.services[matching_slot].pending_fetch {
        Some((msg, _, _)) => msg.key(),
        // Matching already timed out; nothing to serve.
        None => return,
    };
    if w.services[sift_slot].busy {
        if w.services[sift_slot].fetch_queue.len() >= FETCH_QUEUE_CAP {
            w.services[sift_slot].fetch_dropped += 1;
            if let Some(o) = &w.obs {
                o.slots[sift_slot].fetch_dropped.inc();
            }
            return;
        }
        w.services[sift_slot]
            .fetch_queue
            .push_back((matching_slot, key));
        return;
    }
    serve_fetch(w, sim, sift_slot, matching_slot, key);
}

/// Execute one fetch on an idle sift.
fn serve_fetch(
    w: &mut PipelineWorld,
    sim: &mut SimW,
    sift_slot: usize,
    matching_slot: usize,
    key: (usize, u64),
) {
    if !w.services[sift_slot].state_store.contains_key(&key) {
        // State evicted (or this is a different in-flight frame): the
        // matching timeout handles the loss. Move on to any queued fetch.
        drain_fetch_queue(w, sim, sift_slot);
        return;
    }
    w.services[sift_slot].busy = true;
    let machine = w.services[sift_slot].machine;
    let arch_mult = w.cluster.machines()[machine]
        .gpu_arch
        .map_or(1.0, |a| a.speed_multiplier());
    let d = w.cost.sample_fetch_time(arch_mult, &mut w.rng_service);
    let completion = sim.now() + d;
    w.cluster.meters_mut(machine).cpu.add_busy(completion, d);
    sim.schedule_at(completion, move |w, s| {
        fetch_served(w, s, sift_slot, matching_slot, key)
    });
}

/// A sift that just went idle picks up the next buffered fetch request.
fn drain_fetch_queue(w: &mut PipelineWorld, sim: &mut SimW, sift_slot: usize) {
    if w.services[sift_slot].busy {
        return;
    }
    if let Some((matching_slot, key)) = w.services[sift_slot].fetch_queue.pop_front() {
        // Skip fetches whose matching side already gave up.
        let still_wanted = w.services[matching_slot]
            .pending_fetch
            .as_ref()
            .is_some_and(|(m, _, _)| m.key() == key);
        if still_wanted {
            serve_fetch(w, sim, sift_slot, matching_slot, key);
        } else {
            drain_fetch_queue(w, sim, sift_slot);
        }
    }
}

fn fetch_served(
    w: &mut PipelineWorld,
    sim: &mut SimW,
    sift_slot: usize,
    matching_slot: usize,
    key: (usize, u64),
) {
    w.services[sift_slot].busy = false;
    drain_fetch_queue(w, sim, sift_slot);
    if w.services[sift_slot].state_store.remove(&key).is_none() {
        return;
    }
    w.services[sift_slot].fetch_served += 1;
    if let Some(o) = &w.obs {
        o.slots[sift_slot].fetch_served.inc();
    }
    let src_node = w.cluster.machines()[w.services[sift_slot].machine].net;
    let dst_node = w.cluster.machines()[w.services[matching_slot].machine].net;
    match w
        .net
        .send(src_node, dst_node, w.cost.fetch_response_bytes(), sim.now())
    {
        simnet::Delivery::Lost => {}
        simnet::Delivery::Delayed(d) => {
            sim.schedule(d, move |w, s| fetch_response(w, s, matching_slot, key));
        }
    }
}

/// Features arrived back at matching: cancel the timeout and run the
/// actual pose-estimation compute.
fn fetch_response(w: &mut PipelineWorld, sim: &mut SimW, matching_slot: usize, key: (usize, u64)) {
    let Some((mut msg, timeout_id, sent_at)) = w.services[matching_slot].pending_fetch.take()
    else {
        return;
    };
    if msg.key() != key {
        // A stale response for a frame matching already gave up on.
        w.services[matching_slot].pending_fetch = Some((msg, timeout_id, sent_at));
        return;
    }
    sim.cancel(timeout_id);
    // Close the fetch-wait stamp opened in send_fetch.
    msg.stage_queue_ms[ServiceKind::Matching.index()] += sim.now().as_millis_f64();
    // The fetch-wait span subsumes the fetch datagrams' transit and
    // sift's service time — the dependency loop's direct cost.
    w.tracer.span(
        msg.trace,
        w.track_of_slot[matching_slot],
        ServiceKind::Matching.index() as u8,
        trace::Phase::FetchWait,
        sent_at.as_nanos(),
        sim.now().as_nanos(),
    );
    start_compute(w, sim, matching_slot, msg);
}

fn fetch_timeout(w: &mut PipelineWorld, sim: &mut SimW, matching_slot: usize, key: (usize, u64)) {
    let now = sim.now();
    let Some((msg, _, sent_at)) = &w.services[matching_slot].pending_fetch else {
        return;
    };
    if msg.key() != key {
        return;
    }
    let (ctx, sent_at) = (msg.trace, *sent_at);
    w.services[matching_slot].pending_fetch = None;
    w.services[matching_slot].drops.fetch_timeout += 1;
    w.services[matching_slot].record_drop(now);
    w.services[matching_slot].busy = false;
    // Record where the frame's last milliseconds went before attributing
    // the drop: it died busy-waiting on sift.
    w.tracer.span(
        ctx,
        w.track_of_slot[matching_slot],
        ServiceKind::Matching.index() as u8,
        trace::Phase::FetchWait,
        sent_at.as_nanos(),
        now.as_nanos(),
    );
    w.tracer.terminal(
        ctx,
        now.as_nanos(),
        trace::FrameFate::Dropped(trace::DropReason::StaleFetch),
    );
    if let Some(o) = w.obs.as_mut() {
        o.slots[matching_slot].drop_stale_fetch.inc();
        o.slo_breach(now.as_secs_f64());
    }
}

/// Send the processed frame (bounding boxes) back to its client.
fn deliver_result(w: &mut PipelineWorld, sim: &mut SimW, msg: FrameMsg, src_node: simnet::NodeId) {
    let now = sim.now();
    let t0 = w.prof.as_mut().and_then(|p| p.enter(PH_DELIVER));
    let delivery = w
        .net
        .send(src_node, msg.client_addr, msg.payload_bytes, now);
    if let Some(p) = w.prof.as_mut() {
        p.exit(PH_DELIVER, t0);
    }
    match delivery {
        simnet::Delivery::Lost => {
            let reason = net_loss_reason(msg.payload_bytes);
            w.tracer
                .terminal(msg.trace, now.as_nanos(), trace::FrameFate::Dropped(reason));
            if let Some(o) = w.obs.as_mut() {
                match reason {
                    trace::DropReason::FragmentLoss => o.net_drop_fragment.inc(),
                    _ => o.net_drop_netem.inc(),
                }
                o.slo_breach(now.as_secs_f64());
            }
        }
        simnet::Delivery::Delayed(d) => {
            let arrive_ns = (now + d).as_nanos().min(w.end_at.as_nanos());
            w.tracer.span(
                msg.trace,
                w.client_tracks[msg.client],
                trace::STAGE_CLIENT,
                trace::Phase::NetworkTransit,
                now.as_nanos(),
                arrive_ns,
            );
            sim.schedule(d, move |w, s| {
                let now = s.now();
                // Deadline leg: a result whose attempt already expired
                // (or whose frame was settled by another attempt) is
                // re-attributed, not double-counted.
                if w.cfg.resilience.deadline.is_some() {
                    let late = match w.inflight.get_mut(&msg.key()) {
                        Some(e) => {
                            if e.settled || msg.attempt < e.expired_attempts {
                                true
                            } else {
                                e.settled = true;
                                false
                            }
                        }
                        None => false,
                    };
                    if late {
                        w.resilience.late_completions += 1;
                        w.tracer.terminal(
                            msg.trace,
                            now.as_nanos(),
                            trace::FrameFate::Dropped(trace::DropReason::ResponseDeadline),
                        );
                        if let Some(o) = w.obs.as_mut() {
                            o.slo_breach(now.as_secs_f64());
                        }
                        return;
                    }
                }
                w.tracer.terminal_with_emit(
                    msg.trace,
                    msg.emitted_at.as_nanos(),
                    now.as_nanos(),
                    trace::FrameFate::Completed,
                );
                let e2e_ms = now.saturating_since(msg.emitted_at).as_millis_f64();
                for i in 0..5 {
                    w.breakdown_compute[i].record(msg.stage_compute_ms[i]);
                    w.breakdown_queue[i].record(msg.stage_queue_ms[i].max(0.0));
                }
                w.breakdown_network
                    .record((e2e_ms - msg.total_compute_ms() - msg.total_queue_ms()).max(0.0));
                if let Some(o) = w.obs.as_mut() {
                    o.frames_completed.inc();
                    o.e2e_ms.record(e2e_ms);
                    o.slo_complete(now.as_secs_f64(), e2e_ms);
                }
                if w.streaming {
                    let (ws, we) = (w.warmup_at, w.end_at);
                    let e2e = w.clients[msg.client].record_completion_streaming(
                        msg.frame_no,
                        msg.emitted_at,
                        now,
                        ws,
                        we,
                    );
                    if let Some(h) = w.scale_e2e.as_mut() {
                        h.record(e2e);
                    }
                } else {
                    w.clients[msg.client].record_completion(msg.frame_no, msg.emitted_at, now);
                }
                // A completion belongs to the measurement window iff its
                // *emission* did — otherwise warmup-boundary frames can
                // push the success ratio past 1.
                if msg.emitted_at >= w.warmup_at {
                    w.clients[msg.client].completed_measured += 1;
                }
            });
        }
    }
}

/// 1 Hz resident-memory sampling (per instance and per machine).
fn sample_metrics(w: &mut PipelineWorld, sim: &mut SimW) {
    let now = sim.now();
    let t0 = w.prof.as_mut().and_then(|p| p.enter(PH_SLO));
    let mut machine_totals = vec![0.0f64; w.cluster.machines().len()];
    for slot in 0..w.services.len() {
        let svc = &w.services[slot];
        let base = w.cost.base_memory_gb[svc.kind.index()];
        let state_gb = svc.state_bytes() as f64 / 1e9;
        let queue_gb = svc
            .sidecar
            .as_ref()
            .map_or(0.0, |sc| (sc.len() * w.cost.queue_slot_bytes) as f64 / 1e9);
        let total = base + state_gb + queue_gb;
        w.mem_series[slot].push(now, total);
        machine_totals[svc.machine] += total;
        if let Some(o) = &w.obs {
            o.slots[slot].memory_gb.set(total);
            // Queue depth: the sidecar queue (scAtteR++) or the fetch
            // requests parked at a busy sift (scAtteR).
            let depth = svc
                .sidecar
                .as_ref()
                .map_or(svc.fetch_queue.len(), |sc| sc.len());
            o.slots[slot].queue_depth.set(depth as f64);
        }
    }
    for (mi, total) in machine_totals.iter().enumerate() {
        w.machine_mem[mi].push(now, *total);
        if let Some(o) = &w.obs {
            o.machine_mem[mi].set(*total);
        }
    }
    if w.obs.is_some() {
        // CPU/GPU proxy gauges from the cluster's hardware meters, and
        // the SLO state machine's 1 Hz evaluation.
        let hw = w.cluster.hardware_snapshot(now);
        let names: Vec<String> = w
            .cluster
            .machines()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        if let Some(o) = w.obs.as_mut() {
            for (mi, name) in names.iter().enumerate() {
                let (cpu, gpu, _) = hw[name];
                o.machine_cpu[mi].set(cpu);
                o.machine_gpu[mi].set(gpu);
            }
            o.tick(now.as_secs_f64());
        }
    }
    // Flight recorder: mirror new SLO transitions into the control
    // ring; a burn-rate *alert* freezes a dump (a clear does not —
    // recovery is not an anomaly).
    let (mut alerts, mut clears) = (0u64, 0u64);
    if let Some(o) = &w.obs {
        for ev in &o.slo_events[w.slo_seen..] {
            match ev.kind {
                telemetry::SloEventKind::BurnRateAlert { .. } => alerts += 1,
                telemetry::SloEventKind::BurnRateClear { .. } => clears += 1,
            }
        }
        w.slo_seen = o.slo_events.len();
    }
    if let Some(fr) = &w.flight {
        for _ in 0..alerts {
            fr.record(0, now.as_nanos(), observatory::flight::KIND_SLO_ALERT, 0, 0);
        }
        for _ in 0..clears {
            fr.record(0, now.as_nanos(), observatory::flight::KIND_SLO_CLEAR, 0, 0);
        }
        if alerts > 0 {
            fr.trigger(now.as_nanos(), "slo-alert");
        }
    }
    if let Some(p) = w.prof.as_mut() {
        p.exit(PH_SLO, t0);
    }
    if now + SimDuration::from_secs(1) <= w.end_at {
        sim.schedule(SimDuration::from_secs(1), sample_metrics);
    }
}

/// Crash one service instance: all in-memory state is lost (sift's
/// frame store, the sidecar queue, any in-flight execution) and the
/// port goes dark until the orchestrator's re-deploy completes — the
/// failure mode Oakestra's self-healing covers (§3.2: "automatically
/// re-deploying services upon failures").
fn crash_instance(w: &mut PipelineWorld, sim: &mut SimW, kind: ServiceKind, replica: usize) {
    let now = sim.now();
    let ki = kind.index();
    let Some(&slot) = w.replicas[ki].get(replica) else {
        return;
    };
    let revive_at = now + w.cfg.recovery;
    if w.cfg.resilience.detection.is_some() {
        // The detection-latency clock starts at the crash instant.
        w.crash_pending.insert(slot, now);
    }
    let mut lost: Vec<trace::TraceCtx> = Vec::new();
    {
        let svc = &mut w.services[slot];
        svc.down_until = Some(revive_at);
        svc.generation += 1;
        svc.busy = false;
        svc.state_store.clear();
        svc.fetch_queue.clear();
        // A frame parked awaiting its fetch dies with the instance (the
        // in-compute frame, if any, is voided by the generation bump and
        // attributed when its completion event fires).
        if let Some((msg, _, _)) = svc.pending_fetch.take() {
            lost.push(msg.trace);
        }
        if let Some(sc) = svc.sidecar.as_mut() {
            // The queue dies with the container; rebuild it empty.
            lost.extend(sc.drain().into_iter().map(|m| m.trace));
            *sc = Sidecar::new(sc.threshold(), sc.service_est(), sc.downstream_est());
        }
    }
    // Observatory: mark the crash instant for tail-sampling adjacency
    // (frames terminating inside the window after it are retained), put
    // the crash and each voided frame on the flight rings, then freeze
    // a dump of the recent history.
    w.tracer.note_crash(now.as_nanos());
    if let Some(fr) = &w.flight {
        fr.record(
            0,
            now.as_nanos(),
            observatory::flight::KIND_CRASH,
            slot as u64,
            lost.len() as u64,
        );
    }
    for ctx in lost {
        if let Some(fr) = &w.flight {
            fr.record(
                w.flight_ring(ctx.client),
                now.as_nanos(),
                observatory::flight::KIND_DROP,
                ctx.trace_id,
                slot as u64,
            );
        }
        w.tracer.terminal(
            ctx,
            now.as_nanos(),
            trace::FrameFate::Dropped(trace::DropReason::Crash),
        );
        if let Some(o) = w.obs.as_mut() {
            // Not mirrored into `scatter_drops_total` — the report's
            // per-service DropCounters don't count crash-voided frames
            // either, and the live counters must match them exactly.
            o.slo_breach(now.as_secs_f64());
        }
    }
    if let Some(fr) = &w.flight {
        fr.trigger(now.as_nanos(), "crash");
    }
    sim.schedule_at(revive_at, move |w, s| revive_instance(w, s, slot));
}

/// The orchestrator's restart completed: the instance's port is live
/// again. With the detection leg on, the revived instance rejoins the
/// routing set and the detector's watch list (its redeployed identity
/// registers fresh, so the outage gap never poisons the EWMA).
fn revive_instance(w: &mut PipelineWorld, sim: &mut SimW, slot: usize) {
    w.services[slot].down_until = None;
    // Recovered before anyone suspected it: cancel the latency clock.
    w.crash_pending.remove(&slot);
    if let Some(fr) = &w.flight {
        fr.record(
            0,
            sim.now().as_nanos(),
            observatory::flight::KIND_REVIVE,
            slot as u64,
            0,
        );
    }
    if !w.derouted[slot] {
        return;
    }
    w.derouted[slot] = false;
    let ki = w.services[slot].kind.index();
    // Invariant: the balancer serves max(routable.len(), 1) positions —
    // through `Err(LastReplica)` it keeps a single (binding-cleared)
    // replica while `routable` is empty. Grow it only when the revived
    // slot actually needs a new position.
    if w.balancers[ki].n_replicas() < w.routable[ki].len() + 1 {
        w.balancers[ki].add_replica();
    }
    w.routable[ki].push(slot);
    if let Some(det) = w.detector.as_mut() {
        det.register(w.instance_ids[slot], sim.now().as_millis_f64());
    }
}

/// One instance's heartbeat loop (detection leg only): beat while the
/// container is up, stay silent while it is down, always reschedule —
/// the loop itself survives crashes just like a real heartbeat thread
/// inside a restarted container would be respawned.
fn heartbeat(w: &mut PipelineWorld, sim: &mut SimW, slot: usize) {
    let now = sim.now();
    if now >= w.end_at {
        return;
    }
    let Some(det_cfg) = w.cfg.resilience.detection else {
        return;
    };
    if w.services[slot].down_until.is_none() {
        if let Some(det) = w.detector.as_mut() {
            det.heartbeat(w.instance_ids[slot], now.as_millis_f64());
        }
    }
    let jitter_ms = w
        .rng_hb
        .as_mut()
        .map_or(0.0, |r| r.uniform(0.0, det_cfg.hb_jitter.as_millis_f64()));
    sim.schedule(
        det_cfg.hb_interval + SimDuration::from_millis_f64(jitter_ms),
        move |w, s| heartbeat(w, s, slot),
    );
}

/// The detector's periodic sweep: newly suspected instances are failed
/// in the cluster, redeployed (§3.2's self-healing loop), and removed
/// from routing so sticky flows rebind to surviving replicas.
fn detector_check(w: &mut PipelineWorld, sim: &mut SimW) {
    let now = sim.now();
    let Some(det_cfg) = w.cfg.resilience.detection else {
        return;
    };
    let suspicions = w
        .detector
        .as_mut()
        .map(|d| d.check(now.as_millis_f64()))
        .unwrap_or_default();
    let mut detected = false;
    for sus in suspicions {
        let Some(slot) = w.instance_ids.iter().position(|&id| id == sus.instance) else {
            continue;
        };
        if w.derouted[slot] {
            continue;
        }
        w.resilience.detections += 1;
        detected = true;
        if let Some(fr) = &w.flight {
            fr.record(
                0,
                now.as_nanos(),
                observatory::flight::KIND_DETECT,
                slot as u64,
                0,
            );
        }
        if let Some(t0) = w.crash_pending.remove(&slot) {
            w.resilience
                .detection_latency_ms
                .push(now.saturating_since(t0).as_millis_f64());
        }
        // Failover: pull the instance out of the routing set. Sticky
        // bindings compact onto the survivors; the last replica's
        // removal is a counted outage, not a panic.
        let ki = w.services[slot].kind.index();
        if let Some(pos) = w.routable[ki].iter().position(|&s| s == slot) {
            match w.balancers[ki].remove_replica(pos) {
                Ok(()) => {
                    w.routable[ki].remove(pos);
                }
                Err(_last) => {
                    w.routable[ki].clear();
                }
            }
        }
        w.derouted[slot] = true;
        if let Some(fr) = &w.flight {
            fr.record(
                0,
                now.as_nanos(),
                observatory::flight::KIND_FAILOVER,
                ki as u64,
                slot as u64,
            );
        }
        // Orchestrator bookkeeping: fail the instance and let the
        // self-healing loop redeploy it on its machine. The redeployed
        // identity takes over the slot when the restart completes.
        let old_id = w.instance_ids[slot];
        w.cluster.fail_instance(old_id);
        let slas = w.slas.clone();
        let healed = w.cluster.redeploy_failed(&slas);
        w.resilience.redeploys += healed.len() as u64;
        if let Some((_, new_id)) = healed.iter().find(|(o, _)| *o == old_id) {
            w.instance_ids[slot] = *new_id;
        }
        if let Some(det) = w.detector.as_mut() {
            det.deregister(old_id);
        }
    }
    if detected {
        if let Some(fr) = &w.flight {
            fr.trigger(now.as_nanos(), "detect");
        }
    }
    if now + det_cfg.hb_interval <= w.end_at {
        sim.schedule(det_cfg.hb_interval, detector_check);
    }
}

/// The overload controller's tick (ladder leg only): sample the worst
/// live sidecar's projected wait and step the ladder with hysteresis.
fn ladder_tick(w: &mut PipelineWorld, sim: &mut SimW) {
    let now = sim.now();
    let Some(lcfg) = w.cfg.resilience.ladder else {
        return;
    };
    let backpressure = (0..w.services.len())
        .filter(|&s| w.services[s].down_until.is_none())
        .filter_map(|s| {
            w.services[s]
                .sidecar
                .as_ref()
                .map(|sc| sc.backpressure_ms())
        })
        .fold(0.0f64, f64::max);
    if let Some(l) = w.ladder.as_mut() {
        l.tick(backpressure);
    }
    if now + lcfg.tick <= w.end_at {
        sim.schedule(lcfg.tick, ladder_tick);
    }
}

/// Propagate observed per-stage costs into every sidecar's downstream
/// estimate (the sidecar metrics exchange of §5 / appendix A.2): stage i
/// projects with Σ_{j>i} (observed cost of stage j + one hop).
fn refresh_estimates(w: &mut PipelineWorld, sim: &mut SimW) {
    let hop_ms = 1.0;
    // Mean observed cost per kind (fallback: cost-model base).
    let mut kind_ms = [0.0f64; 5];
    for (i, cost) in kind_ms.iter_mut().enumerate() {
        let slots = &w.replicas[i];
        let (mut sum, mut n) = (0.0, 0);
        for &slot in slots {
            if w.services[slot].ewma_service_ms > 0.0 {
                sum += w.services[slot].ewma_service_ms;
                n += 1;
            }
        }
        *cost = if n > 0 {
            sum / n as f64
        } else {
            w.cost.base_ms[i]
        };
    }
    for slot in 0..w.services.len() {
        let i = w.services[slot].kind.index();
        let downstream: f64 = kind_ms[i + 1..].iter().map(|c| c + hop_ms).sum::<f64>() + hop_ms;
        if let Some(sc) = w.services[slot].sidecar.as_mut() {
            sc.set_downstream_est(SimDuration::from_millis_f64(downstream));
        }
    }
    if sim.now() + SimDuration::from_millis(200) <= w.end_at {
        sim.schedule(SimDuration::from_millis(200), refresh_estimates);
    }
}

/// Periodic sift state eviction (the paper notes state is held "till
/// timeout", bounding — but not eliminating — the memory growth).
fn evict_sweep(w: &mut PipelineWorld, sim: &mut SimW) {
    let now = sim.now();
    let timeout = w.cost.state_timeout();
    for slot in w.replicas[ServiceKind::Sift.index()].clone() {
        w.services[slot].evict_stale_state(now, timeout);
    }
    if now + SimDuration::from_millis(250) <= w.end_at {
        sim.schedule(SimDuration::from_millis(250), evict_sweep);
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

fn build_report(mut w: PipelineWorld, events_executed: u64) -> RunReport {
    let measure_start = w.warmup_at;
    let measure_end = w.end_at;

    let mut resilience = std::mem::take(&mut w.resilience);
    if let Some(l) = &w.ladder {
        resilience.ladder_steps = l.steps;
        resilience.max_ladder_level = l.max_level_seen;
    }

    // Streaming runs keep no per-client vectors: the aggregates come
    // from the StreamQos counters and land in the ScaleReport instead.
    let streaming = w.streaming;
    let per_client_fps: Vec<f64> = if streaming {
        Vec::new()
    } else {
        w.clients
            .iter()
            .map(|c| c.rate.rate_over(measure_start, measure_end))
            .collect()
    };
    let per_client_fps_median: Vec<f64> = if streaming {
        Vec::new()
    } else {
        w.clients
            .iter()
            .map(|c| c.rate.median_per_second_rate(measure_start, measure_end))
            .collect()
    };

    let (mut em, mut cm) = (0u64, 0u64);
    let mut e2e = metrics::Summary::new();
    let mut jitter_sum = 0.0;
    for c in &w.clients {
        em += c.emitted_measured;
        cm += c.completed_measured;
        if streaming {
            jitter_sum += c.stream.jitter_ms();
        } else {
            e2e.merge(&c.e2e_ms);
            jitter_sum += c.jitter.jitter_ms();
        }
    }
    let success_rate = if em == 0 { 0.0 } else { cm as f64 / em as f64 };
    // Mean of per-client means in both modes — identical arithmetic.
    let jitter_ms = if w.clients.is_empty() {
        0.0
    } else {
        jitter_sum / w.clients.len() as f64
    };
    let max_freeze_frames = if streaming {
        w.clients.iter().map(|c| c.stream.max_freeze).max()
    } else {
        w.clients.iter().map(|c| c.longest_freeze()).max()
    }
    .unwrap_or(0);

    let scale = if streaming {
        let secs = measure_end.saturating_since(measure_start).as_secs_f64();
        let mut fps_per_client = LogHistogram::for_latency_ms();
        let mut completed_in_window = 0u64;
        for c in &w.clients {
            completed_in_window += c.stream.completed_in_window;
            if secs > 0.0 {
                // A log histogram has no zero bucket: idle clients are
                // invisible here but exact in `completed_in_window`.
                fps_per_client.record(c.stream.completed_in_window as f64 / secs);
            }
        }
        Some(crate::report::ScaleReport {
            sites: w.site_map.as_ref().map_or(1, |sm| sm.sites()),
            completed_in_window,
            fps_per_client,
            e2e_hist: w
                .scale_e2e
                .take()
                .unwrap_or_else(LogHistogram::for_latency_ms),
        })
    } else {
        None
    };

    let services: Vec<ServiceReport> = (0..w.services.len())
        .map(|slot| {
            let svc = &w.services[slot];
            let mem = &w.mem_series[slot];
            let peak = mem.iter().map(|(_, v)| v).fold(0.0f64, f64::max);
            // `None` (not 0.0) when there is no sidecar: a scAtteR run
            // has no filter to have a drop ratio.
            let sc_ratio = svc.sidecar.as_ref().map(|sc| sc.drop_ratio());
            let sc_queue_ms = svc
                .sidecar
                .as_ref()
                .map(|sc| sc.mean_queue_time().as_millis_f64());
            // Counters are carried in both modes: streaming runs kept
            // them live; exact runs derive them from the series here.
            let (ing_total, ing_win, drop_win) = match svc.streaming_window {
                Some(_) => (
                    svc.ingress_total,
                    svc.ingress_in_window,
                    svc.drop_events_in_window,
                ),
                None => (
                    svc.ingress.len() as u64,
                    svc.ingress.window_count(measure_start, measure_end) as u64,
                    svc.drops_over_time.window_count(measure_start, measure_end) as u64,
                ),
            };
            ServiceReport {
                kind: svc.kind,
                replica: svc.replica,
                machine: w.cluster.machines()[svc.machine].name.clone(),
                processed: svc.processed,
                drops: svc.drops,
                latency_ms: svc.service_latency_ms.clone(),
                ingress: svc.ingress.clone(),
                drops_over_time: svc.drops_over_time.clone(),
                ingress_total: ing_total,
                ingress_in_window: ing_win,
                drop_events_in_window: drop_win,
                mean_memory_gb: mem.mean(),
                peak_memory_gb: peak,
                sidecar_drop_ratio: sc_ratio,
                mean_queue_ms: sc_queue_ms,
                fetch_served: svc.fetch_served,
                fetch_dropped: svc.fetch_dropped,
            }
        })
        .collect();

    let machine_names: Vec<String> = w
        .cluster
        .machines()
        .iter()
        .map(|m| m.name.clone())
        .collect();
    let hw = w.cluster.hardware_snapshot(measure_end);
    let machines: Vec<MachineReport> = machine_names
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let (cpu, gpu, _) = hw[name];
            let mem = &w.machine_mem[mi];
            MachineReport {
                name: name.clone(),
                cpu_pct: cpu,
                gpu_pct: gpu,
                mean_memory_gb: mem.mean(),
                peak_memory_gb: mem.iter().map(|(_, v)| v).fold(0.0f64, f64::max),
            }
        })
        .collect();

    RunReport {
        mode: w.cfg.mode,
        clients: w.cfg.clients,
        measure_start,
        measure_end,
        per_client_fps,
        per_client_fps_median,
        success_rate,
        e2e_ms: e2e,
        jitter_ms,
        max_freeze_frames,
        services,
        machines,
        bytes_on_wire: w.net.total_bytes(),
        datagrams_lost: w.net.total_lost(),
        breakdown_compute: w.breakdown_compute,
        breakdown_queue: w.breakdown_queue,
        breakdown_network: w.breakdown_network,
        events_executed,
        resilience,
        wire: match &w.wire {
            Some(ws) => crate::report::WireReport {
                enabled: true,
                v2: ws.cfg.v2,
                uplink_bytes: ws.uplink_bytes,
                invalid_crc: ws.invalid_crc,
            },
            None => crate::report::WireReport::default(),
        },
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::placements;

    fn quick(mode: Mode, placement: orchestra::PlacementSpec, clients: usize) -> RunReport {
        let cfg = RunConfig::new(mode, placement, clients)
            .with_duration(SimDuration::from_secs(20))
            .with_warmup(SimDuration::from_secs(3));
        run_experiment(cfg)
    }

    fn wire_cfg(secs: u64, wire: crate::config::WireSimConfig) -> RunConfig {
        RunConfig::new(Mode::ScatterPP, placements::c1(), 1)
            .with_duration(SimDuration::from_secs(secs))
            .with_warmup(SimDuration::from_secs(1))
            .with_wire(wire)
    }

    #[test]
    fn wire_model_is_deterministic_and_v2_undercuts_v1() {
        let v2a = run_experiment(wire_cfg(4, crate::config::WireSimConfig::default()));
        let v2b = run_experiment(wire_cfg(4, crate::config::WireSimConfig::default()));
        assert_eq!(v2a.wire.uplink_bytes, v2b.wire.uplink_bytes);
        assert!(v2a.wire.enabled && v2a.wire.v2);
        assert!(v2a.wire.uplink_bytes > 0);
        let v1 = run_experiment(wire_cfg(4, crate::config::WireSimConfig::v1()));
        assert!(v1.wire.enabled && !v1.wire.v2);
        assert!(
            v2a.wire.uplink_bytes < v1.wire.uplink_bytes * 9 / 10,
            "v2 uplink {} should undercut v1 {} by well over 10%",
            v2a.wire.uplink_bytes,
            v1.wire.uplink_bytes
        );
        // The model must not hurt delivery: v2 still completes frames.
        assert!(v2a.fps() >= 24.0, "v2 wire model fps {:.1}", v2a.fps());
    }

    #[test]
    fn corrupt_first_is_caught_by_v2_and_swallowed_by_v1() {
        let n = 5u64;
        let v2 = run_experiment(wire_cfg(
            4,
            crate::config::WireSimConfig::default().with_corrupt_first(n),
        ));
        assert_eq!(
            v2.wire.invalid_crc, n,
            "every corrupted datagram must be caught, exactly once"
        );
        let v1 = run_experiment(wire_cfg(
            4,
            crate::config::WireSimConfig::v1().with_corrupt_first(n),
        ));
        assert_eq!(
            v1.wire.invalid_crc, 0,
            "v1 has no CRC: corruption passes silently"
        );
    }

    #[test]
    fn wire_off_run_report_carries_inert_wire_fields() {
        let r = quick(Mode::Scatter, placements::c1(), 1);
        assert!(!r.wire.enabled);
        assert_eq!(r.wire.uplink_bytes, 0);
        assert_eq!(r.wire.invalid_crc, 0);
    }

    #[test]
    fn single_client_edge_reaches_paper_fps() {
        let r = quick(Mode::Scatter, placements::c1(), 1);
        assert!(
            r.fps() >= 24.0,
            "single-client C1 FPS {:.1} below the paper's ≥25",
            r.fps()
        );
        let e2e = r.e2e_mean_ms();
        assert!(
            (30.0..=55.0).contains(&e2e),
            "E2E {e2e:.1} ms outside the ≈40 ms band"
        );
        assert!(r.success_rate > 0.75, "success {:.2}", r.success_rate);
    }

    #[test]
    fn scatter_degrades_with_clients() {
        let one = quick(Mode::Scatter, placements::c1(), 1);
        let four = quick(Mode::Scatter, placements::c1(), 4);
        assert!(
            four.fps() < one.fps() * 0.6,
            "scAtteR should degrade: 1 client {:.1} fps, 4 clients {:.1} fps",
            one.fps(),
            four.fps()
        );
    }

    #[test]
    fn scatterpp_beats_scatter_at_four_clients() {
        let base = quick(Mode::Scatter, placements::c1(), 4);
        let pp = quick(Mode::ScatterPP, placements::c1(), 4);
        assert!(
            pp.fps() >= base.fps() * 1.6,
            "scAtteR++ {:.1} fps not ≥1.6× scAtteR {:.1} fps",
            pp.fps(),
            base.fps()
        );
    }

    #[test]
    fn scatterpp_respects_latency_threshold() {
        // The sidecar filter is enforced at admission/dequeue: a frame
        // can still overshoot if a GPU hiccup strikes *while it is being
        // processed* (no mid-flight preemption in the real system
        // either). So the median must honour the budget and the p99 may
        // exceed it only by one worst-case hiccuped stage.
        let r = quick(Mode::ScatterPP, placements::c1(), 4);
        let mut e = r.e2e_ms.clone();
        assert!(
            e.median() <= 105.0,
            "median E2E {:.1} ms breaches the filter",
            e.median()
        );
        assert!(
            e.p99() <= 160.0,
            "p99 E2E {:.1} ms beyond hiccup slack",
            e.p99()
        );
    }

    #[test]
    fn cloud_slower_than_edge() {
        let edge = quick(Mode::Scatter, placements::c1(), 1);
        let cloud = quick(Mode::Scatter, placements::cloud_only(), 1);
        assert!(
            cloud.fps() < edge.fps(),
            "cloud {:.1} vs edge {:.1}",
            cloud.fps(),
            edge.fps()
        );
        assert!(
            cloud.e2e_mean_ms() > edge.e2e_mean_ms() + 10.0,
            "cloud E2E {:.1} should exceed edge {:.1} by ≈20 ms",
            cloud.e2e_mean_ms(),
            edge.e2e_mean_ms()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(Mode::Scatter, placements::c12(), 2);
        let b = quick(Mode::Scatter, placements::c12(), 2);
        assert_eq!(a.per_client_fps, b.per_client_fps);
        assert_eq!(a.bytes_on_wire, b.bytes_on_wire);
        assert_eq!(a.e2e_ms.samples(), b.e2e_ms.samples());
    }

    #[test]
    fn sift_memory_grows_under_scatter_load() {
        let r = quick(Mode::Scatter, placements::c1(), 4);
        let sift_mem = r.memory_gb(ServiceKind::Sift);
        let lsh_mem = r.memory_gb(ServiceKind::Lsh);
        assert!(
            sift_mem > lsh_mem * 2.0,
            "stateful sift memory {sift_mem:.2} GB should dominate lsh {lsh_mem:.2} GB"
        );
    }

    #[test]
    fn ablation_modes_sit_between_the_two_generations() {
        let base = quick(Mode::Scatter, placements::c2(), 4).fps();
        let stateless = quick(Mode::StatelessOnly, placements::c2(), 4).fps();
        let sidecar = quick(Mode::SidecarOnly, placements::c2(), 4).fps();
        let full = quick(Mode::ScatterPP, placements::c2(), 4).fps();
        // Statelessness alone helps (it breaks the dependency loop).
        assert!(
            stateless > base * 1.1,
            "stateless {stateless:.1} vs base {base:.1}"
        );
        // Queues alone do NOT: §4's point that backpressure mitigation
        // "may not be effective, as the bottleneck not only lies in the
        // processing complexity of the service but in the dependency
        // loop". The sidecar buffers frames that matching then times out
        // on anyway.
        assert!(
            (base * 0.75..=base * 1.25).contains(&sidecar),
            "sidecar-only {sidecar:.1} should sit near base {base:.1}"
        );
        // The full redesign needs both changes and beats each alone.
        assert!(
            full >= stateless * 0.85,
            "full {full:.1} vs stateless {stateless:.1}"
        );
        assert!(
            full > sidecar * 1.2,
            "full {full:.1} vs sidecar {sidecar:.1}"
        );
    }

    #[test]
    fn crash_and_recovery_dent_then_restore_qos() {
        let base = quick(Mode::ScatterPP, placements::c2(), 2);
        let cfg = RunConfig::new(Mode::ScatterPP, placements::c2(), 2)
            .with_duration(SimDuration::from_secs(20))
            .with_warmup(SimDuration::from_secs(3))
            .with_failure(SimDuration::from_secs(8), ServiceKind::Sift, 0)
            .with_recovery(SimDuration::from_secs(2));
        let crashed = run_experiment(cfg);
        // The 2 s outage costs roughly 2 s × 60 frames = ~12% of the run.
        assert!(
            crashed.fps() < base.fps() * 0.97,
            "crash should dent FPS: {:.1} vs {:.1}",
            crashed.fps(),
            base.fps()
        );
        assert!(
            crashed.fps() > base.fps() * 0.6,
            "recovery should restore most QoS: {:.1} vs {:.1}",
            crashed.fps(),
            base.fps()
        );
        let sift = crashed
            .services
            .iter()
            .find(|s| s.kind == ServiceKind::Sift)
            .unwrap();
        assert!(sift.drops.down > 0, "downtime drops must be recorded");
    }

    #[test]
    fn crash_loses_stateful_sift_frames() {
        // In scAtteR a sift crash also strands matching's fetches for
        // frames whose state died with the container: the crashed run
        // must see at least as many fetch timeouts and a lower success
        // rate than the identical run without the crash.
        let run_with = |crash: bool| {
            let mut cfg = RunConfig::new(Mode::Scatter, placements::c2(), 2)
                .with_duration(SimDuration::from_secs(15))
                .with_warmup(SimDuration::from_secs(2));
            if crash {
                cfg = cfg.with_failure(SimDuration::from_secs(7), ServiceKind::Sift, 0);
            }
            run_experiment(cfg)
        };
        let clean = run_with(false);
        let crashed = run_with(true);
        let timeouts = |r: &RunReport| {
            r.services
                .iter()
                .filter(|s| s.kind == ServiceKind::Matching)
                .map(|s| s.drops.fetch_timeout)
                .sum::<u64>()
        };
        assert!(
            timeouts(&crashed) >= timeouts(&clean),
            "crash must not reduce fetch timeouts: {} vs {}",
            timeouts(&crashed),
            timeouts(&clean)
        );
        assert!(
            crashed.success_rate < clean.success_rate,
            "crash must cost frames: {:.2} vs {:.2}",
            crashed.success_rate,
            clean.success_rate
        );
    }

    #[test]
    fn detection_without_failures_is_report_neutral() {
        // Enabling the detection leg splits a 4th RNG stream off the
        // root *after* the three baseline streams and sends no bytes on
        // the wire, so a failure-free run must match the baseline QoS
        // numbers exactly — the plane observes until something fails.
        let base = quick(Mode::ScatterPP, placements::c1(), 2);
        let cfg = RunConfig::new(Mode::ScatterPP, placements::c1(), 2)
            .with_duration(SimDuration::from_secs(20))
            .with_warmup(SimDuration::from_secs(3))
            .with_resilience(
                crate::resilience::ResilienceConfig::default()
                    .with_detection(crate::resilience::DetectionConfig::default()),
            );
        let detected = run_experiment(cfg);
        assert_eq!(base.per_client_fps, detected.per_client_fps);
        assert_eq!(base.bytes_on_wire, detected.bytes_on_wire);
        assert_eq!(detected.resilience.detections, 0);
        assert_eq!(detected.resilience.post_detection_misroutes, 0);
    }

    #[test]
    fn detection_reroutes_and_redeploys_after_a_crash() {
        let run = |detect: bool| {
            let mut cfg = RunConfig::new(Mode::ScatterPP, placements::replicas([1, 2, 1, 1, 1]), 2)
                .with_duration(SimDuration::from_secs(20))
                .with_warmup(SimDuration::from_secs(3))
                .with_failure(SimDuration::from_secs(8), ServiceKind::Sift, 0)
                .with_recovery(SimDuration::from_secs(2));
            if detect {
                cfg = cfg.with_resilience(
                    crate::resilience::ResilienceConfig::default()
                        .with_detection(crate::resilience::DetectionConfig::default()),
                );
            }
            run_experiment(cfg)
        };
        let blind = run(false);
        let detected = run(true);
        assert_eq!(
            detected.resilience.detections, 1,
            "one crash, one suspicion"
        );
        assert_eq!(detected.resilience.redeploys, 1);
        assert_eq!(detected.resilience.post_detection_misroutes, 0);
        let lat = detected.resilience.mean_detection_latency_ms();
        assert!(
            (100.0..=400.0).contains(&lat),
            "detection latency {lat:.0} ms outside the 3×50 ms + sweep band"
        );
        // Failover: once detected, frames rebind to the surviving sift
        // replica instead of dying on the dark port.
        let down_drops = |r: &RunReport| {
            r.services
                .iter()
                .filter(|s| s.kind == ServiceKind::Sift)
                .map(|s| s.drops.down)
                .sum::<u64>()
        };
        assert!(
            down_drops(&detected) < down_drops(&blind),
            "failover should cut dead-port drops: {} vs blind {}",
            down_drops(&detected),
            down_drops(&blind)
        );
        assert!(
            detected.fps() > blind.fps(),
            "failover should help QoS: {:.1} vs blind {:.1}",
            detected.fps(),
            blind.fps()
        );
    }

    #[test]
    fn last_replica_crash_is_a_counted_outage_not_a_panic() {
        let cfg = RunConfig::new(Mode::ScatterPP, placements::c1(), 1)
            .with_duration(SimDuration::from_secs(15))
            .with_warmup(SimDuration::from_secs(2))
            .with_failure(SimDuration::from_secs(6), ServiceKind::Encoding, 0)
            .with_recovery(SimDuration::from_secs(2))
            .with_resilience(
                crate::resilience::ResilienceConfig::default()
                    .with_detection(crate::resilience::DetectionConfig::default()),
            );
        let r = run_experiment(cfg);
        assert_eq!(r.resilience.detections, 1);
        assert!(
            r.resilience.outage_drops > 0,
            "frames during the single-replica outage must be attributed"
        );
        assert_eq!(r.resilience.post_detection_misroutes, 0);
        assert!(r.success_rate > 0.5, "service must recover after revival");
    }

    #[test]
    fn deadlines_expire_and_retries_recover_during_an_outage() {
        let cfg = RunConfig::new(Mode::ScatterPP, placements::c1(), 2)
            .with_duration(SimDuration::from_secs(15))
            .with_warmup(SimDuration::from_secs(2))
            .with_failure(SimDuration::from_secs(6), ServiceKind::Lsh, 0)
            .with_recovery(SimDuration::from_secs(1))
            .with_resilience(
                crate::resilience::ResilienceConfig::default()
                    .with_deadline(crate::resilience::DeadlineConfig::default()),
            );
        let r = run_experiment(cfg);
        assert!(
            r.resilience.deadline_expired > 0,
            "outage frames must trip the client deadline"
        );
        assert!(r.resilience.retries > 0, "expiries must drive retries");
        assert!(
            r.resilience.retries <= r.resilience.deadline_expired,
            "at most one retry per expiry"
        );
    }

    #[test]
    fn ladder_engages_under_overload_and_stays_idle_when_light() {
        let resilience = crate::resilience::ResilienceConfig::default()
            .with_ladder(crate::resilience::LadderConfig::default());
        let light = RunConfig::new(Mode::ScatterPP, placements::c1(), 1)
            .with_duration(SimDuration::from_secs(15))
            .with_warmup(SimDuration::from_secs(2))
            .with_resilience(resilience.clone());
        let light = run_experiment(light);
        assert_eq!(
            light.resilience.max_ladder_level, 0,
            "one client must not trip the ladder"
        );
        let heavy = RunConfig::new(Mode::ScatterPP, placements::c1(), 8)
            .with_duration(SimDuration::from_secs(15))
            .with_warmup(SimDuration::from_secs(2))
            .with_resilience(resilience);
        let heavy = run_experiment(heavy);
        assert!(
            heavy.resilience.max_ladder_level >= 1,
            "eight clients must push someone down the ladder"
        );
        assert!(heavy.resilience.degraded_frames > 0);
        assert!(heavy.resilience.ladder_steps > 0);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        let run = || {
            let cfg = RunConfig::new(Mode::ScatterPP, placements::replicas([1, 2, 1, 1, 1]), 3)
                .with_duration(SimDuration::from_secs(15))
                .with_warmup(SimDuration::from_secs(2))
                .with_failure(SimDuration::from_secs(6), ServiceKind::Sift, 1)
                .with_recovery(SimDuration::from_secs(2))
                .with_resilience(
                    crate::resilience::ResilienceConfig::default()
                        .with_detection(crate::resilience::DetectionConfig::default())
                        .with_deadline(crate::resilience::DeadlineConfig::default())
                        .with_ladder(crate::resilience::LadderConfig::default()),
                );
            run_experiment(cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.per_client_fps, b.per_client_fps);
        assert_eq!(a.bytes_on_wire, b.bytes_on_wire);
        assert_eq!(a.resilience.detections, b.resilience.detections);
        assert_eq!(
            a.resilience.detection_latency_ms,
            b.resilience.detection_latency_ms
        );
        assert_eq!(a.resilience.retries, b.resilience.retries);
        assert_eq!(a.resilience.ladder_steps, b.resilience.ladder_steps);
    }

    #[test]
    fn stateless_sift_holds_no_state() {
        let r = quick(Mode::ScatterPP, placements::c1(), 4);
        let sift = r
            .services
            .iter()
            .find(|s| s.kind == ServiceKind::Sift)
            .unwrap();
        assert_eq!(sift.fetch_served, 0);
        assert_eq!(sift.fetch_dropped, 0);
    }

    fn observed_cfg() -> RunConfig {
        RunConfig::new(Mode::ScatterPP, placements::c2(), 2)
            .with_duration(SimDuration::from_secs(15))
            .with_warmup(SimDuration::from_secs(2))
            .with_failure(SimDuration::from_secs(6), ServiceKind::Sift, 0)
            .with_recovery(SimDuration::from_secs(2))
            .with_observatory(observatory::ObservatoryConfig::default())
    }

    #[test]
    fn observatory_is_report_neutral() {
        // The whole observatory plane — tail sampler, flight recorder,
        // profiler (world + sim core) — is an observer: the report from
        // an observed run must match the unobserved run byte for byte.
        let mut plain = observed_cfg();
        plain.observatory = None;
        let base = run_experiment(plain);
        let (observed, _, art) = run_experiment_observed(observed_cfg());
        assert_eq!(base.per_client_fps, observed.per_client_fps);
        assert_eq!(base.bytes_on_wire, observed.bytes_on_wire);
        assert_eq!(base.success_rate, observed.success_rate);
        assert!(art.tail.is_some() && art.prof.is_some() && art.sim_prof.is_some());
    }

    #[test]
    fn observatory_retains_anomalies_and_dumps_on_crash() {
        let (report, log, art) = run_experiment_observed(observed_cfg());
        let stats = art.tail.expect("tail stats present");
        assert!(stats.frames_seen > 0);
        assert!(
            stats.dropped > 0,
            "the injected crash must surface dropped frames"
        );
        assert!(
            stats.frames_retained < stats.frames_seen,
            "healthy frames must be discarded: {} retained of {}",
            stats.frames_retained,
            stats.frames_seen
        );
        // Every retained frame's events are in the log; dropped frames
        // never lose their terminal.
        assert!(!log.events.is_empty());
        // The crash froze at least one flight dump whose merged history
        // contains the crash record itself.
        assert!(
            art.flight_dumps.iter().any(|d| d.reason == "crash"),
            "crash trigger missing: {:?}",
            art.flight_dumps
                .iter()
                .map(|d| d.reason.clone())
                .collect::<Vec<_>>()
        );
        let crash_dump = art
            .flight_dumps
            .iter()
            .find(|d| d.reason == "crash")
            .unwrap();
        assert!(crash_dump
            .events
            .iter()
            .any(|e| e.kind == observatory::flight::KIND_CRASH));
        assert!(report.success_rate > 0.0, "sanity: the run still served");
    }

    #[test]
    fn observed_runs_are_bit_identical_across_reruns() {
        use std::fmt::Write as _;
        let fingerprint = || {
            let cfg = observed_cfg().with_scale(crate::config::ScaleConfig::new(3).exact());
            let (_, log, art) = run_experiment_observed(cfg);
            let mut s = String::new();
            for ev in &log.events {
                writeln!(s, "{ev:?}").unwrap();
            }
            for d in &art.flight_dumps {
                s.push_str(&observatory::flight::dump_json(d));
            }
            let st = art.tail.unwrap();
            writeln!(s, "{st:?}").unwrap();
            s
        };
        assert_eq!(fingerprint(), fingerprint(), "rerun must be bit-identical");
    }
}
