//! Local deployment of the real pipeline: five service threads on
//! loopback UDP sockets plus a paced client — with fault injection at
//! parity with the DES: a seeded impairment shim on every socket
//! ([`crate::runtime::impair`]) and replica kill/restart with
//! generation-stamped state loss ([`LocalDeployment::kill`], mirroring
//! the DES `crash_instance`).

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use orchestra::{FailureDetector, InstanceId};

use simcore::SimRng;
use vision::db::TrainParams;
use vision::ReferenceDb;

use std::sync::atomic::AtomicU64;

use crate::message::{ServiceKind, SERVICE_KINDS};
use crate::obs::{RtClientObs, RtSvcObs};
use crate::runtime::impair::{Ep, ImpairedNet, ImpairmentProfile, RtSocket, SendDisposition};
use crate::runtime::services::{
    attribute_ingest_error, attribute_net_drop, is_would_block, run_service, send_msg_wire,
    ExitReport, FaultCell, ServiceWiring, SharedCtx, SvcStats, WireRtConfig, RT_PHASES,
    RT_PROF_SHIFT,
};
use crate::runtime::stateful::{run_stateful_matching, run_stateful_sift, StatefulOptions};
use crate::runtime::wire::{self, Reassembler, WireMsg, MAX_DATAGRAM};
use crate::wirev2::{self, predict, FrameKind, RxState, UplinkTx};

/// Options for a local run.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Concurrent clients (each streams its own camera).
    pub clients: u16,
    /// Frames each client streams.
    pub frames: u32,
    /// Client frame rate (Hz).
    pub fps: f64,
    /// Scene resolution (the 720p clip scaled down for CPU-only CV).
    pub width: usize,
    pub height: usize,
    /// Sidecar staleness threshold in ms (0 disables, like scAtteR).
    pub threshold_ms: f64,
    /// Run the scAtteR-baseline data plane: stateful `sift` with a real
    /// fetch round-trip from `matching` (see [`crate::runtime::stateful`]).
    pub stateful: bool,
    /// Fetch-loop tuning for the stateful plane (timeout, retransmit
    /// backoff, store TTL).
    pub stateful_opts: StatefulOptions,
    pub seed: u64,
    /// Extra time after the last frame to wait for in-flight results.
    pub drain: Duration,
    /// Per-frame causal tracing; `None` (default) is the near-zero-cost
    /// disabled mode. Same config type as the DES plane.
    pub trace: Option<trace::TraceConfig>,
    /// Live metrics registry; `None` (default) disables instrumentation
    /// (service threads skip every record call). When set, the running
    /// deployment can be scraped via [`LocalDeployment::scrape`].
    pub registry: Option<telemetry::Registry>,
    /// Deterministic, seeded network impairment applied at every
    /// socket's send site (`None` = pristine loopback, the default).
    pub impair: Option<ImpairmentProfile>,
    /// Fault schedule: `(at, service, recovery)` — `at` after the run
    /// starts, the replica is killed and respawned `recovery` later
    /// with all in-memory state lost (the runtime `crash_instance`).
    pub kills: Vec<(Duration, ServiceKind, Duration)>,
    /// Heartbeat failure detection: when set, every replica streams
    /// tiny UDP heartbeats *through the impairment shim* to a monitor
    /// thread that runs the same [`orchestra::FailureDetector`] math as
    /// the DES plane. `None` (default) spawns no extra threads.
    pub detection: Option<crate::resilience::DetectionConfig>,
    /// Wire dialect: v2 (CRC-sealed, optionally compressed,
    /// delta-encoded uplink) or the byte-identical v1 default.
    pub wire: WireRtConfig,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            clients: 1,
            frames: 30,
            fps: 10.0,
            width: 256,
            height: 144,
            threshold_ms: 0.0,
            stateful: false,
            stateful_opts: StatefulOptions::default(),
            seed: 7,
            drain: Duration::from_millis(1500),
            trace: None,
            registry: None,
            impair: None,
            kills: Vec::new(),
            detection: None,
            wire: WireRtConfig::default(),
        }
    }
}

/// Results of a local run.
#[derive(Debug)]
pub struct RuntimeReport {
    pub emitted: u32,
    pub completed: u32,
    pub mean_e2e_ms: f64,
    pub max_e2e_ms: f64,
    /// Recognized-object counts over all completed frames.
    pub recognitions: HashMap<String, u32>,
    /// Per-service (received, processed, dropped_stale).
    pub service_counts: Vec<(ServiceKind, u64, u64, u64)>,
    /// Live object tracks at shutdown (matching's track tables).
    pub tracks_active: u64,
    /// Per-client completions (index = client id).
    pub per_client_completed: Vec<u32>,
    /// Stateful mode: fetches that timed out at matching.
    pub fetch_failures: u64,
    /// Stateful mode: sift store entries at shutdown.
    pub sift_store_size: u64,
    /// Datagrams every service rejected as malformed (see
    /// [`crate::runtime::wire::WireError`]).
    pub malformed_datagrams: u64,
    /// Frames lost to replica crashes (state that died with a killed
    /// thread + arrivals at the dead socket during recovery).
    pub crash_drops: u64,
    /// Frames dropped because matching's parked queue overflowed
    /// during a fetch-wait.
    pub busy_drops: u64,
    /// Frame messages the impairment shim ate whole, attributed at the
    /// send site (services + clients).
    pub net_drops: u64,
    /// Frames whose reassembly gave up after partial fragment loss.
    pub fragment_drops: u64,
    /// Real receive-path socket errors (not WouldBlock/TimedOut).
    pub io_errors: u64,
    /// Heartbeat datagrams whose OS send failed (distinct from shim
    /// drops, which are the impairment plane's verdicts). Before the
    /// fix these were `let _ =` discarded, making a transient ENOBUFS
    /// indistinguishable from a real silence at the detector.
    pub hb_send_errors: u64,
    /// Delay-line datagrams (the reorder thread's deferred sends)
    /// whose OS send failed — previously discarded the same way.
    pub delay_send_errors: u64,
    /// Stateful mode: fetch-request retransmissions.
    pub fetch_retransmits: u64,
    /// Stateful mode: fetch responses that arrived after their wait
    /// expired (recognized by the CTRL flag, counted not swallowed).
    pub late_fetch_rsp: u64,
    /// Replica kills injected during the run.
    pub kills: u64,
    /// Detection plane: suspicions raised by the heartbeat monitor
    /// (0 when [`RuntimeOptions::detection`] is `None`).
    pub detections: u64,
    /// Respawns that happened *after* the detector had flagged the
    /// replica — the runtime analogue of the DES's detection-driven
    /// `redeploy_failed` count.
    pub redeploys: u64,
    /// Wall-clock detection latencies (take-down instant → suspicion),
    /// ms, one per detected crash.
    pub detection_latency_ms: Vec<f64>,
    /// Client uplink datagram bytes, counted at the send site before
    /// the impairment shim's verdict (all clients summed).
    pub uplink_bytes: u64,
    /// Datagram bytes offered at *every* send site (clients + services).
    pub bytes_on_wire: u64,
    /// v2 datagrams rejected by their CRC check across all receivers.
    pub invalid_crc: u64,
    /// v2 delta frames dropped for want of their keyframe anchor.
    pub delta_resyncs: u64,
    /// 95th-percentile end-to-end latency over completed frames, ms.
    pub p95_e2e_ms: f64,
    /// Flight-recorder dumps frozen by anomaly triggers during the run
    /// (kills and detector suspicions); empty on a quiet run. Unlike the
    /// DES plane's, these are real concurrent snapshots and make no
    /// byte-identity promise — the cross-plane gate compares counts.
    pub flight_dumps: Vec<observatory::FlightDump>,
    /// Always-on self-profiler totals across all service threads
    /// (per-stage compute + datagram send path).
    pub prof: observatory::ProfSnapshot,
}

impl RuntimeReport {
    pub fn success_rate(&self) -> f64 {
        if self.emitted == 0 {
            0.0
        } else {
            self.completed as f64 / self.emitted as f64
        }
    }

    pub fn mean_detection_latency_ms(&self) -> f64 {
        if self.detection_latency_ms.is_empty() {
            return 0.0;
        }
        self.detection_latency_ms.iter().sum::<f64>() / self.detection_latency_ms.len() as f64
    }
}

/// What one client's loop returns: `(emitted, completed, e2e samples,
/// recognition counts)`.
type ClientOutcome = (u32, u32, Vec<f64>, HashMap<String, u32>);

/// Heartbeat datagram: `[b'H', b'B', kind_index]`. Small enough that
/// the shim treats it like any other datagram (the point: a lossy link
/// delays detection in the runtime exactly as dropped heartbeat events
/// would in the DES).
const HB_MAGIC: [u8; 2] = [b'H', b'B'];

fn hb_datagram(kind: ServiceKind) -> [u8; 3] {
    [HB_MAGIC[0], HB_MAGIC[1], kind.index() as u8]
}

fn parse_hb(datagram: &[u8]) -> Option<ServiceKind> {
    if datagram.len() == 3 && datagram[..2] == HB_MAGIC && (datagram[2] as usize) < 5 {
        Some(ServiceKind::from_index(datagram[2] as usize))
    } else {
        None
    }
}

/// Where a replica's heartbeat thread reports to.
#[derive(Clone)]
struct HbSpec {
    monitor: SocketAddr,
    interval: Duration,
    net: Option<Arc<ImpairedNet>>,
    /// OS send failures across every heartbeat thread (shim drops are
    /// the impairment plane's and excluded). Surfaced on the report,
    /// the scrape, and the flight recorder.
    errors: Arc<AtomicU64>,
    flight: Arc<observatory::FlightRecorder>,
    epoch: Instant,
}

/// Everything needed to (re)spawn one service replica — the runtime
/// analogue of a container image plus its mounts. Cloned by the kill
/// supervisor to restart the service after the recovery delay.
#[derive(Clone)]
struct ReplicaRunner {
    kind: ServiceKind,
    socket: RtSocket,
    next: SocketAddr,
    sift_addr: SocketAddr,
    ctx: Arc<SharedCtx>,
    stats: Arc<SvcStats>,
    shutdown: Arc<AtomicBool>,
    fault: Arc<FaultCell>,
    seed: u64,
    stateful: bool,
    sopts: StatefulOptions,
    store_size: Arc<AtomicU64>,
    fetch_failures: Arc<AtomicU64>,
    tracer: trace::ThreadTracer,
    track: trace::TrackId,
    obs: Option<RtSvcObs>,
    /// Heartbeat reporting (None when detection is off).
    hb: Option<HbSpec>,
}

impl ReplicaRunner {
    /// Spawn the service thread at the fault cell's *current*
    /// generation. The thread exits (returning its [`ExitReport`]) as
    /// soon as the live generation moves past its snapshot. When the
    /// detection plane is on, a sibling heartbeat thread is spawned at
    /// the same generation: it streams `[H, B, kind]` datagrams through
    /// the impairment shim to the monitor and dies with its generation,
    /// so a killed replica falls silent within one interval.
    fn spawn(&self) -> std::thread::JoinHandle<ExitReport> {
        let r = self.clone();
        let my_gen = r.fault.current();
        if let Some(hb) = &self.hb {
            let hb = hb.clone();
            let kind = self.kind;
            let fault = self.fault.clone();
            let shutdown = self.shutdown.clone();
            std::thread::Builder::new()
                .name(format!("scatter-hb-{}", kind.name()))
                .spawn(move || {
                    let sock =
                        RtSocket::new(Arc::new(bind_loopback()), Ep::Svc(kind), hb.net.clone());
                    let beat = hb_datagram(kind);
                    while !shutdown.load(Ordering::Relaxed) && fault.current() == my_gen {
                        // Satellite fix: an OS send failure used to be
                        // discarded here, so a transient ENOBUFS read as
                        // replica silence at the detector with nothing to
                        // attribute it to. Count it and leave a flight
                        // record (shim drops stay the shim's business).
                        if sock.send_to(&beat, hb.monitor) == SendDisposition::Error {
                            hb.errors.fetch_add(1, Ordering::Relaxed);
                            hb.flight.record(
                                0,
                                hb.epoch.elapsed().as_nanos() as u64,
                                observatory::flight::KIND_SEND_ERR,
                                kind.index() as u64,
                                0,
                            );
                        }
                        std::thread::sleep(hb.interval);
                    }
                })
                .expect("spawn heartbeat thread");
        }
        std::thread::Builder::new()
            .name(format!("scatter-{}", r.kind.name()))
            .spawn(move || {
                if r.stateful && r.kind == ServiceKind::Sift {
                    run_stateful_sift(
                        r.socket,
                        r.next,
                        r.ctx,
                        r.stats,
                        r.shutdown,
                        r.fault.clone(),
                        my_gen,
                        r.sopts,
                        r.store_size,
                        r.tracer,
                        r.track,
                        r.obs,
                    )
                } else if r.stateful && r.kind == ServiceKind::Matching {
                    run_stateful_matching(
                        r.socket,
                        r.sift_addr,
                        r.ctx,
                        r.stats,
                        r.shutdown,
                        r.fault.clone(),
                        my_gen,
                        r.sopts,
                        r.fetch_failures,
                        r.seed,
                        r.tracer,
                        r.track,
                        r.obs,
                    )
                } else {
                    run_service(
                        ServiceWiring {
                            kind: r.kind,
                            socket: r.socket,
                            next: r.next,
                        },
                        r.ctx,
                        r.stats,
                        r.shutdown,
                        r.fault.clone(),
                        my_gen,
                        r.seed,
                        r.tracer,
                        r.track,
                        r.obs,
                    )
                }
            })
            .expect("spawn service thread")
    }
}

/// The runtime detection plane: a monitor thread owning the heartbeat
/// socket and the same [`orchestra::FailureDetector`] the DES runs,
/// plus the accounting the report surfaces. Instance ids are stable
/// `InstanceId(kind.index())` — a respawned replica inherits the
/// identity, so its first heartbeat clears the suspicion.
struct DetectionPlane {
    /// Suspicions raised by the monitor.
    detections: Arc<AtomicU64>,
    /// Respawns that happened after a detection flagged the replica.
    redeploys: AtomicU64,
    /// take-down instant → suspicion instant, ms.
    latencies: Arc<Mutex<Vec<f64>>>,
    /// Crash instants recorded by [`LocalDeployment::take_down`],
    /// consumed by the monitor when the detector fires.
    crash_at: Arc<Mutex<[Option<Instant>; 5]>>,
    /// Kinds the detector has flagged since their last respawn;
    /// `bring_up` consumes the flag to count a detection-driven
    /// redeploy (parity with the DES `redeploy_failed` count).
    detected_down: Arc<Mutex<[bool; 5]>>,
    /// Detection events, for experiment drivers that want to sequence
    /// take-down → detection → bring-up ([`LocalDeployment::await_detection`]).
    events: Mutex<mpsc::Receiver<ServiceKind>>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// A running local deployment.
pub struct LocalDeployment {
    /// One slot per service; `None` while the replica is down (killed
    /// and not yet respawned) or after shutdown joined it.
    handles: Mutex<Vec<Option<std::thread::JoinHandle<ExitReport>>>>,
    /// One per service, parallel to `handles` and `stats`.
    runners: Vec<ReplicaRunner>,
    shutdown: Arc<AtomicBool>,
    stats: Vec<Arc<SvcStats>>,
    client_stats: Arc<SvcStats>,
    client_socket: RtSocket,
    primary_addr: SocketAddr,
    ctx: Arc<SharedCtx>,
    opts: RuntimeOptions,
    fetch_failures: Arc<AtomicU64>,
    sift_store_size: Arc<AtomicU64>,
    collector: trace::Collector,
    /// One trace track per client, registered up front.
    client_tracks: Vec<trace::TrackId>,
    /// Live metrics plane (when `opts.registry` was set).
    registry: Option<telemetry::Registry>,
    client_obs: Option<RtClientObs>,
    /// The impairment plane shared by every socket (None = pristine).
    net: Option<Arc<ImpairedNet>>,
    /// Heartbeat failure detection (None when `opts.detection` is off).
    detection: Option<DetectionPlane>,
    /// Always-on flight recorder (kills, drops, detections); dumps are
    /// frozen on anomaly triggers and surfaced in the report.
    flight: Arc<observatory::FlightRecorder>,
    /// Heartbeat OS send failures across every replica's hb thread.
    hb_send_errors: Arc<AtomicU64>,
}

fn bind_loopback() -> UdpSocket {
    UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket")
}

/// Token returned by [`LocalDeployment::take_down`]: the replica is
/// crashed and its socket dark until the token is redeemed with
/// [`LocalDeployment::bring_up`]. Carries the frames already
/// attributed so the drain window never double-counts.
pub struct DownReplica {
    kind: ServiceKind,
    seen: HashSet<(u16, u32)>,
}

impl DownReplica {
    pub fn kind(&self) -> ServiceKind {
        self.kind
    }
}

impl LocalDeployment {
    /// Train the recognition database and launch the five services.
    pub fn start(opts: RuntimeOptions) -> LocalDeployment {
        // The database learns the objects of client 0's scene (cid 0
        // reduces to the plain seed).
        let scene = predict::client_scene(opts.seed, 0, opts.width, opts.height);
        let mut rng = SimRng::new(opts.seed);
        let db = ReferenceDb::train(&scene, TrainParams::default(), &mut rng);

        let net = opts.impair.clone().map(ImpairedNet::new);
        let client_socket = RtSocket::new(Arc::new(bind_loopback()), Ep::Client, net.clone());

        // One socket per service; wire each to its successor, matching
        // back to the client.
        let client_addr = client_socket.local_addr().expect("local addr");
        let sockets: Vec<UdpSocket> = SERVICE_KINDS.iter().map(|_| bind_loopback()).collect();
        let addrs: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr().expect("local addr"))
            .collect();
        let primary_addr = addrs[0];
        if let Some(n) = &net {
            for (i, addr) in addrs.iter().enumerate() {
                n.register_port(addr.port(), Ep::Svc(SERVICE_KINDS[i]));
            }
        }

        let ctx = Arc::new(SharedCtx {
            db,
            reduce: 0.75,
            max_descriptors: 200,
            threshold_ms: opts.threshold_ms,
            epoch: Instant::now(),
            wire: opts.wire,
            prof: observatory::AtomicPhaseProf::new(RT_PHASES, RT_PROF_SHIFT),
        });
        // Always-on flight recorder: ring 0 carries control-plane events
        // (kills, detections, revives), rings 1..=5 the per-service drop
        // history. ~60 KB fixed at the default capacity — cheap enough
        // to never be behind an option.
        let flight = Arc::new(observatory::FlightRecorder::new(
            1 + SERVICE_KINDS.len(),
            crate::world::env_flightrec().unwrap_or(256),
        ));
        // The delay line sends from its own thread; give it the flight
        // recorder so its send failures leave a record (satellite fix —
        // they were silently discarded).
        if let Some(n) = &net {
            n.attach_flight(flight.clone(), ctx.epoch);
        }
        let hb_send_errors = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let fetch_failures = Arc::new(AtomicU64::new(0));
        let sift_store_size = Arc::new(AtomicU64::new(0));
        let sift_addr = addrs[1];

        // Detection plane: bind the monitor socket first so replicas
        // know where to report, then run the detector on its own
        // thread against the shared wall-clock epoch.
        let mut hb_spec = None;
        let detection = opts.detection.map(|dcfg| {
            let monitor_sock = bind_loopback();
            let monitor_addr = monitor_sock.local_addr().expect("monitor addr");
            monitor_sock
                .set_read_timeout(Some(Duration::from_millis(5)))
                .expect("monitor timeout");
            hb_spec = Some(HbSpec {
                monitor: monitor_addr,
                interval: Duration::from_secs_f64(dcfg.hb_interval.as_millis_f64() / 1e3),
                net: net.clone(),
                errors: hb_send_errors.clone(),
                flight: flight.clone(),
                epoch: ctx.epoch,
            });
            let detections = Arc::new(AtomicU64::new(0));
            let latencies = Arc::new(Mutex::new(Vec::new()));
            let crash_at: Arc<Mutex<[Option<Instant>; 5]>> = Arc::new(Mutex::new([None; 5]));
            let detected_down = Arc::new(Mutex::new([false; 5]));
            let (tx, rx) = mpsc::channel();
            let monitor = {
                let shutdown = shutdown.clone();
                let ctx = ctx.clone();
                let detections = detections.clone();
                let latencies = latencies.clone();
                let crash_at = crash_at.clone();
                let detected_down = detected_down.clone();
                let flight = flight.clone();
                std::thread::Builder::new()
                    .name("scatter-monitor".into())
                    .spawn(move || {
                        let mut det = FailureDetector::new(dcfg.detector());
                        let now_ms = ctx.epoch.elapsed().as_secs_f64() * 1e3;
                        for i in 0..5u32 {
                            det.register(InstanceId(i), now_ms);
                        }
                        let mut buf = [0u8; 64];
                        while !shutdown.load(Ordering::Relaxed) {
                            match monitor_sock.recv_from(&mut buf) {
                                Ok((n, _)) => {
                                    if let Some(kind) = parse_hb(&buf[..n]) {
                                        let now_ms = ctx.epoch.elapsed().as_secs_f64() * 1e3;
                                        det.heartbeat(InstanceId(kind.index() as u32), now_ms);
                                    }
                                }
                                Err(ref e) if is_would_block(e) => {}
                                Err(_) => std::thread::sleep(Duration::from_millis(1)),
                            }
                            let now_ms = ctx.epoch.elapsed().as_secs_f64() * 1e3;
                            for s in det.check(now_ms) {
                                let idx = s.instance.0 as usize;
                                detections.fetch_add(1, Ordering::Relaxed);
                                if let Some(at) =
                                    crash_at.lock().expect("crash_at lock")[idx].take()
                                {
                                    latencies
                                        .lock()
                                        .expect("latencies lock")
                                        .push(at.elapsed().as_secs_f64() * 1e3);
                                }
                                detected_down.lock().expect("detected lock")[idx] = true;
                                let now_ns = (now_ms * 1e6) as u64;
                                flight.record(
                                    0,
                                    now_ns,
                                    observatory::flight::KIND_DETECT,
                                    idx as u64,
                                    0,
                                );
                                flight.trigger(now_ns, "detect");
                                let _ = tx.send(ServiceKind::from_index(idx));
                            }
                        }
                    })
                    .expect("spawn monitor thread")
            };
            DetectionPlane {
                detections,
                redeploys: AtomicU64::new(0),
                latencies,
                crash_at,
                detected_down,
                events: Mutex::new(rx),
                monitor: Mutex::new(Some(monitor)),
            }
        });
        let mut collector = match opts.trace {
            Some(cfg) => trace::Collector::new(cfg),
            None => trace::Collector::disabled(),
        };
        let mut stats = Vec::new();
        let mut runners = Vec::new();
        let mut handles = Vec::new();
        for (i, socket) in sockets.into_iter().enumerate() {
            let kind = SERVICE_KINDS[i];
            let next = if i + 1 < 5 { addrs[i + 1] } else { client_addr };
            let st = Arc::new(SvcStats::default());
            stats.push(st.clone());
            let track = collector.register_track(format!("{}#0", kind.name()), "runtime-host");
            let tracer = collector.handle();
            // Telemetry handles are acquired once here (the only
            // lock), then every record on the service thread is
            // wait-free.
            let obs = opts
                .registry
                .as_ref()
                .map(|reg| RtSvcObs::new(reg, kind.name()));
            let runner = ReplicaRunner {
                kind,
                socket: RtSocket::new(Arc::new(socket), Ep::Svc(kind), net.clone()),
                next,
                sift_addr,
                ctx: ctx.clone(),
                stats: st,
                shutdown: shutdown.clone(),
                fault: Arc::new(FaultCell::default()),
                seed: opts.seed ^ ((i as u64 + 1) * 0x9E37),
                stateful: opts.stateful,
                sopts: opts.stateful_opts.clone(),
                store_size: sift_store_size.clone(),
                fetch_failures: fetch_failures.clone(),
                tracer,
                track,
                obs,
                hb: hb_spec.clone(),
            };
            handles.push(Some(runner.spawn()));
            runners.push(runner);
        }

        let client_tracks = (0..opts.clients)
            .map(|cid| collector.register_track(format!("client-{cid}"), "client-host"))
            .collect();
        let registry = opts.registry.clone();
        let client_obs = registry.as_ref().map(RtClientObs::new);

        LocalDeployment {
            handles: Mutex::new(handles),
            runners,
            shutdown,
            stats,
            client_stats: Arc::new(SvcStats::default()),
            client_socket,
            primary_addr,
            ctx,
            opts,
            fetch_failures,
            sift_store_size,
            collector,
            client_tracks,
            registry,
            client_obs,
            net,
            detection,
            flight,
            hb_send_errors,
        }
    }

    /// The loopback address `kind` listens on — where a test (or any
    /// stray host on the network) can aim datagrams at a live service.
    pub fn service_addr(&self, kind: ServiceKind) -> SocketAddr {
        self.runners[kind.index()]
            .socket
            .local_addr()
            .expect("local addr")
    }

    /// Prometheus exposition of the live registry — the runtime's
    /// on-demand scrape endpoint (None when telemetry is disabled).
    pub fn scrape(&self) -> Option<String> {
        self.registry.as_ref().map(|reg| {
            // Send-failure counts owned by sockets without a service
            // stats block (heartbeat threads, the delay line) are
            // merged into the exposition at scrape time.
            let plane = telemetry::Labels::EMPTY.with_plane(crate::obs::RT_PLANE);
            reg.gauge(
                "scatter_hb_send_errors",
                "heartbeat datagrams whose OS send failed",
                plane.clone(),
            )
            .set(self.hb_send_errors.load(Ordering::Relaxed) as f64);
            reg.gauge(
                "scatter_delay_send_errors",
                "delay-line datagrams whose OS send failed",
                plane,
            )
            .set(
                self.net
                    .as_ref()
                    .map(|n| n.delay_send_errors())
                    .unwrap_or(0) as f64,
            );
            telemetry::prom::encode(&reg.snapshot())
        })
    }

    /// Kill one replica and supervise its recovery: mirror of the DES
    /// `crash_instance`. Blocking — call from a dedicated thread (the
    /// built-in `RuntimeOptions::kills` schedule does) while the
    /// clients run elsewhere. Sequence:
    ///
    /// 1. the fault generation is bumped; the thread notices within its
    ///    20 ms poll and exits, surrendering an [`ExitReport`] naming
    ///    the frames whose in-memory state died with it;
    /// 2. those frames get `Crash` terminals + counters (exactly once);
    /// 3. for the `recovery` window nothing serves the socket — the
    ///    supervisor drains arriving datagrams and attributes each
    ///    distinct frame as a `Crash` drop (DES: `drops.down`), while
    ///    control traffic is ignored (requesters retransmit into the
    ///    void and give up on their own deadline);
    /// 4. the replica is respawned at the new generation with empty
    ///    state (fresh store/reassembler/parked queue).
    ///
    /// `kill` composes [`Self::take_down`] + [`Self::bring_up`]; use
    /// the halves directly to sequence a detection in between
    /// (take-down → [`Self::await_detection`] → bring-up), which is
    /// how detection-driven redeploys are counted.
    pub fn kill(&self, kind: ServiceKind, recovery: Duration) {
        let down = self.take_down(kind);
        self.bring_up(down, recovery);
    }

    /// Crash one replica *without* recovering it: bump the fault
    /// generation (the heartbeat thread dies with it, so the detector
    /// starts accruing silence), join the thread, and attribute the
    /// frames whose in-memory state died with it. The replica's socket
    /// stays dark until the returned token is passed to
    /// [`Self::bring_up`].
    pub fn take_down(&self, kind: ServiceKind) -> DownReplica {
        let idx = kind.index();
        let runner = &self.runners[idx];
        runner.stats.kills.fetch_add(1, Ordering::Relaxed);
        runner.fault.generation.fetch_add(1, Ordering::Relaxed);
        self.flight.record(
            0,
            self.ctx.epoch.elapsed().as_nanos() as u64,
            observatory::flight::KIND_KILL,
            idx as u64,
            0,
        );
        if let Some(d) = &self.detection {
            d.crash_at.lock().expect("crash_at lock")[idx] = Some(Instant::now());
        }
        let old = self.handles.lock().expect("handles lock")[idx].take();
        let exit = old
            .map(|h| h.join().expect("service thread"))
            .unwrap_or_default();

        let mut seen: HashSet<(u16, u32)> = HashSet::new();
        for key in exit.lost_frames {
            if seen.insert((key.client, key.frame_no)) {
                self.attribute_crash(runner, key.client, key.frame_no, key.flags);
            }
        }
        self.flight
            .trigger(self.ctx.epoch.elapsed().as_nanos() as u64, "kill");
        DownReplica { kind, seen }
    }

    /// Drain the dead replica's socket for the `recovery` window
    /// (attributing each distinct arriving frame as a `Crash` drop),
    /// then respawn it at the new generation with empty state. If the
    /// detector flagged the replica while it was down, the respawn
    /// counts as a detection-driven redeploy.
    pub fn bring_up(&self, down: DownReplica, recovery: Duration) {
        let DownReplica { kind, mut seen } = down;
        let idx = kind.index();
        let runner = &self.runners[idx];

        // Nothing listens on a crashed container's port: drain and
        // attribute arrivals for the whole recovery window.
        let _ = runner
            .socket
            .set_read_timeout(Some(Duration::from_millis(5)));
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let t_end = Instant::now() + recovery;
        while Instant::now() < t_end && !self.shutdown.load(Ordering::Relaxed) {
            match runner.socket.recv_from(&mut buf) {
                Ok((n, _)) => {
                    // Bilingual drain: recover the frame identity from
                    // either wire dialect.
                    if let Ok(decoded) = wirev2::decode_any(&buf[..n]) {
                        let frag = match decoded {
                            wirev2::Decoded::V1(f) => f,
                            wirev2::Decoded::V2(f, _) => f,
                        };
                        if frag.flags & wire::FLAG_CTRL != 0 {
                            continue; // fetch responses: not frame traffic
                        }
                        if seen.insert((frag.client, frag.frame_no)) {
                            self.attribute_crash(runner, frag.client, frag.frame_no, frag.flags);
                        }
                    }
                    // Control requests / malformed datagrams die silently,
                    // exactly like a dark port.
                }
                Err(ref e) if is_would_block(e) => continue,
                Err(_) => {
                    runner.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &runner.obs {
                        o.io_errors.inc();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }

        if !self.shutdown.load(Ordering::Relaxed) {
            if let Some(d) = &self.detection {
                let flagged = {
                    let mut down = d.detected_down.lock().expect("detected lock");
                    std::mem::take(&mut down[idx])
                };
                if flagged {
                    d.redeploys.fetch_add(1, Ordering::Relaxed);
                }
                // A respawn without a detection also clears the stale
                // crash instant so a later unrelated detection doesn't
                // measure against it.
                d.crash_at.lock().expect("crash_at lock")[idx] = None;
            }
            self.flight.record(
                0,
                self.ctx.epoch.elapsed().as_nanos() as u64,
                observatory::flight::KIND_REVIVE,
                idx as u64,
                0,
            );
            self.handles.lock().expect("handles lock")[idx] = Some(runner.spawn());
        }
    }

    /// Block until the detector raises a suspicion (returns the flagged
    /// service), or `timeout` elapses. `None` when detection is off or
    /// nothing fired in time.
    pub fn await_detection(&self, timeout: Duration) -> Option<ServiceKind> {
        let d = self.detection.as_ref()?;
        d.events
            .lock()
            .expect("events lock")
            .recv_timeout(timeout)
            .ok()
    }

    fn attribute_crash(&self, runner: &ReplicaRunner, client: u16, frame_no: u32, flags: u8) {
        runner.stats.dropped_crash.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &runner.obs {
            o.drop_crash.inc();
        }
        self.flight.record(
            1 + runner.kind.index(),
            self.ctx.epoch.elapsed().as_nanos() as u64,
            observatory::flight::KIND_DROP,
            ((client as u64) << 32) | frame_no as u64,
            runner.kind.index() as u64,
        );
        let tctx = trace::TraceCtx::new(client, frame_no, flags & wire::FLAG_SAMPLED != 0);
        runner.tracer.terminal(
            tctx,
            self.ctx.epoch.elapsed().as_nanos() as u64,
            trace::FrameFate::Dropped(trace::DropReason::Crash),
        );
    }

    /// One client's stream: emit paced frames from its `recording`,
    /// collect completions. Runs on the calling thread.
    #[allow(clippy::too_many_arguments)]
    fn client_loop(
        client_id: u16,
        socket: &RtSocket,
        primary_addr: SocketAddr,
        recording: &predict::Recording,
        ctx: &SharedCtx,
        opts: &RuntimeOptions,
        client_stats: &SvcStats,
        tracer: &trace::ThreadTracer,
        track: trace::TrackId,
        obs: Option<&RtClientObs>,
    ) -> ClientOutcome {
        socket
            .set_read_timeout(Some(Duration::from_millis(5)))
            .expect("set_read_timeout");
        let period = Duration::from_secs_f64(1.0 / opts.fps);
        let return_port = socket.local_addr().expect("local addr").port();
        let mut reassembler = Reassembler::new();
        let mut rx = RxState::new();
        // v2 uplink shaping: the delta/keyframe state machine. Acked by
        // each completed result (the client hears about its own frames),
        // re-keyed automatically when acks stop coming.
        let mut uplink = opts.wire.v2.then(|| UplinkTx::new(opts.wire.policy));
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let mut completed = 0u32;
        let mut e2e = Vec::new();
        let mut recognitions: HashMap<String, u32> = HashMap::new();

        let mut drain_until = Instant::now() + opts.drain;
        let mut next_emit = Instant::now();
        let mut emitted = 0u32;
        while emitted < opts.frames || Instant::now() < drain_until {
            if emitted < opts.frames && Instant::now() >= next_emit {
                // The paper's clients stream a pre-recorded, compressed
                // video; primary decodes.
                let compressed = recording.frame(emitted);
                // v2: run the delta/keyframe decision; v1 ships the full
                // DCT stream every frame.
                let (kind, base, payload) = match &mut uplink {
                    Some(tx) => tx.prepare(emitted, compressed),
                    None => (FrameKind::Plain, 0, compressed),
                };
                let tctx = tracer.ctx(client_id, emitted);
                let emit_micros = ctx.epoch.elapsed().as_micros() as u64;
                tracer.emitted(tctx, emit_micros * 1_000);
                let msg = WireMsg {
                    client: client_id,
                    frame_no: emitted,
                    step: ServiceKind::Primary,
                    emit_micros,
                    return_port,
                    trace_id: tctx.trace_id,
                    flags: if tctx.sampled { wire::FLAG_SAMPLED } else { 0 },
                    sent_micros: emit_micros,
                    payload,
                };
                let outcome = send_msg_wire(
                    socket,
                    primary_addr,
                    &msg,
                    &opts.wire,
                    kind,
                    base,
                    client_stats,
                    None,
                );
                // An uplink frame the shim ate whole never reaches
                // primary: the client is the only witness.
                attribute_net_drop(
                    outcome,
                    tctx,
                    ctx.epoch.elapsed().as_nanos() as u64,
                    tracer,
                    client_stats,
                    None,
                );
                if let Some(o) = obs {
                    o.frames_emitted.inc();
                }
                emitted += 1;
                next_emit += period;
                drain_until = Instant::now() + opts.drain;
            }
            let n = match socket.recv_from(&mut buf) {
                Ok((n, _)) => n,
                Err(ref e) if is_would_block(e) => continue,
                Err(_) => {
                    client_stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            let frag = match rx.ingest(&buf[..n]) {
                Ok(frag) => frag,
                Err(e) => {
                    attribute_ingest_error(e, ctx.epoch, tracer, client_stats, None);
                    continue;
                }
            };
            let Some(msg) = reassembler.offer(frag) else {
                continue;
            };
            let Ok((msg, _meta)) = rx.finish(msg) else {
                client_stats.malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            // Full-ns receive stamp: matching's `sent_micros` is rounded
            // up at the send site, so flooring here to whole micros
            // could order this span *before* matching's compute end.
            let recv_ns = ctx.epoch.elapsed().as_nanos() as u64;
            let now_micros = recv_ns / 1_000;
            let tctx = msg.trace_ctx();
            // Return hop: matching's send → this client's receive.
            tracer.span(
                tctx,
                track,
                trace::STAGE_CLIENT,
                trace::Phase::IngressQueue,
                (msg.sent_micros * 1_000).min(recv_ns),
                recv_ns,
            );
            tracer.terminal(tctx, recv_ns, trace::FrameFate::Completed);
            // A completed round trip proves primary reconstructed the
            // frame: safe to anchor future deltas on it.
            if let Some(tx) = &mut uplink {
                tx.ack(msg.frame_no);
            }
            let e2e_ms = now_micros.saturating_sub(msg.emit_micros) as f64 / 1e3;
            if let Some(o) = obs {
                o.frames_completed.inc();
                o.e2e_ms.record(e2e_ms);
            }
            e2e.push(e2e_ms);
            completed += 1;
            if let Ok(recs) = wire::decode_result(msg.payload) {
                for (name, _) in recs {
                    *recognitions.entry(name).or_insert(0) += 1;
                }
            }
        }
        (emitted, completed, e2e, recognitions)
    }

    /// Stream frames from all configured clients concurrently (client 0
    /// runs on the calling thread; the rest get their own threads and
    /// sockets — like the paper's containerized NUC clients), executing
    /// the `RuntimeOptions::kills` fault schedule on timer threads.
    pub fn run_client(&self) -> RuntimeReport {
        if self.opts.kills.is_empty() {
            return self.run_client_inner();
        }
        let started = Instant::now();
        std::thread::scope(|scope| {
            for &(at, kind, recovery) in &self.opts.kills {
                scope.spawn(move || {
                    // Sleep in slices so a finished run isn't held open.
                    while started.elapsed() < at && !self.shutdown.load(Ordering::Relaxed) {
                        let left = at - started.elapsed();
                        std::thread::sleep(left.min(Duration::from_millis(10)));
                    }
                    if !self.shutdown.load(Ordering::Relaxed) {
                        self.kill(kind, recovery);
                    }
                });
            }
            self.run_client_inner()
        })
    }

    fn run_client_inner(&self) -> RuntimeReport {
        let opts = &self.opts;
        // Each client replays its own camera (distinct seed), the same
        // recording the DES predictor sizes its uplink from.
        let camera = |cid| predict::Recording::of(opts.seed, cid, opts.width, opts.height, 85);
        // Results are returned to the socket the frame was sent from,
        // but routing goes through the service chain; every client needs
        // its own return socket. Client 0 reuses the deployment socket.
        let extra: Vec<std::thread::JoinHandle<ClientOutcome>> = (1..opts.clients)
            .map(|cid| {
                let primary_addr = self.primary_addr;
                let ctx = self.ctx.clone();
                let opts = self.opts.clone();
                let tracer = self.collector.handle();
                let track = self.client_tracks[cid as usize];
                let obs = self.client_obs.clone();
                let client_stats = self.client_stats.clone();
                let net = self.net.clone();
                let recording = camera(cid);
                std::thread::Builder::new()
                    .name(format!("scatter-client-{cid}"))
                    .spawn(move || {
                        let socket = RtSocket::new(Arc::new(bind_loopback()), Ep::Client, net);
                        Self::client_loop(
                            cid,
                            &socket,
                            primary_addr,
                            &recording,
                            &ctx,
                            &opts,
                            &client_stats,
                            &tracer,
                            track,
                            obs.as_ref(),
                        )
                    })
                    .expect("spawn client thread")
            })
            .collect();

        let tracer0 = self.collector.handle();
        let (em0, cp0, mut e2e, mut recognitions) = Self::client_loop(
            0,
            &self.client_socket,
            self.primary_addr,
            &camera(0),
            &self.ctx,
            opts,
            &self.client_stats,
            &tracer0,
            self.client_tracks[0],
            self.client_obs.as_ref(),
        );
        let mut per_client_completed = vec![cp0];
        let mut emitted = em0;
        let mut completed = cp0;
        for h in extra {
            let (em, cp, e, recs) = h.join().expect("client thread");
            emitted += em;
            completed += cp;
            e2e.extend(e);
            per_client_completed.push(cp);
            for (name, count) in recs {
                *recognitions.entry(name).or_insert(0) += count;
            }
        }

        let mean_e2e = if e2e.is_empty() {
            0.0
        } else {
            e2e.iter().sum::<f64>() / e2e.len() as f64
        };
        let max_e2e = e2e.iter().copied().fold(0.0f64, f64::max);
        let p95_e2e = if e2e.is_empty() {
            0.0
        } else {
            let mut sorted = e2e.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            sorted[((sorted.len() as f64 * 0.95).ceil() as usize).saturating_sub(1)]
        };
        let sum = |f: &dyn Fn(&SvcStats) -> u64| -> u64 {
            self.stats.iter().map(|s| f(s)).sum::<u64>() + f(&self.client_stats)
        };
        RuntimeReport {
            emitted,
            completed,
            mean_e2e_ms: mean_e2e,
            max_e2e_ms: max_e2e,
            recognitions,
            tracks_active: self.stats[4].tracks_active.load(Ordering::Relaxed),
            per_client_completed,
            fetch_failures: self.fetch_failures.load(Ordering::Relaxed),
            sift_store_size: self.sift_store_size.load(Ordering::Relaxed),
            malformed_datagrams: sum(&|s| s.malformed.load(Ordering::Relaxed)),
            crash_drops: sum(&|s| s.dropped_crash.load(Ordering::Relaxed)),
            busy_drops: sum(&|s| s.dropped_busy.load(Ordering::Relaxed)),
            net_drops: sum(&|s| s.net_dropped.load(Ordering::Relaxed)),
            fragment_drops: sum(&|s| s.dropped_fragment.load(Ordering::Relaxed)),
            io_errors: sum(&|s| s.io_errors.load(Ordering::Relaxed)),
            hb_send_errors: self.hb_send_errors.load(Ordering::Relaxed),
            delay_send_errors: self
                .net
                .as_ref()
                .map(|n| n.delay_send_errors())
                .unwrap_or(0),
            fetch_retransmits: sum(&|s| s.fetch_retransmits.load(Ordering::Relaxed)),
            late_fetch_rsp: sum(&|s| s.late_fetch_rsp.load(Ordering::Relaxed)),
            kills: sum(&|s| s.kills.load(Ordering::Relaxed)),
            detections: self
                .detection
                .as_ref()
                .map(|d| d.detections.load(Ordering::Relaxed))
                .unwrap_or(0),
            redeploys: self
                .detection
                .as_ref()
                .map(|d| d.redeploys.load(Ordering::Relaxed))
                .unwrap_or(0),
            detection_latency_ms: self
                .detection
                .as_ref()
                .map(|d| d.latencies.lock().expect("latencies lock").clone())
                .unwrap_or_default(),
            uplink_bytes: self.client_stats.bytes_sent.load(Ordering::Relaxed),
            bytes_on_wire: sum(&|s| s.bytes_sent.load(Ordering::Relaxed)),
            invalid_crc: sum(&|s| s.invalid_crc.load(Ordering::Relaxed)),
            delta_resyncs: sum(&|s| s.delta_resync.load(Ordering::Relaxed)),
            p95_e2e_ms: p95_e2e,
            flight_dumps: self.flight.take_dumps(),
            prof: self.ctx.prof.snapshot(),
            service_counts: self.service_counts(),
        }
    }

    /// Per-service `(kind, received, processed, dropped_stale)` counters.
    fn service_counts(&self) -> Vec<(ServiceKind, u64, u64, u64)> {
        SERVICE_KINDS
            .iter()
            .zip(&self.stats)
            .map(|(&k, s)| {
                (
                    k,
                    s.received.load(Ordering::Relaxed),
                    s.processed.load(Ordering::Relaxed),
                    s.dropped_stale.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Stop the service threads, join them, and close the trace log
    /// (empty when tracing was disabled).
    pub fn shutdown(self) -> trace::TraceLog {
        self.shutdown_with_counts().0
    }

    /// Like [`Self::shutdown`], but also returns the final per-service
    /// `(kind, received, processed, dropped_stale)` counters read *after*
    /// the threads have joined — the exact population a post-shutdown
    /// registry snapshot covers (no in-flight increments).
    pub fn shutdown_with_counts(self) -> (trace::TraceLog, Vec<(ServiceKind, u64, u64, u64)>) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(d) = &self.detection {
            // The monitor polls with a 5 ms timeout, so it notices the
            // flag promptly; heartbeat threads are detached and die on
            // the same flag within one interval.
            if let Some(h) = d.monitor.lock().expect("monitor lock").take() {
                let _ = h.join();
            }
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles lock"));
        for h in handles.into_iter().flatten() {
            let _ = h.join();
        }
        let counts = self.service_counts();
        let end_ns = self.ctx.epoch.elapsed().as_nanos() as u64;
        (self.collector.collect(end_ns), counts)
    }
}

/// Convenience: start, run, shut down.
pub fn run_local(opts: RuntimeOptions) -> RuntimeReport {
    let dep = LocalDeployment::start(opts);
    let report = dep.run_client();
    let _ = dep.shutdown();
    report
}

/// Like [`run_local`], but returns the trace log alongside the report.
/// Enables tracing (sample-every-frame) unless `opts.trace` already set
/// a policy.
pub fn run_local_traced(mut opts: RuntimeOptions) -> (RuntimeReport, trace::TraceLog) {
    if opts.trace.is_none() {
        opts.trace = Some(trace::TraceConfig::default());
    }
    let dep = LocalDeployment::start(opts);
    let report = dep.run_client();
    let log = dep.shutdown();
    (report, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end over real loopback UDP: frames stream in, bounding
    /// boxes come back. Small frame count: real CV per frame.
    #[test]
    fn loopback_pipeline_end_to_end() {
        let report = run_local(RuntimeOptions {
            frames: 8,
            fps: 8.0,
            ..Default::default()
        });
        assert_eq!(report.emitted, 8);
        assert!(
            report.completed >= 4,
            "only {}/8 frames completed (service counts: {:?})",
            report.completed,
            report.service_counts
        );
        assert!(report.mean_e2e_ms > 0.0);
        assert!(
            !report.recognitions.is_empty(),
            "no objects recognized over the wire"
        );
        assert!(
            report.tracks_active > 0,
            "matching should hold live tracks after a recognition streak"
        );
        // Every stage did real work.
        for (kind, received, processed, _) in &report.service_counts {
            assert!(*received > 0, "{} received nothing", kind.name());
            assert!(*processed > 0, "{} processed nothing", kind.name());
        }
        // Pristine loopback: the fault plane must stay silent.
        assert_eq!(report.crash_drops, 0);
        assert_eq!(report.net_drops, 0);
        assert_eq!(report.kills, 0);
    }

    /// The staleness filter drops frames when the budget is impossible.
    #[test]
    fn threshold_filter_drops_stale_frames() {
        let report = run_local(RuntimeOptions {
            frames: 6,
            fps: 50.0,         // far beyond single-thread CV capacity
            threshold_ms: 1.0, // nothing can finish in 1 ms
            drain: Duration::from_millis(400),
            ..Default::default()
        });
        let total_stale: u64 = report.service_counts.iter().map(|(_, _, _, d)| d).sum();
        assert!(
            total_stale > 0,
            "filter never fired: {:?}",
            report.service_counts
        );
        assert!(report.completed < report.emitted);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::obs::{RT_MACHINE, RT_PLANE};

    /// The live metrics plane and the `SvcStats` counters increment at
    /// the same program points, so after the threads join they must
    /// agree *exactly* — and the scrape must be valid Prometheus text.
    #[test]
    fn scrape_reconciles_with_svc_stats() {
        let reg = telemetry::Registry::new();
        let dep = LocalDeployment::start(RuntimeOptions {
            frames: 5,
            fps: 8.0,
            registry: Some(reg.clone()),
            ..Default::default()
        });
        let report = dep.run_client();
        let stats = dep.stats.clone();
        let live = dep.scrape().expect("registry enabled");
        telemetry::prom::parse(&live).expect("mid-run scrape parses");
        let _ = dep.shutdown(); // joins the service threads

        let snap = reg.snapshot();
        for (i, kind) in SERVICE_KINDS.iter().enumerate() {
            let labels = telemetry::Labels::service(kind.name())
                .with_replica(0)
                .with_machine(RT_MACHINE)
                .with_plane(RT_PLANE);
            assert_eq!(
                snap.counter("scatter_service_ingress_total", &labels),
                stats[i].received.load(Ordering::Relaxed),
                "{} ingress drifted",
                kind.name()
            );
            assert_eq!(
                snap.counter("scatter_service_processed_total", &labels),
                stats[i].processed.load(Ordering::Relaxed),
                "{} processed drifted",
                kind.name()
            );
        }
        let e2e = snap
            .histogram(
                "scatter_e2e_latency_ms",
                &telemetry::Labels::EMPTY.with_plane(RT_PLANE),
            )
            .expect("e2e histogram registered");
        assert_eq!(e2e.count(), report.completed as u64);
        // Final snapshot round-trips through the text format.
        let text = telemetry::prom::encode(&snap);
        let exp = telemetry::prom::parse(&text).expect("final scrape parses");
        assert!(!exp.samples.is_empty());
    }
}

#[cfg(test)]
mod stateful_tests {
    use super::*;

    /// The dependency loop over real sockets: frames complete only via
    /// matching's fetch round-trip to sift's in-memory store. Paced
    /// slowly so the test is robust under debug-build CV speeds.
    #[test]
    fn stateful_pipeline_completes_via_fetch() {
        let report = run_local(RuntimeOptions {
            stateful: true,
            frames: 4,
            fps: 1.5,
            drain: Duration::from_millis(3000),
            ..Default::default()
        });
        assert!(
            report.completed >= 2,
            "stateful pipeline completed only {}/4 (fetch failures: {})",
            report.completed,
            report.fetch_failures
        );
        assert!(
            !report.recognitions.is_empty(),
            "no recognitions through the fetch path"
        );
        // Served entries linger only one fetch-timeout, then the TTL
        // sweep removes them: the store must not hold every frame at
        // shutdown.
        assert!(
            report.sift_store_size < 4,
            "sift store leaked: {} entries",
            report.sift_store_size
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::runtime::impair::{LinkImpairment, LinkRule};

    /// Satellite regression: the shim eats the *first* fetch-request
    /// datagram on the matching→sift link. Pre-retransmit, matching
    /// busy-waited the full timeout and recorded a fetch failure; with
    /// deadline-bounded backoff the frame must still complete.
    #[test]
    fn fetch_request_loss_recovers_with_retransmit() {
        let impair = ImpairmentProfile::new(11).with_rule(LinkRule::between(
            Ep::Svc(ServiceKind::Matching),
            Ep::Svc(ServiceKind::Sift),
            LinkImpairment::drop_first(1),
        ));
        let report = run_local(RuntimeOptions {
            stateful: true,
            frames: 3,
            fps: 1.5,
            drain: Duration::from_millis(3000),
            impair: Some(impair),
            ..Default::default()
        });
        assert!(
            report.fetch_retransmits >= 1,
            "the dropped request never triggered a retransmit"
        );
        assert_eq!(
            report.fetch_failures, 0,
            "retransmit should recover within the fetch deadline"
        );
        assert!(
            report.completed >= 2,
            "only {}/3 completed after a single request loss",
            report.completed
        );
    }

    /// Headline regression for the frame-swallowing bug: while matching
    /// is wedged in a fetch-wait, fragments of *other* frames keep
    /// arriving on its socket. Before the fix they were consumed into a
    /// throwaway reassembler and vanished without any drop accounting;
    /// now they are parked and processed after the wait resolves.
    ///
    /// The wedge is forced deterministically: the shim eats the first
    /// four fetch-request datagrams, so with a 100 ms initial backoff
    /// the fifth attempt succeeds ~1.5 s in — long enough that every
    /// later frame reaches matching mid-wait even on slow builds.
    #[test]
    fn frames_arriving_during_fetch_wait_survive() {
        let impair = ImpairmentProfile::new(13).with_rule(LinkRule::between(
            Ep::Svc(ServiceKind::Matching),
            Ep::Svc(ServiceKind::Sift),
            LinkImpairment::drop_first(4),
        ));
        let (report, log) = run_local_traced(RuntimeOptions {
            stateful: true,
            frames: 4,
            fps: 4.0,
            stateful_opts: StatefulOptions {
                fetch_timeout: Duration::from_millis(2500),
                fetch_retry_initial: Duration::from_millis(100),
                ..Default::default()
            },
            drain: Duration::from_millis(5000),
            impair: Some(impair),
            ..Default::default()
        });
        assert!(
            report.fetch_retransmits >= 4,
            "wedge never formed: only {} retransmits",
            report.fetch_retransmits
        );
        assert_eq!(
            report.completed,
            report.emitted,
            "frames were swallowed during the fetch wait: {}/{} completed \
             (busy={} crash={} net={} frag={} fetch_failures={})",
            report.completed,
            report.emitted,
            report.busy_drops,
            report.crash_drops,
            report.net_drops,
            report.fragment_drops,
            report.fetch_failures
        );
        let a = trace::Analysis::from_log(&log);
        a.check_invariants().expect("trace invariants hold");
        assert_eq!(
            a.assigned_run_end,
            0,
            "some frame ended without a terminal: {:?}",
            a.drop_reasons()
        );
    }

    /// Every frame the shim eats whole is attributed at the send site —
    /// nothing disappears silently even under 100% loss.
    #[test]
    fn total_loss_is_fully_attributed() {
        let impair = ImpairmentProfile::new(17).with_rule(LinkRule::between(
            Ep::Client,
            Ep::Svc(ServiceKind::Primary),
            LinkImpairment::loss(1.0),
        ));
        let (report, log) = run_local_traced(RuntimeOptions {
            frames: 5,
            fps: 10.0,
            drain: Duration::from_millis(300),
            impair: Some(impair),
            ..Default::default()
        });
        assert_eq!(report.completed, 0);
        assert_eq!(
            report.net_drops + report.fragment_drops,
            u64::from(report.emitted),
            "shim losses must be counted, not silent"
        );
        let a = trace::Analysis::from_log(&log);
        a.check_invariants().expect("trace invariants hold");
        assert_eq!(a.assigned_run_end, 0, "every loss carries a terminal");
        let reasons = a.drop_reasons();
        let attributed: usize = reasons
            .iter()
            .filter(|(r, _)| {
                matches!(
                    r,
                    trace::DropReason::NetemLoss | trace::DropReason::FragmentLoss
                )
            })
            .map(|(_, n)| n)
            .sum();
        assert_eq!(attributed, report.emitted as usize, "{reasons:?}");
    }

    /// Kill/restart parity with the DES `crash_instance`: killing sift
    /// mid-run voids in-flight state (counted + trace-attributed as
    /// [`trace::DropReason::Crash`]), and the respawned replica serves
    /// the remaining frames.
    #[test]
    fn kill_and_restart_attributes_crash_drops() {
        let (report, log) = run_local_traced(RuntimeOptions {
            frames: 10,
            fps: 8.0,
            kills: vec![(
                Duration::from_millis(400),
                ServiceKind::Sift,
                Duration::from_millis(400),
            )],
            drain: Duration::from_millis(3000),
            ..Default::default()
        });
        assert_eq!(report.kills, 1);
        assert!(
            report.crash_drops >= 1,
            "a kill at mid-stream must void at least one in-flight frame"
        );
        assert!(
            report.completed >= 2,
            "the respawned replica never recovered: {}/{} completed",
            report.completed,
            report.emitted
        );
        let a = trace::Analysis::from_log(&log);
        a.check_invariants().expect("trace invariants hold");
        let crashed = a
            .drop_reasons()
            .get(&trace::DropReason::Crash)
            .copied()
            .unwrap_or(0);
        assert_eq!(
            crashed as u64, report.crash_drops,
            "crash terminals must match the crash counter"
        );
        // Observatory: the kill must freeze a flight dump whose merged
        // history contains the KIND_KILL record, and the always-on
        // profiler must have timed the per-stage compute.
        let kill_dump = report
            .flight_dumps
            .iter()
            .find(|d| d.reason == "kill")
            .expect("a kill trigger freezes a flight dump");
        assert!(
            kill_dump
                .events
                .iter()
                .any(|e| e.kind == observatory::flight::KIND_KILL
                    && e.a == ServiceKind::Sift.index() as u64),
            "the kill dump names the killed replica"
        );
        let compute = report.prof.get("compute").expect("compute phase exists");
        assert!(
            compute.calls > 0 && compute.est_total_ns > 0,
            "the always-on profiler saw no compute: {compute:?}"
        );
    }
}

#[cfg(test)]
mod detection_tests {
    use super::*;
    use crate::resilience::DetectionConfig;

    /// A healthy run with detection on must look exactly like one with
    /// detection off: no suspicions, no redeploys, frames complete.
    #[test]
    fn detection_plane_is_silent_on_a_healthy_run() {
        let report = run_local(RuntimeOptions {
            frames: 6,
            fps: 8.0,
            detection: Some(DetectionConfig::default()),
            ..Default::default()
        });
        assert_eq!(report.detections, 0, "spurious suspicion on a healthy run");
        assert_eq!(report.redeploys, 0);
        assert!(report.detection_latency_ms.is_empty());
        assert!(
            report.completed >= 3,
            "only {}/6 completed with detection enabled",
            report.completed
        );
    }

    /// The tentpole sequence over real sockets: take a replica down,
    /// wait for the heartbeat monitor to flag it (UDP heartbeats fell
    /// silent), then bring it up — counted as a detection-driven
    /// redeploy, with the detection latency measured from the crash
    /// instant. The respawned replica serves the remaining frames.
    #[test]
    fn heartbeat_detection_catches_a_kill_and_drives_the_redeploy() {
        let dep = LocalDeployment::start(RuntimeOptions {
            frames: 12,
            fps: 8.0,
            detection: Some(DetectionConfig::default()),
            drain: Duration::from_millis(3500),
            ..Default::default()
        });
        let report = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(400));
                let down = dep.take_down(ServiceKind::Sift);
                assert_eq!(down.kind(), ServiceKind::Sift);
                let detected = dep.await_detection(Duration::from_secs(5));
                assert_eq!(
                    detected,
                    Some(ServiceKind::Sift),
                    "the monitor never flagged the silent replica"
                );
                dep.bring_up(down, Duration::from_millis(100));
            });
            dep.run_client()
        });
        assert!(report.detections >= 1, "no detection recorded");
        assert_eq!(
            report.redeploys, 1,
            "the respawn after detection must count as a redeploy"
        );
        assert!(!report.detection_latency_ms.is_empty());
        let lat = report.detection_latency_ms[0];
        // suspect_factor × interval = 150 ms of silence, minus up to
        // one interval of pre-crash credit; generous upper bound for
        // loaded CI machines.
        assert!(
            lat > 50.0 && lat < 3000.0,
            "detection latency {lat:.0} ms outside the plausible band"
        );
        assert!(
            report.completed >= 2,
            "the redeployed replica never recovered: {}/{}",
            report.completed,
            report.emitted
        );
        let _ = dep.shutdown();
    }
}

#[cfg(test)]
mod multi_client_tests {
    use super::*;

    /// Two concurrent clients over real loopback UDP: results must route
    /// back to each client's own socket via the wire return port. Paced
    /// slowly so the test is robust under debug-build CV speeds.
    #[test]
    fn two_clients_each_get_their_results() {
        let report = run_local(RuntimeOptions {
            clients: 2,
            frames: 4,
            fps: 1.0,
            drain: Duration::from_millis(4000),
            ..Default::default()
        });
        assert_eq!(report.emitted, 8);
        assert_eq!(report.per_client_completed.len(), 2);
        for (cid, &completed) in report.per_client_completed.iter().enumerate() {
            assert!(
                completed >= 2,
                "client {cid} completed only {completed}/4 frames"
            );
        }
    }
}
