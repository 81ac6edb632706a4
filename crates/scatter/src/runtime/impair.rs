//! Deterministic, seeded network impairment for the real-UDP runtime.
//!
//! The DES injects loss/delay/jitter through [`simnet`]; the real
//! runtime historically ran on pristine loopback, so the paper's
//! robustness story (fig. 9/10: the offload path *is* the failure
//! surface) only existed in simulation. This shim closes the gap
//! without `tc netem` or root: every service/client socket is wrapped
//! in an [`RtSocket`], and each *send* consults a per-link
//! `LinkState` that draws drop/duplication decisions from a seeded
//! [`SimRng`] (optionally through the same Gilbert–Elliott burst
//! channel the DES uses, [`simnet::GilbertElliott`]) and ships delayed
//! datagrams through a single delay-line thread.
//!
//! Determinism: decisions are drawn per datagram in send order from a
//! per-link RNG seeded by `profile.seed ^ hash(link)`. Because every
//! service is a single thread, the send order on a given link is the
//! frame order, so a fixed seed yields a fixed loss pattern
//! independent of wall-clock timing. (Delays are *applied* in real
//! time, so arrival interleavings still vary — exactly like a real
//! impaired network, while the loss schedule stays reproducible.)
//!
//! Attribution: the shim is the network, so when it eats *every*
//! fragment of a frame message the receiver can never know — the
//! sender's service loop records the drop ([`trace::DropReason::NetemLoss`]
//! or `FragmentLoss`) at the send site, mirroring where the DES
//! attributes `simnet::Delivery::Lost`. Partial fragment loss is
//! attributed at the receiver when the reassembler gives up
//! ([`crate::runtime::wire::Reassembler::sweep`]).

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simcore::SimRng;
use simnet::GilbertElliott;

use crate::message::ServiceKind;

/// One endpoint class of a runtime link. All clients share a class:
/// impairment profiles describe *links*, not individual phones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ep {
    Client,
    Svc(ServiceKind),
}

impl Ep {
    fn hash64(self) -> u64 {
        match self {
            Ep::Client => 0x00C1_1E57,
            Ep::Svc(k) => 0x5E8C_0000 + k.index() as u64,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Ep::Client => "client",
            Ep::Svc(k) => k.name(),
        }
    }
}

/// What one link does to datagrams, per direction.
#[derive(Debug, Clone, Default)]
pub struct LinkImpairment {
    /// Independent per-datagram loss probability.
    pub loss: f64,
    /// Bursty loss: `(average loss, mean burst length in datagrams)`,
    /// realized by the DES's Gilbert–Elliott channel. Composes with
    /// `loss` (either may eat the datagram).
    pub burst: Option<(f64, f64)>,
    /// Fixed one-way extra delay.
    pub delay: Duration,
    /// Uniform extra jitter on top of `delay`.
    pub jitter: Duration,
    /// Per-datagram duplication probability.
    pub duplicate: f64,
    /// Deterministically drop the first `n` datagrams on this link —
    /// the knob fault-injection tests use to force e.g. "the first
    /// fetch-request datagram is lost".
    pub drop_first: u64,
    /// Deterministically corrupt (bit-flip) the first `n` datagrams on
    /// this link instead of dropping them. The datagram still ships —
    /// the point is to exercise the receive path: a v2 receiver counts
    /// `InvalidCrc` and drops; a v1 receiver silently accepts the
    /// garbage. Checked after `drop_first`, before any RNG draw, so the
    /// count is exact and the loss schedule is unchanged.
    pub corrupt_first: u64,
    /// Radio-cell MTU: when set, the loss draws (`loss` and `burst`)
    /// are made once per `ceil(len / cell_mtu)` cell rather than once
    /// per datagram, and the datagram dies if *any* cell dies. This is
    /// the LTE reality that makes byte count matter: a frame twice as
    /// long crosses twice as many cells and is roughly twice as likely
    /// to be eaten, which is what rewards v2's smaller frames with
    /// higher goodput, not just fewer bytes.
    pub cell_mtu: Option<usize>,
}

impl LinkImpairment {
    pub fn loss(p: f64) -> Self {
        LinkImpairment {
            loss: p,
            ..Default::default()
        }
    }

    pub fn bursty(avg_loss: f64, mean_burst: f64) -> Self {
        LinkImpairment {
            burst: Some((avg_loss, mean_burst)),
            ..Default::default()
        }
    }

    pub fn drop_first(n: u64) -> Self {
        LinkImpairment {
            drop_first: n,
            ..Default::default()
        }
    }

    pub fn corrupt_first(n: u64) -> Self {
        LinkImpairment {
            corrupt_first: n,
            ..Default::default()
        }
    }

    pub fn with_cell_mtu(mut self, mtu: usize) -> Self {
        assert!(mtu > 0, "cell MTU must be positive");
        self.cell_mtu = Some(mtu);
        self
    }

    pub fn with_delay(mut self, delay: Duration, jitter: Duration) -> Self {
        self.delay = delay;
        self.jitter = jitter;
        self
    }

    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    fn needs_delay_line(&self) -> bool {
        self.delay > Duration::ZERO || self.jitter > Duration::ZERO
    }
}

/// A rule: which links (`from` → `to`, `None` = wildcard) get which
/// impairment. First matching rule wins.
#[derive(Debug, Clone)]
pub struct LinkRule {
    pub from: Option<Ep>,
    pub to: Option<Ep>,
    pub imp: LinkImpairment,
}

impl LinkRule {
    pub fn between(from: Ep, to: Ep, imp: LinkImpairment) -> Self {
        LinkRule {
            from: Some(from),
            to: Some(to),
            imp,
        }
    }

    pub fn any(imp: LinkImpairment) -> Self {
        LinkRule {
            from: None,
            to: None,
            imp,
        }
    }

    fn matches(&self, from: Ep, to: Ep) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// A full impairment profile: the seed plus the link rules.
#[derive(Debug, Clone)]
pub struct ImpairmentProfile {
    pub seed: u64,
    pub rules: Vec<LinkRule>,
}

impl ImpairmentProfile {
    pub fn new(seed: u64) -> Self {
        ImpairmentProfile {
            seed,
            rules: Vec::new(),
        }
    }

    pub fn with_rule(mut self, rule: LinkRule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// Per-link mutable state: the seeded RNG, the optional burst channel,
/// and the datagram counter for `drop_first`.
struct LinkState {
    imp: LinkImpairment,
    rng: SimRng,
    gilbert: Option<GilbertElliott>,
    sent: u64,
}

/// What the shim decided about one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Caller sends it now.
    Pass,
    /// Caller sends it now *and* the delay line ships a duplicate.
    PassAndDuplicate,
    /// Caller flips a byte and then sends it: the emulated network
    /// corrupted the datagram in flight (see
    /// [`LinkImpairment::corrupt_first`]).
    PassCorrupted,
    /// Queued on the delay line; the caller must not send it.
    Delayed,
    /// Eaten by the emulated network; the caller must not send it.
    Dropped,
}

struct DelayedDatagram {
    due: Instant,
    to: SocketAddr,
    bytes: Vec<u8>,
    seq: u64,
}

impl PartialEq for DelayedDatagram {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedDatagram {}
impl PartialOrd for DelayedDatagram {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedDatagram {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by due time (BinaryHeap is a max-heap).
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// Where the shim's *own* send failures are reported: the counter the
/// deployment reads into `RuntimeReport::delay_send_errors`, plus a
/// flight-recorder hook attached after the deployment builds one (the
/// delay thread outlives no deployment, but is spawned before it).
/// Historically these sends were `let _ =`-discarded, making a
/// transient ENOBUFS on the shim indistinguishable from an intentional
/// shim drop.
/// A flight recorder plus the deployment epoch its timestamps count
/// from.
type FlightHook = (Arc<observatory::FlightRecorder>, Instant);

#[derive(Clone, Default)]
struct SendErrSink {
    errors: Arc<AtomicU64>,
    flight: Arc<Mutex<Option<FlightHook>>>,
}

impl SendErrSink {
    fn note(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if let Some((flight, epoch)) = &*self.flight.lock().expect("flight lock") {
            flight.record(
                0,
                epoch.elapsed().as_nanos() as u64,
                observatory::flight::KIND_SEND_ERR,
                0,
                0,
            );
        }
    }
}

/// The shared impairment plane for one deployment.
pub struct ImpairedNet {
    profile: ImpairmentProfile,
    /// Destination port → endpoint class; unknown ports are clients
    /// (their sockets are bound dynamically).
    ports: Mutex<HashMap<u16, Ep>>,
    links: Mutex<HashMap<(Ep, Ep), LinkState>>,
    delay_tx: Option<mpsc::Sender<DelayedDatagram>>,
    seq: std::sync::atomic::AtomicU64,
    /// OS-level failures of the shim's own sends (delay line + the
    /// synchronous duplicate path).
    send_errs: SendErrSink,
}

impl ImpairedNet {
    pub fn new(profile: ImpairmentProfile) -> Arc<ImpairedNet> {
        let send_errs = SendErrSink::default();
        let delay_tx = if profile.rules.iter().any(|r| r.imp.needs_delay_line()) {
            let (tx, rx) = mpsc::channel::<DelayedDatagram>();
            let sink = send_errs.clone();
            std::thread::Builder::new()
                .name("scatter-delay-line".into())
                .spawn(move || delay_line(rx, sink))
                .expect("spawn delay-line thread");
            Some(tx)
        } else {
            None
        };
        Arc::new(ImpairedNet {
            profile,
            ports: Mutex::new(HashMap::new()),
            links: Mutex::new(HashMap::new()),
            delay_tx,
            seq: std::sync::atomic::AtomicU64::new(0),
            send_errs,
        })
    }

    /// Route shim send failures into the deployment's flight recorder
    /// (ring 0, [`observatory::flight::KIND_SEND_ERR`]). Idempotent;
    /// the delay thread picks the hook up on its next error.
    pub fn attach_flight(&self, flight: Arc<observatory::FlightRecorder>, epoch: Instant) {
        *self.send_errs.flight.lock().expect("flight lock") = Some((flight, epoch));
    }

    /// OS send failures on the shim's own datagrams (delay line +
    /// synchronous duplicates) since construction.
    pub fn delay_send_errors(&self) -> u64 {
        self.send_errs.errors.load(Ordering::Relaxed)
    }

    /// Register a service's port so sends toward it resolve to the
    /// right link class.
    pub fn register_port(&self, port: u16, ep: Ep) {
        self.ports.lock().expect("ports lock").insert(port, ep);
    }

    fn classify(&self, port: u16) -> Ep {
        self.ports
            .lock()
            .expect("ports lock")
            .get(&port)
            .copied()
            .unwrap_or(Ep::Client)
    }

    /// Decide the fate of one datagram from `from` to `to`. When the
    /// verdict is [`Verdict::Delayed`], the delay line owns shipping it.
    pub fn admit(&self, from: Ep, to: SocketAddr, datagram: &[u8]) -> Verdict {
        let to_ep = self.classify(to.port());
        let Some(rule) = self
            .profile
            .rules
            .iter()
            .find(|r| r.matches(from, to_ep))
            .map(|r| r.imp.clone())
        else {
            return Verdict::Pass;
        };
        let mut links = self.links.lock().expect("links lock");
        let state = links.entry((from, to_ep)).or_insert_with(|| {
            let seed = self
                .profile
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(from.hash64().wrapping_mul(0x1000_0001))
                .wrapping_add(to_ep.hash64());
            LinkState {
                gilbert: rule
                    .burst
                    .map(|(avg, burst)| GilbertElliott::with_average_loss(avg, burst)),
                imp: rule,
                rng: SimRng::new(seed),
                sent: 0,
            }
        });
        let idx = state.sent;
        state.sent += 1;
        if idx < state.imp.drop_first {
            return Verdict::Dropped;
        }
        if idx < state.imp.drop_first + state.imp.corrupt_first {
            return Verdict::PassCorrupted;
        }
        // Draw order is fixed (burst, loss, duplicate, delay) so the
        // decision stream is a pure function of the link's send index
        // (and, under `cell_mtu`, the datagram lengths).
        let cells = match state.imp.cell_mtu {
            Some(mtu) => datagram.len().div_ceil(mtu).max(1),
            None => 1,
        };
        let mut lost = false;
        for _ in 0..cells {
            let burst_lost = match state.gilbert.as_mut() {
                Some(ge) => ge.lose_packet(&mut state.rng),
                None => false,
            };
            let iid_lost = state.imp.loss > 0.0 && state.rng.bernoulli(state.imp.loss);
            // No early exit: every cell advances the channel state so
            // the schedule stays well-defined regardless of outcome.
            lost |= burst_lost || iid_lost;
        }
        if lost {
            return Verdict::Dropped;
        }
        let duplicated = state.imp.duplicate > 0.0 && state.rng.bernoulli(state.imp.duplicate);
        let delay = if state.imp.needs_delay_line() {
            let jitter_s = if state.imp.jitter > Duration::ZERO {
                state.rng.uniform(0.0, state.imp.jitter.as_secs_f64())
            } else {
                0.0
            };
            Some(state.imp.delay + Duration::from_secs_f64(jitter_s))
        } else {
            None
        };
        drop(links);
        match (delay, duplicated) {
            (None, false) => Verdict::Pass,
            (None, true) => {
                // Duplicate ships immediately through the delay line when
                // one exists; otherwise RtSocket::send_to sends twice.
                let _ = self.push_delayed(Duration::ZERO, to, datagram);
                Verdict::PassAndDuplicate
            }
            (Some(d), dup) => {
                self.push_delayed(d, to, datagram);
                if dup {
                    self.push_delayed(d, to, datagram);
                }
                Verdict::Delayed
            }
        }
    }

    fn push_delayed(&self, after: Duration, to: SocketAddr, datagram: &[u8]) -> bool {
        let Some(tx) = &self.delay_tx else {
            return false;
        };
        let seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        tx.send(DelayedDatagram {
            due: Instant::now() + after,
            to,
            bytes: datagram.to_vec(),
            seq,
        })
        .is_ok()
    }
}

/// The delay-line thread: a time-ordered heap of queued datagrams,
/// shipped from its own socket when due. Exits when every sender side
/// of the channel is gone (deployment shutdown).
fn delay_line(rx: mpsc::Receiver<DelayedDatagram>, errs: SendErrSink) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind delay-line socket");
    let mut heap: BinaryHeap<DelayedDatagram> = BinaryHeap::new();
    loop {
        let now = Instant::now();
        while let Some(head) = heap.peek() {
            if head.due > now {
                break;
            }
            let d = heap.pop().expect("peeked");
            if socket.send_to(&d.bytes, d.to).is_err() {
                errs.note();
            }
        }
        let wait = heap
            .peek()
            .map(|h| h.due.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(wait.min(Duration::from_millis(50))) {
            Ok(d) => heap.push(d),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Flush what is already due, then stop.
                let now = Instant::now();
                while let Some(head) = heap.peek() {
                    if head.due > now {
                        break;
                    }
                    let d = heap.pop().expect("peeked");
                    if socket.send_to(&d.bytes, d.to).is_err() {
                        errs.note();
                    }
                }
                return;
            }
        }
    }
}

/// How a send through the shim ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendDisposition {
    /// Handed to the OS (or the delay line) for delivery.
    Sent,
    /// Eaten by the emulated network.
    ShimDropped,
    /// The OS send itself failed.
    Error,
}

/// A runtime socket: the real `UdpSocket` plus this deployment's
/// impairment plane (when configured) and the owner's endpoint class.
/// Receives are pass-through — loss happens on the send side, which is
/// equivalent on loopback and keeps attribution at one site.
#[derive(Clone)]
pub struct RtSocket {
    sock: Arc<UdpSocket>,
    ep: Ep,
    net: Option<Arc<ImpairedNet>>,
}

impl RtSocket {
    pub fn new(sock: Arc<UdpSocket>, ep: Ep, net: Option<Arc<ImpairedNet>>) -> RtSocket {
        RtSocket { sock, ep, net }
    }

    /// An unimpaired socket (tests, default wiring).
    pub fn plain(sock: UdpSocket, ep: Ep) -> RtSocket {
        RtSocket {
            sock: Arc::new(sock),
            ep,
            net: None,
        }
    }

    pub fn endpoint(&self) -> Ep {
        self.ep
    }

    pub fn inner(&self) -> &UdpSocket {
        &self.sock
    }

    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.sock.set_read_timeout(d)
    }

    pub fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        self.sock.set_nonblocking(on)
    }

    pub fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
        self.sock.recv_from(buf)
    }

    /// Send one datagram through the impairment plane.
    pub fn send_to(&self, datagram: &[u8], to: SocketAddr) -> SendDisposition {
        let verdict = match &self.net {
            Some(net) => net.admit(self.ep, to, datagram),
            None => Verdict::Pass,
        };
        match verdict {
            Verdict::Dropped => SendDisposition::ShimDropped,
            Verdict::Delayed => SendDisposition::Sent,
            Verdict::Pass => match self.sock.send_to(datagram, to) {
                Ok(_) => SendDisposition::Sent,
                Err(_) => SendDisposition::Error,
            },
            Verdict::PassCorrupted => {
                // Flip one payload-end byte: past every header, so a v1
                // receiver accepts the damage silently while a v2
                // receiver's CRC catches it — the contrast the wire
                // experiment gates on.
                let mut mangled = datagram.to_vec();
                if let Some(last) = mangled.last_mut() {
                    *last ^= 0xFF;
                }
                match self.sock.send_to(&mangled, to) {
                    Ok(_) => SendDisposition::Sent,
                    Err(_) => SendDisposition::Error,
                }
            }
            Verdict::PassAndDuplicate => {
                let first = self.sock.send_to(datagram, to);
                if let Some(net) = self.net.as_ref().filter(|n| n.delay_tx.is_none()) {
                    // No delay line: ship the duplicate synchronously.
                    // The duplicate is the *shim's* datagram — its OS
                    // failure is the shim's to count, not the caller's.
                    if self.sock.send_to(datagram, to).is_err() {
                        net.send_errs.note();
                    }
                }
                match first {
                    Ok(_) => SendDisposition::Sent,
                    Err(_) => SendDisposition::Error,
                }
            }
        }
    }

    /// Ship a message's fragments, one [`RtSocket::send_to`] each, in
    /// order: the shim draws its verdicts in datagram order.
    pub fn send_many(&self, datagrams: &[Bytes], to: SocketAddr) -> BatchSendReport {
        let mut rep = BatchSendReport::default();
        for d in datagrams {
            rep.count(self.send_to(d, to));
        }
        rep
    }
}

/// Per-datagram accounting from [`RtSocket::send_many`] — the same three
/// outcomes `send_to` reports, aggregated over one message's fragments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchSendReport {
    pub shim_dropped: usize,
    pub errors: usize,
}

impl BatchSendReport {
    fn count(&mut self, d: SendDisposition) {
        match d {
            SendDisposition::Sent => {}
            SendDisposition::ShimDropped => self.shim_dropped += 1,
            SendDisposition::Error => self.errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn decisions(net: &ImpairedNet, n: usize) -> Vec<Verdict> {
        (0..n)
            .map(|_| net.admit(Ep::Client, addr(9000), b"x"))
            .collect()
    }

    #[test]
    fn same_seed_same_loss_schedule() {
        let profile =
            ImpairmentProfile::new(42).with_rule(LinkRule::any(LinkImpairment::loss(0.3)));
        let a = ImpairedNet::new(profile.clone());
        let b = ImpairedNet::new(profile);
        assert_eq!(decisions(&a, 500), decisions(&b, 500));
        assert!(decisions(&a, 500).contains(&Verdict::Dropped));
    }

    #[test]
    fn different_links_draw_independent_schedules() {
        let profile = ImpairmentProfile::new(7).with_rule(LinkRule::any(LinkImpairment::loss(0.5)));
        let net = ImpairedNet::new(profile);
        net.register_port(9001, Ep::Svc(ServiceKind::Sift));
        let a: Vec<Verdict> = (0..200)
            .map(|_| net.admit(Ep::Client, addr(9000), b"x"))
            .collect();
        let b: Vec<Verdict> = (0..200)
            .map(|_| net.admit(Ep::Svc(ServiceKind::Primary), addr(9001), b"x"))
            .collect();
        assert_ne!(a, b, "independent links must not share an RNG stream");
    }

    #[test]
    fn drop_first_is_exact() {
        let profile = ImpairmentProfile::new(1).with_rule(LinkRule::between(
            Ep::Svc(ServiceKind::Matching),
            Ep::Svc(ServiceKind::Sift),
            LinkImpairment::drop_first(2),
        ));
        let net = ImpairedNet::new(profile);
        net.register_port(9002, Ep::Svc(ServiceKind::Sift));
        let from = Ep::Svc(ServiceKind::Matching);
        assert_eq!(net.admit(from, addr(9002), b"req"), Verdict::Dropped);
        assert_eq!(net.admit(from, addr(9002), b"req"), Verdict::Dropped);
        assert_eq!(net.admit(from, addr(9002), b"req"), Verdict::Pass);
        // Other links untouched.
        assert_eq!(net.admit(Ep::Client, addr(9002), b"req"), Verdict::Pass);
    }

    #[test]
    fn corrupt_first_is_exact_and_after_drop_first() {
        let profile = ImpairmentProfile::new(2).with_rule(LinkRule::any(LinkImpairment {
            drop_first: 1,
            corrupt_first: 2,
            ..Default::default()
        }));
        let net = ImpairedNet::new(profile);
        assert_eq!(net.admit(Ep::Client, addr(9000), b"x"), Verdict::Dropped);
        assert_eq!(
            net.admit(Ep::Client, addr(9000), b"x"),
            Verdict::PassCorrupted
        );
        assert_eq!(
            net.admit(Ep::Client, addr(9000), b"x"),
            Verdict::PassCorrupted
        );
        assert_eq!(net.admit(Ep::Client, addr(9000), b"x"), Verdict::Pass);
    }

    #[test]
    fn corrupted_datagram_ships_with_one_byte_flipped() {
        let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx_sock
            .set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        let to = rx_sock.local_addr().expect("addr");
        let profile =
            ImpairmentProfile::new(4).with_rule(LinkRule::any(LinkImpairment::corrupt_first(1)));
        let net = ImpairedNet::new(profile);
        let tx_sock = RtSocket::new(
            Arc::new(UdpSocket::bind("127.0.0.1:0").expect("bind")),
            Ep::Client,
            Some(net),
        );
        assert_eq!(tx_sock.send_to(b"abc", to), SendDisposition::Sent);
        let mut buf = [0u8; 16];
        let (n, _) = rx_sock.recv_from(&mut buf).expect("corrupted datagram");
        assert_eq!(&buf[..n], &[b'a', b'b', b'c' ^ 0xFF]);
    }

    #[test]
    fn cell_mtu_makes_loss_length_dependent() {
        let lost_rate = |mtu: Option<usize>, len: usize| {
            let mut imp = LinkImpairment::loss(0.02);
            if let Some(m) = mtu {
                imp = imp.with_cell_mtu(m);
            }
            let profile = ImpairmentProfile::new(6).with_rule(LinkRule::any(imp));
            let net = ImpairedNet::new(profile);
            let payload = vec![0u8; len];
            let lost = (0..2_000)
                .filter(|_| net.admit(Ep::Client, addr(9000), &payload) == Verdict::Dropped)
                .count();
            lost as f64 / 2_000.0
        };
        let short = lost_rate(Some(1_400), 1_400);
        let long = lost_rate(Some(1_400), 11_200); // 8 cells
        assert!(
            long > short * 3.0,
            "8-cell datagrams should die far more often: short {short}, long {long}"
        );
        // Without an MTU the length is irrelevant.
        let flat_long = lost_rate(None, 11_200);
        assert!((flat_long - short).abs() < 0.02);
    }

    #[test]
    fn burst_rule_reuses_gilbert_elliott() {
        let profile =
            ImpairmentProfile::new(3).with_rule(LinkRule::any(LinkImpairment::bursty(0.2, 10.0)));
        let net = ImpairedNet::new(profile);
        let v = decisions(&net, 4_000);
        let lost = v.iter().filter(|&&x| x == Verdict::Dropped).count();
        let rate = lost as f64 / v.len() as f64;
        assert!(
            (rate - 0.2).abs() < 0.08,
            "burst loss rate {rate} far from configured 0.2"
        );
        // Losses arrive in runs (mean run length ≫ 1).
        let mut runs = Vec::new();
        let mut run = 0usize;
        for d in &v {
            if *d == Verdict::Dropped {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len().max(1) as f64;
        assert!(mean_run > 2.0, "bursts too short: mean run {mean_run}");
    }

    #[test]
    fn delayed_datagrams_arrive_later_but_arrive() {
        let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx_sock
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let to = rx_sock.local_addr().expect("addr");
        let profile = ImpairmentProfile::new(9).with_rule(LinkRule::any(
            LinkImpairment::default().with_delay(Duration::from_millis(40), Duration::ZERO),
        ));
        let net = ImpairedNet::new(profile);
        let tx_sock = RtSocket::new(
            Arc::new(UdpSocket::bind("127.0.0.1:0").expect("bind")),
            Ep::Client,
            Some(net),
        );
        let t0 = Instant::now();
        assert_eq!(tx_sock.send_to(b"delayed", to), SendDisposition::Sent);
        let mut buf = [0u8; 64];
        let (n, _) = rx_sock.recv_from(&mut buf).expect("delayed datagram");
        assert_eq!(&buf[..n], b"delayed");
        assert!(
            t0.elapsed() >= Duration::from_millis(35),
            "arrived too early: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn duplication_doubles_datagrams() {
        let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx_sock
            .set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        let to = rx_sock.local_addr().expect("addr");
        let profile = ImpairmentProfile::new(11)
            .with_rule(LinkRule::any(LinkImpairment::default().with_duplicate(1.0)));
        let net = ImpairedNet::new(profile);
        let tx_sock = RtSocket::new(
            Arc::new(UdpSocket::bind("127.0.0.1:0").expect("bind")),
            Ep::Client,
            Some(net),
        );
        assert_eq!(tx_sock.send_to(b"twice", to), SendDisposition::Sent);
        let mut buf = [0u8; 64];
        let mut got = 0;
        while rx_sock.recv_from(&mut buf).is_ok() {
            got += 1;
            if got == 2 {
                break;
            }
        }
        assert_eq!(got, 2, "duplicate datagram never arrived");
    }

    #[test]
    fn unimpaired_links_pass_through() {
        let profile = ImpairmentProfile::new(5).with_rule(LinkRule::between(
            Ep::Client,
            Ep::Svc(ServiceKind::Primary),
            LinkImpairment::loss(1.0),
        ));
        let net = ImpairedNet::new(profile);
        net.register_port(9010, Ep::Svc(ServiceKind::Primary));
        net.register_port(9011, Ep::Svc(ServiceKind::Sift));
        assert_eq!(net.admit(Ep::Client, addr(9010), b"x"), Verdict::Dropped);
        assert_eq!(
            net.admit(Ep::Svc(ServiceKind::Primary), addr(9011), b"x"),
            Verdict::Pass,
            "rule is per-link, not global"
        );
    }
}
