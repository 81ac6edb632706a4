//! Syscall-batched UDP I/O for the real runtime.
//!
//! One thread issuing one `recv_from` per datagram caps the data plane
//! at a few hundred thousand packets/sec no matter how cheap the
//! per-frame work is — the syscall boundary, not vision compute, is
//! the ceiling once client counts grow (ROADMAP item 2). This module
//! is the portable wrapper around syscall batching:
//! [`RecvBatch::recv`] drains up to [`RecvBatch::capacity`] datagrams
//! per wakeup through one `recvmmsg(2)` call (`MSG_WAITFORONE`: block
//! for the first datagram under the socket's read timeout, then sweep
//! whatever else is queued), and [`send_many`] ships fragment runs
//! through one `sendmsg(2)` + `UDP_SEGMENT` (UDP GSO: the kernel
//! re-splits one gathered buffer at segment boundaries, paying route
//! lookup and socket bookkeeping once per *run* instead of once per
//! datagram) when the run is GSO-shaped — every datagram one fixed
//! size except an optional shorter tail, exactly the shape wire
//! fragmentation produces — and `sendmmsg(2)` otherwise.
//!
//! Portability is graceful twice over: off Linux the batched entry
//! points compile down to the single-datagram std path, and on Linux a
//! kernel that refuses the syscalls (`ENOSYS`/`EPERM`, e.g. a strict
//! seccomp sandbox) flips a process-wide latch after the first refusal
//! so every later call takes the fallback without re-probing. Callers
//! never see the difference: the same `io::Result` surface, the same
//! `WouldBlock`/`TimedOut`/`Interrupted` classification.
//!
//! No `libc` crate exists in this offline workspace, so the Linux path
//! declares the tiny slice of the C ABI it needs (`recvmmsg`,
//! `sendmmsg`, `sendmsg`) directly — std already links libc on every
//! supported Linux target.

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Datagrams drained per wakeup by the batched service loops. Sized so
/// a full batch of worst-case datagrams (64 KiB) stays a modest fixed
/// buffer per service thread while still amortizing the syscall ~16×.
pub const BATCH_DATAGRAMS: usize = 16;

/// Largest datagram a service can receive (matches the historical
/// single-buffer size in every recv loop).
pub const MAX_DATAGRAM: usize = 65_536;

/// `true` while batched syscalls are believed to work on this host.
/// Starts `true` on Linux, permanently `false` elsewhere; flipped off
/// (never back on) when the kernel refuses a batched call.
pub fn batch_available() -> bool {
    #[cfg(target_os = "linux")]
    {
        linux::AVAILABLE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// `true` while `UDP_SEGMENT` supersends are believed to work here.
/// Like [`batch_available`] this starts `true` on Linux and latches
/// off on the first kernel refusal (pre-4.18 kernels answer `EINVAL`
/// to the unknown cmsg); `send_many` then degrades to `sendmmsg`.
pub fn gso_available() -> bool {
    #[cfg(target_os = "linux")]
    {
        batch_available() && linux::gso_available()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Reusable receive buffers for one service loop: `capacity` slots of
/// [`MAX_DATAGRAM`] each, filled by [`RecvBatch::recv`] and read back
/// through [`RecvBatch::iter`]. Allocation happens once at spawn; the
/// hot loop only moves datagram bytes.
pub struct RecvBatch {
    bufs: Vec<Vec<u8>>,
    lens: Vec<usize>,
    count: usize,
    /// `false` = legacy mode: exactly one `recv_from` per call, the
    /// bit-compatible pre-sharding path.
    batched: bool,
}

impl RecvBatch {
    /// A batch sized for service loops. `batched = false` yields a
    /// single-slot batch whose `recv` is precisely the historical
    /// `socket.recv_from(&mut buf)` call.
    pub fn new(batched: bool) -> RecvBatch {
        Self::with_capacity(if batched { BATCH_DATAGRAMS } else { 1 }, batched)
    }

    pub fn with_capacity(capacity: usize, batched: bool) -> RecvBatch {
        let capacity = capacity.max(1);
        RecvBatch {
            bufs: (0..capacity).map(|_| vec![0u8; MAX_DATAGRAM]).collect(),
            lens: vec![0; capacity],
            count: 0,
            batched,
        }
    }

    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Drain up to `capacity` datagrams in one wakeup. Blocks for the
    /// first datagram under the socket's configured read timeout
    /// (batched: `recvmmsg` + `MSG_WAITFORONE`; fallback: one
    /// `recv_from`), never for the rest. Returns how many datagrams
    /// were filled (≥ 1), or the socket error unchanged —
    /// `WouldBlock`/`TimedOut`/`Interrupted` keep their kinds so
    /// callers classify exactly as on the single-datagram path.
    pub fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        self.count = 0;
        #[cfg(target_os = "linux")]
        if self.batched && batch_available() {
            match linux::recvmmsg_waitforone(socket, &mut self.bufs, &mut self.lens) {
                Ok(n) => {
                    self.count = n;
                    return Ok(n);
                }
                Err(e) if linux::is_unsupported(&e) => {
                    linux::disable("recvmmsg", &e);
                    // fall through to the single-datagram path
                }
                Err(e) => return Err(e),
            }
        }
        let (n, _from) = socket.recv_from(&mut self.bufs[0])?;
        self.lens[0] = n;
        self.count = 1;
        Ok(1)
    }

    /// The datagrams the last [`RecvBatch::recv`] filled, in arrival
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.bufs
            .iter()
            .zip(&self.lens)
            .take(self.count)
            .map(|(b, &n)| &b[..n])
    }
}

/// How many of `datagrams` failed at the OS send boundary.
///
/// Three tiers, best first: a GSO-shaped run (all datagrams one fixed
/// size except an optional shorter last) goes out as `sendmsg` +
/// `UDP_SEGMENT` supersends — the receiver still sees the individual
/// datagrams because the kernel splits the gathered buffer back at
/// exactly our fragment boundaries; mixed-size runs use `sendmmsg`
/// (partial progress retried from the first unsent datagram, so a
/// transient error costs exactly one datagram); and hosts without
/// either fall back to the sequential `send_to` loop. Error
/// granularity is per-datagram on the first two tiers too — a failed
/// supersend counts every datagram it carried.
pub fn send_many(socket: &UdpSocket, datagrams: &[&[u8]], to: SocketAddr) -> usize {
    #[cfg(target_os = "linux")]
    if datagrams.len() > 1 && batch_available() {
        if linux::gso_available() {
            if let Some(seg) = linux::gso_run_segment(datagrams) {
                match linux::send_gso_all(socket, datagrams, to, seg) {
                    Ok(errors) => return errors,
                    Err(e) => linux::disable_gso(&e),
                }
            }
        }
        match linux::sendmmsg_all(socket, datagrams, to) {
            Ok(errors) => return errors,
            Err(e) => linux::disable("sendmmsg", &e),
        }
    }
    let mut errors = 0usize;
    for d in datagrams {
        if socket.send_to(d, to).is_err() {
            errors += 1;
        }
    }
    errors
}

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static AVAILABLE: AtomicBool = AtomicBool::new(true);

    /// Permanently drop to the single-datagram path; announced once.
    pub fn disable(which: &str, err: &io::Error) {
        if AVAILABLE.swap(false, Ordering::Relaxed) {
            eprintln!("scatter runtime: {which} unavailable ({err}); using single-datagram I/O");
        }
    }

    /// Refusals that mean "this kernel/sandbox will never serve the
    /// batched call" — latch off. Anything else (EAGAIN, EINTR, real
    /// socket errors) is the caller's business.
    pub fn is_unsupported(e: &io::Error) -> bool {
        matches!(
            e.raw_os_error(),
            Some(ENOSYS) | Some(EPERM) | Some(EOPNOTSUPP)
        )
    }

    pub static GSO_AVAILABLE: AtomicBool = AtomicBool::new(true);

    pub fn gso_available() -> bool {
        GSO_AVAILABLE.load(Ordering::Relaxed)
    }

    /// Drop to `sendmmsg` for every later run; announced once. GSO
    /// refusals are broader than the plain-syscall set: an old kernel
    /// rejects the unknown `UDP_SEGMENT` cmsg with `EINVAL`, a kernel
    /// built without GSO answers `ENOPROTOOPT`/`EOPNOTSUPP`.
    pub fn disable_gso(err: &io::Error) {
        if GSO_AVAILABLE.swap(false, Ordering::Relaxed) {
            eprintln!("scatter runtime: UDP_SEGMENT unavailable ({err}); using sendmmsg");
        }
    }

    fn is_gso_unsupported(e: &io::Error) -> bool {
        matches!(
            e.raw_os_error(),
            Some(ENOSYS) | Some(EPERM) | Some(EOPNOTSUPP) | Some(EINVAL) | Some(ENOPROTOOPT)
        )
    }

    const ENOSYS: i32 = 38;
    const EPERM: i32 = 1;
    const EOPNOTSUPP: i32 = 95;
    const EINVAL: i32 = 22;
    const ENOPROTOOPT: i32 = 92;

    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    /// Kernel cap on segments per GSO supersend (`UDP_MAX_SEGMENTS`).
    const GSO_MAX_SEGMENTS: usize = 64;
    /// Keep each supersend's gathered payload under the 65,507-byte
    /// maximum UDP datagram the kernel segments from.
    const GSO_MAX_BYTES: usize = 65_000;
    const AF_INET: c_int = 2;
    const MSG_WAITFORONE: c_int = 0x10000;

    #[repr(C)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: c_uint,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: c_uint,
    }

    /// `struct sockaddr_in`: port and address in network byte order.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    /// `struct cmsghdr` followed by the 16-bit `UDP_SEGMENT` value;
    /// `_pad` brings the control buffer to `CMSG_SPACE` alignment.
    #[repr(C)]
    struct SegCtrl {
        cmsg_len: usize,
        cmsg_level: c_int,
        cmsg_type: c_int,
        gso_size: u16,
        _pad: [u8; 6],
    }

    extern "C" {
        fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
        fn recvmmsg(
            fd: c_int,
            vec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, vec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    }

    /// One `recvmmsg` wakeup: block for the first datagram (honouring
    /// `SO_RCVTIMEO`), then take whatever else is queued, up to the
    /// batch capacity. Sender addresses are not collected — no recv
    /// site in the runtime reads them.
    pub fn recvmmsg_waitforone(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        lens: &mut [usize],
    ) -> io::Result<usize> {
        let mut iovs: Vec<IoVec> = bufs
            .iter_mut()
            .map(|b| IoVec {
                base: b.as_mut_ptr() as *mut c_void,
                len: b.len(),
            })
            .collect();
        let mut msgs: Vec<MMsgHdr> = iovs
            .iter_mut()
            .map(|iov| MMsgHdr {
                hdr: MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    iov,
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            })
            .collect();
        let n = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                msgs.as_mut_ptr(),
                msgs.len() as c_uint,
                MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        for (i, m) in msgs.iter().take(n as usize).enumerate() {
            lens[i] = m.len as usize;
        }
        Ok(n as usize)
    }

    /// `Some(segment size)` when the run is GSO-shaped: at least two
    /// datagrams, every one exactly the first's size except an
    /// optional shorter last — precisely how wire fragmentation cuts
    /// a frame, so the kernel's re-split at `seg` boundaries reproduces
    /// the input datagrams bit-for-bit on the receiver.
    pub fn gso_run_segment(datagrams: &[&[u8]]) -> Option<usize> {
        let (&first, rest) = datagrams.split_first()?;
        let seg = first.len();
        // Two segments must fit one supersend or GSO buys nothing.
        if rest.is_empty() || seg == 0 || seg * 2 > GSO_MAX_BYTES {
            return None;
        }
        let (&last, middle) = rest.split_last()?;
        if middle.iter().any(|d| d.len() != seg) || last.len() > seg || last.is_empty() {
            return None;
        }
        Some(seg)
    }

    /// Ship a GSO-shaped run as `sendmsg` + `UDP_SEGMENT` supersends:
    /// each syscall gathers up to [`GSO_MAX_SEGMENTS`] datagrams into
    /// one iovec array and the kernel splits them back apart at `seg`
    /// boundaries on the way out. Returns `Ok(per-datagram error
    /// count)`; `Err` only when the *first* supersend is refused with
    /// an "unsupported" errno and nothing went out — the caller
    /// latches GSO off and replays the whole run via `sendmmsg`.
    pub fn send_gso_all(
        socket: &UdpSocket,
        datagrams: &[&[u8]],
        to: SocketAddr,
        seg: usize,
    ) -> io::Result<usize> {
        let SocketAddr::V4(v4) = to else {
            return Err(io::Error::from_raw_os_error(EOPNOTSUPP));
        };
        let addr = SockAddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from_ne_bytes(v4.ip().octets()),
            zero: [0; 8],
        };
        let ctrl = SegCtrl {
            // CMSG_LEN(sizeof(u16)): header + value, unpadded.
            cmsg_len: std::mem::size_of::<usize>() + 2 * std::mem::size_of::<c_int>() + 2,
            cmsg_level: SOL_UDP,
            cmsg_type: UDP_SEGMENT,
            gso_size: seg as u16,
            _pad: [0; 6],
        };
        let fd = socket.as_raw_fd();
        let per_call = GSO_MAX_SEGMENTS.min(GSO_MAX_BYTES / seg).max(1);
        let mut sent_any = false;
        let mut errors = 0usize;
        for chunk in datagrams.chunks(per_call) {
            let mut iovs: Vec<IoVec> = chunk
                .iter()
                .map(|d| IoVec {
                    base: d.as_ptr() as *mut c_void,
                    len: d.len(),
                })
                .collect();
            // A single trailing short datagram is its own (unsegmented)
            // supersend; the cmsg is harmless either way.
            let msg = MsgHdr {
                name: &addr as *const SockAddrIn as *mut c_void,
                namelen: std::mem::size_of::<SockAddrIn>() as c_uint,
                iov: iovs.as_mut_ptr(),
                iovlen: iovs.len(),
                control: &ctrl as *const SegCtrl as *mut c_void,
                controllen: std::mem::size_of::<SegCtrl>(),
                flags: 0,
            };
            let n = unsafe { sendmsg(fd, &msg, 0) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if !sent_any && is_gso_unsupported(&e) {
                    return Err(e);
                }
                // Whole supersend lost: per-datagram accounting, like
                // the sequential loop failing `chunk.len()` times.
                errors += chunk.len();
            } else {
                sent_any = true;
            }
        }
        Ok(errors)
    }

    /// Ship every datagram via `sendmmsg`, resuming after partial
    /// progress. Returns `Ok(per-datagram error count)`; `Err` only for
    /// refusals that should latch the batched path off entirely.
    pub fn sendmmsg_all(
        socket: &UdpSocket,
        datagrams: &[&[u8]],
        to: SocketAddr,
    ) -> io::Result<usize> {
        let SocketAddr::V4(v4) = to else {
            return Err(io::Error::from_raw_os_error(EOPNOTSUPP));
        };
        let addr = SockAddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from_ne_bytes(v4.ip().octets()),
            zero: [0; 8],
        };
        let mut iovs: Vec<IoVec> = datagrams
            .iter()
            .map(|d| IoVec {
                base: d.as_ptr() as *mut c_void,
                len: d.len(),
            })
            .collect();
        let mut msgs: Vec<MMsgHdr> = iovs
            .iter_mut()
            .map(|iov| MMsgHdr {
                hdr: MsgHdr {
                    name: &addr as *const SockAddrIn as *mut c_void,
                    namelen: std::mem::size_of::<SockAddrIn>() as c_uint,
                    iov,
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            })
            .collect();
        let fd = socket.as_raw_fd();
        let mut sent = 0usize;
        let mut errors = 0usize;
        while sent < msgs.len() {
            let left = &mut msgs[sent..];
            let n = unsafe { sendmmsg(fd, left.as_mut_ptr(), left.len() as c_uint, 0) };
            if n > 0 {
                sent += n as usize;
            } else {
                let e = io::Error::last_os_error();
                if is_unsupported(&e) && sent == 0 && errors == 0 {
                    return Err(e);
                }
                // The datagram at the head of the window failed: count
                // it and move on, like the sequential loop would.
                errors += 1;
                sent += 1;
            }
        }
        Ok(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn single_mode_receives_one_datagram_per_call() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let to = rx.local_addr().expect("addr");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        tx.send_to(b"one", to).expect("send");
        tx.send_to(b"two", to).expect("send");
        let mut batch = RecvBatch::new(false);
        assert_eq!(batch.capacity(), 1);
        assert_eq!(batch.recv(&rx).expect("recv"), 1);
        assert_eq!(batch.iter().next(), Some(&b"one"[..]));
        assert_eq!(batch.recv(&rx).expect("recv"), 1);
        assert_eq!(batch.iter().next(), Some(&b"two"[..]));
    }

    #[test]
    fn batched_mode_drains_queued_datagrams_in_one_wakeup() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let to = rx.local_addr().expect("addr");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 8]).collect();
        for p in &payloads {
            tx.send_to(p, to).expect("send");
        }
        // Give loopback delivery a moment so the queue really holds all
        // five before the drain.
        std::thread::sleep(Duration::from_millis(30));
        let mut batch = RecvBatch::new(true);
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < payloads.len() {
            let n = batch.recv(&rx).expect("recv");
            got.extend(batch.iter().map(<[u8]>::to_vec));
            if batch_available() {
                assert_eq!(n, payloads.len(), "one wakeup should drain the queue");
            }
        }
        assert_eq!(got, payloads, "arrival order and bytes preserved");
    }

    #[test]
    fn batched_recv_times_out_like_single() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_read_timeout(Some(Duration::from_millis(30)))
            .expect("timeout");
        let mut batch = RecvBatch::new(true);
        let err = batch.recv(&rx).expect_err("empty socket");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected kind: {err:?}"
        );
    }

    #[test]
    fn send_many_delivers_every_datagram() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        let to = rx.local_addr().expect("addr");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let datagrams: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 16]).collect();
        let views: Vec<&[u8]> = datagrams.iter().map(Vec::as_slice).collect();
        assert_eq!(send_many(&tx, &views, to), 0, "no send errors on loopback");
        let mut buf = [0u8; 64];
        for expect in &datagrams {
            let (n, _) = rx.recv_from(&mut buf).expect("datagram");
            assert_eq!(&buf[..n], &expect[..]);
        }
    }

    /// A GSO-shaped run — equal-size fragments plus a shorter tail,
    /// the wire-fragmentation shape — must reach the receiver as the
    /// exact input datagrams: the kernel's re-split at segment
    /// boundaries has to reproduce our fragment boundaries.
    #[test]
    fn gso_shaped_run_delivers_exact_datagrams() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        let to = rx.local_addr().expect("addr");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let mut datagrams: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 512]).collect();
        datagrams.push(vec![0xEE; 37]); // short tail
        let views: Vec<&[u8]> = datagrams.iter().map(Vec::as_slice).collect();
        assert_eq!(send_many(&tx, &views, to), 0, "no send errors on loopback");
        let mut buf = [0u8; 2048];
        for expect in &datagrams {
            let (n, _) = rx.recv_from(&mut buf).expect("datagram");
            assert_eq!(&buf[..n], &expect[..], "boundaries must survive GSO");
        }
    }

    /// Mixed-size runs are not GSO-shaped and must still arrive intact
    /// via the `sendmmsg` tier.
    #[test]
    fn mixed_size_run_falls_back_to_sendmmsg() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        let to = rx.local_addr().expect("addr");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let datagrams: Vec<Vec<u8>> = vec![vec![1; 100], vec![2; 300], vec![3; 50]];
        let views: Vec<&[u8]> = datagrams.iter().map(Vec::as_slice).collect();
        assert_eq!(send_many(&tx, &views, to), 0);
        let mut buf = [0u8; 1024];
        for expect in &datagrams {
            let (n, _) = rx.recv_from(&mut buf).expect("datagram");
            assert_eq!(&buf[..n], &expect[..]);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn gso_run_segment_classifies_shapes() {
        use super::linux::gso_run_segment;
        let a = vec![0u8; 512];
        let tail = vec![0u8; 100];
        let big = vec![0u8; 700];
        assert_eq!(gso_run_segment(&[&a, &a, &a]), Some(512));
        assert_eq!(gso_run_segment(&[&a, &a, &tail]), Some(512));
        assert_eq!(gso_run_segment(&[&a]), None, "one datagram: no gain");
        assert_eq!(gso_run_segment(&[&a, &big]), None, "growing tail");
        assert_eq!(gso_run_segment(&[&a, &tail, &a]), None, "short middle");
        assert_eq!(gso_run_segment(&[&a, &a, &[]]), None, "empty tail");
    }
}
