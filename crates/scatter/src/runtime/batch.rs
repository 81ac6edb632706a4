//! The receive-batch API the benchmark ledger compiles against.
//!
//! The runtime has one data plane: one `recv_from` per wakeup and one
//! `send_to` per datagram. The ledger's loopback-hop rows were written
//! against a batched plane that no longer exists, and its API footprint
//! is frozen (`ledger/README.md`, "API footprint"), so this module keeps
//! the names it calls — [`RecvBatch`], [`RtSocket::recv_batch`] and
//! [`RtSocket::with_batch`] — as thin wrappers over the single path.
//! Nothing in the runtime itself uses them.

use std::io;

use crate::runtime::impair::RtSocket;
use crate::runtime::wire::MAX_DATAGRAM;

/// One reusable [`MAX_DATAGRAM`] receive buffer, filled by
/// [`RtSocket::recv_batch`]. Exists only for the ledger's frozen API.
pub struct RecvBatch {
    buf: Vec<u8>,
    len: usize,
}

impl RecvBatch {
    /// A one-datagram buffer; the flag is the ledger's old batched /
    /// single switch and is ignored.
    pub fn new(_batched: bool) -> RecvBatch {
        RecvBatch {
            buf: vec![0u8; MAX_DATAGRAM],
            len: 0,
        }
    }

    /// The datagram the last [`RtSocket::recv_batch`] filled.
    pub fn datagram(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl RtSocket {
    /// Returns the socket unchanged: there is no batched plane left.
    /// Exists only for the ledger's frozen API.
    pub fn with_batch(self, _on: bool) -> RtSocket {
        self
    }

    /// One `recv_from` into `batch`: `Ok(1)`, or the socket error with
    /// its kind unchanged (read timeouts stay `WouldBlock`/`TimedOut`).
    /// Exists only for the ledger's frozen API.
    pub fn recv_batch(&self, batch: &mut RecvBatch) -> io::Result<usize> {
        let (n, _from) = self.recv_from(&mut batch.buf)?;
        batch.len = n;
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::impair::Ep;
    use bytes::Bytes;
    use std::net::UdpSocket;
    use std::time::Duration;

    fn socket(timeout_ms: u64) -> RtSocket {
        let sock = RtSocket::plain(UdpSocket::bind("127.0.0.1:0").expect("bind"), Ep::Client);
        sock.set_read_timeout(Some(Duration::from_millis(timeout_ms)))
            .expect("timeout");
        sock
    }

    #[test]
    fn single_mode_receives_one_datagram_per_call() {
        let rx = socket(200);
        let to = rx.local_addr().expect("addr");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        tx.send_to(b"one", to).expect("send");
        tx.send_to(b"two", to).expect("send");
        let mut batch = RecvBatch::new(false);
        assert_eq!(rx.recv_batch(&mut batch).expect("recv"), 1);
        assert_eq!(batch.datagram(), &b"one"[..]);
        assert_eq!(rx.recv_batch(&mut batch).expect("recv"), 1);
        assert_eq!(batch.datagram(), &b"two"[..]);
    }

    /// `new(true)` is the ledger's batched hop: it must time out like
    /// the single path, never block past the socket's read timeout.
    #[test]
    fn batched_recv_times_out_like_single() {
        let rx = socket(30);
        let mut batch = RecvBatch::new(true);
        let err = rx.recv_batch(&mut batch).expect_err("empty socket");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected kind: {err:?}"
        );
    }

    /// [`RtSocket::send_many`] is the per-datagram `send_to` loop: every
    /// datagram arrives intact, in order, with no errors on loopback.
    #[test]
    fn send_many_delivers_every_datagram() {
        let rx = socket(300);
        let to = rx.local_addr().expect("addr");
        let tx = socket(300).with_batch(true);
        let datagrams: Vec<Bytes> = (0..4u8).map(|i| Bytes::from(vec![i + 1; 16])).collect();
        let rep = tx.send_many(&datagrams, to);
        assert_eq!(rep.errors, 0, "no send errors on loopback");
        assert_eq!(rep.shim_dropped, 0);
        let mut batch = RecvBatch::new(true);
        for expect in &datagrams {
            rx.recv_batch(&mut batch).expect("datagram");
            assert_eq!(batch.datagram(), &expect[..]);
        }
    }
}
