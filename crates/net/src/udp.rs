//! Real loopback transport: one non-blocking `UdpSocket` per worker.
//!
//! Each cluster worker owns one socket bound to `127.0.0.1:0` and a
//! shard of node machines; a routing table maps every node id to the
//! address of the socket whose worker hosts it. One datagram carries one
//! frame (length prefix included, so the codec is identical on both
//! transports).
//!
//! The event-loop discipline that keeps this deadlock-free under any
//! receiver behavior:
//!
//! * **`WouldBlock` is not an error** — an empty socket on `recv` or a
//!   full kernel buffer on `send` simply ends the pump/flush; the loop
//!   moves on and retries next iteration.
//! * **`Interrupted` is retried** immediately (EINTR is a fact of life,
//!   not a result).
//! * **The outbox is bounded and drop-on-full**: when a peer cannot
//!   drain its socket fast enough, frames queue up to
//!   [`UdpTransport::capacity`] and are then *dropped and counted* —
//!   never block the sender's event loop. Lost pulls abort single
//!   interactions (the same semantics as the simulator's message-loss
//!   fault), so the protocol tolerates them by construction.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;

use crate::transport::{FrameQueue, Transport};

/// Default bound on the per-socket outbox queue.
pub const DEFAULT_OUTBOX_CAP: usize = 1024;

/// Largest datagram the receive pump accepts (comfortably above
/// [`crate::codec::MAX_BODY`] plus the length prefix).
const RECV_BUF: usize = 2048;

/// Binds `workers` non-blocking loopback sockets and returns them with
/// their addresses.
///
/// # Errors
///
/// Propagates the OS error if binding or configuring a socket fails
/// (e.g. sandboxes that forbid socket creation).
pub fn bind_loopback(workers: usize) -> std::io::Result<(Vec<UdpSocket>, Vec<SocketAddr>)> {
    let mut sockets = Vec::with_capacity(workers);
    let mut addrs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        addrs.push(socket.local_addr()?);
        sockets.push(socket);
    }
    Ok((sockets, addrs))
}

/// One worker's endpoint: a non-blocking socket plus the shared
/// node-to-address routing table.
pub struct UdpTransport {
    socket: UdpSocket,
    /// `addr_of[node]` is the socket address of the worker hosting it.
    addr_of: Arc<Vec<SocketAddr>>,
    /// Queued frames, tagged with their destination node (already
    /// checked against `addr_of`).
    outbox: FrameQueue,
    capacity: usize,
    dropped: u64,
    /// The receive buffer `recv` lends datagrams from.
    buf: Box<[u8; RECV_BUF]>,
}

impl UdpTransport {
    /// Wraps a bound non-blocking socket with a routing table and an
    /// outbox bound.
    pub fn new(socket: UdpSocket, addr_of: Arc<Vec<SocketAddr>>, capacity: usize) -> Self {
        UdpTransport {
            socket,
            addr_of,
            outbox: FrameQueue::default(),
            capacity: capacity.max(1),
            dropped: 0,
            buf: Box::new([0u8; RECV_BUF]),
        }
    }

    /// The outbox bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently queued.
    pub fn queued(&self) -> usize {
        self.outbox.len()
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, dst: u32, frame: &[u8]) -> bool {
        if dst as usize >= self.addr_of.len() {
            self.dropped += 1;
            return false;
        }
        if self.outbox.len() >= self.capacity {
            // Never block on a slow receiver: drop and count.
            self.dropped += 1;
            return false;
        }
        self.outbox.push(dst, frame);
        true
    }

    fn flush(&mut self) -> usize {
        while let Some((dst, frame)) = self.outbox.front() {
            match self.socket.send_to(frame, self.addr_of[dst as usize]) {
                Ok(_) => {
                    self.outbox.pop();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Unroutable datagram (e.g. peer socket closed):
                    // counted like any other loss.
                    self.outbox.pop();
                    self.dropped += 1;
                }
            }
        }
        self.outbox.len()
    }

    fn recv(&mut self) -> Option<&[u8]> {
        loop {
            match self.socket.recv_from(&mut self.buf[..]) {
                Ok((len, _)) => return Some(&self.buf[..len]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(_) => return None,
            }
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}
