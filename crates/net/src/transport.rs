//! The transport abstraction and the deterministic in-process transport.
//!
//! A [`Transport`] is one endpoint's view of the wire: queue a frame for
//! a destination, flush queued frames onto the medium, poll for the next
//! inbound frame. Frames are opaque bytes at this layer — routing
//! information lives *inside* the frame (see [`crate::codec`]), so a
//! receiver decodes before dispatching.
//!
//! `send` copies the caller's frame into the transport's own storage and
//! `recv` lends the next inbound frame out of it, valid until the next
//! call on the transport. Both transports keep their queued frames back
//! to back in one reused byte buffer (a `FrameQueue`), so a steady
//! stream of frames allocates nothing per frame.
//!
//! Two implementations exist:
//!
//! * [`ChannelTransport`] (here) — one in-process FIFO wire shared by
//!   all nodes. Delivery is lossless and in send order; with the
//!   single-threaded channel driver the whole run is deterministic,
//!   which makes this the oracle-comparison fast path.
//! * [`crate::udp::UdpTransport`] — real `std::net::UdpSocket` loopback
//!   datagrams with bounded, drop-on-full outboxes.

/// One endpoint's view of the wire.
///
/// All operations are non-blocking by contract: `send` queues or drops
/// (never waits), `recv` returns `None` when nothing is pending. This is
/// what makes event loops over a `Transport` deadlock-free by
/// construction — see the slow-receiver test in `crates/net/tests`.
pub trait Transport: Send {
    /// Queues one frame for `dst`. Returns `false` if the frame was
    /// dropped (full outbox, unknown destination) — never blocks.
    fn send(&mut self, dst: u32, frame: &[u8]) -> bool;

    /// Pushes queued frames onto the medium without blocking; returns
    /// how many frames remain queued.
    fn flush(&mut self) -> usize;

    /// Polls for the next inbound frame, if any. The frame is lent from
    /// the transport's own buffer and stays valid until the next call.
    fn recv(&mut self) -> Option<&[u8]>;

    /// Total frames dropped by this endpoint so far.
    fn dropped(&self) -> u64;
}

/// Bytes of the per-frame header in a [`FrameQueue`]: destination, then
/// length.
const ENTRY_HEADER: usize = 4 + std::mem::size_of::<usize>();

/// Consumed bytes a [`FrameQueue`] keeps at its front before it moves the
/// unread rest down, bounding its buffer when it is never fully drained.
const COMPACT_AT: usize = 1 << 16;

/// A FIFO of addressed frames, stored back to back in one byte buffer.
///
/// Each entry is `[dst: u32][len: usize][frame]`. Pushing copies a frame
/// in; reading lends it out. The buffer rewinds whenever everything
/// pushed has been read, so a queue that is drained regularly reaches its
/// largest size once and then never allocates again.
#[derive(Debug, Default)]
pub(crate) struct FrameQueue {
    bytes: Vec<u8>,
    /// Offset of the oldest unread entry.
    head: usize,
    /// Unread entries.
    len: usize,
}

impl FrameQueue {
    /// Appends one frame for `dst`.
    pub(crate) fn push(&mut self, dst: u32, frame: &[u8]) {
        if self.head == self.bytes.len() {
            self.bytes.clear();
            self.head = 0;
        } else if self.head >= COMPACT_AT {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
        self.bytes.extend_from_slice(&dst.to_le_bytes());
        self.bytes.extend_from_slice(&frame.len().to_le_bytes());
        self.bytes.extend_from_slice(frame);
        self.len += 1;
    }

    /// The oldest unread entry, or `None` when the queue is empty.
    pub(crate) fn front(&self) -> Option<(u32, &[u8])> {
        if self.len == 0 {
            return None;
        }
        let entry = &self.bytes[self.head..];
        let mut dst = [0; 4];
        dst.copy_from_slice(&entry[..4]);
        let mut len = [0; std::mem::size_of::<usize>()];
        len.copy_from_slice(&entry[4..ENTRY_HEADER]);
        let len = usize::from_le_bytes(len);
        Some((
            u32::from_le_bytes(dst),
            &entry[ENTRY_HEADER..ENTRY_HEADER + len],
        ))
    }

    /// Removes the oldest entry and lends it out.
    pub(crate) fn pop(&mut self) -> Option<(u32, &[u8])> {
        let (dst, len) = self.front().map(|(dst, frame)| (dst, frame.len()))?;
        let start = self.head + ENTRY_HEADER;
        self.head = start + len;
        self.len -= 1;
        Some((dst, &self.bytes[start..self.head]))
    }

    /// Unread entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Deterministic in-process transport: a single lossless FIFO wire.
///
/// The channel driver speaks for every node, so "the wire" is one queue
/// it both feeds and drains; frames are delivered in exactly the order
/// they were sent, and the destination is read back out of the frame by
/// the driver. `recv` is O(1), which is what lets the channel cluster
/// pump hundreds of thousands of activations per second, and the driver
/// drains the wire after every activation, so its buffer stops growing
/// after the first few.
pub struct ChannelTransport {
    wire: FrameQueue,
    n: usize,
    dropped: u64,
}

impl ChannelTransport {
    /// A transport for a population of `n` nodes.
    pub fn new(n: usize) -> Self {
        ChannelTransport {
            wire: FrameQueue::default(),
            n,
            dropped: 0,
        }
    }

    /// Population size this wire routes for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.wire.len()
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, dst: u32, frame: &[u8]) -> bool {
        if (dst as usize) < self.n {
            self.wire.push(dst, frame);
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    fn flush(&mut self) -> usize {
        0 // delivery onto the wire is immediate; nothing is ever queued
    }

    fn recv(&mut self) -> Option<&[u8]> {
        self.wire.pop().map(|(_, frame)| frame)
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_wire() {
        let mut t = ChannelTransport::new(3);
        assert!(t.send(1, b"hello"));
        assert!(t.send(2, b"world"));
        assert_eq!(t.flush(), 0);
        assert_eq!(t.in_flight(), 2);
        assert_eq!(t.recv(), Some(&b"hello"[..]));
        assert_eq!(t.recv(), Some(&b"world"[..]));
        assert_eq!(t.recv(), None);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn unknown_destination_is_a_counted_drop_not_a_panic() {
        let mut t = ChannelTransport::new(2);
        assert!(!t.send(9, b"nope"));
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.recv(), None);
    }

    #[test]
    fn delivery_order_is_send_order() {
        let mut t = ChannelTransport::new(2);
        t.send(0, b"a0");
        t.send(1, b"b0");
        t.send(0, b"a1");
        t.send(1, b"b1");
        let mut order = Vec::new();
        while let Some(frame) = t.recv() {
            order.push(frame.to_vec());
        }
        assert_eq!(
            order,
            vec![
                b"a0".to_vec(),
                b"b0".to_vec(),
                b"a1".to_vec(),
                b"b1".to_vec()
            ]
        );
    }

    #[test]
    fn a_queue_never_drained_stays_in_order_and_bounded() {
        // One frame always stays unread, so the buffer never rewinds and
        // only the compaction keeps it bounded.
        let mut q = FrameQueue::default();
        q.push(7, &0u64.to_le_bytes());
        for i in 1..50_000u64 {
            q.push(7, &i.to_le_bytes());
            let (dst, frame) = q.pop().expect("one frame is queued");
            assert_eq!(dst, 7);
            assert_eq!(frame, (i - 1).to_le_bytes());
        }
        assert_eq!(q.len(), 1);
        assert!(q.bytes.len() <= COMPACT_AT + 2 * (ENTRY_HEADER + 8));
    }
}
