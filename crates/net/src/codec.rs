//! Byte-level wire format: versioned, length-prefixed frames.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! frame := [len: u32 LE]  [body: len bytes]
//! body  := [version: u8]  [kind: u8]  [src: u32 LE]  [dst: u32 LE]
//!          [seq: u64 LE]  [payload: kind-specific]
//! ```
//!
//! The length prefix makes frames self-delimiting, so a byte stream (or a
//! receive buffer holding several frames) is decoded by repeated calls to
//! [`Envelope::decode`], which returns the bytes consumed. Decoding never
//! panics: every malformed input maps to a typed [`CodecError`].
//!
//! Three payload kinds carry the whole protocol family (gossip and
//! rapid): a pull **request**, the pull **reply** it provokes, and an
//! unsolicited **opinion** push used by the termination beacon.

use std::fmt;

/// Current wire-format version, first body byte of every frame.
pub const VERSION: u8 = 1;

/// Upper bound on the body length a decoder accepts. Far above any frame
/// this crate emits (the largest body is 26 bytes) but small enough that
/// a corrupt length prefix cannot provoke a huge allocation.
pub const MAX_BODY: usize = 1024;

/// Body bytes before the payload: version, kind, src, dst, seq.
const HEADER: usize = 1 + 1 + 4 + 4 + 8;

/// The kind-specific content of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// "Send me your opinion" — one per sampled neighbor per activation.
    PullRequest {
        /// Whether the requester has raised its termination beacon.
        beacon: bool,
    },
    /// The answer to a [`Payload::PullRequest`], echoing its `seq`.
    PullReply {
        /// The responder's current color (opinion index).
        color: u32,
        /// The responder's propagation bit (always `false` for gossip).
        bit: bool,
        /// Whether the responder has raised its termination beacon.
        beacon: bool,
        /// The responder's real-time clock (total own activations) — the
        /// rapid Sync Gadget's sample; gossip nodes report ticks too.
        real_time: u64,
    },
    /// Unsolicited opinion announcement; carries the termination beacon
    /// to nodes that would otherwise never pull from the sender.
    Opinion {
        /// The sender's current color.
        color: u32,
        /// Whether the sender has raised its termination beacon.
        beacon: bool,
    },
}

impl Payload {
    /// Wire tag of this payload kind (second body byte).
    fn kind(&self) -> u8 {
        match self {
            Payload::PullRequest { .. } => 0,
            Payload::PullReply { .. } => 1,
            Payload::Opinion { .. } => 2,
        }
    }
}

/// One routed message: source, destination, sequence number, payload.
///
/// `(src, seq)` identifies the protocol exchange a frame belongs to: a
/// node tags each query it issues with a fresh `seq`, replies echo it,
/// and stale replies (from a phase the node has since left) are matched
/// by key and dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Exchange sequence number, scoped to `src`.
    pub seq: u64,
    /// The message content.
    pub payload: Payload,
}

/// Why a frame failed to decode. Decoding is total: every input maps to
/// an `Envelope` or one of these — never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before the advertised frame does.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The kind byte names no known payload.
    BadKind(u8),
    /// The length prefix exceeds [`MAX_BODY`] — treated as corruption
    /// rather than an instruction to allocate.
    Oversized(usize),
    /// The body is longer than its payload kind specifies.
    TrailingBytes {
        /// Extra bytes after the payload.
        extra: usize,
    },
    /// The frame carries a color that names none of the run's opinions.
    ColorOutOfRange {
        /// The color on the wire.
        color: u32,
        /// The run's number of opinions.
        k: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown payload kind {k}"),
            CodecError::Oversized(len) => {
                write!(f, "length prefix {len} exceeds the {MAX_BODY}-byte cap")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the payload")
            }
            CodecError::ColorOutOfRange { color, k } => {
                write!(f, "color {color} is not one of the run's {k} opinions")
            }
        }
    }
}

impl std::error::Error for CodecError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32`; the caller has checked the bounds.
fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Reads a little-endian `u64`; the caller has checked the bounds.
fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

impl Envelope {
    /// Encodes one frame (length prefix included) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + HEADER + 14);
        self.encode_into(&mut buf);
        buf
    }

    /// Appends one frame (length prefix included) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        put_u32(buf, 0); // length backpatched below
        buf.push(VERSION);
        buf.push(self.payload.kind());
        put_u32(buf, self.src);
        put_u32(buf, self.dst);
        put_u64(buf, self.seq);
        match self.payload {
            Payload::PullRequest { beacon } => buf.push(beacon as u8),
            Payload::PullReply {
                color,
                bit,
                beacon,
                real_time,
            } => {
                put_u32(buf, color);
                buf.push(bit as u8);
                buf.push(beacon as u8);
                put_u64(buf, real_time);
            }
            Payload::Opinion { color, beacon } => {
                put_u32(buf, color);
                buf.push(beacon as u8);
            }
        }
        let body_len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Decodes the first frame in `input`, returning it and the number of
    /// bytes consumed (so buffers holding several frames can be walked).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for any malformed input; no input panics.
    pub fn decode(input: &[u8]) -> Result<(Envelope, usize), CodecError> {
        if input.len() < 4 {
            return Err(CodecError::Truncated {
                needed: 4,
                got: input.len(),
            });
        }
        let body_len = get_u32(input) as usize;
        if body_len > MAX_BODY {
            return Err(CodecError::Oversized(body_len));
        }
        let total = 4 + body_len;
        if input.len() < total {
            return Err(CodecError::Truncated {
                needed: total,
                got: input.len(),
            });
        }
        let body = &input[4..total];
        if body.len() < HEADER {
            return Err(CodecError::Truncated {
                needed: 4 + HEADER,
                got: total,
            });
        }
        if body[0] != VERSION {
            return Err(CodecError::BadVersion(body[0]));
        }
        let kind = body[1];
        let src = get_u32(&body[2..]);
        let dst = get_u32(&body[6..]);
        let seq = get_u64(&body[10..]);
        let rest = &body[HEADER..];
        let (payload, used) = match kind {
            0 => {
                if rest.is_empty() {
                    return Err(CodecError::Truncated {
                        needed: total + 1,
                        got: total,
                    });
                }
                (
                    Payload::PullRequest {
                        beacon: rest[0] != 0,
                    },
                    1,
                )
            }
            1 => {
                if rest.len() < 14 {
                    return Err(CodecError::Truncated {
                        needed: 4 + HEADER + 14,
                        got: total,
                    });
                }
                (
                    Payload::PullReply {
                        color: get_u32(rest),
                        bit: rest[4] != 0,
                        beacon: rest[5] != 0,
                        real_time: get_u64(&rest[6..]),
                    },
                    14,
                )
            }
            2 => {
                if rest.len() < 5 {
                    return Err(CodecError::Truncated {
                        needed: 4 + HEADER + 5,
                        got: total,
                    });
                }
                (
                    Payload::Opinion {
                        color: get_u32(rest),
                        beacon: rest[4] != 0,
                    },
                    5,
                )
            }
            k => return Err(CodecError::BadKind(k)),
        };
        if rest.len() > used {
            return Err(CodecError::TrailingBytes {
                extra: rest.len() - used,
            });
        }
        Ok((
            Envelope {
                src,
                dst,
                seq,
                payload,
            },
            total,
        ))
    }

    /// Decodes one frame of a run with `k` opinions: [`Envelope::decode`],
    /// plus a check that a color the frame carries is one of them. Both
    /// cluster drivers admit frames through here, so no machine adopts a
    /// color the population histogram cannot count.
    ///
    /// # Errors
    ///
    /// Any error of [`Envelope::decode`], or
    /// [`CodecError::ColorOutOfRange`].
    pub fn decode_for(input: &[u8], k: usize) -> Result<Envelope, CodecError> {
        let (env, _) = Envelope::decode(input)?;
        match env.payload {
            Payload::PullReply { color, .. } | Payload::Opinion { color, .. }
                if color as usize >= k =>
            {
                Err(CodecError::ColorOutOfRange { color, k })
            }
            _ => Ok(env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope {
            src: 3,
            dst: 7,
            seq: 42,
            payload: Payload::PullReply {
                color: 2,
                bit: true,
                beacon: false,
                real_time: 99,
            },
        }
    }

    #[test]
    fn round_trips_every_kind() {
        for payload in [
            Payload::PullRequest { beacon: true },
            Payload::PullReply {
                color: 1,
                bit: false,
                beacon: true,
                real_time: u64::MAX,
            },
            Payload::Opinion {
                color: u32::MAX,
                beacon: false,
            },
        ] {
            let env = Envelope {
                src: 0,
                dst: u32::MAX,
                seq: u64::MAX,
                payload,
            };
            let bytes = env.encode();
            let (back, used) = Envelope::decode(&bytes).expect("round trip");
            assert_eq!(back, env);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn decodes_back_to_back_frames() {
        let a = sample();
        let b = Envelope {
            seq: 43,
            payload: Payload::PullRequest { beacon: false },
            ..a
        };
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let (first, used) = Envelope::decode(&buf).expect("first");
        let (second, used2) = Envelope::decode(&buf[used..]).expect("second");
        assert_eq!(first, a);
        assert_eq!(second, b);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn truncation_is_an_error_at_every_cut() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Envelope::decode(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_version_and_kind_are_typed() {
        let mut bytes = sample().encode();
        bytes[4] = 9;
        assert_eq!(Envelope::decode(&bytes), Err(CodecError::BadVersion(9)));
        let mut bytes = sample().encode();
        bytes[5] = 77;
        assert_eq!(Envelope::decode(&bytes), Err(CodecError::BadKind(77)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = sample().encode();
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            Envelope::decode(&bytes),
            Err(CodecError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            Envelope::decode(&bytes),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn colors_outside_the_run_are_rejected() {
        // `sample()` carries color 2.
        let bytes = sample().encode();
        assert_eq!(Envelope::decode_for(&bytes, 3), Ok(sample()));
        assert_eq!(
            Envelope::decode_for(&bytes, 2),
            Err(CodecError::ColorOutOfRange { color: 2, k: 2 })
        );
        let opinion = Envelope {
            payload: Payload::Opinion {
                color: 5,
                beacon: true,
            },
            ..sample()
        };
        assert!(Envelope::decode_for(&opinion.encode(), 5).is_err());
        let request = Envelope {
            payload: Payload::PullRequest { beacon: false },
            ..sample()
        };
        assert_eq!(Envelope::decode_for(&request.encode(), 1), Ok(request));
    }
}
