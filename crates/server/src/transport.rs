//! Framed byte transports: plain TCP and the fault-injected wrapper.
//!
//! [`TcpTransport`] accumulates raw bytes in an internal buffer and
//! yields whole frames, so a read timeout in the middle of a frame
//! loses nothing — the partial bytes stay buffered and the next call
//! resumes where it left off. The frame length is validated against
//! [`MAX_FRAME`] as soon as the 4-byte header
//! is available, before any payload-sized allocation.
//!
//! [`FaultTransport`] wraps any transport with a deterministic
//! [`FaultInjector`] checked at [`FaultPoint::NetRead`] /
//! [`FaultPoint::NetWrite`]: transient failures, torn frames (a
//! byte-precise prefix hits the socket, then the connection dies),
//! stalls, and clean disconnects. One injector models one connection;
//! once a torn/crash trigger fires the transport is dead in both
//! directions, exactly like a kicked cable.

use crate::wire::{frame, MAX_FRAME};
use reach_common::fault::{FaultInjector, FaultPoint, WriteOutcome};
use reach_common::{ReachError, Result};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional frame pipe.
pub trait Transport: Send {
    /// Read one frame payload. [`ReachError::IoTransient`] means a
    /// read timeout with the stream still healthy — call again.
    /// [`ReachError::ConnectionClosed`] means the peer is gone.
    fn read_frame(&mut self) -> Result<Vec<u8>>;

    /// Write one frame (length prefix + `payload`).
    fn write_frame(&mut self, payload: &[u8]) -> Result<()>;

    /// Write raw bytes with no framing. Exists so the fault wrapper
    /// can land a torn (prefix-only) frame on the real socket.
    fn write_raw(&mut self, bytes: &[u8]) -> Result<()>;
}

/// Frame transport over a [`TcpStream`].
pub struct TcpTransport {
    stream: TcpStream,
    /// Unparsed bytes already read off the socket.
    buf: Vec<u8>,
}

impl TcpTransport {
    /// Wrap a connected stream, applying `read_timeout` so a blocked
    /// read wakes up periodically (surfaced as `IoTransient`).
    pub fn new(stream: TcpStream, read_timeout: Option<Duration>) -> Result<Self> {
        stream.set_read_timeout(read_timeout)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            buf: Vec::new(),
        })
    }

    /// Connect to `addr` with a connect/read timeout.
    pub fn connect(addr: &str, read_timeout: Option<Duration>) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::new(stream, read_timeout)
    }

    /// A clone of the underlying stream (for out-of-band shutdown).
    pub fn stream(&self) -> Result<TcpStream> {
        Ok(self.stream.try_clone()?)
    }

    /// If a whole frame is buffered, detach and return its payload.
    fn take_buffered_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        // Reject before any len-sized allocation can happen.
        if len > MAX_FRAME {
            return Err(ReachError::Protocol(format!(
                "frame of {len} bytes exceeds cap {MAX_FRAME}"
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

impl Transport for TcpTransport {
    fn read_frame(&mut self) -> Result<Vec<u8>> {
        loop {
            if let Some(payload) = self.take_buffered_frame()? {
                return Ok(payload);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ReachError::ConnectionClosed(
                        "peer closed the stream".into(),
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                // From<io::Error> classifies would-block/timed-out as
                // IoTransient and reset/abort as ConnectionClosed; the
                // partial bytes stay in `buf` for the next call.
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_FRAME {
            return Err(ReachError::Protocol(format!(
                "refusing to send {} byte frame (cap {MAX_FRAME})",
                payload.len()
            )));
        }
        self.stream
            .write_all(&frame(payload.len(), |out| out.extend_from_slice(payload)))?;
        Ok(())
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }
}

/// A transport wrapper injecting deterministic network faults.
pub struct FaultTransport<T: Transport> {
    inner: T,
    injector: Arc<FaultInjector>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wrap `inner`, consulting `injector` on every frame in/out.
    pub fn new(inner: T, injector: Arc<FaultInjector>) -> Self {
        FaultTransport { inner, injector }
    }

    /// The shared injector (for occurrence counts in tests).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    fn dead(point: FaultPoint) -> ReachError {
        ReachError::ConnectionClosed(format!("injected fault at {}", point.name()))
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn read_frame(&mut self) -> Result<Vec<u8>> {
        match self.injector.check(FaultPoint::NetRead) {
            WriteOutcome::Proceed => self.inner.read_frame(),
            WriteOutcome::Stall { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.read_frame()
            }
            // A torn *read* means the connection died mid-frame: the
            // bytes this side never saw are gone for good.
            WriteOutcome::Fail | WriteOutcome::Torn { .. } => Err(Self::dead(FaultPoint::NetRead)),
        }
    }

    fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        match self.injector.check(FaultPoint::NetWrite) {
            WriteOutcome::Proceed => self.inner.write_frame(payload),
            WriteOutcome::Stall { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.write_frame(payload)
            }
            WriteOutcome::Fail => Err(Self::dead(FaultPoint::NetWrite)),
            WriteOutcome::Torn { keep } => {
                // A byte-precise prefix of the full frame (length
                // prefix included) lands on the wire; the peer sees a
                // torn frame and this side sees a dead connection.
                let whole = frame(payload.len(), |out| out.extend_from_slice(payload));
                let keep = keep.min(whole.len());
                let _ = self.inner.write_raw(&whole[..keep]);
                Err(Self::dead(FaultPoint::NetWrite))
            }
        }
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.write_raw(bytes)
    }
}
