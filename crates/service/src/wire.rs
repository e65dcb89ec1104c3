//! The length-prefixed wire protocol.
//!
//! Frames are `u32` little-endian payload length followed by the
//! payload; payloads are a one-byte tag followed by tag-specific
//! fields. Integers are little-endian; strings and byte blobs are
//! `u32` length + contents. Submit payloads additionally carry a
//! protocol version (checked, so mismatched clients fail loudly rather
//! than misparse). Frames are capped at [`MAX_FRAME`] so a hostile
//! length prefix cannot make the server allocate unboundedly.
//!
//! | tag | direction | meaning |
//! |---|---|---|
//! | `0x01` | → | submit a [`JobSpec`] |
//! | `0x02` | → | request the metrics/stats text |
//! | `0x03` | → | ping |
//! | `0x04` | → | graceful shutdown |
//! | `0x05` | → | fetch a job's span tree by job id |
//! | `0x81` | ← | [`JobOutcome`] |
//! | `0x82` | ← | rejected (code + reason) |
//! | `0x83` | ← | stats text |
//! | `0x84` | ← | pong |
//! | `0x85` | ← | protocol-level error |
//! | `0x86` | ← | shutdown acknowledged |
//! | `0x87` | ← | span tree (or not-found) |

use std::fmt;
use std::io::{Read, Write};

use ag32::Engine;
use obs::trace::{JobTrace, Span, SpanKind};

use crate::job::{EnginePref, JobOutcome, JobSpec, JobStatus, ShadowPref};

/// Protocol version carried in every Submit payload.
/// * v2: outcomes carry the job id; `Trace`/span-tree frames added.
pub const PROTO_VERSION: u16 = 2;

/// Hard cap on one frame's payload, request or response.
pub const MAX_FRAME: usize = 16 << 20;

/// A client→server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit one job and wait for its outcome.
    Submit(JobSpec),
    /// Fetch the server's stats text (summary + metrics JSON lines).
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down gracefully (drain, emit bench).
    Shutdown,
    /// Fetch the span tree of a completed job by its id (the
    /// [`JobOutcome::job_id`] a Submit response carried).
    Trace(u64),
}

/// Machine-readable rejection codes (mirrors `RejectReason`).
pub mod reject_code {
    /// Per-job fuel cap exceeded.
    pub const JOB_FUEL: u8 = 1;
    /// Tenant fuel budget exhausted.
    pub const FUEL_BUDGET: u8 = 2;
    /// Tenant queue depth exceeded.
    pub const QUEUE_DEPTH: u8 = 3;
    /// Global queue full.
    pub const QUEUE_FULL: u8 = 4;
    /// Malformed job (empty source, named files, zero fuel…).
    pub const BAD_REQUEST: u8 = 5;
    /// Server is shutting down.
    pub const SHUTTING_DOWN: u8 = 6;
}

/// A server→client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The job completed (in any [`JobStatus`]).
    Done(JobOutcome),
    /// Admission refused the job.
    Rejected {
        /// One of [`reject_code`].
        code: u8,
        /// Human-readable reason.
        reason: String,
    },
    /// Stats text.
    Stats(String),
    /// Pong.
    Pong,
    /// Frame-level failure (bad version, undecodable job…).
    Error(String),
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownAck,
    /// A job's span tree — `None` when the id is unknown or already
    /// evicted from the bounded trace store.
    Trace(Option<JobTrace>),
}

/// Decode/transport failures.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error.
    Io(std::io::Error),
    /// Peer closed mid-frame or the payload ended mid-field.
    Truncated,
    /// Length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// Unknown payload tag.
    BadTag(u8),
    /// Submit carried an unsupported protocol version.
    BadVersion(u16),
    /// A string field was not UTF-8.
    BadUtf8,
    /// An enum byte was out of range.
    BadEnum(&'static str, u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME}"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (this server speaks {PROTO_VERSION})")
            }
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadEnum(what, v) => write!(f, "bad {what} byte {v}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

// ---- encoding ----

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn encode_spec(buf: &mut Vec<u8>, spec: &JobSpec) {
    put_u16(buf, PROTO_VERSION);
    put_str(buf, &spec.tenant);
    put_str(buf, &spec.source);
    put_u16(buf, spec.args.len() as u16);
    for a in &spec.args {
        put_str(buf, a);
    }
    put_bytes(buf, &spec.stdin);
    put_u16(buf, spec.files.len() as u16);
    for (name, data) in &spec.files {
        put_str(buf, name);
        put_bytes(buf, data);
    }
    put_u64(buf, spec.fuel);
    buf.push(match spec.engine {
        EnginePref::Auto => 0,
        EnginePref::Ref => 1,
        EnginePref::Jet => 2,
    });
    buf.push(match spec.shadow {
        ShadowPref::Default => 0,
        ShadowPref::Always => 1,
    });
}

fn encode_outcome(buf: &mut Vec<u8>, out: &JobOutcome) {
    put_u64(buf, out.job_id);
    let (status, exit) = match out.status {
        JobStatus::Exited(c) => (0u8, c),
        JobStatus::OutOfFuel => (1, 0),
        JobStatus::Wedged => (2, 0),
        JobStatus::CompileError => (3, 0),
        JobStatus::ImageError => (4, 0),
        JobStatus::Divergence => (5, 0),
        JobStatus::Internal => (6, 0),
        JobStatus::FfiFailed => (7, 0),
    };
    buf.push(status);
    buf.push(exit);
    put_str(buf, &out.message);
    put_bytes(buf, &out.stdout);
    put_bytes(buf, &out.stderr);
    put_u64(buf, out.instructions);
    buf.push(out.engine.code());
    buf.push(u8::from(out.cached) | (u8::from(out.shadowed) << 1));
    put_u32(buf, out.migrations);
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Writes one request frame.
///
/// # Errors
///
/// Underlying I/O errors.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::io::Result<()> {
    let mut buf = Vec::new();
    match req {
        Request::Submit(spec) => {
            buf.push(0x01);
            encode_spec(&mut buf, spec);
        }
        Request::Stats => buf.push(0x02),
        Request::Ping => buf.push(0x03),
        Request::Shutdown => buf.push(0x04),
        Request::Trace(job_id) => {
            buf.push(0x05);
            put_u64(&mut buf, *job_id);
        }
    }
    write_frame(w, &buf)
}

/// Writes one response frame.
///
/// # Errors
///
/// Underlying I/O errors.
pub fn write_response(w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    let mut buf = Vec::new();
    match resp {
        Response::Done(out) => {
            buf.push(0x81);
            encode_outcome(&mut buf, out);
        }
        Response::Rejected { code, reason } => {
            buf.push(0x82);
            buf.push(*code);
            put_str(&mut buf, reason);
        }
        Response::Stats(text) => {
            buf.push(0x83);
            put_str(&mut buf, text);
        }
        Response::Pong => buf.push(0x84),
        Response::Error(msg) => {
            buf.push(0x85);
            put_str(&mut buf, msg);
        }
        Response::ShutdownAck => buf.push(0x86),
        Response::Trace(trace) => {
            buf.push(0x87);
            match trace {
                None => buf.push(0),
                Some(t) => {
                    buf.push(1);
                    encode_trace(&mut buf, t);
                }
            }
        }
    }
    write_frame(w, &buf)
}

/// Span parents are `u16` indices; `NO_PARENT` marks a root span on the
/// wire (span counts are capped well below it by `TraceBuilder`).
const NO_PARENT: u16 = u16::MAX;

fn encode_trace(buf: &mut Vec<u8>, t: &JobTrace) {
    put_u64(buf, t.job_id);
    put_u32(buf, t.spans.len() as u32);
    for s in &t.spans {
        buf.push(s.kind as u8);
        put_u16(buf, s.parent.unwrap_or(NO_PARENT));
        put_u64(buf, s.begin_lc);
        put_u64(buf, s.end_lc);
        put_u32(buf, s.shard);
        put_u64(buf, s.arg);
        match s.wall_us {
            None => buf.push(0),
            Some(w) => {
                buf.push(1);
                put_u64(buf, w);
            }
        }
    }
}

// ---- decoding ----

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

fn decode_spec(r: &mut Reader<'_>) -> Result<JobSpec, WireError> {
    let version = r.u16()?;
    if version != PROTO_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tenant = r.string()?;
    let source = r.string()?;
    let nargs = r.u16()?;
    let mut args = Vec::with_capacity(nargs as usize);
    for _ in 0..nargs {
        args.push(r.string()?);
    }
    let stdin = r.bytes()?;
    let nfiles = r.u16()?;
    let mut files = Vec::with_capacity(nfiles as usize);
    for _ in 0..nfiles {
        let name = r.string()?;
        let data = r.bytes()?;
        files.push((name, data));
    }
    let fuel = r.u64()?;
    let engine = match r.u8()? {
        0 => EnginePref::Auto,
        1 => EnginePref::Ref,
        2 => EnginePref::Jet,
        b => return Err(WireError::BadEnum("engine", b)),
    };
    let shadow = match r.u8()? {
        0 => ShadowPref::Default,
        1 => ShadowPref::Always,
        b => return Err(WireError::BadEnum("shadow", b)),
    };
    Ok(JobSpec { tenant, source, args, stdin, files, fuel, engine, shadow })
}

fn decode_outcome(r: &mut Reader<'_>) -> Result<JobOutcome, WireError> {
    let job_id = r.u64()?;
    let status_b = r.u8()?;
    let exit = r.u8()?;
    let status = match status_b {
        0 => JobStatus::Exited(exit),
        1 => JobStatus::OutOfFuel,
        2 => JobStatus::Wedged,
        3 => JobStatus::CompileError,
        4 => JobStatus::ImageError,
        5 => JobStatus::Divergence,
        6 => JobStatus::Internal,
        7 => JobStatus::FfiFailed,
        b => return Err(WireError::BadEnum("status", b)),
    };
    let message = r.string()?;
    let stdout = r.bytes()?;
    let stderr = r.bytes()?;
    let instructions = r.u64()?;
    let b = r.u8()?;
    let engine = Engine::from_code(b).ok_or(WireError::BadEnum("engine", b))?;
    let flags = r.u8()?;
    let migrations = r.u32()?;
    Ok(JobOutcome {
        job_id,
        status,
        message,
        stdout,
        stderr,
        instructions,
        engine,
        cached: flags & 1 != 0,
        shadowed: flags & 2 != 0,
        migrations,
    })
}

fn decode_trace(r: &mut Reader<'_>) -> Result<JobTrace, WireError> {
    let job_id = r.u64()?;
    let nspans = r.u32()?;
    // A span is ≥ 32 bytes on the wire; reject counts a frame under
    // MAX_FRAME cannot actually carry before allocating.
    if nspans as usize > MAX_FRAME / 32 {
        return Err(WireError::Truncated);
    }
    let mut spans = Vec::with_capacity(nspans as usize);
    for _ in 0..nspans {
        let kind_b = r.u8()?;
        let kind =
            SpanKind::from_u8(kind_b).ok_or(WireError::BadEnum("span-kind", kind_b))?;
        let parent_raw = r.u16()?;
        let parent = if parent_raw == NO_PARENT { None } else { Some(parent_raw) };
        let begin_lc = r.u64()?;
        let end_lc = r.u64()?;
        let shard = r.u32()?;
        let arg = r.u64()?;
        let wall_us = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            b => return Err(WireError::BadEnum("wall-flag", b)),
        };
        spans.push(Span { kind, parent, begin_lc, end_lc, shard, arg, wall_us });
    }
    Ok(JobTrace { job_id, spans })
}

fn read_payload(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Reads one request frame.
///
/// # Errors
///
/// [`WireError`] on transport or decode failure.
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    let payload = read_payload(r)?;
    let mut rd = Reader { buf: &payload, pos: 0 };
    let req = match rd.u8()? {
        0x01 => Request::Submit(decode_spec(&mut rd)?),
        0x02 => Request::Stats,
        0x03 => Request::Ping,
        0x04 => Request::Shutdown,
        0x05 => Request::Trace(rd.u64()?),
        t => return Err(WireError::BadTag(t)),
    };
    rd.done()?;
    Ok(req)
}

/// Reads one response frame.
///
/// # Errors
///
/// [`WireError`] on transport or decode failure.
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    let payload = read_payload(r)?;
    let mut rd = Reader { buf: &payload, pos: 0 };
    let resp = match rd.u8()? {
        0x81 => Response::Done(decode_outcome(&mut rd)?),
        0x82 => {
            let code = rd.u8()?;
            let reason = rd.string()?;
            Response::Rejected { code, reason }
        }
        0x83 => Response::Stats(rd.string()?),
        0x84 => Response::Pong,
        0x85 => Response::Error(rd.string()?),
        0x86 => Response::ShutdownAck,
        0x87 => match rd.u8()? {
            0 => Response::Trace(None),
            1 => Response::Trace(Some(decode_trace(&mut rd)?)),
            b => return Err(WireError::BadEnum("trace-presence", b)),
        },
        t => return Err(WireError::BadTag(t)),
    };
    rd.done()?;
    Ok(resp)
}
