//! Wire-protocol contract: every message round-trips byte-exactly,
//! hostile inputs (truncation, oversize length prefixes, unknown tags,
//! wrong versions) fail with typed errors instead of misparses.

use obs::trace::{JobTrace, Span, SpanKind};
use service::job::{EnginePref, JobOutcome, JobSpec, JobStatus, ShadowPref};
use service::wire::{
    read_request, read_response, write_request, write_response, Request, Response, WireError,
    MAX_FRAME,
};
use service::Engine;

fn spec() -> JobSpec {
    JobSpec {
        tenant: "alice".into(),
        source: "val _ = print \"hi\";".into(),
        args: vec!["job".into(), "--flag".into()],
        stdin: b"line one\nline two\n".to_vec(),
        files: vec![("data.txt".into(), b"\x00\xff contents".to_vec())],
        fuel: 123_456_789,
        engine: EnginePref::Jet,
        shadow: ShadowPref::Always,
    }
}

fn outcome() -> JobOutcome {
    JobOutcome {
        job_id: 41,
        status: JobStatus::Exited(3),
        message: "note".into(),
        stdout: b"out bytes \xf0".to_vec(),
        stderr: b"err".to_vec(),
        instructions: 987_654,
        engine: Engine::Jet,
        cached: true,
        shadowed: true,
        migrations: 2,
    }
}

fn trace() -> JobTrace {
    JobTrace {
        job_id: 41,
        spans: vec![
            Span {
                kind: SpanKind::Job,
                parent: None,
                begin_lc: 0,
                end_lc: 9,
                shard: u32::MAX,
                arg: 0,
                wall_us: Some(1234),
            },
            Span {
                kind: SpanKind::Exec,
                parent: Some(0),
                begin_lc: 3,
                end_lc: 8,
                shard: 2,
                arg: 987_654,
                wall_us: None,
            },
        ],
    }
}

#[test]
fn requests_roundtrip() {
    for req in [
        Request::Submit(spec()),
        Request::Stats,
        Request::Ping,
        Request::Shutdown,
        Request::Trace(41),
    ] {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).expect("encode");
        let got = read_request(&mut buf.as_slice()).expect("decode");
        assert_eq!(got, req);
    }
}

#[test]
fn responses_roundtrip() {
    let cases = [
        Response::Done(outcome()),
        Response::Rejected { code: 4, reason: "queue full".into() },
        Response::Stats("{\"suite\":\"service\"}\n".into()),
        Response::Pong,
        Response::Error("bad frame".into()),
        Response::ShutdownAck,
        Response::Trace(None),
        Response::Trace(Some(trace())),
    ];
    for resp in cases {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).expect("encode");
        let got = read_response(&mut buf.as_slice()).expect("decode");
        assert_eq!(got, resp);
    }
}

#[test]
fn every_status_roundtrips() {
    for status in [
        JobStatus::Exited(0),
        JobStatus::Exited(255),
        JobStatus::OutOfFuel,
        JobStatus::Wedged,
        JobStatus::CompileError,
        JobStatus::ImageError,
        JobStatus::FfiFailed,
        JobStatus::Divergence,
        JobStatus::Internal,
    ] {
        let mut out = outcome();
        out.status = status.clone();
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Done(out.clone())).expect("encode");
        match read_response(&mut buf.as_slice()).expect("decode") {
            Response::Done(got) => assert_eq!(got.status, status),
            other => panic!("expected Done, got {other:?}"),
        }
    }
}

#[test]
fn truncated_frames_are_typed_errors() {
    let mut buf = Vec::new();
    write_request(&mut buf, &Request::Submit(spec())).expect("encode");
    // Every strict prefix must fail as Truncated, never panic or misparse.
    for cut in 0..buf.len() {
        match read_request(&mut &buf[..cut]) {
            Err(WireError::Truncated) => {}
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn oversize_length_prefix_is_rejected_without_allocation() {
    let frame = (MAX_FRAME as u32 + 1).to_le_bytes();
    match read_request(&mut frame.as_slice()) {
        Err(WireError::TooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn unknown_tag_and_trailing_garbage_are_rejected() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.push(0x7f);
    match read_request(&mut buf.as_slice()) {
        Err(WireError::BadTag(0x7f)) => {}
        other => panic!("expected BadTag, got {other:?}"),
    }

    // A Ping frame with a trailing byte must not decode.
    let mut buf = Vec::new();
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.push(0x03);
    buf.push(0xee);
    match read_request(&mut buf.as_slice()) {
        Err(WireError::Truncated) => {}
        other => panic!("expected Truncated for trailing garbage, got {other:?}"),
    }
}

#[test]
fn trace_request_truncations_are_typed_errors() {
    let mut buf = Vec::new();
    write_request(&mut buf, &Request::Trace(0xDEAD_BEEF_0BAD_F00D)).expect("encode");
    for cut in 0..buf.len() {
        match read_request(&mut &buf[..cut]) {
            Err(WireError::Truncated) => {}
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
    }
    // A trailing byte after the job id must not decode either.
    buf[0] = buf[0].wrapping_add(1); // length prefix +1
    buf.push(0xee);
    match read_request(&mut buf.as_slice()) {
        Err(WireError::Truncated) => {}
        other => panic!("expected Truncated for trailing garbage, got {other:?}"),
    }
}

#[test]
fn trace_response_truncations_are_typed_errors() {
    // Mirrors the Submit coverage: every strict prefix of a span-tree
    // response must fail Truncated — never panic, never misparse.
    let mut buf = Vec::new();
    write_response(&mut buf, &Response::Trace(Some(trace()))).expect("encode");
    for cut in 0..buf.len() {
        match read_response(&mut &buf[..cut]) {
            Err(WireError::Truncated) => {}
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn trace_response_bad_bytes_are_typed_errors() {
    // Presence byte out of range.
    let mut buf = Vec::new();
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.push(0x87);
    buf.push(9);
    match read_response(&mut buf.as_slice()) {
        Err(WireError::BadEnum("trace-presence", 9)) => {}
        other => panic!("expected BadEnum(trace-presence), got {other:?}"),
    }

    // Bad span-kind byte. The first span's kind is the first byte after
    // tag + presence + job id (u64) + span count (u32).
    let mut buf = Vec::new();
    write_response(&mut buf, &Response::Trace(Some(trace()))).expect("encode");
    let kind_at = 4 + 1 + 1 + 8 + 4;
    buf[kind_at] = 0xfe;
    match read_response(&mut buf.as_slice()) {
        Err(WireError::BadEnum("span-kind", 0xfe)) => {}
        other => panic!("expected BadEnum(span-kind), got {other:?}"),
    }

    // Bad wall-us presence flag. The first span's flag is its last
    // byte: kind(1) + parent(2) + begin(8) + end(8) + shard(4) + arg(8).
    let mut buf = Vec::new();
    write_response(&mut buf, &Response::Trace(Some(trace()))).expect("encode");
    let flag_at = kind_at + 1 + 2 + 8 + 8 + 4 + 8;
    assert_eq!(buf[flag_at], 1, "first test span carries a wall annotation");
    buf[flag_at] = 7;
    match read_response(&mut buf.as_slice()) {
        Err(WireError::BadEnum("wall-flag", 7)) => {}
        other => panic!("expected BadEnum(wall-flag), got {other:?}"),
    }
}

#[test]
fn trace_response_hostile_span_count_is_rejected() {
    // A span count far beyond what the frame could carry must be
    // rejected before any allocation is attempted.
    let mut buf = Vec::new();
    buf.extend_from_slice(&14u32.to_le_bytes());
    buf.push(0x87);
    buf.push(1);
    buf.extend_from_slice(&1u64.to_le_bytes()); // job id
    buf.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile span count
    match read_response(&mut buf.as_slice()) {
        Err(WireError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn version_mismatch_is_rejected() {
    let mut buf = Vec::new();
    write_request(&mut buf, &Request::Submit(spec())).expect("encode");
    // The version is the first u16 after the 4-byte length + 1-byte tag.
    buf[5] = 0x63;
    buf[6] = 0x00;
    match read_request(&mut buf.as_slice()) {
        Err(WireError::BadVersion(0x63)) => {}
        other => panic!("expected BadVersion, got {other:?}"),
    }
}
