//! Property coverage for the `APFW1` wire codec: arbitrary, truncated,
//! bit-flipped, and oversized byte streams must decode to *typed*
//! [`WireError`]s — never a panic — and the decoder must never allocate a
//! payload buffer beyond the configured cap. Well-formed frames must
//! roundtrip exactly, including the request/status payload codecs.

use std::io::Cursor;

use proptest::prelude::*;

use apf_serve::wire::{
    read_frame, write_frame, AdminRequest, AdminResponse, Frame, FrameKind, TraceContext,
    WireError, WireRequest, WireStatus, HEADER_LEN, TRACE_EXT_LEN,
};

/// Picks a frame kind from a generated selector.
fn kind_from(sel: u8) -> FrameKind {
    match sel % 5 {
        0 => FrameKind::Segment,
        1 => FrameKind::Slide,
        2 => FrameKind::Response,
        3 => FrameKind::GoAway,
        _ => FrameKind::Admin,
    }
}

/// Builds the optional trace context from generated raw parts; `trace_id`
/// of 0 means "no context attached".
fn ctx_from(trace_id: u64, parent_span: u64, sampled: bool) -> Option<TraceContext> {
    if trace_id == 0 {
        None
    } else {
        Some(TraceContext { trace_id, parent_span, sampled })
    }
}

/// f32 bit patterns biased towards the values a codec could mangle.
fn pixel_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..u32::MAX,
        Just(0x0000_0000u32),         // +0.0
        Just(0x8000_0000u32),         // -0.0
        1u32..0x0080_0000,            // positive subnormals
        0x8000_0001u32..0x8080_0000,  // negative subnormals
        0x7F80_0001u32..=0x7FFF_FFFF, // NaN payloads, quiet and signalling
        0xFF80_0001u32..0xFFFF_FFFF,  // negative NaN payloads
    ]
}

proptest! {
    /// Arbitrary bytes: decoding returns a typed error or a valid frame,
    /// and never panics. (Random bytes virtually never survive the CRCs,
    /// but the property does not depend on that.)
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u16..256, 0..2048)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut cur = Cursor::new(bytes);
        let _ = read_frame(&mut cur, 1 << 16);
    }

    /// Well-formed frames — with or without the trace-context extension —
    /// roundtrip exactly through encode/read, and a frame without the
    /// extension stays byte-identical to the pre-extension layout (the
    /// old-version-peer interop property).
    #[test]
    fn frames_roundtrip(
        sel in 0u8..5,
        tenant in 0u64..u64::MAX,
        request in 0u64..u64::MAX,
        payload in prop::collection::vec(0u16..256, 0..512),
        trace_id in 0u64..u64::MAX,
        parent_span in 0u64..u64::MAX,
        sampled_sel in 0u8..2,
    ) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        let trace = ctx_from(trace_id, parent_span, sampled_sel == 1);
        let frame =
            Frame::new(kind_from(sel), tenant, request, payload).with_trace(trace);
        let bytes = frame.encode();
        if trace.is_some() {
            prop_assert_eq!(bytes[6], 1u8);
        } else {
            prop_assert_eq!(bytes[6], 0u8);
            // A context-free frame carries no extension bytes at all.
            prop_assert_eq!(bytes.len(), HEADER_LEN + frame.payload.len() + 4);
        }
        let mut cur = Cursor::new(bytes);
        let back = read_frame(&mut cur, 1 << 16).expect("valid frame decodes");
        prop_assert_eq!(back, frame);
    }

    /// Any single-bit corruption inside the trace extension (body or its
    /// CRC) yields a typed `WireError` — never a panic, never a frame with
    /// a silently different context.
    #[test]
    fn corrupted_trace_extension_is_typed(
        parent_span in 0u64..u64::MAX,
        payload in prop::collection::vec(0u16..256, 0..64),
        at in 0usize..TRACE_EXT_LEN,
        bit in 0u8..8,
    ) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        let ctx = TraceContext { trace_id: 0x1234_5678_9ABC_DEF0, parent_span, sampled: true };
        let frame = Frame::new(FrameKind::Segment, 7, 9, payload).with_trace(Some(ctx));
        let mut bytes = frame.encode();
        bytes[HEADER_LEN + at] ^= 1 << bit;
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, 1 << 16) {
            Err(WireError::BadExtensionCrc { .. }) => {}
            other => prop_assert!(false, "ext flip at {} bit {} gave {:?}", at, bit, other),
        }
    }

    /// Every truncation point of a valid frame yields a typed truncation
    /// error (`Disconnected` at zero bytes, `Truncated` elsewhere) —
    /// never a panic, never a phantom frame.
    #[test]
    fn truncation_is_always_typed(
        sel in 0u8..5,
        payload in prop::collection::vec(0u16..256, 0..256),
        cut_frac in 0.0f64..1.0,
        trace_id in 0u64..u64::MAX,
    ) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        let frame = Frame::new(kind_from(sel), 7, 9, payload)
            .with_trace(ctx_from(trace_id, 3, true));
        let bytes = frame.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // strictly short
        let mut cur = Cursor::new(bytes[..cut].to_vec());
        match read_frame(&mut cur, 1 << 16) {
            Err(WireError::Disconnected) => prop_assert_eq!(cut, 0),
            Err(WireError::Truncated { .. }) => prop_assert!(cut > 0),
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// One flipped bit anywhere in the frame is always caught: header
    /// flips trip the magic/header-CRC checks, payload or trailer flips
    /// trip the payload CRC. No flip may produce a *different* frame.
    #[test]
    fn single_bitflips_never_pass(
        sel in 0u8..5,
        payload in prop::collection::vec(0u16..256, 0..256),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
        trace_id in 0u64..u64::MAX,
    ) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        let frame = Frame::new(kind_from(sel), 3, 4, payload)
            .with_trace(ctx_from(trace_id, 5, false));
        let mut bytes = frame.encode();
        let at = (((bytes.len() as f64) * byte_frac) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << bit;
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, 1 << 16) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, frame),
        }
    }

    /// A header declaring a payload larger than the cap is refused with
    /// `Oversized` before any payload allocation: the decode of a frame
    /// claiming gigabytes completes against a cursor holding none of them.
    #[test]
    fn oversized_is_refused_before_allocation(
        declared in 1025u32..u32::MAX,
        cap in 0u32..1024,
    ) {
        let frame = Frame::new(FrameKind::Segment, 1, 2, vec![]);
        let mut bytes = frame.encode();
        // Rewrite the declared length and re-CRC the header; supply no
        // payload bytes at all. If the decoder tried to read (or allocate)
        // the payload it would report truncation, not Oversized.
        bytes[24..28].copy_from_slice(&declared.to_le_bytes());
        let crc = apf_core::crc32::crc32(&bytes[..28]);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        bytes.truncate(HEADER_LEN);
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur, cap) {
            Err(WireError::Oversized { len, cap: c }) => {
                prop_assert_eq!(len, declared);
                prop_assert_eq!(c, cap);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }

    /// Streams that do not open with the magic are typed `BadMagic` from
    /// the first four bytes alone.
    #[test]
    fn bad_magic_is_typed(prefix in prop::collection::vec(0u16..256, 4..64)) {
        let prefix: Vec<u8> = prefix.into_iter().map(|b| b as u8).collect();
        prop_assume!(prefix[..4] != *b"APFW");
        let mut cur = Cursor::new(prefix.clone());
        match read_frame(&mut cur, 1 << 16) {
            Err(WireError::BadMagic { found }) => prop_assert_eq!(&found[..], &prefix[..4]),
            other => prop_assert!(false, "expected BadMagic, got {:?}", other),
        }
    }

    /// Segment requests roundtrip through the payload codec bit for bit:
    /// every pixel draws its own bit pattern (NaN payloads, ±0.0 and
    /// subnormals included) over non-square images, so a decode that
    /// reorders, misaligns or canonicalises pixels fails. A pixel body
    /// 1–3 bytes off a multiple of 4, short or long, is a typed error.
    #[test]
    fn segment_requests_roundtrip(
        deadline_ms in 0u64..100_000,
        width in 1u32..24,
        height in 1u32..24,
        pool in prop::collection::vec(pixel_bits(), 23 * 23),
        off in 1usize..4,
    ) {
        let bits = pool[..(width * height) as usize].to_vec();
        let req = WireRequest::Segment {
            deadline_ms,
            width,
            height,
            pixels: bits.iter().map(|&b| f32::from_bits(b)).collect(),
        };
        let payload = req.encode();
        match WireRequest::decode(req.kind(), &payload).expect("valid payload") {
            WireRequest::Segment { deadline_ms: d, width: w, height: h, pixels } => {
                prop_assert_eq!((d, w, h), (deadline_ms, width, height));
                let got: Vec<u32> = pixels.iter().map(|p| p.to_bits()).collect();
                prop_assert_eq!(got, bits);
            }
            other => prop_assert!(false, "decoded as {:?}", other.kind()),
        }

        let short = &payload[..payload.len() - off];
        let mut long = payload.clone();
        long.extend(std::iter::repeat_n(0xA5, off));
        for body in [short, &long[..]] {
            prop_assert!(matches!(
                WireRequest::decode(FrameKind::Segment, body),
                Err(WireError::BadPayload { .. })
            ));
        }
    }

    /// Statuses roundtrip through the payload codec; labels and retry
    /// semantics survive.
    #[test]
    fn statuses_roundtrip(retry in 0u64..1_000_000, tokens in 0u64..1_000_000, tier in 0u8..3) {
        for status in [
            WireStatus::Ok { tokens, positive_fraction: 0.25, tier },
            WireStatus::SlideOk { windows: 7, tokens, positive_fraction: 0.5, tier },
            WireStatus::Rejected { retry_after_ms: retry },
            WireStatus::OverQuota { retry_after_ms: retry },
            WireStatus::InvalidInput { reason: "nope".to_string() },
            WireStatus::DeadlineExceeded { stage: tier },
            WireStatus::WorkerFailure { reason: tier % 2 },
            WireStatus::GoAway { retry_after_ms: retry },
        ] {
            let decoded = WireStatus::decode(&status.encode()).expect("valid status payload");
            prop_assert_eq!(decoded.label(), status.label());
            prop_assert_eq!(decoded.is_retryable(), status.is_retryable());
            prop_assert_eq!(decoded, status);
        }
    }

    /// Admin requests and responses roundtrip through their payload codecs
    /// for any finite sampling rate and any body text.
    #[test]
    fn admin_payloads_roundtrip(
        rate in -2.0f64..2.0,
        ok_sel in 0u8..2,
        body_chars in prop::collection::vec(0x20u16..0x7F, 0..128),
    ) {
        for req in [
            AdminRequest::MetricsProm,
            AdminRequest::MetricsJson,
            AdminRequest::Health,
            AdminRequest::SetSampling { rate },
            AdminRequest::FlightDump,
            AdminRequest::TraceDump,
        ] {
            prop_assert_eq!(AdminRequest::decode(&req.encode()).expect("valid admin op"), req);
        }
        let body: String =
            body_chars.into_iter().map(|c| char::from(c as u8)).collect();
        let resp = AdminResponse { ok: ok_sel == 1, body };
        prop_assert_eq!(AdminResponse::decode(&resp.encode()).expect("valid admin body"), resp.clone());
    }

    /// Trailing garbage after a well-formed request payload is refused as
    /// a typed `BadPayload`, not silently ignored.
    #[test]
    fn trailing_garbage_in_payload_is_typed(junk in prop::collection::vec(0u16..256, 1..32)) {
        let req = WireRequest::Segment { deadline_ms: 10, width: 2, height: 2, pixels: vec![0.0; 4] };
        let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
        let mut payload = req.encode();
        payload.extend_from_slice(&junk);
        match WireRequest::decode(req.kind(), &payload) {
            Err(WireError::BadPayload { .. }) => {}
            other => prop_assert!(false, "expected BadPayload, got {:?}", other),
        }
    }
}

/// Non-property check: write_frame output is byte-identical to encode().
#[test]
fn write_frame_matches_encode() {
    let frame = Frame::new(FrameKind::Response, 3, 9, vec![1, 2, 3, 4, 5]);
    let mut out = Vec::new();
    write_frame(&mut out, &frame).expect("vec write");
    assert_eq!(out, frame.encode());
}
