//! The length-prefixed binary wire protocol spoken over TCP.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes (capped at [`MAX_FRAME`]). Payloads
//! are encoded with `csp_io::wire` — the same bounds-checked Reader/Writer
//! the artifact containers use, so a truncated or corrupted frame is
//! always a typed [`CspError::Corrupt`], never a panic or silent garbage.
//!
//! ## Inference request payload ([`REQ_INFER_V2`])
//!
//! | field        | encoding                                  |
//! |--------------|-------------------------------------------|
//! | opcode       | `u8` = [`REQ_INFER_V2`]                   |
//! | token        | `u64` client idempotency token, `0` = none|
//! | request id   | `u64` (echoed in the reply)               |
//! | attempt      | `u32` zero-based retry attempt            |
//! | model name   | length-prefixed UTF-8                     |
//! | deadline µs  | `u64` **remaining** budget, `0` = none    |
//! | input        | tensor (dims + f32 data)                  |
//!
//! Opcode 1 (the retired v1 infer frame, without token, attempt or reply
//! CRC) is an unknown opcode: the server answers with a typed `Corrupt`
//! (id 0) and closes the connection.
//!
//! ## Inference response payload
//!
//! | field       | encoding                                        |
//! |-------------|-------------------------------------------------|
//! | status      | `u8` ([`STATUS_OK`] … [`STATUS_DRAINING`])      |
//! | request id  | `u64`                                           |
//! | if OK       | `u64` model version, `u32` batch size, tensor   |
//! | otherwise   | length-prefixed UTF-8 error message             |
//! | CRC-32      | `u32` LE over all of the above                  |
//!
//! The CRC trailer makes a corrupted reply a typed transport error the
//! client can retry — never silently wrong logits. Replies to frames the
//! server cannot decode, and drain force-close goodbyes, are the body
//! alone: the server cannot know which request they answer.
//!
//! ## Health request/response ([`REQ_HEALTH`])
//!
//! The request is opcode + id. The OK response carries the engine's
//! [`HealthReport`]: a state byte (`0` ready / `1` degraded / `2`
//! draining), `u32` queue depth, `u32` worker count, `u64` restarts,
//! `u64` panics.
//!
//! ## Telemetry request/response ([`REQ_TELEMETRY`])
//!
//! The request is just opcode + id. The OK response carries a
//! length-prefixed [`csp_io::telemetry_io`] blob — the versioned,
//! CRC-protected snapshot encoding — so the snapshot's own integrity
//! check rides inside the frame.

use crate::batch::InferReply;
use csp_io::wire::{Reader, Writer};
use csp_telemetry::Snapshot;
use csp_tensor::{CspError, CspResult, Tensor};
use std::io::{Read, Write};

/// Largest accepted frame payload (16 MiB) — an admission bound, so a
/// malicious or corrupted length prefix cannot trigger a huge allocation.
pub const MAX_FRAME: usize = 1 << 24;

/// Request opcode: fetch the engine's telemetry snapshot.
pub const REQ_TELEMETRY: u8 = 2;

/// Request opcode: fetch the engine's health report.
pub const REQ_HEALTH: u8 = 3;

/// Request opcode: run one inference (v2 framing: the client's
/// idempotency token, the attempt counter, and a CRC-protected response).
pub const REQ_INFER_V2: u8 = 4;

/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: request shed by admission control.
pub const STATUS_OVERLOADED: u8 = 1;
/// Response status: artifact or frame corruption.
pub const STATUS_CORRUPT: u8 = 2;
/// Response status: invalid request (unknown model, bad shape, …).
pub const STATUS_INVALID: u8 = 3;
/// Response status: any other server-side failure (worker panic, …).
pub const STATUS_INTERNAL: u8 = 4;
/// Response status: the request's deadline expired before execution.
pub const STATUS_EXPIRED: u8 = 5;
/// Response status: the connection was force-closed at the server's
/// drain deadline; the request (if any was in flight) was not executed.
pub const STATUS_DRAINING: u8 = 6;

/// Highest status a decoder accepts; anything above is frame corruption.
const STATUS_MAX: u8 = STATUS_DRAINING;

/// One decoded inference response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// The engine's verdict.
    pub result: CspResult<InferReply>,
}

/// Map an engine error onto a wire status code.
fn status_of(err: &CspError) -> u8 {
    match err {
        CspError::Overloaded { .. } => STATUS_OVERLOADED,
        CspError::Corrupt { .. } => STATUS_CORRUPT,
        CspError::Config { .. } => STATUS_INVALID,
        CspError::Expired { .. } => STATUS_EXPIRED,
        _ => STATUS_INTERNAL,
    }
}

/// The bare message to put on the wire for an engine error. For the
/// variants [`error_of`] reconstructs from their `what` alone, send just
/// that — sending the full `Display` would re-gain the variant's prefix
/// on decode and double it. Every other variant collapses to
/// [`STATUS_INTERNAL`] and decodes as [`CspError::Internal`], so its full
/// `Display` becomes the `what` (keeping the original variant's context).
fn message_of(err: &CspError) -> String {
    match err {
        CspError::Overloaded { what }
        | CspError::Corrupt { what, .. }
        | CspError::Config { what }
        | CspError::Expired { what }
        | CspError::Internal { what } => what.clone(),
        other => other.to_string(),
    }
}

/// Map a wire status code plus message back onto a typed error.
fn error_of(status: u8, message: String) -> CspError {
    match status {
        STATUS_OVERLOADED => CspError::Overloaded { what: message },
        STATUS_CORRUPT => CspError::Corrupt {
            artifact: "serve-response".to_string(),
            what: message,
        },
        STATUS_INVALID => CspError::Config { what: message },
        STATUS_EXPIRED => CspError::Expired { what: message },
        // A drain force-close is admission-level shedding from the
        // client's point of view: back off and retry elsewhere/later.
        STATUS_DRAINING => CspError::Overloaded { what: message },
        _ => CspError::Internal { what: message },
    }
}

impl Response {
    /// Encode the response body without its CRC trailer: the part
    /// [`encode_v2`](Response::encode_v2) checksums, and on its own the
    /// reply to a frame the server could not decode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.result {
            Ok(reply) => {
                w.put_u8(STATUS_OK);
                w.put_u64(self.id);
                w.put_u64(reply.model_version);
                w.put_u32(reply.batch_size as u32);
                let out = Tensor::from_vec(reply.output.clone(), &[reply.output.len()])
                    .expect("rank-1 tensor always fits its data");
                w.put_tensor(&out);
            }
            Err(e) => {
                w.put_u8(status_of(e));
                w.put_u64(self.id);
                w.put_str(&message_of(e));
            }
        }
        w.into_bytes()
    }

    /// Decode a response body (no CRC trailer).
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] for an unknown status, truncation, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> CspResult<Response> {
        let mut r = Reader::new(payload, "serve-response");
        let status = r.u8()?;
        let id = r.u64()?;
        let result = if status == STATUS_OK {
            let model_version = r.u64()?;
            let batch_size = r.u32()? as usize;
            let out = r.tensor()?;
            Ok(InferReply {
                output: out.as_slice().to_vec(),
                model_version,
                batch_size,
            })
        } else if status <= STATUS_MAX {
            Err(error_of(status, r.str()?))
        } else {
            return Err(r.corrupt(format!("unknown response status {status}")));
        };
        r.expect_empty()?;
        Ok(Response { id, result })
    }
}

/// One decoded inference request: the client's idempotency token, id,
/// attempt counter, model, deadline and input, answered with a
/// CRC-protected frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestV2 {
    /// Idempotency token identifying the submitting client (`0` = the
    /// request is not idempotent and is never deduplicated).
    pub token: u64,
    /// Client-chosen id, echoed verbatim in the response; `(token, id)`
    /// keys the engine's reply cache across retries.
    pub id: u64,
    /// Zero-based retry attempt (diagnostic; the server treats every
    /// attempt identically).
    pub attempt: u32,
    /// Target model name.
    pub model: String,
    /// Remaining deadline budget in microseconds from arrival (`0` =
    /// none). A retrying client shrinks this on every attempt, so the
    /// server sees the *remaining* budget, not the original one.
    pub deadline_us: u64,
    /// The input sample.
    pub input: Tensor,
}

impl RequestV2 {
    /// Encode this request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(REQ_INFER_V2);
        w.put_u64(self.token);
        w.put_u64(self.id);
        w.put_u32(self.attempt);
        w.put_str(&self.model);
        w.put_u64(self.deadline_us);
        w.put_tensor(&self.input);
        w.into_bytes()
    }

    /// Decode a frame payload as a v2 request.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] for a wrong opcode, truncation, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> CspResult<RequestV2> {
        let mut r = Reader::new(payload, "serve-request-v2");
        let op = r.u8()?;
        if op != REQ_INFER_V2 {
            return Err(r.corrupt(format!("unknown request opcode {op}")));
        }
        let token = r.u64()?;
        let id = r.u64()?;
        let attempt = r.u32()?;
        let model = r.str()?;
        let deadline_us = r.u64()?;
        let input = r.tensor()?;
        r.expect_empty()?;
        Ok(RequestV2 {
            token,
            id,
            attempt,
            model,
            deadline_us,
            input,
        })
    }
}

impl Response {
    /// Encode this response as an inference reply payload: the body
    /// followed by a little-endian CRC-32 of it. A bit flipped anywhere in transit is a
    /// typed [`CspError::Corrupt`] on decode — never silently wrong
    /// logits — which is what lets a retrying client preserve
    /// delivered-reply bit-identity under reply corruption.
    pub fn encode_v2(&self) -> Vec<u8> {
        let mut bytes = self.encode();
        let crc = csp_io::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decode an inference reply payload (CRC-suffixed body).
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] on CRC mismatch or any body decode
    /// failure.
    pub fn decode_v2(payload: &[u8]) -> CspResult<Response> {
        if payload.len() < 4 {
            return Err(CspError::Corrupt {
                artifact: "serve-response-v2".to_string(),
                what: format!("{} bytes cannot hold a CRC suffix", payload.len()),
            });
        }
        let (body, crc_bytes) = payload.split_at(payload.len() - 4);
        let sent = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let computed = csp_io::crc32(body);
        if sent != computed {
            // Drain force-closes are a bare body (the shutdown path does
            // not know which request, if any, is outstanding), so a
            // cleanly-decoding DRAINING payload is accepted without a CRC.
            if payload.first() == Some(&STATUS_DRAINING) {
                if let Ok(resp) = Response::decode(payload) {
                    return Ok(resp);
                }
            }
            return Err(CspError::Corrupt {
                artifact: "serve-response-v2".to_string(),
                what: format!(
                    "response CRC mismatch: sent {sent:#010x}, computed {computed:#010x}"
                ),
            });
        }
        Response::decode(body)
    }
}

/// Engine liveness, as reported by the `Health` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally.
    Ready,
    /// Still serving, but impaired: a worker was restarted recently or
    /// the admission queue is at capacity.
    Degraded,
    /// Draining for shutdown; new requests are shed.
    Draining,
}

impl HealthState {
    fn code(self) -> u8 {
        match self {
            HealthState::Ready => 0,
            HealthState::Degraded => 1,
            HealthState::Draining => 2,
        }
    }

    fn from_code(code: u8) -> Option<HealthState> {
        match code {
            0 => Some(HealthState::Ready),
            1 => Some(HealthState::Degraded),
            2 => Some(HealthState::Draining),
            _ => None,
        }
    }

    /// Human-readable label (`"ready"`, `"degraded"`, `"draining"`).
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Ready => "ready",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }
}

/// One engine health report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Overall verdict.
    pub state: HealthState,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Target worker-pool size.
    pub workers: usize,
    /// Worker threads respawned by the supervisor since start.
    pub restarts: u64,
    /// Worker panics converted to typed per-request errors since start.
    pub panics: u64,
}

/// One decoded health request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRequest {
    /// Client-chosen id, echoed verbatim in the response.
    pub id: u64,
}

impl HealthRequest {
    /// Encode this request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(REQ_HEALTH);
        w.put_u64(self.id);
        w.into_bytes()
    }

    /// Decode a frame payload as a health request.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] for a wrong opcode, truncation, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> CspResult<HealthRequest> {
        let mut r = Reader::new(payload, "serve-health-request");
        let op = r.u8()?;
        if op != REQ_HEALTH {
            return Err(r.corrupt(format!("unknown request opcode {op}")));
        }
        let id = r.u64()?;
        r.expect_empty()?;
        Ok(HealthRequest { id })
    }
}

/// One decoded health response.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthResponse {
    /// Echo of the request id.
    pub id: u64,
    /// The report, or the server's typed refusal.
    pub result: CspResult<HealthReport>,
}

impl HealthResponse {
    /// Encode this response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.result {
            Ok(report) => {
                w.put_u8(STATUS_OK);
                w.put_u64(self.id);
                w.put_u8(report.state.code());
                w.put_u32(report.queue_depth as u32);
                w.put_u32(report.workers as u32);
                w.put_u64(report.restarts);
                w.put_u64(report.panics);
            }
            Err(e) => {
                w.put_u8(status_of(e));
                w.put_u64(self.id);
                w.put_str(&message_of(e));
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload as a health response.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] for an unknown status or state code,
    /// truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> CspResult<HealthResponse> {
        let mut r = Reader::new(payload, "serve-health-response");
        let status = r.u8()?;
        let id = r.u64()?;
        let result = if status == STATUS_OK {
            let code = r.u8()?;
            let state = HealthState::from_code(code)
                .ok_or_else(|| r.corrupt(format!("unknown health state {code}")))?;
            let queue_depth = r.u32()? as usize;
            let workers = r.u32()? as usize;
            let restarts = r.u64()?;
            let panics = r.u64()?;
            Ok(HealthReport {
                state,
                queue_depth,
                workers,
                restarts,
                panics,
            })
        } else if status <= STATUS_MAX {
            Err(error_of(status, r.str()?))
        } else {
            return Err(r.corrupt(format!("unknown response status {status}")));
        };
        r.expect_empty()?;
        Ok(HealthResponse { id, result })
    }
}

/// One decoded telemetry-snapshot request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRequest {
    /// Client-chosen id, echoed verbatim in the response.
    pub id: u64,
}

impl TelemetryRequest {
    /// Encode this request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(REQ_TELEMETRY);
        w.put_u64(self.id);
        w.into_bytes()
    }

    /// Decode a frame payload as a telemetry request.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] for a wrong opcode, truncation, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> CspResult<TelemetryRequest> {
        let mut r = Reader::new(payload, "serve-telemetry-request");
        let op = r.u8()?;
        if op != REQ_TELEMETRY {
            return Err(r.corrupt(format!("unknown request opcode {op}")));
        }
        let id = r.u64()?;
        r.expect_empty()?;
        Ok(TelemetryRequest { id })
    }
}

/// One decoded telemetry-snapshot response.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryResponse {
    /// Echo of the request id.
    pub id: u64,
    /// The snapshot, or the engine's typed refusal.
    pub result: CspResult<Snapshot>,
}

impl TelemetryResponse {
    /// Encode this response as a frame payload. The snapshot rides as a
    /// length-prefixed `csp_io` blob, keeping its own magic/version/CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.result {
            Ok(snap) => {
                w.put_u8(STATUS_OK);
                w.put_u64(self.id);
                let blob = csp_io::encode_snapshot(snap);
                w.put_usize(blob.len());
                w.put_bytes(&blob);
            }
            Err(e) => {
                w.put_u8(status_of(e));
                w.put_u64(self.id);
                w.put_str(&message_of(e));
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload as a telemetry response.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] for an unknown status, a snapshot
    /// blob failing its CRC/version checks, truncation, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> CspResult<TelemetryResponse> {
        let mut r = Reader::new(payload, "serve-telemetry-response");
        let status = r.u8()?;
        let id = r.u64()?;
        let result = if status == STATUS_OK {
            let len = r.bounded_len(1, "snapshot blob")?;
            let blob = r.take(len)?;
            Ok(csp_io::decode_snapshot(blob)?)
        } else if status <= STATUS_MAX {
            Err(error_of(status, r.str()?))
        } else {
            return Err(r.corrupt(format!("unknown response status {status}")));
        };
        r.expect_empty()?;
        Ok(TelemetryResponse { id, result })
    }
}

/// Any request the server accepts, dispatched on the opcode byte.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyRequest {
    /// [`REQ_INFER_V2`]: run one inference.
    InferV2(RequestV2),
    /// [`REQ_TELEMETRY`]: fetch the engine's telemetry snapshot.
    Telemetry(TelemetryRequest),
    /// [`REQ_HEALTH`]: fetch the engine's health report.
    Health(HealthRequest),
}

impl AnyRequest {
    /// Decode a frame payload into whichever request its opcode names.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Corrupt`] for an unknown opcode (including the
    /// retired v1 infer opcode 1) or a malformed body.
    pub fn decode(payload: &[u8]) -> CspResult<AnyRequest> {
        let probe = Reader::new(payload, "serve-request");
        match payload.first() {
            Some(&REQ_INFER_V2) => Ok(AnyRequest::InferV2(RequestV2::decode(payload)?)),
            Some(&REQ_TELEMETRY) => Ok(AnyRequest::Telemetry(TelemetryRequest::decode(payload)?)),
            Some(&REQ_HEALTH) => Ok(AnyRequest::Health(HealthRequest::decode(payload)?)),
            Some(&op) => Err(probe.corrupt(format!("unknown request opcode {op}"))),
            None => Err(probe.corrupt("empty request payload")),
        }
    }
}

/// The payload a server writes when force-closing a connection at its
/// drain deadline: a [`STATUS_DRAINING`] response with id 0 (the server
/// does not know which request, if any, the client is waiting on). Both
/// [`Response::decode`] and [`Response::decode_v2`] (which accepts this
/// one status without a CRC) surface it as a typed
/// [`CspError::Overloaded`].
pub fn draining_payload(what: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(STATUS_DRAINING);
    w.put_u64(0);
    w.put_str(what);
    w.into_bytes()
}

/// A socket-level transport error.
pub(crate) fn sock_err(what: String) -> CspError {
    CspError::Io {
        path: "serve-socket".to_string(),
        what,
    }
}

/// Write one length-prefixed frame to `w`.
///
/// # Errors
///
/// Returns [`CspError::Io`] when the payload exceeds [`MAX_FRAME`] or the
/// underlying write fails.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> CspResult<()> {
    if payload.len() > MAX_FRAME {
        return Err(sock_err(format!(
            "frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| sock_err(format!("frame write failed: {e}")))
}

/// Read one length-prefixed frame from `r`. Returns `Ok(None)` on a clean
/// EOF at a frame boundary.
///
/// # Errors
///
/// Returns [`CspError::Corrupt`] for an oversized length prefix and
/// [`CspError::Io`] for mid-frame EOF or read failures.
pub fn read_frame(r: &mut impl Read) -> CspResult<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(sock_err("EOF inside a frame length prefix".to_string())),
            Ok(n) => got += n,
            Err(e) => return Err(sock_err(format!("frame read failed: {e}"))),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(CspError::Corrupt {
            artifact: "serve-frame".to_string(),
            what: format!("length prefix {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(sock_err(format!("EOF after {filled} of {len} frame bytes"))),
            Ok(n) => filled += n,
            Err(e) => return Err(sock_err(format!("frame read failed: {e}"))),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> RequestV2 {
        RequestV2 {
            token: 0,
            id,
            attempt: 0,
            model: "m".to_string(),
            deadline_us: 0,
            input: Tensor::zeros(&[2]),
        }
    }

    #[test]
    fn request_round_trips() {
        for (token, attempt, deadline_us) in [(0, 0, 0), (1, 7, 1500), (u64::MAX, u32::MAX, 1)] {
            let req = RequestV2 {
                token,
                attempt,
                deadline_us,
                ..request(42)
            };
            assert_eq!(RequestV2::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn ok_response_round_trips() {
        let resp = Response {
            id: 7,
            result: Ok(InferReply {
                output: vec![0.25, -1.0, 9.0],
                model_version: 3,
                batch_size: 4,
            }),
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn error_responses_round_trip_typed() {
        for (err, status) in [
            (
                CspError::Overloaded {
                    what: "queue full".to_string(),
                },
                STATUS_OVERLOADED,
            ),
            (
                CspError::Config {
                    what: "unknown model".to_string(),
                },
                STATUS_INVALID,
            ),
        ] {
            let resp = Response {
                id: 1,
                result: Err(err),
            };
            let bytes = resp.encode();
            assert_eq!(bytes[0], status);
            let back = Response::decode(&bytes).unwrap();
            match (&resp.result, &back.result) {
                (Err(a), Err(b)) => {
                    assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b));
                    assert_eq!(
                        a.to_string(),
                        b.to_string(),
                        "the decoded Display must match exactly — no prefix doubling"
                    );
                }
                _ => panic!("expected errors on both sides"),
            }
        }
    }

    #[test]
    fn corrupt_payloads_are_typed() {
        assert!(matches!(
            RequestV2::decode(&[9, 0, 0]),
            Err(CspError::Corrupt { .. })
        ));
        let req = request(1);
        let mut bytes = req.encode();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            RequestV2::decode(&bytes),
            Err(CspError::Corrupt { .. })
        ));
        bytes = req.encode();
        bytes.push(0xFF); // trailing garbage
        assert!(matches!(
            RequestV2::decode(&bytes),
            Err(CspError::Corrupt { .. })
        ));
    }

    fn sample_snapshot() -> Snapshot {
        let reg = csp_telemetry::Registry::new();
        reg.counter_add("serve.admitted", "alexnet", 12);
        reg.max_gauge("runtime.pool_width", "", 4);
        for v in [3u64, 90, 4000] {
            reg.histogram_record("serve.latency_us", "alexnet", &[8, 64, 512], v);
        }
        reg.snapshot()
    }

    #[test]
    fn telemetry_request_round_trips_and_rejects_garbage() {
        let req = TelemetryRequest { id: 99 };
        assert_eq!(TelemetryRequest::decode(&req.encode()).unwrap(), req);

        // Wrong opcode, truncation, trailing bytes: all typed Corrupt.
        assert!(matches!(
            TelemetryRequest::decode(&request(1).encode()),
            Err(CspError::Corrupt { .. })
        ));
        let bytes = req.encode();
        for len in 0..bytes.len() {
            assert!(matches!(
                TelemetryRequest::decode(&bytes[..len]),
                Err(CspError::Corrupt { .. })
            ));
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            TelemetryRequest::decode(&long),
            Err(CspError::Corrupt { .. })
        ));
    }

    #[test]
    fn telemetry_response_round_trips() {
        let resp = TelemetryResponse {
            id: 5,
            result: Ok(sample_snapshot()),
        };
        assert_eq!(TelemetryResponse::decode(&resp.encode()).unwrap(), resp);

        let err_resp = TelemetryResponse {
            id: 6,
            result: Err(CspError::Overloaded {
                what: "draining".to_string(),
            }),
        };
        let back = TelemetryResponse::decode(&err_resp.encode()).unwrap();
        assert_eq!(back.id, 6);
        assert!(matches!(back.result, Err(CspError::Overloaded { .. })));
    }

    #[test]
    fn telemetry_response_rejects_truncation_and_corruption() {
        let bytes = TelemetryResponse {
            id: 5,
            result: Ok(sample_snapshot()),
        }
        .encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(
                    TelemetryResponse::decode(&bytes[..len]),
                    Err(CspError::Corrupt { .. })
                ),
                "truncation to {len} bytes must be a typed Corrupt"
            );
        }
        // Past the status byte and echoed id (which carry no integrity of
        // their own), every bit flip lands in the blob length field or the
        // CRC-protected snapshot blob and must be rejected.
        for pos in 9..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(
                    TelemetryResponse::decode(&bad),
                    Err(CspError::Corrupt { .. })
                ),
                "bit flip at byte {pos} must be a typed Corrupt"
            );
        }
    }

    #[test]
    fn any_request_dispatches_on_opcode() {
        // The retired v1 infer opcode is an unknown opcode.
        let mut v1 = request(3).encode();
        v1[0] = 1;
        assert!(matches!(
            AnyRequest::decode(&v1),
            Err(CspError::Corrupt { .. })
        ));
        let telem = TelemetryRequest { id: 4 };
        assert_eq!(
            AnyRequest::decode(&telem.encode()).unwrap(),
            AnyRequest::Telemetry(telem)
        );
        assert!(matches!(
            AnyRequest::decode(&[7, 1, 2]),
            Err(CspError::Corrupt { .. })
        ));
        assert!(matches!(
            AnyRequest::decode(&[]),
            Err(CspError::Corrupt { .. })
        ));
    }

    #[test]
    fn v2_request_round_trips_and_dispatches() {
        let req = RequestV2 {
            token: 0xDEAD_BEEF,
            id: 42,
            attempt: 3,
            model: "alexnet".to_string(),
            deadline_us: 1500,
            input: Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.0], &[1, 2, 2]).unwrap(),
        };
        assert_eq!(RequestV2::decode(&req.encode()).unwrap(), req);
        assert_eq!(
            AnyRequest::decode(&req.encode()).unwrap(),
            AnyRequest::InferV2(req)
        );
    }

    #[test]
    fn v2_response_crc_catches_every_bit_flip() {
        let resp = Response {
            id: 7,
            result: Ok(InferReply {
                output: vec![0.25, -1.0, 9.0],
                model_version: 3,
                batch_size: 4,
            }),
        };
        let bytes = resp.encode_v2();
        assert_eq!(Response::decode_v2(&bytes).unwrap(), resp);
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    matches!(Response::decode_v2(&bad), Err(CspError::Corrupt { .. })),
                    "bit {bit} of byte {pos} flipped: must be a typed Corrupt"
                );
            }
        }
    }

    #[test]
    fn expired_and_internal_statuses_round_trip_typed() {
        for (err, status) in [
            (
                CspError::Expired {
                    what: "2.0 ms past deadline in queue".to_string(),
                },
                STATUS_EXPIRED,
            ),
            (
                CspError::Internal {
                    what: "worker panic: chaos".to_string(),
                },
                STATUS_INTERNAL,
            ),
        ] {
            let resp = Response {
                id: 9,
                result: Err(err.clone()),
            };
            let bytes = resp.encode_v2();
            assert_eq!(bytes[0], status);
            let back = Response::decode_v2(&bytes).unwrap();
            assert_eq!(back.result.unwrap_err(), err, "no prefix doubling");
        }
    }

    #[test]
    fn health_round_trips() {
        for state in [
            HealthState::Ready,
            HealthState::Degraded,
            HealthState::Draining,
        ] {
            let resp = HealthResponse {
                id: 11,
                result: Ok(HealthReport {
                    state,
                    queue_depth: 17,
                    workers: 4,
                    restarts: 2,
                    panics: 2,
                }),
            };
            assert_eq!(HealthResponse::decode(&resp.encode()).unwrap(), resp);
        }
        let req = HealthRequest { id: 11 };
        assert_eq!(
            AnyRequest::decode(&req.encode()).unwrap(),
            AnyRequest::Health(req)
        );
        // Unknown state byte is typed corruption.
        let mut bytes = HealthResponse {
            id: 1,
            result: Ok(HealthReport {
                state: HealthState::Ready,
                queue_depth: 0,
                workers: 1,
                restarts: 0,
                panics: 0,
            }),
        }
        .encode();
        bytes[9] = 9;
        assert!(matches!(
            HealthResponse::decode(&bytes),
            Err(CspError::Corrupt { .. })
        ));
    }

    #[test]
    fn draining_payload_is_typed_for_both_decoders() {
        let payload = draining_payload("drain deadline exceeded");
        for resp in [
            Response::decode(&payload).unwrap(),
            Response::decode_v2(&payload).unwrap(),
        ] {
            assert_eq!(resp.id, 0);
            assert!(
                matches!(resp.result, Err(CspError::Overloaded { ref what })
                    if what.contains("drain")),
                "draining must surface as typed Overloaded"
            );
        }
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        // A hostile length prefix is refused before allocation.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CspError::Corrupt { .. })
        ));

        // Mid-frame EOF is an Io error, not a hang or panic.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(CspError::Io { .. })));
    }
}
