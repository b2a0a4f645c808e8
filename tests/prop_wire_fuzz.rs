//! Wire-protocol fuzz suite: arbitrary bytes, truncated frames, mutated
//! valid frames, and oversized length prefixes fed to the server-side
//! decoder must **never** panic or hang it — every input ends in a typed
//! error reply or a clean connection close.
//!
//! Two layers are fuzzed:
//!
//! 1. the pure decoders (`AnyRequest`, `RequestV2`, and the response
//!    decoders a hostile server could feed a client), which must be total
//!    functions over `&[u8]`;
//! 2. a live sharded event-loop server, which must answer or close on
//!    every hostile connection — and still serve well-formed requests
//!    afterwards.

use csp_serve::protocol::{
    AnyRequest, HealthResponse, RequestV2, Response, TelemetryResponse, MAX_FRAME,
};
use csp_serve::testutil::{prune_to_artifact, request_sample};
use csp_serve::{
    BatchPolicy, ModelSpec, ResilientClient, RetryPolicy, ShardPolicy, ShardedEngine, ShardedServer,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// If the server neither replies nor closes within this long, it hangs.
const HANG_GUARD: Duration = Duration::from_secs(10);

/// A valid inference frame payload.
fn valid_v2(spec: ModelSpec, id: u64) -> Vec<u8> {
    RequestV2 {
        token: id + 1,
        id,
        attempt: 0,
        model: "m".to_string(),
        deadline_us: 0,
        input: request_sample(spec, id),
    }
    .encode()
}

/// The fuzz target: one sharded engine + event-loop server shared by
/// every live-TCP case (leaked so it outlives the test process).
fn fuzz_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let spec = ModelSpec::default();
        let engine = ShardedEngine::start(ShardPolicy {
            shards: 2,
            workers: 1,
            batch: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                queue_cap: 64,
            },
            replicas: 16,
        })
        .expect("engine");
        engine
            .deploy("m", spec, &prune_to_artifact(spec, 0.8))
            .expect("deploy");
        let server = ShardedServer::serve(engine.client(), "127.0.0.1:0", 2).expect("server");
        let addr = server.addr();
        Box::leak(Box::new(server));
        Box::leak(Box::new(engine));
        addr
    })
}

/// What one hostile connection ended in.
#[derive(Debug)]
enum Outcome {
    /// The server closed without sending a byte.
    Closed,
    /// The server replied with these raw bytes before closing.
    Replied(Vec<u8>),
}

/// Write `raw` (already framed) to the fuzz server, half-close, and
/// collect everything the server sends until it closes. A read timeout
/// converts a hung server into a test failure instead of a stuck suite.
fn exchange(raw: &[u8]) -> Outcome {
    let mut s = TcpStream::connect(fuzz_server()).expect("connect");
    s.set_read_timeout(Some(HANG_GUARD)).expect("timeout");
    s.write_all(raw).expect("write");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut buf = Vec::new();
    match s.read_to_end(&mut buf) {
        Ok(_) => {}
        Err(e) => panic!("server hung or reset instead of replying/closing: {e}"),
    }
    if buf.is_empty() {
        Outcome::Closed
    } else {
        Outcome::Replied(buf)
    }
}

/// Every reply the server sends must be a whole, well-framed protocol
/// response (length prefix consistent, every frame decodable as *some*
/// response type).
fn assert_well_framed(mut bytes: &[u8]) {
    let mut frames = 0;
    while !bytes.is_empty() {
        assert!(
            bytes.len() >= 4,
            "dangling {}-byte frame fragment",
            bytes.len()
        );
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert!(len <= MAX_FRAME, "server sent an oversized frame");
        assert!(
            bytes.len() >= 4 + len,
            "frame claims {len} bytes but only {} remain",
            bytes.len() - 4
        );
        let payload = &bytes[4..4 + len];
        let decodable = Response::decode(payload).is_ok()
            || Response::decode_v2(payload).is_ok()
            || HealthResponse::decode(payload).is_ok()
            || TelemetryResponse::decode(payload).is_ok();
        assert!(decodable, "reply frame decodes as no known response type");
        bytes = &bytes[4 + len..];
        frames += 1;
    }
    assert!(frames >= 1);
}

/// After every hostile exchange the server must still serve a
/// well-formed request on a fresh connection.
fn assert_still_serving() {
    assert!(one_shot().health().expect("health after fuzz").workers > 0);
}

fn one_shot() -> ResilientClient {
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    ResilientClient::connect(&fuzz_server(), policy).expect("connect")
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The request decoders are total over arbitrary bytes: they return
    /// `Ok` or a typed error, never panic.
    #[test]
    fn request_decoders_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = AnyRequest::decode(&bytes);
        let _ = RequestV2::decode(&bytes);
    }

    /// The response decoders (the client side of the wire) are equally
    /// total — a hostile *server* cannot panic a client either.
    #[test]
    fn response_decoders_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = Response::decode(&bytes);
        let _ = Response::decode_v2(&bytes);
        let _ = HealthResponse::decode(&bytes);
        let _ = TelemetryResponse::decode(&bytes);
    }

    /// Truncating a valid request payload anywhere yields a typed error
    /// from the decoder — never a panic, never an `Ok`.
    #[test]
    fn truncated_valid_requests_decode_to_typed_errors(
        id in 0u64..50,
        cut_frac in 0.0f64..1.0,
    ) {
        let payload = valid_v2(ModelSpec::default(), id);
        let cut = ((payload.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < payload.len());
        prop_assert!(AnyRequest::decode(&payload[..cut]).is_err());
    }

    /// Flipping any single byte of a valid request payload never panics
    /// the decoder; it either still decodes (the flip hit a don't-care
    /// bit of the tensor) or fails typed.
    #[test]
    fn mutated_valid_requests_never_panic(
        id in 0u64..50,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut payload = valid_v2(ModelSpec::default(), id);
        let pos = ((payload.len() as f64) * pos_frac) as usize % payload.len();
        payload[pos] ^= flip;
        let _ = AnyRequest::decode(&payload);
    }
}

proptest! {
    // Live-TCP cases are slower (one connection each); keep the count
    // modest — every case still exercises connect → hostile bytes →
    // reply-or-close → server-still-alive.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary framed garbage at the live server: typed error reply or
    /// clean close, never a hang, and the server keeps serving.
    #[test]
    fn live_server_survives_garbage_frames(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        match exchange(&frame(&bytes)) {
            Outcome::Closed => {}
            Outcome::Replied(reply) => assert_well_framed(&reply),
        }
        assert_still_serving();
    }

    /// A truncated valid frame (half-closed mid-frame) must end in a
    /// clean close — the frame never completes, so no reply is owed.
    #[test]
    fn live_server_survives_truncated_frames(
        id in 0u64..50,
        cut_frac in 0.0f64..1.0,
    ) {
        let payload = valid_v2(ModelSpec::default(), id);
        let framed = frame(&payload);
        let cut = 1 + (((framed.len() - 1) as f64) * cut_frac) as usize;
        prop_assume!(cut < framed.len());
        match exchange(&framed[..cut]) {
            Outcome::Closed => {}
            // A cut landing on a frame boundary after the length prefix
            // can still look like garbage-with-a-valid-prefix; a typed
            // error reply is equally acceptable.
            Outcome::Replied(reply) => assert_well_framed(&reply),
        }
        assert_still_serving();
    }

    /// A mutated (single byte flipped) valid frame: reply or clean close,
    /// never a hang or panic, server stays up.
    #[test]
    fn live_server_survives_mutated_frames(
        id in 0u64..50,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let payload = valid_v2(ModelSpec::default(), id);
        let mut framed = frame(&payload);
        // Mutate the payload, not the length prefix: prefix mutations are
        // covered by the oversized/truncated cases (a bigger claimed
        // length is just "wait for bytes that never come" → clean close).
        let pos = 4 + ((payload.len() as f64) * pos_frac) as usize % payload.len();
        framed[pos] ^= flip;
        match exchange(&framed) {
            Outcome::Closed => {}
            Outcome::Replied(reply) => assert_well_framed(&reply),
        }
        assert_still_serving();
    }
}

/// An oversized length prefix is answered with a typed `Corrupt` error
/// and the connection closes — the stream cannot be resynchronized.
#[test]
fn oversized_length_prefix_gets_typed_error_then_close() {
    let raw = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
    match exchange(&raw) {
        Outcome::Closed => panic!("server closed without the typed error reply"),
        Outcome::Replied(reply) => {
            assert_well_framed(&reply);
            let len = u32::from_le_bytes([reply[0], reply[1], reply[2], reply[3]]) as usize;
            let resp = Response::decode(&reply[4..4 + len]).expect("typed error reply");
            assert_eq!(resp.id, 0);
            assert!(matches!(
                resp.result,
                Err(csp_tensor::CspError::Corrupt { .. })
            ));
        }
    }
    assert_still_serving();
}

/// A bad opcode with an otherwise plausible body: typed error, close,
/// still serving.
#[test]
fn bad_opcode_gets_typed_error_then_close() {
    for opcode in [0u8, 5, 9, 77, 255] {
        let mut payload = valid_v2(ModelSpec::default(), 1);
        payload[0] = opcode;
        match exchange(&frame(&payload)) {
            Outcome::Closed => {}
            Outcome::Replied(reply) => assert_well_framed(&reply),
        }
    }
    assert_still_serving();
}

/// A well-formed frame of the retired v1 infer request (opcode 1: id,
/// model, deadline, input — no token, no attempt) is an unknown opcode:
/// exactly one typed `Corrupt` reply with id 0, then a clean close, and
/// the server keeps serving.
#[test]
fn retired_v1_infer_gets_typed_corrupt_then_close() {
    let mut w = csp_io::wire::Writer::new();
    w.put_u8(1);
    w.put_u64(7);
    w.put_str("m");
    w.put_u64(0);
    w.put_tensor(&request_sample(ModelSpec::default(), 7));
    match exchange(&frame(&w.into_bytes())) {
        Outcome::Closed => panic!("server closed without the typed error reply"),
        Outcome::Replied(reply) => {
            let len = u32::from_le_bytes([reply[0], reply[1], reply[2], reply[3]]) as usize;
            assert_eq!(reply.len(), 4 + len, "one reply frame, then close");
            let resp = Response::decode(&reply[4..]).expect("typed error reply");
            assert_eq!(resp.id, 0);
            assert!(matches!(
                resp.result,
                Err(csp_tensor::CspError::Corrupt { .. })
            ));
        }
    }
    assert_still_serving();
}

/// After all the hostility, a full inference round-trip still works for
/// a one-shot (token 0, spread over shards) and a retrying
/// (token-pinned) client — the fuzz server never degraded.
#[test]
fn fuzz_server_still_infers_after_hostile_input() {
    let x = request_sample(ModelSpec::default(), 9);
    let spread = one_shot().infer("m", &x, None).expect("one-shot infer");
    let policy = RetryPolicy {
        seed: 42,
        ..RetryPolicy::default()
    };
    let pinned = ResilientClient::connect(&fuzz_server(), policy)
        .expect("connect")
        .infer("m", &x, None)
        .expect("retrying infer");
    assert_eq!(
        spread.output, pinned.output,
        "routing must not show in the bits"
    );
}
