//! The TCP front-end: a nonblocking, sharded event loop.
//!
//! [`ShardedServer`] is a hand-rolled readiness loop over nonblocking
//! sockets (deps are vendored, so no epoll binding): one acceptor thread
//! hands connections round-robin to N IO shards, and each IO shard
//! multiplexes all of its connections on a single thread — read what's
//! readable, decode complete frames, dispatch through
//! [`ShardClient::submit_nowait`], poll the pending replies, and flush
//! what's writable. No call in the loop ever parks on one connection's
//! progress, so thousands of connections share a few threads.
//!
//! ## Wire format
//!
//! The framing and opcodes are exactly [`crate::protocol`]'s, spoken by
//! [`ResilientClient`](crate::ResilientClient). Requests may be
//! pipelined: because they dispatch without blocking the loop, a client
//! may write several frames before reading replies, and replies return
//! in completion order carrying the request ids.
//!
//! ## Deadline propagation
//!
//! A request's `deadline_us` travels with it end to end: admission sheds
//! it when it arrives already expired, batch formation sheds it when it
//! expires queued, and both return the typed `Expired` error over the
//! wire instead of executing late work.
//!
//! ## Shutdown
//!
//! [`ShardedServer::shutdown`] stops accepting, serves everything already
//! read until the drain deadline, then force-closes stragglers with a
//! typed `Draining` reply and reports how many needed force-closing.
//!
//! ## Chaos
//!
//! With a [`ChaosSession`] attached, every outbound reply draws three
//! seeded wire faults: connection drop (reply never written), frame
//! truncation (partial write, then close), and reply corruption (one bit
//! flipped, which the v2 response CRC turns into a typed `Corrupt` on the
//! client). Each fired fault ticks its `serve.chaos.*` counter.

use crate::chaos::ChaosSession;
use crate::protocol::{
    draining_payload, sock_err, write_frame, AnyRequest, HealthResponse, Response,
    TelemetryResponse, MAX_FRAME,
};
use crate::shard::ShardClient;
use csp_sim::FaultClass;
use csp_telemetry::names;
use csp_tensor::{CspError, CspResult};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an IO shard sleeps when a full pass over its connections made
/// no progress (nothing readable, writable, or completed).
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Read chunk size per `read` syscall.
const READ_CHUNK: usize = 16 * 1024;

/// At most this many chunks are read from one connection per loop pass,
/// so one firehose client cannot starve its shard's other connections.
const READS_PER_PASS: usize = 8;

/// One pending inference dispatched to the engine, awaiting its reply.
struct Inflight {
    id: u64,
    pending: crate::engine::PendingReply,
}

/// One multiplexed connection's state inside an IO shard.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    woff: usize,
    inflight: Vec<Inflight>,
    /// Stop reading; close once replies are flushed (protocol error or
    /// injected truncation).
    closing: bool,
    /// Peer closed its write side; serve what was read, then close.
    eof: bool,
    /// Drop immediately, discarding any unflushed output.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            woff: 0,
            inflight: Vec::new(),
            closing: false,
            eof: false,
            dead: false,
        }
    }

    fn output_drained(&self) -> bool {
        self.woff == self.wbuf.len()
    }

    fn finished(&self) -> bool {
        self.dead
            || ((self.closing || self.eof) && self.inflight.is_empty() && self.output_drained())
    }
}

/// The nonblocking, sharded TCP front-end serving a
/// [`ShardedEngine`](crate::ShardedEngine) through its [`ShardClient`].
#[derive(Debug)]
pub struct ShardedServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    deadline: Arc<Mutex<Option<Instant>>>,
    forced: Arc<AtomicUsize>,
    accept: Option<JoinHandle<()>>,
    io: Vec<JoinHandle<()>>,
}

impl ShardedServer {
    /// Bind `addr` and serve `client` with `io_shards` event-loop
    /// threads.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Io`] when the bind fails and
    /// [`CspError::Config`] for zero IO shards.
    pub fn serve(client: ShardClient, addr: &str, io_shards: usize) -> CspResult<ShardedServer> {
        ShardedServer::serve_with_chaos(client, addr, io_shards, None)
    }

    /// Like [`serve`](ShardedServer::serve), injecting seeded wire-level
    /// faults from `chaos` into outbound replies (drop / truncate /
    /// corrupt, see the module docs).
    ///
    /// # Errors
    ///
    /// As [`serve`](ShardedServer::serve).
    pub fn serve_with_chaos(
        client: ShardClient,
        addr: &str,
        io_shards: usize,
        chaos: Option<Arc<ChaosSession>>,
    ) -> CspResult<ShardedServer> {
        if io_shards == 0 {
            return Err(CspError::Config {
                what: "sharded server needs at least one IO shard".to_string(),
            });
        }
        let listener =
            TcpListener::bind(addr).map_err(|e| sock_err(format!("bind {addr} failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| sock_err(format!("set_nonblocking failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| sock_err(format!("local_addr failed: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let deadline = Arc::new(Mutex::new(None));
        let forced = Arc::new(AtomicUsize::new(0));
        let mut txs: Vec<Sender<TcpStream>> = Vec::with_capacity(io_shards);
        let mut io = Vec::with_capacity(io_shards);
        for shard in 0..io_shards {
            let (tx, rx) = channel();
            txs.push(tx);
            let client = client.clone();
            let stop = Arc::clone(&stop);
            let deadline = Arc::clone(&deadline);
            let forced = Arc::clone(&forced);
            let chaos = chaos.clone();
            io.push(
                std::thread::Builder::new()
                    .name(format!("csp-serve-io{shard}"))
                    .spawn(move || io_loop(&rx, &client, shard, &stop, &deadline, &forced, chaos))
                    .map_err(|e| sock_err(format!("spawn io shard failed: {e}")))?,
            );
        }
        let accept = {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("csp-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &client, &txs, &stop))
                .map_err(|e| sock_err(format!("spawn accept thread failed: {e}")))?
        };
        Ok(ShardedServer {
            addr: local,
            stop,
            deadline,
            forced,
            accept: Some(accept),
            io,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bounded graceful shutdown: stop accepting, serve every request
    /// already read until `drain` elapses, then force-close stragglers
    /// with a typed `Draining` reply. Returns how many connections were
    /// force-closed (0 = fully graceful).
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Io`] when a server thread panicked.
    pub fn shutdown(mut self, drain: Duration) -> CspResult<usize> {
        *self.deadline.lock().expect("drain deadline lock") = Some(Instant::now() + drain);
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            h.join()
                .map_err(|_| sock_err("accept thread panicked".to_string()))?;
        }
        for h in self.io.drain(..) {
            h.join()
                .map_err(|_| sock_err("io shard thread panicked".to_string()))?;
        }
        Ok(self.forced.load(Ordering::SeqCst))
    }
}

impl Drop for ShardedServer {
    fn drop(&mut self) {
        // Shutdown-less drop: close everything now (zero drain).
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.io.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    client: &ShardClient,
    txs: &[Sender<TcpStream>],
    stop: &AtomicBool,
) {
    let mut next = 0usize;
    loop {
        if stop.load(Ordering::SeqCst) {
            return; // dropping txs tells every IO shard intake is over
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let shard = next % txs.len();
                next = next.wrapping_add(1);
                client.record_io(names::SERVE_SHARD_CONNECTIONS, shard);
                let _ = txs[shard].send(stream);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

#[allow(clippy::too_many_lines)]
fn io_loop(
    rx: &Receiver<TcpStream>,
    client: &ShardClient,
    shard: usize,
    stop: &AtomicBool,
    deadline: &Mutex<Option<Instant>>,
    forced: &AtomicUsize,
    chaos: Option<Arc<ChaosSession>>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut intake_open = true;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let mut progress = false;
        // Intake: adopt connections the acceptor handed over.
        while intake_open {
            match rx.try_recv() {
                Ok(stream) => {
                    conns.push(Conn::new(stream));
                    progress = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    intake_open = false;
                }
            }
        }
        for c in &mut conns {
            if step_conn(c, client, shard, stopping, chaos.as_deref()) || c.finished() {
                progress = true;
            }
        }
        conns.retain_mut(|c| {
            if c.finished() {
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
                false
            } else {
                true
            }
        });
        if stopping {
            let drain_until = deadline
                .lock()
                .expect("drain deadline lock")
                .unwrap_or_else(Instant::now);
            if conns.is_empty() && !intake_open {
                return;
            }
            if Instant::now() >= drain_until {
                // Drain deadline passed: force-close everything left,
                // including connections still queued in the intake
                // channel.
                while let Ok(stream) = rx.try_recv() {
                    conns.push(Conn::new(stream));
                }
                for c in &mut conns {
                    let _ = write_frame(
                        &mut c.stream,
                        &draining_payload("connection force-closed at the server's drain deadline"),
                    );
                    let _ = c.stream.shutdown(std::net::Shutdown::Both);
                    forced.fetch_add(1, Ordering::SeqCst);
                }
                return;
            }
        }
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// One readiness pass over a single connection: read, decode, dispatch,
/// poll replies, flush. Never blocks. Returns whether any progress was
/// made (bytes moved or a reply completed), so the shard knows when to
/// idle-sleep.
fn step_conn(
    c: &mut Conn,
    client: &ShardClient,
    shard: usize,
    stopping: bool,
    chaos: Option<&ChaosSession>,
) -> bool {
    let mut progress = false;
    // 1. Read what the socket has (bounded per pass). When draining we
    //    still read — but only to notice disconnects: bytes arriving
    //    after the stop are discarded, so requests already buffered get
    //    served and later ones meet the drain deadline.
    if !c.closing && !c.dead && !c.eof {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..READS_PER_PASS {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    c.eof = true;
                    progress = true;
                    break;
                }
                Ok(n) => {
                    if !stopping {
                        c.rbuf.extend_from_slice(&chunk[..n]);
                    }
                    progress = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    c.dead = true;
                    return true;
                }
            }
        }
    }
    // 2. Decode complete frames and dispatch them.
    while !c.closing && !c.dead {
        let Some(payload) = next_frame(c, client, shard, chaos) else {
            break;
        };
        client.record_io(names::SERVE_SHARD_FRAMES, shard);
        dispatch(c, client, shard, payload, chaos);
        progress = true;
    }
    // 3. Poll in-flight replies; completed ones are encoded and queued.
    let mut i = 0;
    while i < c.inflight.len() && !c.dead && !c.closing {
        match c.inflight[i].pending.try_take() {
            Some(result) => {
                let id = c.inflight.remove(i).id;
                enqueue_reply(c, client, Response { id, result }.encode_v2(), chaos);
                progress = true;
            }
            None => i += 1,
        }
    }
    // 4. Flush what the socket will take.
    while c.woff < c.wbuf.len() && !c.dead {
        match c.stream.write(&c.wbuf[c.woff..]) {
            Ok(0) => {
                c.dead = true;
            }
            Ok(n) => {
                c.woff += n;
                progress = true;
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
            }
        }
    }
    if c.output_drained() && c.woff > 0 {
        c.wbuf.clear();
        c.woff = 0;
    }
    progress
}

/// Pop the next complete frame out of the read buffer, or `None` when no
/// complete frame is buffered. An oversized length prefix answers with a
/// typed error and closes: the stream cannot be resynchronized.
fn next_frame(
    c: &mut Conn,
    client: &ShardClient,
    shard: usize,
    chaos: Option<&ChaosSession>,
) -> Option<Vec<u8>> {
    if c.rbuf.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes([c.rbuf[0], c.rbuf[1], c.rbuf[2], c.rbuf[3]]) as usize;
    if len > MAX_FRAME {
        // `Corrupt` survives the wire round-trip (`Io` would decode as
        // `Internal`), and a lying length prefix is corruption.
        let err = CspError::Corrupt {
            artifact: "serve-frame".to_string(),
            what: format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        };
        reject(c, client, shard, err, chaos);
        return None;
    }
    if c.rbuf.len() < 4 + len {
        return None;
    }
    let payload = c.rbuf[4..4 + len].to_vec();
    c.rbuf.drain(..4 + len);
    Some(payload)
}

fn dispatch(
    c: &mut Conn,
    client: &ShardClient,
    shard: usize,
    payload: Vec<u8>,
    chaos: Option<&ChaosSession>,
) {
    match AnyRequest::decode(&payload) {
        Ok(AnyRequest::InferV2(req)) => {
            let deadline = (req.deadline_us > 0).then(|| Duration::from_micros(req.deadline_us));
            match client.submit_nowait(&req.model, &req.input, deadline, req.token, req.id) {
                Ok(pending) => c.inflight.push(Inflight {
                    id: req.id,
                    pending,
                }),
                Err(e) => {
                    let resp = Response {
                        id: req.id,
                        result: Err(e),
                    };
                    enqueue_reply(c, client, resp.encode_v2(), chaos);
                }
            }
        }
        Ok(AnyRequest::Telemetry(req)) => {
            let resp = TelemetryResponse {
                id: req.id,
                result: Ok(client.telemetry_snapshot()),
            };
            enqueue_reply(c, client, resp.encode(), chaos);
        }
        Ok(AnyRequest::Health(req)) => {
            let resp = HealthResponse {
                id: req.id,
                result: Ok(client.health()),
            };
            enqueue_reply(c, client, resp.encode(), chaos);
        }
        Err(e) => reject(c, client, shard, e, chaos),
    }
}

/// Answer a frame that cannot be trusted with a typed error and close:
/// the id is 0 (it lives inside the bytes we could not trust), the reply
/// is a bare body (no CRC), and the stream may be desynchronized.
fn reject(
    c: &mut Conn,
    client: &ShardClient,
    shard: usize,
    err: CspError,
    chaos: Option<&ChaosSession>,
) {
    client.record_io(names::SERVE_SHARD_PROTOCOL_ERRORS, shard);
    let resp = Response {
        id: 0,
        result: Err(err),
    };
    enqueue_reply(c, client, resp.encode(), chaos);
    c.closing = true;
}

/// Frame `payload` into the connection's write buffer, applying seeded
/// wire-level chaos: drop the connection, truncate the frame mid-write
/// (then close), or flip a bit in the payload.
fn enqueue_reply(
    c: &mut Conn,
    client: &ShardClient,
    mut payload: Vec<u8>,
    chaos: Option<&ChaosSession>,
) {
    if let Some(chaos) = chaos {
        if chaos.fires(FaultClass::ConnDrop) {
            client.record_chaos(names::SERVE_CHAOS_CONN_DROPS);
            c.dead = true;
            return;
        }
        if let Some(cut) = chaos.truncate(FaultClass::FrameTruncate, payload.len() + 4) {
            client.record_chaos(names::SERVE_CHAOS_TRUNCATIONS);
            let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&payload);
            framed.truncate(cut);
            c.wbuf.extend_from_slice(&framed);
            // The stream is now desynchronized from the peer's point of
            // view; abandon other in-flight replies and close once the
            // cut frame flushes.
            c.inflight.clear();
            c.closing = true;
            return;
        }
        if chaos
            .strike(FaultClass::ReplyCorrupt, &mut payload)
            .is_some()
        {
            client.record_chaos(names::SERVE_CHAOS_CORRUPTIONS);
        }
    }
    c.wbuf
        .extend_from_slice(&(payload.len() as u32).to_le_bytes());
    c.wbuf.extend_from_slice(&payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, RequestV2};
    use crate::retry::{ResilientClient, RetryPolicy};
    use crate::testutil::{sample_input, serve_sharded};
    use crate::HealthState;
    use csp_sim::FaultPlan;
    use csp_tensor::Tensor;

    const DRAIN: Duration = Duration::from_secs(5);

    const ONE_SHOT: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base: Duration::ZERO,
        cap: Duration::ZERO,
        seed: 0,
    };

    const RETRYING: RetryPolicy = RetryPolicy {
        max_attempts: 16,
        base: Duration::from_micros(100),
        cap: Duration::from_millis(5),
        seed: 1,
    };

    fn one_shot(server: &ShardedServer) -> ResilientClient {
        ResilientClient::connect(&server.addr(), ONE_SHOT).unwrap()
    }

    fn chaos(class: FaultClass, rate: f64, seed: u64) -> Option<FaultPlan> {
        Some(FaultPlan::bernoulli(rate, seed).with_classes(&[class]))
    }

    fn infer_frame(x: &Tensor, token: u64, id: u64) -> Vec<u8> {
        RequestV2 {
            token,
            id,
            attempt: 0,
            model: "m".to_string(),
            deadline_us: 0,
            input: x.clone(),
        }
        .encode()
    }

    #[test]
    fn tcp_round_trip_matches_in_process() {
        let (engine, server, spec) = serve_sharded(None);
        let mut tcp = one_shot(&server);
        let x = sample_input(spec, 11, 1);
        let remote = tcp.infer("m", &x, None).unwrap();
        let local = engine.client().infer("m", &x, None).unwrap();
        assert_eq!(remote.output, local.output, "wire adds no numeric drift");
        assert_eq!(remote.model_version, local.model_version);
        drop(tcp);
        assert_eq!(server.shutdown(DRAIN).unwrap(), 0, "drain was graceful");
        engine.shutdown().unwrap();
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        let (engine, server, spec) = serve_sharded(None);
        let mut tcp = one_shot(&server);
        let x = sample_input(spec, 11, 1);
        assert!(matches!(
            tcp.infer("ghost", &x, None),
            Err(CspError::Config { .. })
        ));
        // The connection survives a well-formed but invalid request.
        assert!(tcp.infer("m", &x, None).is_ok());
        assert_eq!(tcp.reconnects(), 0);
        drop(tcp);
        server.shutdown(DRAIN).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn telemetry_op_returns_live_counters_over_tcp() {
        let (engine, server, spec) = serve_sharded(None);
        let mut tcp = one_shot(&server);
        let x = sample_input(spec, 11, 1);
        tcp.infer("m", &x, None).unwrap();
        tcp.infer("m", &x, None).unwrap();
        let snap = tcp.telemetry().unwrap();
        assert_eq!(snap.counter("serve.admitted", "m"), 2);
        assert_eq!(snap.counter("serve.completed", "m"), 2);
        let lat = snap
            .histogram("serve.latency_us", "m")
            .expect("latency histogram present");
        assert_eq!(lat.total(), 2);
        // The same connection keeps serving inferences after a telemetry op.
        tcp.infer("m", &x, None).unwrap();
        assert_eq!(tcp.telemetry().unwrap().counter("serve.completed", "m"), 3);
        assert_eq!(tcp.reconnects(), 0);
        drop(tcp);
        server.shutdown(DRAIN).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn shutdown_drains_cleanly() {
        let (engine, server, spec) = serve_sharded(None);
        let addr = server.addr();
        let x = sample_input(spec, 3, 1);
        let mut tcp = one_shot(&server);
        assert!(tcp.infer("m", &x, None).is_ok());
        drop(tcp);
        assert_eq!(server.shutdown(DRAIN).unwrap(), 0, "drain was graceful");
        // After shutdown the port no longer answers the protocol.
        if let Ok(mut late) = ResilientClient::connect(&addr, ONE_SHOT) {
            assert!(late.infer("m", &x, None).is_err());
        }
        engine.shutdown().unwrap();
    }

    #[test]
    fn serves_one_shot_and_retrying_clients_over_the_event_loop() {
        let (engine, server, spec) = serve_sharded(None);
        let x = sample_input(spec, 11, 1);
        let reference = engine.client().infer("m", &x, None).unwrap();
        // A one-shot client sends token 0; a retrying one pins a token.
        let mut once = one_shot(&server);
        let mut retrying = ResilientClient::connect(&server.addr(), RETRYING).unwrap();
        assert_eq!(once.infer("m", &x, None).unwrap().output, reference.output);
        assert_eq!(
            retrying.infer("m", &x, None).unwrap().output,
            reference.output
        );
        assert_eq!(once.health().unwrap().workers, 2);
        let snap = retrying.telemetry().unwrap();
        assert_eq!(snap.counter("serve.shard.connections", "io0"), 1);
        assert_eq!(snap.counter("serve.shard.connections", "io1"), 1);
        assert_eq!(
            snap.counter("serve.shard.frames", "io0") + snap.counter("serve.shard.frames", "io1"),
            4
        );
        drop((once, retrying));
        assert_eq!(server.shutdown(DRAIN).unwrap(), 0);
        engine.shutdown().unwrap();
    }

    #[test]
    fn v2_infer_dedups_and_health_reports_over_the_wire() {
        let (engine, server, spec) = serve_sharded(None);
        let x = sample_input(spec, 11, 1);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut send = |frame: &[u8]| {
            write_frame(&mut stream, frame).unwrap();
            Response::decode_v2(&read_frame(&mut stream).unwrap().unwrap()).unwrap()
        };
        let first = send(&infer_frame(&x, 77, 1));
        // A retry of the same (token, id) is answered from the reply
        // cache: identical bits, no second execution.
        let retry = send(&infer_frame(&x, 77, 1));
        assert_eq!(first, retry, "retry is bit-identical");
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("serve.completed", "m"), 1);
        assert_eq!(snap.counter("serve.dedup_hits", "m"), 1);
        let health = one_shot(&server).health().unwrap();
        assert_eq!(health.state, HealthState::Ready);
        assert_eq!(health.workers, 2);
        drop(stream);
        server.shutdown(DRAIN).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn chaos_conn_drop_is_a_typed_transport_error() {
        let (engine, server, spec) = serve_sharded(chaos(FaultClass::ConnDrop, 1.0, 5));
        let x = sample_input(spec, 11, 1);
        assert!(matches!(
            one_shot(&server).infer("m", &x, None),
            Err(CspError::Io { .. })
        ));
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter(names::SERVE_CHAOS_CONN_DROPS, "engine"), 1);
        server.shutdown(DRAIN).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn chaos_frame_truncation_is_a_typed_transport_error_then_close() {
        let (engine, server, spec) = serve_sharded(chaos(FaultClass::FrameTruncate, 1.0, 7));
        let x = sample_input(spec, 11, 1);
        assert!(matches!(
            one_shot(&server).infer("m", &x, None),
            Err(CspError::Io { .. })
        ));
        // On a raw socket: part of a frame, then a clean close.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &infer_frame(&x, 0, 1)).unwrap();
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        assert!(!got.is_empty(), "the cut frame is partly written");
        assert!(matches!(
            read_frame(&mut got.as_slice()),
            Err(CspError::Io { .. })
        ));
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter(names::SERVE_CHAOS_TRUNCATIONS, "engine"), 2);
        server.shutdown(DRAIN).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn chaos_reply_corruption_is_caught_by_the_v2_crc() {
        let (engine, server, spec) = serve_sharded(chaos(FaultClass::ReplyCorrupt, 1.0, 6));
        let x = sample_input(spec, 11, 1);
        // Every reply has one bit flipped; the CRC turns that into a
        // typed transport error instead of silently wrong logits.
        assert!(matches!(
            one_shot(&server).infer("m", &x, None),
            Err(CspError::Corrupt { .. })
        ));
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter(names::SERVE_CHAOS_CORRUPTIONS, "engine"), 1);
        server.shutdown(DRAIN).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn resilient_client_recovers_from_intermittent_chaos() {
        let plan = FaultPlan::bernoulli(0.5, 9)
            .with_classes(&[FaultClass::ConnDrop, FaultClass::ReplyCorrupt]);
        let (engine, server, spec) = serve_sharded(Some(plan));
        let mut client = ResilientClient::connect(&server.addr(), RETRYING).unwrap();
        let x = sample_input(spec, 11, 1);
        let reference = engine.client().infer("m", &x, None).unwrap();
        for _ in 0..8 {
            let reply = client.infer("m", &x, None).unwrap();
            assert_eq!(
                reply.output, reference.output,
                "delivered replies are exact"
            );
        }
        let snap = engine.telemetry_snapshot();
        assert!(snap.counter(names::SERVE_CHAOS_CONN_DROPS, "engine") > 0);
        assert!(snap.counter(names::SERVE_CHAOS_CORRUPTIONS, "engine") > 0);
        assert!(
            snap.counter("serve.completed", "m") + snap.counter("serve.dedup_hits", "m") >= 9,
            "every delivered reply was executed or served from the dedup cache"
        );
        drop(client);
        server.shutdown(DRAIN).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn pipelined_requests_on_one_connection_all_answer() {
        let (engine, server, spec) = serve_sharded(None);
        let x = sample_input(spec, 3, 1);
        let reference = engine.client().infer("m", &x, None).unwrap();
        // Hand-rolled pipelining: write 8 request frames back to back,
        // then collect 8 replies (completion order; match by id).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for id in 1..=8u64 {
            write_frame(&mut stream, &infer_frame(&x, 0, id)).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let resp = Response::decode_v2(&payload).unwrap();
            assert_eq!(resp.result.unwrap().output, reference.output);
            assert!(seen.insert(resp.id), "duplicate reply id {}", resp.id);
        }
        assert_eq!(seen, (1..=8).collect());
        drop(stream);
        assert_eq!(server.shutdown(DRAIN).unwrap(), 0);
        engine.shutdown().unwrap();
    }

    #[test]
    fn oversized_frame_gets_typed_error_then_clean_close() {
        let (engine, server, _) = serve_sharded(None);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
            .unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let resp = Response::decode(&payload).unwrap();
        assert_eq!(resp.id, 0);
        assert!(matches!(resp.result, Err(CspError::Corrupt { .. })));
        // Clean close follows the error reply.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        let snap = engine.telemetry_snapshot();
        assert!(snap.counter("serve.shard.protocol_errors", "io0") >= 1);
        drop(stream);
        assert_eq!(server.shutdown(DRAIN).unwrap(), 0);
        engine.shutdown().unwrap();
    }

    #[test]
    fn garbage_bytes_get_typed_error_then_clean_close() {
        let (engine, server, _) = serve_sharded(None);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &[0xFFu8; 32]).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let resp = Response::decode(&payload).unwrap();
        assert_eq!(resp.id, 0);
        assert!(resp.result.is_err());
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        drop(stream);
        assert_eq!(server.shutdown(DRAIN).unwrap(), 0);
        engine.shutdown().unwrap();
    }

    #[test]
    fn drain_deadline_force_closes_idle_connections() {
        let (engine, server, _) = serve_sharded(None);
        let _idle = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let the shard adopt it
        let forced = server.shutdown(Duration::from_millis(50)).unwrap();
        assert_eq!(forced, 1, "the idle connection must be force-closed");
        engine.shutdown().unwrap();
    }
}
