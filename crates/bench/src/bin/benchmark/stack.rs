//! The serving stack under test, built with the shipped defaults, and the
//! server-side counters read back from its telemetry.

use crate::stats::{counter_total, ms, Counters};
use crate::trace::Recorder;
use crate::workload::Served;
use csp_serve::protocol::{read_frame, write_frame, RequestV2, Response};
use csp_serve::{InferReply, ShardPolicy, ShardedEngine, ShardedServer};
use csp_telemetry::{names, Histogram};
use csp_tensor::CspResult;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// IO shards of the front-end: the shipped `serve_bench` setting.
const IO_SHARDS: usize = 2;

/// How long shutdown may drain before force-closing connections.
const DRAIN: Duration = Duration::from_secs(5);

pub struct Stack {
    pub engine: ShardedEngine,
    pub server: ShardedServer,
}

/// Wall time of one cold construction and its parts.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub engine_start_ms: f64,
    pub registry_load_ms: f64,
    pub net_serve_ms: f64,
    pub first_reply_ms: f64,
}

/// Build the stack cold: start the engine, roll every model in from disk,
/// serve on an ephemeral loopback port, and wait for the first OK reply.
///
/// The first client arrives `pause` after `serve` returns, and the pause is
/// not counted. The acceptor polls every millisecond, so a client arriving
/// at a fixed instant lands on one side of its first poll or the other, and
/// set-up time comes out bimodal; a seeded random pause of up to two polls
/// spreads the wait evenly instead.
pub fn construct(
    models: &[Served],
    pause: Duration,
    rec: Option<&mut Recorder>,
) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let engine =
        ShardedEngine::start(ShardPolicy::default()).map_err(|e| format!("engine start: {e}"))?;
    let t1 = Instant::now();
    for m in models {
        m.reset_versions();
        engine
            .rolling_swap_from_path(m.name, m.spec, &m.path)
            .map_err(|e| format!("load {}: {e}", m.name))?;
    }
    let t2 = Instant::now();
    let server = ShardedServer::serve(engine.client(), "127.0.0.1:0", IO_SHARDS)
        .map_err(|e| format!("serve: {e}"))?;
    let t3 = Instant::now();
    let stack = Stack { engine, server };
    std::thread::sleep(pause);
    let arrived = Instant::now();
    let reply = connect(stack.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut s| roundtrip(&mut s, &models[0], 0, 1).map_err(|e| e.to_string()))
        .map_err(|e| format!("first reply: {e}"))?;
    models[0].check(0, 1, &reply)?;
    let t4 = Instant::now();
    if let Some(r) = rec {
        let root = r.id();
        r.record(root, 0, "engine.start", t0, t1);
        r.record(root, 0, "registry.load", t1, t2);
        r.record(root, 0, "net.serve", t2, t3);
        r.record(root, 0, "client.pause", t3, arrived);
        r.record(root, 0, "net.first_reply", arrived, t4);
        r.push(root, 0, 0, "setup", t0, t4);
    }
    let times = SetupTimes {
        total_s: (t3 - t0 + (t4 - arrived)).as_secs_f64(),
        engine_start_ms: ms(t1 - t0),
        registry_load_ms: ms(t2 - t1),
        net_serve_ms: ms(t3 - t2),
        first_reply_ms: ms(t4 - arrived),
    };
    Ok((stack, times))
}

/// A client connection. Frames are small, so Nagle's algorithm would hold
/// them back waiting for acks.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// One blocking request/reply on `stream`: model `m`, input `pool[input]`.
pub fn roundtrip(
    stream: &mut TcpStream,
    m: &Served,
    input: usize,
    id: u64,
) -> CspResult<InferReply> {
    let req = RequestV2 {
        token: 0,
        id,
        attempt: 0,
        model: m.name.to_string(),
        deadline_us: 0,
        input: m.pool[input].clone(),
    };
    write_frame(stream, &req.encode())?;
    let payload = read_frame(stream)?.ok_or_else(|| csp_tensor::CspError::Io {
        path: "benchmark".to_string(),
        what: "server closed the connection".to_string(),
    })?;
    let resp = Response::decode_v2(&payload)?;
    if resp.id != id {
        return Err(csp_tensor::CspError::Internal {
            what: format!("reply id {} for request {id}", resp.id),
        });
    }
    resp.result
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn shutdown(self) -> Result<(), String> {
        let forced = self.server.shutdown(DRAIN).map_err(|e| e.to_string())?;
        self.engine.shutdown().map_err(|e| e.to_string())?;
        match forced {
            0 => Ok(()),
            n => Err(format!(
                "{n} connections had to be force-closed at shutdown"
            )),
        }
    }

    /// Server-side counters since the stack started.
    pub fn counters(&self, models: &[Served]) -> Counters {
        let snap = self.engine.telemetry_snapshot();
        let mut c = Counters {
            frames: counter_total(&snap, names::SERVE_SHARD_FRAMES),
            protocol_errors: counter_total(&snap, names::SERVE_SHARD_PROTOCOL_ERRORS),
            shard_requests: (0..self.engine.shard_count())
                .map(|s| snap.counter(names::SERVE_SHARD_REQUESTS, &format!("s{s}")))
                .collect(),
            ..Counters::default()
        };
        for m in models {
            c.admitted += snap.counter(names::SERVE_ADMITTED, m.name);
            c.completed += snap.counter(names::SERVE_COMPLETED, m.name);
            c.failed += snap.counter(names::SERVE_FAILED, m.name);
            c.shed += snap.counter(names::SERVE_SHED, m.name);
            c.expired += snap.counter(names::SERVE_EXPIRED, m.name);
            c.batches += snap.counter(names::SERVE_BATCHES, m.name);
            if let Some(h) = snap.histogram(names::SERVE_BATCH_SIZE, m.name) {
                c.batched += h
                    .counts()
                    .iter()
                    .enumerate()
                    .map(|(b, &n)| b as u64 * n)
                    .sum::<u64>();
            }
            if let Some(h) = snap.histogram(names::SERVE_LATENCY_US, m.name) {
                match &mut c.latency {
                    Some(acc) => acc.merge(h),
                    None => c.latency = Some(Histogram::clone(h)),
                }
            }
        }
        c
    }
}
