//! The load generators: an open-loop and a saturating driver, each over
//! one pipelined TCP connection, and an in-process replay of an open-loop
//! schedule through `ShardClient::submit_nowait`.

use crate::stack::connect;
use crate::stats::{ms, Notes, Tally};
use crate::trace::Recorder;
use crate::workload::{rng, Planned, Served, POOL};
use csp_serve::protocol::{RequestV2, Response, MAX_FRAME};
use csp_serve::{InferReply, PendingReply, ShardClient};
use csp_tensor::{CspError, CspResult};
use rand::Rng;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a generator sleeps between polls, which bounds how late it
/// notices a reply or a due send. A socket read timeout would round up to
/// the kernel tick, which is far coarser.
const POLL: Duration = Duration::from_micros(50);

/// Requests each connection keeps outstanding while saturating.
const DEPTH: usize = 16;

#[derive(Clone, Copy)]
pub enum Load<'a> {
    /// Send each planned request at its due time.
    Open(&'a [Planned]),
    /// Keep `DEPTH` requests outstanding for `secs`, picking model and input
    /// from `seed`.
    Saturate { secs: f64, seed: u64 },
}

#[derive(Debug, Default)]
pub struct Log {
    pub tally: Tally,
    /// Open loop: per planned request, ms from its due time to its reply;
    /// +∞ unless the reply was OK.
    pub latency_ms: Vec<f64>,
    /// Open loop: per planned request, ms its send started after it was due.
    pub late_ms: Vec<f64>,
    /// Saturation: OK replies that arrived inside the window.
    pub ok_in_window: u64,
    pub notes: Notes,
}

/// One request on its way.
struct Rec {
    due: Instant,
    model: usize,
    input: usize,
    /// The model's version floor when the request was sent.
    floor: u64,
    start: Instant,
    encoded: Instant,
    sent: Instant,
}

impl Log {
    fn open(planned: usize) -> Log {
        Log {
            latency_ms: vec![f64::INFINITY; planned],
            late_ms: vec![0.0; planned],
            ..Log::default()
        }
    }

    fn sending(&mut self, id: usize, r: &Rec) {
        self.tally.sent += 1;
        if let Some(l) = self.late_ms.get_mut(id) {
            *l = ms(r.start - r.due);
        }
    }

    /// Classify request `id`'s reply, which arrived `at`, checking an OK
    /// one against its reference.
    fn complete(
        &mut self,
        m: &Served,
        id: usize,
        r: &Rec,
        result: &CspResult<InferReply>,
        at: Instant,
        window_end: Instant,
    ) {
        match result {
            Ok(reply) => {
                self.tally.ok += 1;
                if let Err(e) = m.check(r.input, r.floor, reply) {
                    self.notes.add(e);
                }
                if let Some(l) = self.latency_ms.get_mut(id) {
                    *l = ms(at - r.due);
                }
                if at <= window_end {
                    self.ok_in_window += 1;
                }
            }
            Err(CspError::Overloaded { .. }) => self.tally.shed += 1,
            Err(CspError::Expired { .. }) => self.tally.expired += 1,
            Err(_) => self.tally.failed += 1,
        }
    }

    /// Close the books on requests never sent or never answered.
    fn finish(&mut self, unsent: usize, inflight: usize, alive: bool) {
        self.tally.sent += unsent as u64;
        self.tally.transport += unsent as u64;
        if alive {
            self.tally.unanswered += inflight as u64;
        } else {
            self.tally.transport += inflight as u64;
        }
    }
}

/// Reassembles length-prefixed frames from reads that split them anywhere.
#[derive(Debug, Default)]
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, if one has fully arrived.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        let avail = &self.buf[self.start..];
        let len = match avail.get(..4) {
            Some(prefix) => u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize,
            None => {
                self.compact();
                return Ok(None);
            }
        };
        if len > MAX_FRAME {
            return Err(format!("reply frame of {len} bytes exceeds MAX_FRAME"));
        }
        let Some(payload) = avail.get(4..4 + len) else {
            self.compact();
            return Ok(None);
        };
        let frame = payload.to_vec();
        self.start += 4 + len;
        Ok(Some(frame))
    }

    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.start = 0;
    }
}

/// `write_all` on a nonblocking socket. The server reads continuously, so a
/// full send buffer drains within microseconds.
fn write_all(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(5);
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < give_up => {
                std::thread::sleep(POLL)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn encode_frame(m: &Served, id: u64, input: usize) -> Vec<u8> {
    let payload = RequestV2 {
        token: 0,
        id,
        attempt: 0,
        model: m.name.to_string(),
        deadline_us: 0,
        input: m.pool[input].clone(),
    }
    .encode();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Drive one connection. Replies are read between sends and waited for up
/// to `drain` after the last send; with `rec`, every request leaves spans.
pub fn tcp(
    addr: SocketAddr,
    models: &[Served],
    load: Load<'_>,
    drain: Duration,
    mut rec: Option<&mut Recorder>,
) -> Log {
    let planned = match load {
        Load::Open(plan) => plan.len(),
        Load::Saturate { .. } => 0,
    };
    let mut log = Log::open(planned);
    // Saturating keeps replies flowing, so it blocks in `read` and leaves
    // the cores to the server; the open loop must wake for due sends, so it
    // polls.
    let blocking = matches!(load, Load::Saturate { .. });
    let setup = |s: TcpStream| -> std::io::Result<TcpStream> {
        s.set_nonblocking(!blocking)?;
        s.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(s)
    };
    let mut stream = match connect(addr).and_then(setup) {
        Ok(s) => s,
        Err(e) => {
            log.notes.add(format!("connect: {e}"));
            log.finish(planned, 0, false);
            return log;
        }
    };
    let start = Instant::now();
    let at = |secs: f64| start + Duration::from_secs_f64(secs);
    let (send_end, mut picks) = match load {
        Load::Open(plan) => (at(plan.last().map_or(0.0, |p| p.due)), None),
        Load::Saturate { secs, seed } => (at(secs), Some(rng(seed, 0))),
    };
    let mut next_id = 0usize;
    let mut inflight: HashMap<usize, Rec> = HashMap::new();
    let mut frames = FrameBuf::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut alive = true;
    loop {
        let now = Instant::now();
        let mut progressed = false;
        while alive {
            let next = match (load, picks.as_mut()) {
                (Load::Open(plan), _) => plan
                    .get(next_id)
                    .filter(|p| at(p.due) <= now)
                    .map(|p| (at(p.due), p.model, p.input)),
                (Load::Saturate { .. }, Some(r)) if inflight.len() < DEPTH && now < send_end => {
                    Some((now, r.gen_range(0..models.len()), r.gen_range(0..POOL)))
                }
                _ => None,
            };
            let Some((due, model, input)) = next else {
                break;
            };
            let m = &models[model];
            let floor = m.floor();
            let t0 = Instant::now();
            let frame = encode_frame(m, next_id as u64, input);
            let t1 = Instant::now();
            let wrote = write_all(&mut stream, &frame);
            let r = Rec {
                due,
                model,
                input,
                floor,
                start: t0,
                encoded: t1,
                sent: Instant::now(),
            };
            log.sending(next_id, &r);
            match wrote {
                Ok(()) => {
                    inflight.insert(next_id, r);
                }
                Err(e) => {
                    log.notes.add(format!("write: {e}"));
                    log.tally.transport += 1;
                    alive = false;
                }
            }
            next_id += 1;
            progressed = true;
        }
        while alive {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    alive = false;
                    if !inflight.is_empty() {
                        log.notes
                            .add("server closed the connection mid-flight".to_string());
                    }
                }
                Ok(n) => {
                    frames.push(&chunk[..n]);
                    progressed = true;
                    if blocking {
                        break;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    log.notes.add(format!("read: {e}"));
                    alive = false;
                }
            }
        }
        loop {
            let payload = match frames.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    log.notes.add(e);
                    alive = false;
                    break;
                }
            };
            let t2 = Instant::now();
            let decoded = Response::decode_v2(&payload);
            let t3 = Instant::now();
            let resp = match decoded {
                Ok(r) => r,
                Err(e) => {
                    log.notes.add(format!("undecodable reply: {e}"));
                    continue;
                }
            };
            let id = resp.id as usize;
            let Some(r) = inflight.remove(&id) else {
                log.notes
                    .add(format!("reply to unknown or answered id {id}"));
                continue;
            };
            log.complete(&models[r.model], id, &r, &resp.result, t3, send_end);
            if let Some(t) = rec.as_deref_mut() {
                let root = t.id();
                t.record(root, root, "gen.late", r.due, r.start);
                t.record(root, root, "protocol.encode", r.start, r.encoded);
                t.record(root, root, "net.write", r.encoded, r.sent);
                t.record(root, root, "net.wait", r.sent, t2);
                t.record(root, root, "protocol.decode", t2, t3);
                t.push(root, 0, root, "request", r.due, t3);
            }
        }
        let sending_done = match load {
            Load::Open(plan) => next_id == plan.len(),
            Load::Saturate { .. } => now >= send_end,
        };
        if !alive || (sending_done && (inflight.is_empty() || now >= send_end + drain)) {
            break;
        }
        if !progressed && !blocking {
            let next_due = match load {
                Load::Open(plan) => plan.get(next_id).map(|p| at(p.due)),
                Load::Saturate { .. } => None,
            };
            std::thread::sleep(next_due.map_or(POLL, |d| {
                d.saturating_duration_since(Instant::now()).min(POLL)
            }));
        }
    }
    log.finish(planned.saturating_sub(next_id), inflight.len(), alive);
    log
}

/// Replay an open-loop schedule in process, polling each pending reply at
/// `POLL` resolution.
pub fn inproc(
    client: &ShardClient,
    models: &[Served],
    plan: &[Planned],
    drain: Duration,
    mut rec: Option<&mut Recorder>,
) -> Log {
    let mut log = Log::open(plan.len());
    let start = Instant::now();
    let at = |secs: f64| start + Duration::from_secs_f64(secs);
    let send_end = at(plan.last().map_or(0.0, |p| p.due));
    let mut next_id = 0usize;
    let mut pending: Vec<(usize, Rec, PendingReply)> = Vec::new();
    loop {
        let now = Instant::now();
        let mut progressed = false;
        while let Some(p) = plan.get(next_id).filter(|p| at(p.due) <= now) {
            let m = &models[p.model];
            let floor = m.floor();
            let t0 = Instant::now();
            let submitted = client.submit_nowait(m.name, &m.pool[p.input], None, 0, 0);
            let r = Rec {
                due: at(p.due),
                model: p.model,
                input: p.input,
                floor,
                start: t0,
                encoded: t0,
                sent: Instant::now(),
            };
            log.sending(next_id, &r);
            match submitted {
                Ok(reply) => pending.push((next_id, r, reply)),
                Err(e) => log.complete(m, next_id, &r, &Err(e), r.sent, send_end),
            }
            next_id += 1;
            progressed = true;
        }
        pending.retain_mut(|(id, r, reply)| {
            let Some(result) = reply.try_take() else {
                return true;
            };
            let t1 = Instant::now();
            log.complete(&models[r.model], *id, r, &result, t1, send_end);
            if let Some(t) = rec.as_deref_mut() {
                let root = t.id();
                t.record(root, root, "gen.late", r.due, r.start);
                t.record(root, root, "engine.submit", r.start, r.sent);
                t.record(root, root, "engine.wait", r.sent, t1);
                t.push(root, 0, root, "inproc.request", r.due, t1);
            }
            progressed = true;
            false
        });
        if next_id == plan.len() && (pending.is_empty() || now >= send_end + drain) {
            break;
        }
        if !progressed {
            let wait = plan.get(next_id).map_or(POLL, |p| {
                at(p.due)
                    .saturating_duration_since(Instant::now())
                    .min(POLL)
            });
            std::thread::sleep(wait);
        }
    }
    log.finish(0, pending.len(), true);
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    #[test]
    fn frames_reassemble_across_every_split() {
        let payloads: [&[u8]; 3] = [b"first", b"", b"the third frame"];
        let wire = framed(&payloads);
        for cut in 0..=wire.len() {
            for step in [1, 3, 7, wire.len().max(1)] {
                let mut fb = FrameBuf::default();
                let mut got = Vec::new();
                let (a, b) = wire.split_at(cut);
                for part in a.chunks(step).chain(b.chunks(step)) {
                    fb.push(part);
                    while let Some(f) = fb.next_frame().unwrap() {
                        got.push(f);
                    }
                }
                assert_eq!(got, payloads.map(<[u8]>::to_vec), "cut {cut} step {step}");
                assert_eq!(fb.next_frame().unwrap(), None);
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_an_error() {
        let mut fb = FrameBuf::default();
        fb.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(fb.next_frame().is_err());
    }
}
