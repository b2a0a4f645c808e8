//! The TCP client: seeded exponential backoff with jitter,
//! reconnect-and-retry on transport errors, and idempotent request ids.
//!
//! ## Retry semantics
//!
//! Every logical request gets one id for its whole lifetime; retries
//! resend the **same** `(token, id)` key with an incremented attempt
//! counter. The server deduplicates on that key, so a retry after a lost
//! reply never double-executes the forward pass and never double-counts
//! `completed` — it is answered from the engine's reply cache (or
//! piggybacks on the still-running execution) and bumps
//! `serve.dedup_hits` instead.
//!
//! What is retried:
//!
//! * **transport errors** ([`CspError::Io`], [`CspError::Corrupt`] — a
//!   dropped connection, a truncated frame, a reply failing its CRC):
//!   the connection is torn down and re-established first;
//! * **[`CspError::Overloaded`]** (shed at admission, draining) and
//!   **[`CspError::Internal`]** (worker panic): the connection is fine,
//!   the request is resent after backoff.
//!
//! What is not: [`CspError::Expired`] (a new attempt has no budget
//! either) and [`CspError::Config`] (the request itself is wrong).
//!
//! A policy with `max_attempts == 1` is a plain one-shot client: the
//! attempt's own typed error is returned as is, and the request carries
//! token 0 — with no retry there is nothing to deduplicate, so it skips
//! the reply cache and spreads round-robin over the engine shards.
//!
//! ## Determinism
//!
//! [`RetryPolicy::backoff`] is a pure function of `(seed, attempt)` —
//! no wall clock, no global RNG — so a campaign replays exactly from its
//! seed.

use crate::batch::InferReply;
use crate::protocol::{
    read_frame, sock_err, write_frame, HealthReport, HealthRequest, HealthResponse, RequestV2,
    Response, TelemetryRequest, TelemetryResponse,
};
use csp_runtime::chaos::splitmix64;
use csp_telemetry::Snapshot;
use csp_tensor::{CspError, CspResult, Tensor};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Backoff-and-retry policy for [`ResilientClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub cap: Duration,
    /// Seed for the jitter stream — same seed, same delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based: `backoff(0)` is
    /// slept before the second send). Exponential with full determinism:
    /// `exp = min(cap, base · 2^attempt)`, jittered into `[exp/2, exp)`
    /// by a splitmix64 hash of `(seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base_us = (self.base.as_micros() as u64).max(1);
        let cap_us = (self.cap.as_micros() as u64).max(1);
        let exp_us = base_us.saturating_mul(1u64 << attempt.min(32)).min(cap_us);
        let half = (exp_us / 2).max(1);
        let r =
            splitmix64(self.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt) + 1));
        Duration::from_micros(half + r % half)
    }
}

fn is_transport(err: &CspError) -> bool {
    matches!(err, CspError::Io { .. } | CspError::Corrupt { .. })
}

fn is_retryable(err: &CspError) -> bool {
    is_transport(err) || matches!(err, CspError::Overloaded { .. } | CspError::Internal { .. })
}

fn open(addr: &SocketAddr) -> CspResult<TcpStream> {
    let stream =
        TcpStream::connect(addr).map_err(|e| sock_err(format!("connect {addr} failed: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| sock_err(format!("set_nodelay failed: {e}")))?;
    Ok(stream)
}

/// A reply decoder: the echoed request id and the server's verdict.
type Decoded<T> = CspResult<(u64, CspResult<T>)>;

/// A TCP client that survives transport faults: reconnects, backs off
/// deterministically, and retries with idempotent request ids.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<TcpStream>,
    token: u64,
    next_id: u64,
    retries: u64,
    reconnects: u64,
}

impl ResilientClient {
    /// Connect to a server. The client's idempotency token is derived
    /// from `policy.seed`, so give concurrent clients distinct seeds.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Io`] when the initial connection fails and
    /// [`CspError::Config`] for a zero `max_attempts`.
    pub fn connect(addr: &SocketAddr, policy: RetryPolicy) -> CspResult<ResilientClient> {
        if policy.max_attempts == 0 {
            return Err(CspError::Config {
                what: "max_attempts must be at least 1".to_string(),
            });
        }
        Ok(ResilientClient {
            addr: *addr,
            policy,
            conn: Some(open(addr)?),
            // Never zero: zero disables server-side dedup.
            token: splitmix64(policy.seed ^ 0x5E12_F00D_BAAD_CAFE) | 1,
            next_id: 1,
            retries: 0,
            reconnects: 0,
        })
    }

    /// Transport-level retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn conn(&mut self) -> CspResult<&mut TcpStream> {
        if self.conn.is_none() {
            self.conn = Some(open(&self.addr)?);
            self.reconnects += 1;
            csp_telemetry::counter_add(csp_telemetry::names::SERVE_CLIENT_RECONNECTS, "", 1);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send `request` and decode its reply, checking the echoed id (`0`
    /// is the server's "id unknown" for frame-level errors). A transport
    /// error drops the connection: the stream may be desynchronized.
    fn round_trip<T>(
        &mut self,
        id: u64,
        request: &[u8],
        decode: impl Fn(&[u8]) -> Decoded<T>,
    ) -> CspResult<T> {
        let result = self
            .conn()
            .and_then(|stream| {
                write_frame(stream, request)?;
                read_frame(stream)?.ok_or_else(|| {
                    sock_err("server closed the connection before responding".to_string())
                })
            })
            .and_then(|bytes| {
                let (got, result) = decode(&bytes)?;
                if got != id && got != 0 {
                    return Err(CspError::Corrupt {
                        artifact: "serve-response".to_string(),
                        what: format!("response id {got} does not match request id {id}"),
                    });
                }
                result
            });
        if matches!(&result, Err(e) if is_transport(e)) {
            self.conn = None;
        }
        result
    }

    /// One request/reply exchange that reconnects and resends once on a
    /// transport error, under a fresh id: the request is read-only, and
    /// wire chaos keyed by the old id would strike the resend again.
    fn reconnect_once<T>(
        &mut self,
        encode: impl Fn(u64) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> Decoded<T>,
    ) -> CspResult<T> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode(id), &decode) {
            Err(e) if is_transport(&e) => {
                let id = self.fresh_id();
                self.round_trip(id, &encode(id), &decode)
            }
            other => other,
        }
    }

    /// Run one inference, retrying per the policy. `budget` (if given)
    /// bounds the **whole** retry loop: each attempt carries the
    /// remaining budget as its server-side deadline, and the loop gives
    /// up with [`CspError::Expired`] once it runs out.
    ///
    /// # Errors
    ///
    /// The final typed error once retries are exhausted:
    /// [`CspError::Expired`] when attempts ran out on retryable errors or
    /// the budget lapsed, or the non-retryable error itself. With
    /// `max_attempts == 1`, the single attempt's own error.
    pub fn infer(
        &mut self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
    ) -> CspResult<InferReply> {
        let one_shot = self.policy.max_attempts == 1;
        let mut req = RequestV2 {
            token: if one_shot { 0 } else { self.token },
            id: self.fresh_id(),
            attempt: 0,
            model: model.to_string(),
            deadline_us: 0,
            input: input.clone(),
        };
        let deadline = budget.map(|b| Instant::now() + b);
        let mut last_err: Option<CspError> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                let delay = self.policy.backoff(attempt - 1);
                if let Some(d) = deadline {
                    if Instant::now() + delay >= d {
                        return Err(CspError::Expired {
                            what: format!(
                                "client budget exhausted before retry {attempt} (last error: {})",
                                last_err.as_ref().expect("retry implies an error")
                            ),
                        });
                    }
                }
                std::thread::sleep(delay);
                self.retries += 1;
                csp_telemetry::counter_add(csp_telemetry::names::SERVE_CLIENT_RETRIES, model, 1);
            }
            req.attempt = attempt;
            req.deadline_us = deadline.map_or(0, |d| {
                d.saturating_duration_since(Instant::now()).as_micros() as u64
            });
            let result = self.round_trip(req.id, &req.encode(), |b| {
                Response::decode_v2(b).map(|r| (r.id, r.result))
            });
            match result {
                Ok(reply) => return Ok(reply),
                Err(e) if one_shot || !is_retryable(&e) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        Err(CspError::Expired {
            what: format!(
                "retry budget exhausted after {} attempts (last error: {})",
                self.policy.max_attempts,
                last_err.expect("loop ran at least once")
            ),
        })
    }

    /// Fetch the server's health report, reconnecting once on a
    /// transport error.
    ///
    /// # Errors
    ///
    /// The server's typed error, or [`CspError::Io`] /
    /// [`CspError::Corrupt`] when the exchange fails on the connection
    /// and again after one reconnect.
    pub fn health(&mut self) -> CspResult<HealthReport> {
        self.reconnect_once(
            |id| HealthRequest { id }.encode(),
            |b| HealthResponse::decode(b).map(|r| (r.id, r.result)),
        )
    }

    /// Fetch the server's merged telemetry snapshot (serving counters plus
    /// the remote process's global kernel/runtime/accelerator metrics),
    /// reconnecting once on a transport error.
    ///
    /// # Errors
    ///
    /// As [`health`](ResilientClient::health) — including a snapshot blob
    /// failing its CRC or version check.
    pub fn telemetry(&mut self) -> CspResult<Snapshot> {
        self.reconnect_once(
            |id| TelemetryRequest { id }.encode(),
            |b| TelemetryResponse::decode(b).map(|r| (r.id, r.result)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_input, serve_sharded};
    use csp_sim::{FaultClass, FaultPlan};

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed: 42,
        };
        let a: Vec<Duration> = (0..8).map(|i| p.backoff(i)).collect();
        let b: Vec<Duration> = (0..8).map(|i| p.backoff(i)).collect();
        assert_eq!(a, b, "pure function of (seed, attempt)");
        for (i, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(2 << i.min(31)).min(Duration::from_millis(50));
            assert!(
                *d >= exp / 2 && *d < exp,
                "attempt {i}: {d:?} vs exp {exp:?}"
            );
        }
        let other = RetryPolicy { seed: 43, ..p };
        assert_ne!(
            (0..8).map(|i| other.backoff(i)).collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }

    #[test]
    fn one_shot_client_returns_the_attempts_own_error() {
        let (engine, server, spec) = serve_sharded(Some(
            FaultPlan::bernoulli(1.0, 3).with_classes(&[FaultClass::WorkerPanic]),
        ));
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let mut client = ResilientClient::connect(&server.addr(), policy).unwrap();
        let x = sample_input(spec, 11, 1);
        for _ in 0..32 {
            assert!(matches!(
                client.infer("m", &x, None),
                Err(CspError::Internal { .. })
            ));
        }
        assert_eq!(client.retries(), 0);
        // Token 0 spreads round-robin instead of pinning one shard.
        let tel = engine.telemetry_snapshot();
        assert!((0..2).all(|s| tel.counter("serve.shard.requests", &format!("s{s}")) > 0));
        server.shutdown(Duration::from_secs(5)).unwrap();
        engine.shutdown().unwrap();
    }

    #[test]
    fn health_reconnects_exactly_once() {
        let (engine, server, _) = serve_sharded(Some(
            FaultPlan::bernoulli(1.0, 4).with_classes(&[FaultClass::ConnDrop]),
        ));
        let mut client = ResilientClient::connect(&server.addr(), RetryPolicy::default()).unwrap();
        assert!(matches!(client.health(), Err(CspError::Io { .. })));
        assert_eq!(client.reconnects(), 1);
        assert!(matches!(client.telemetry(), Err(CspError::Io { .. })));
        assert_eq!(
            client.reconnects(),
            3,
            "telemetry shares the reconnect-once path"
        );
        server.shutdown(Duration::from_secs(5)).unwrap();
        engine.shutdown().unwrap();
    }
}
