//! Percentiles and the request ledgers both sides of the wire must close.

use csp_telemetry::{Histogram, Snapshot};
use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Counter `name` summed over all its labels.
pub fn counter_total(snap: &Snapshot, name: &str) -> u64 {
    snap.labels_of(name)
        .iter()
        .map(|l| snap.counter(name, l))
        .sum()
}

/// `values` sorted ascending; `+∞` (a failed or unanswered request) sorts
/// last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank `q`-quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Violation messages kept; the rest are only counted.
const MAX_NOTES: usize = 16;

/// Correctness and ledger violations: any one makes the run fail.
#[derive(Debug, Default)]
pub struct Notes {
    pub count: u64,
    pub kept: Vec<String>,
}

impl Notes {
    pub fn add(&mut self, what: String) {
        self.count += 1;
        if self.kept.len() < MAX_NOTES {
            self.kept.push(what);
        }
    }

    pub fn absorb(&mut self, other: Notes) {
        self.count += other.count - other.kept.len() as u64;
        for n in other.kept {
            self.add(n);
        }
    }
}

/// Client-side outcome of every request one side sent: each request lands
/// in exactly one bucket.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Refused by admission control (`Overloaded`).
    pub shed: u64,
    /// Deadline passed before execution (`Expired`).
    pub expired: u64,
    /// Any other typed error from the engine.
    pub failed: u64,
    /// Lost to a socket failure.
    pub transport: u64,
    /// No reply before the drain deadline.
    pub unanswered: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.shed += o.shed;
        self.expired += o.expired;
        self.failed += o.failed;
        self.transport += o.transport;
        self.unanswered += o.unanswered;
    }

    pub fn outcomes(&self) -> u64 {
        self.ok + self.shed + self.expired + self.failed + self.transport + self.unanswered
    }

    pub fn not_ok(&self) -> u64 {
        self.outcomes() - self.ok
    }
}

/// Server-side counters summed over the served models, shards and IO
/// shards.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub admitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    pub expired: u64,
    pub batches: u64,
    /// Sum of executed batch sizes.
    pub batched: u64,
    pub frames: u64,
    pub protocol_errors: u64,
    /// `serve.shard.requests` per engine shard.
    pub shard_requests: Vec<u64>,
    /// Merged `serve.latency_us` histogram.
    pub latency: Option<Histogram>,
}

impl Counters {
    /// What was counted since `before` was taken.
    pub fn since(&self, before: &Counters) -> Counters {
        let latency = match (&self.latency, &before.latency) {
            (Some(a), Some(b)) => {
                let counts: Vec<u64> = a
                    .counts()
                    .iter()
                    .zip(b.counts())
                    .map(|(x, y)| x - y)
                    .collect();
                Histogram::from_parts(a.bounds(), &counts)
            }
            (a, _) => a.clone(),
        };
        Counters {
            admitted: self.admitted - before.admitted,
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            shed: self.shed - before.shed,
            expired: self.expired - before.expired,
            batches: self.batches - before.batches,
            batched: self.batched - before.batched,
            frames: self.frames - before.frames,
            protocol_errors: self.protocol_errors - before.protocol_errors,
            shard_requests: self
                .shard_requests
                .iter()
                .enumerate()
                .map(|(i, n)| n - before.shard_requests.get(i).copied().unwrap_or(0))
                .collect(),
            latency,
        }
    }
}

/// Every way the two ledgers of one phase fail to close. `frames` is true
/// for phases sent over TCP, where every request is one frame.
pub fn ledger(phase: &str, client: &Tally, server: &Counters, frames: bool) -> Vec<String> {
    let mut bad = Vec::new();
    if client.sent != client.outcomes() {
        bad.push(format!(
            "{phase}: client sent {} but holds {} outcomes",
            client.sent,
            client.outcomes()
        ));
    }
    if server.admitted != server.completed + server.failed + server.expired {
        bad.push(format!(
            "{phase}: server admitted {} != completed {} + failed {} + expired {}",
            server.admitted, server.completed, server.failed, server.expired
        ));
    }
    if client.transport + client.unanswered > 0 {
        bad.push(format!(
            "{phase}: {} requests lost on the wire and {} unanswered",
            client.transport, client.unanswered
        ));
    }
    let pairs = [
        ("ok/completed", client.ok, server.completed),
        ("failed", client.failed, server.failed),
        ("expired", client.expired, server.expired),
        ("shed", client.shed, server.shed),
    ];
    for (what, c, s) in pairs {
        if c != s {
            bad.push(format!("{phase}: client {what} {c} != server {s}"));
        }
    }
    if frames && server.frames != client.sent {
        bad.push(format!(
            "{phase}: server read {} frames for {} sends",
            server.frames, client.sent
        ));
    }
    if server.protocol_errors > 0 {
        bad.push(format!(
            "{phase}: server counted {} protocol errors",
            server.protocol_errors
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut lat: Vec<f64> = (1..=98).map(f64::from).collect();
        lat.extend([f64::INFINITY, f64::INFINITY]);
        let s = sorted(lat);
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.98), 98.0);
        assert_eq!(quantile(&s, 0.99), f64::INFINITY);
        assert_eq!(quantile(&s, 1.0), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    fn closed() -> (Tally, Counters) {
        let client = Tally {
            sent: 10,
            ok: 7,
            shed: 1,
            expired: 1,
            failed: 1,
            ..Tally::default()
        };
        let server = Counters {
            admitted: 9,
            completed: 7,
            failed: 1,
            shed: 1,
            expired: 1,
            frames: 10,
            ..Counters::default()
        };
        (client, server)
    }

    #[test]
    fn ledger_closes_and_every_break_is_named() {
        let (client, server) = closed();
        assert!(ledger("p", &client, &server, true).is_empty());

        let mut lost = client;
        lost.ok -= 1;
        lost.unanswered += 1;
        let bad = ledger("p", &lost, &server, true);
        assert!(bad.iter().any(|b| b.contains("unanswered")));
        assert!(bad.iter().any(|b| b.contains("ok/completed")));

        let mut leak = server.clone();
        leak.admitted += 1;
        assert_eq!(ledger("p", &client, &leak, true).len(), 1);

        let mut short = client;
        short.sent += 1;
        let bad = ledger("p", &short, &server, true);
        assert!(bad.iter().any(|b| b.contains("outcomes")));
        assert!(bad.iter().any(|b| b.contains("frames")));
        assert!(ledger("p", &short, &server, false)
            .iter()
            .all(|b| !b.contains("frames")));
    }

    #[test]
    fn counters_subtract_including_histograms() {
        let bounds = [1, 2, 4];
        let a = Counters {
            admitted: 5,
            batches: 2,
            batched: 5,
            shard_requests: vec![3, 2],
            latency: Histogram::from_parts(&bounds, &[1, 2, 3, 4]),
            ..Counters::default()
        };
        let b = Counters {
            admitted: 2,
            shard_requests: vec![1, 1],
            latency: Histogram::from_parts(&bounds, &[1, 1, 1, 1]),
            ..Counters::default()
        };
        let d = a.since(&b);
        assert_eq!(d.admitted, 3);
        assert_eq!(d.shard_requests, vec![2, 1]);
        assert_eq!(d.latency.unwrap().counts(), &[0, 1, 2, 3]);
    }

    #[test]
    fn tally_adds_and_counts_non_ok() {
        let (client, _) = closed();
        let mut t = Tally::default();
        t.add(&client);
        t.add(&client);
        assert_eq!(t.sent, 20);
        assert_eq!(t.not_ok(), 6);
    }
}
