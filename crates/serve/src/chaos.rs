//! Seeded chaos injection for the serving tier.
//!
//! A [`ChaosSession`] holds a [`FaultPlan`] and lock-free per-class
//! counters, shared by the TCP front-end's IO shards and the engine's
//! workers. The five serving-tier fault classes ([`FaultClass::SERVE`])
//! model the failure modes a networked service actually sees:
//!
//! | class          | injected where                    | effect            |
//! |----------------|-----------------------------------|-------------------|
//! | `ConnDrop`     | server, before writing a reply    | socket closed     |
//! | `FrameTruncate`| server, mid-reply write           | partial frame     |
//! | `WorkerStall`  | engine, before a batch executes   | worker sleeps     |
//! | `WorkerPanic`  | engine, inside the forward region | worker panics     |
//! | `ReplyCorrupt` | server, on the encoded reply      | one bit flipped   |
//!
//! Every decision is [`fault_draw`] at a key. Wire faults are keyed by the
//! `(token, id, attempt)` of the request a reply answers (`(0, id, 0)`
//! for health, telemetry and rejected frames), so wire-fault campaigns
//! replay request by request; worker faults by a batch ordinal
//! ([`ChaosSession::batch_key`]), so they vary with batch formation.
//! Serving ignores [`FaultPlan::targeted`].

use csp_runtime::chaos::{fault_draw, splitmix64};
use csp_sim::{FaultClass, FaultPlan, FaultReport, N_FAULT_CLASSES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A shared, thread-safe source of seeded serving-tier faults.
#[derive(Debug)]
pub struct ChaosSession {
    plan: FaultPlan,
    stall: Duration,
    events: [AtomicU64; N_FAULT_CLASSES],
    injected: [AtomicU64; N_FAULT_CLASSES],
    next_batch: AtomicU64,
}

impl ChaosSession {
    /// A session drawing from `plan`, stalling workers for `stall`
    /// whenever [`FaultClass::WorkerStall`] fires.
    pub fn new(plan: FaultPlan, stall: Duration) -> Self {
        ChaosSession {
            plan,
            stall,
            events: Default::default(),
            injected: Default::default(),
            next_batch: AtomicU64::new(0),
        }
    }

    /// The key for the next batch's worker faults: a session-wide batch
    /// ordinal.
    pub fn batch_key(&self) -> [u64; 3] {
        [self.next_batch.fetch_add(1, Ordering::Relaxed), 0, 0]
    }

    /// Count one vulnerable event of `class` at `key`. When the fault
    /// fires and `applies` (there is something to strike), count the
    /// injection and return a hash for its follow-up values.
    fn draw(&self, class: FaultClass, key: [u64; 3], applies: bool) -> Option<u64> {
        let i = class.index();
        self.events[i].fetch_add(1, Ordering::Relaxed);
        let h = fault_draw(self.plan.seed, i, key, self.plan.rate)
            .filter(|_| self.plan.classes[i] && applies)?;
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(splitmix64(h))
    }

    /// One vulnerable event of `class` at `key`: `true` when the fault
    /// fires.
    pub fn fires(&self, class: FaultClass, key: [u64; 3]) -> bool {
        self.draw(class, key, true).is_some()
    }

    /// One vulnerable event over an encoded message: when the fault
    /// fires, flips one seeded bit in place and returns the struck byte
    /// offset. An empty message counts its event but is never struck.
    pub fn strike(&self, class: FaultClass, key: [u64; 3], bytes: &mut [u8]) -> Option<usize> {
        let h = self.draw(class, key, !bytes.is_empty())?;
        let pos = (h % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << (splitmix64(h) % 8);
        Some(pos)
    }

    /// One vulnerable event over a `len`-byte frame: when the fault
    /// fires, returns the seeded cut point (`1..len`) after which the
    /// write is abandoned. A frame shorter than 2 bytes is never cut.
    pub fn truncate(&self, class: FaultClass, key: [u64; 3], len: usize) -> Option<usize> {
        let h = self.draw(class, key, len >= 2)?;
        Some(1 + (h % (len as u64 - 1)) as usize)
    }

    /// How long a chaos-stalled worker sleeps.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// Snapshot the campaign summary: events and injections per class
    /// (every injection counts as silent; no per-fault records).
    pub fn report(&self) -> FaultReport {
        let load =
            |a: &[AtomicU64; N_FAULT_CLASSES]| a.each_ref().map(|v| v.load(Ordering::Relaxed));
        let injected = load(&self.injected);
        FaultReport {
            events: load(&self.events),
            injected,
            silent: injected.iter().sum(),
            ..FaultReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(classes: &[FaultClass], rate: f64, seed: u64) -> ChaosSession {
        let plan = FaultPlan::bernoulli(rate, seed).with_classes(classes);
        ChaosSession::new(plan, Duration::ZERO)
    }

    fn key(i: u64) -> [u64; 3] {
        [0xA5A5, i, 0]
    }

    /// Same seed, same faults — whether a key set is drawn serially or
    /// from four threads in shuffled order.
    #[test]
    fn session_is_deterministic_per_seed() {
        let mut keys: Vec<[u64; 3]> = (0..512u64).map(|i| [i % 7, i, i % 3]).collect();
        let fired = |s: &ChaosSession, part: &[[u64; 3]]| -> Vec<[u64; 3]> {
            let hit = |k: &&[u64; 3]| s.fires(FaultClass::ConnDrop, **k);
            part.iter().filter(hit).copied().collect()
        };
        let serial = session(&[FaultClass::ConnDrop], 0.3, 77);
        let want = fired(&serial, &keys);
        assert!(!want.is_empty(), "rate 0.3 over 512 keys must fire");
        let report = serial.report();
        assert_eq!(report.events[FaultClass::ConnDrop.index()], 512);
        assert_eq!(report.total_injected(), want.len() as u64);
        keys.sort_by_key(|k| splitmix64(k[1]));
        let shared = session(&[FaultClass::ConnDrop], 0.3, 77);
        let mut got: Vec<[u64; 3]> = std::thread::scope(|scope| {
            let threads: Vec<_> = keys
                .chunks(128)
                .map(|part| scope.spawn(|| fired(&shared, part)))
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        got.sort_by_key(|k| k[1]);
        assert_eq!(got, want, "same seed, same faults");
        assert_eq!(shared.report(), report);
    }

    #[test]
    fn disabled_classes_never_fire() {
        let s = session(&[FaultClass::ConnDrop], 1.0, 1);
        assert!(!s.fires(FaultClass::WorkerPanic, key(0)));
        assert!(s.fires(FaultClass::ConnDrop, key(0)));
    }

    #[test]
    fn serve_event_fires_deterministically() {
        let run = |seed: u64| {
            let s = session(&FaultClass::SERVE, 0.3, seed);
            (0..200)
                .map(|i| s.fires(FaultClass::ConnDrop, key(i)))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7));
        assert!(run(7).iter().any(|&b| b), "rate 0.3 over 200 events");
        assert!(!run(7).iter().all(|&b| b), "rate 0.3 is not rate 1.0");
        // Zero rate never fires and still counts events.
        let s = session(&FaultClass::SERVE, 0.0, 7);
        assert!((0..50).all(|i| !s.fires(FaultClass::WorkerPanic, key(i))));
        assert_eq!(s.report().events[FaultClass::WorkerPanic.index()], 50);
    }

    #[test]
    fn strike_message_flips_exactly_one_bit_per_firing() {
        let s = session(&[FaultClass::ReplyCorrupt], 1.0, 3);
        let mut bytes = vec![0u8; 64];
        let pos = s
            .strike(FaultClass::ReplyCorrupt, key(0), &mut bytes)
            .expect("rate 1.0 fires");
        let struck: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != 0).collect();
        assert_eq!(struck, vec![pos]);
        assert_eq!(bytes[pos].count_ones(), 1, "exactly one flipped bit");
        // Empty messages survive (one event, no strike).
        assert!(s
            .strike(FaultClass::ReplyCorrupt, key(1), &mut [])
            .is_none());
        let report = s.report();
        assert_eq!(report.events[FaultClass::ReplyCorrupt.index()], 2);
        assert_eq!(report.total_injected(), 1);
    }

    #[test]
    fn truncate_point_is_in_range_and_seeded() {
        let run = |seed: u64| {
            let s = session(&[FaultClass::FrameTruncate], 0.5, seed);
            (0..100)
                .map(|i| s.truncate(FaultClass::FrameTruncate, key(i), 40))
                .collect::<Vec<Option<usize>>>()
        };
        let cuts = run(21);
        assert_eq!(cuts, run(21));
        assert!(cuts.iter().flatten().all(|&c| (1..40).contains(&c)));
        assert!(cuts.iter().any(|c| c.is_some()));
        assert!(cuts.iter().any(|c| c.is_none()));
        // Frames shorter than 2 bytes cannot be mid-truncated.
        let s = session(&[FaultClass::FrameTruncate], 1.0, 0);
        assert!((0..2).all(|len| s.truncate(FaultClass::FrameTruncate, key(0), len).is_none()));
        assert_eq!(s.report().total_injected(), 0);
    }
}
