//! Deterministic fault injection and resilience modeling for CSP-H.
//!
//! The accelerator's data reuse concentrates state in a few small
//! structures — the RegBin partial sums, the intermediate register (IR),
//! the weight GLB and the DRAM interface — so a single upset can corrupt
//! many output pixels. This module provides the shared fault machinery:
//!
//! * a fault-site taxonomy ([`FaultClass`]): RegBin entries, the IR,
//!   weight-GLB reads, DRAM weight transfers, and stuck-at PE multipliers;
//! * a seedable campaign description ([`FaultPlan`]): Bernoulli
//!   per-vulnerable-event sampling plus targeted single-site injections,
//!   fully deterministic for a fixed seed, each event drawn by
//!   [`csp_runtime::chaos::fault_draw`] at `(class, event ordinal)`;
//! * two protection schemes for the RegBins ([`Protection`]): parity
//!   detection with flush-and-recompute retry (charged in cycles and
//!   re-fetched bytes) and SECDED ECC (single-bit correction, charged per
//!   access in energy and per entry in area);
//! * a concrete Hamming SECDED codec over 8-bit RegBin payloads
//!   ([`secded_encode`] / [`secded_decode`]) used both to size the
//!   overheads and to prove correction coverage in tests.
//!
//! The functional arrays in `csp-accel` thread a [`FaultSession`] through
//! their datapaths; with [`FaultPlan::none()`] no session is created and
//! the fault-free path is bit-identical to the un-instrumented model.

use csp_runtime::chaos::{fault_draw, splitmix64};

/// Number of fault-site classes in the taxonomy.
pub const N_FAULT_CLASSES: usize = 11;

/// Where a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A stored RegBin partial-sum entry, flipped in its 8-bit
    /// fixed-point view on a read-modify-write access. The only class the
    /// [`Protection`] schemes cover.
    RegBin,
    /// The PE's full-precision intermediate register, flipped in its
    /// IEEE-754 bit pattern when the IR folds into the RegBin.
    IntermediateReg,
    /// A weight value read from the weight GLB (one event per GLB read).
    WeightGlb,
    /// A weight value corrupted during the DRAM → GLB transfer (one event
    /// per element transferred; persists for the whole run).
    DramTransfer,
    /// A PE whose multiplier output is stuck at zero for the whole run
    /// (one vulnerable event per physical PE).
    StuckMac,
    /// A byte of a serialized artifact at rest (checkpoint or weaved
    /// model on storage), flipped between write and read — one vulnerable
    /// event per byte. Unprotected in the datapath sense; the `csp-io`
    /// container CRCs are what catch it at decode time.
    ArtifactAtRest,
    /// A serving-tier TCP connection dropped by the server before the
    /// reply frame is written — one vulnerable event per reply. The client
    /// observes a lost reply and must reconnect and retry; idempotent
    /// request ids keep the retry from double-executing.
    ConnDrop,
    /// A serving-tier reply frame truncated mid-write (broken pipe /
    /// half-closed socket) — one vulnerable event per reply. The client
    /// observes EOF inside a frame, a typed transport error.
    FrameTruncate,
    /// A serving-tier worker stalling before executing a batch (GC pause,
    /// noisy neighbor, page fault storm) — one vulnerable event per batch.
    /// Queued requests age toward their deadlines while the worker sleeps.
    WorkerStall,
    /// A serving-tier worker panicking mid-batch — one vulnerable event
    /// per batch. Supervision must convert this into per-request typed
    /// errors plus a worker restart, never an engine death.
    WorkerPanic,
    /// A bit flip in an encoded serving reply payload between execution
    /// and the wire — one vulnerable event per reply. The v2 response
    /// CRC is what catches it client-side.
    ReplyCorrupt,
}

impl FaultClass {
    /// All classes, in counter order.
    pub const ALL: [FaultClass; N_FAULT_CLASSES] = [
        FaultClass::RegBin,
        FaultClass::IntermediateReg,
        FaultClass::WeightGlb,
        FaultClass::DramTransfer,
        FaultClass::StuckMac,
        FaultClass::ArtifactAtRest,
        FaultClass::ConnDrop,
        FaultClass::FrameTruncate,
        FaultClass::WorkerStall,
        FaultClass::WorkerPanic,
        FaultClass::ReplyCorrupt,
    ];

    /// The accelerator/storage classes — the ones the CSP-H functional
    /// arrays and artifact codecs see (the `fault_study` sweep).
    pub const ACCEL: [FaultClass; 6] = [
        FaultClass::RegBin,
        FaultClass::IntermediateReg,
        FaultClass::WeightGlb,
        FaultClass::DramTransfer,
        FaultClass::StuckMac,
        FaultClass::ArtifactAtRest,
    ];

    /// The serving-tier classes — driven through the `csp-serve` chaos
    /// hooks (the `resilience_study` campaign).
    pub const SERVE: [FaultClass; 5] = [
        FaultClass::ConnDrop,
        FaultClass::FrameTruncate,
        FaultClass::WorkerStall,
        FaultClass::WorkerPanic,
        FaultClass::ReplyCorrupt,
    ];

    /// Stable index into per-class counter arrays (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::RegBin => "regbin",
            FaultClass::IntermediateReg => "ir",
            FaultClass::WeightGlb => "wgt-glb",
            FaultClass::DramTransfer => "dram",
            FaultClass::StuckMac => "stuck-mac",
            FaultClass::ArtifactAtRest => "artifact",
            FaultClass::ConnDrop => "conn-drop",
            FaultClass::FrameTruncate => "frame-trunc",
            FaultClass::WorkerStall => "worker-stall",
            FaultClass::WorkerPanic => "worker-panic",
            FaultClass::ReplyCorrupt => "reply-corrupt",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// RegBin protection scheme modeled by a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// Unprotected: every injected fault corrupts data silently.
    #[default]
    None,
    /// Even parity per entry: single-bit upsets are detected on the next
    /// access and repaired by flushing and recomputing the chunk's partial
    /// sum (retry cycles + weight re-fetch traffic charged per detection).
    ParityRetry,
    /// SECDED Hamming code per entry: single-bit upsets are corrected in
    /// place; encode/decode energy is charged on every RegBin access and
    /// the check bits add register area.
    Secded,
}

impl Protection {
    /// Check bits stored next to a `data_bits`-bit payload: 0 for no
    /// protection, 1 for parity, and for SECDED the smallest `r` with
    /// `2^r ≥ data_bits + r + 1`, plus the overall parity bit (5 for an
    /// 8-bit payload — a 13-bit codeword).
    pub fn check_bits(self, data_bits: usize) -> usize {
        match self {
            Protection::None => 0,
            Protection::ParityRetry => 1,
            Protection::Secded => {
                let mut r = 0usize;
                while (1usize << r) < data_bits + r + 1 {
                    r += 1;
                }
                r + 1
            }
        }
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::ParityRetry => "parity+retry",
            Protection::Secded => "secded",
        }
    }
}

impl std::fmt::Display for Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One deliberately targeted fault: fires when the class's vulnerable-event
/// counter reaches `event`, flipping bit `bit` of the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedFault {
    /// Class whose event stream is targeted.
    pub class: FaultClass,
    /// Zero-based ordinal of the vulnerable event to strike.
    pub event: u64,
    /// Bit to flip (modulo the victim's width).
    pub bit: u32,
}

/// A deterministic, seedable fault campaign.
///
/// `rate` is a Bernoulli probability applied independently to every
/// vulnerable event of every enabled class; `targeted` faults fire at
/// exact event ordinals regardless of `rate`. The default
/// ([`FaultPlan::none()`]) injects nothing, and the accelerator models
/// skip session creation entirely in that case.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-vulnerable-event Bernoulli fault probability.
    pub rate: f64,
    /// RNG seed; the same seed over the same workload reproduces the same
    /// fault sites and report exactly.
    pub seed: u64,
    /// Which classes the Bernoulli process covers (indexed by
    /// [`FaultClass::index`]).
    pub classes: [bool; N_FAULT_CLASSES],
    /// RegBin protection scheme in effect.
    pub protection: Protection,
    /// Weight of the RegBin fixed-point LSB: a RegBin upset flips a bit of
    /// the entry's 8-bit two's-complement view at this scale.
    pub regbin_lsb: f32,
    /// Targeted single-site injections (fire independently of `rate`).
    pub targeted: Vec<TargetedFault>,
    /// Cycles charged per parity detection (flush + recompute of the
    /// chunk's partial sum; the arrays set this to their truncation
    /// period).
    pub retry_cycles_per_detection: u64,
    /// Weight bytes re-fetched from the GLB per parity detection (the
    /// arrays set this to `arr_w`).
    pub refetch_bytes_per_detection: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: nothing is injected and the accelerator models
    /// take their un-instrumented path.
    pub fn none() -> Self {
        FaultPlan {
            rate: 0.0,
            seed: 0,
            classes: [true; N_FAULT_CLASSES],
            protection: Protection::None,
            regbin_lsb: 1.0 / 64.0,
            targeted: Vec::new(),
            retry_cycles_per_detection: 0,
            refetch_bytes_per_detection: 0,
        }
    }

    /// A Bernoulli campaign over all classes at `rate` per vulnerable
    /// event, with the given seed.
    pub fn bernoulli(rate: f64, seed: u64) -> Self {
        FaultPlan {
            rate: rate.clamp(0.0, 1.0),
            seed,
            ..FaultPlan::none()
        }
    }

    /// A campaign that fires only the listed targeted faults.
    pub fn targeted(faults: Vec<TargetedFault>, seed: u64) -> Self {
        FaultPlan {
            targeted: faults,
            seed,
            ..FaultPlan::none()
        }
    }

    /// Select the RegBin protection scheme.
    pub fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// Restrict the Bernoulli process to the listed classes.
    pub fn with_classes(mut self, classes: &[FaultClass]) -> Self {
        self.classes = [false; N_FAULT_CLASSES];
        for c in classes {
            self.classes[c.index()] = true;
        }
        self
    }

    /// Override the RegBin fixed-point LSB weight.
    pub fn with_regbin_lsb(mut self, lsb: f32) -> Self {
        self.regbin_lsb = lsb;
        self
    }

    /// True when the plan can never inject anything — the accelerator
    /// models use this to skip fault bookkeeping entirely.
    pub fn is_none(&self) -> bool {
        self.rate <= 0.0 && self.targeted.is_empty()
    }
}

/// What happened to one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The corruption reached the datapath unnoticed.
    Silent,
    /// SECDED corrected the flip in place.
    Corrected,
    /// Parity caught the flip; the chunk was flushed and recomputed.
    DetectedRetried,
}

/// One injected fault, for post-mortem site analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Site class.
    pub class: FaultClass,
    /// Ordinal of the vulnerable event within the class (0-based).
    pub event: u64,
    /// Bit that was flipped (width depends on the class).
    pub bit: u32,
    /// Outcome under the plan's protection scheme.
    pub outcome: FaultOutcome,
}

/// Summary of one fault campaign over one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Vulnerable events observed, per class (indexed by
    /// [`FaultClass::index`]).
    pub events: [u64; N_FAULT_CLASSES],
    /// Faults injected, per class.
    pub injected: [u64; N_FAULT_CLASSES],
    /// Faults that silently corrupted data.
    pub silent: u64,
    /// Faults detected by parity and repaired by retry.
    pub detected: u64,
    /// Faults corrected in place by SECDED.
    pub corrected: u64,
    /// Stall cycles spent on flush-and-recompute retries.
    pub retry_cycles: u64,
    /// Weight bytes re-fetched from the GLB for retries.
    pub refetch_bytes: u64,
    /// Individual fault records (capped at [`FaultSession::MAX_RECORDS`]).
    pub records: Vec<FaultRecord>,
}

impl FaultReport {
    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Total vulnerable events observed across all classes.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// Live state of one fault campaign: per-class event counters,
/// injected-fault records and protection overheads.
///
/// Created by the accelerator models from a [`FaultPlan`]; every decision
/// is a pure function of `(seed, class, per-class event ordinal)`, so the
/// same plan over the same workload reproduces the same faults.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    events: [u64; N_FAULT_CLASSES],
    injected: [u64; N_FAULT_CLASSES],
    silent: u64,
    detected: u64,
    corrected: u64,
    retry_cycles: u64,
    refetch_bytes: u64,
    records: Vec<FaultRecord>,
    stuck_pes: Vec<Option<bool>>,
}

impl FaultSession {
    /// Cap on stored per-fault records (counters are never capped).
    pub const MAX_RECORDS: usize = 4096;

    /// Start a campaign.
    pub fn new(plan: FaultPlan) -> Self {
        FaultSession {
            plan,
            events: [0; N_FAULT_CLASSES],
            injected: [0; N_FAULT_CLASSES],
            silent: 0,
            detected: 0,
            corrected: 0,
            retry_cycles: 0,
            refetch_bytes: 0,
            records: Vec::new(),
            stuck_pes: Vec::new(),
        }
    }

    /// The plan driving this session.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Set the per-detection retry costs (the arrays call this with their
    /// geometry: truncation period cycles, `arr_w` re-fetched bytes).
    pub fn set_retry_costs(&mut self, cycles: u64, bytes: u64) {
        self.plan.retry_cycles_per_detection = cycles;
        self.plan.refetch_bytes_per_detection = bytes;
    }

    /// Count one vulnerable event of `class`; returns the bit to flip when
    /// a fault fires. Targeted faults fire at their exact event ordinal;
    /// the Bernoulli process covers enabled classes only.
    fn decide(&mut self, class: FaultClass, bits: u32) -> Option<u32> {
        let i = class.index();
        let ev = self.events[i];
        self.events[i] += 1;
        if let Some(t) = self
            .plan
            .targeted
            .iter()
            .find(|t| t.class == class && t.event == ev)
        {
            return Some(t.bit % bits);
        }
        fault_draw(self.plan.seed, i, [ev, 0, 0], self.plan.rate)
            .filter(|_| self.plan.classes[i])
            .map(|h| (splitmix64(h) % u64::from(bits)) as u32)
    }

    fn record(&mut self, class: FaultClass, bit: u32, outcome: FaultOutcome) {
        let i = class.index();
        self.injected[i] += 1;
        match outcome {
            FaultOutcome::Silent => self.silent += 1,
            FaultOutcome::Corrected => self.corrected += 1,
            FaultOutcome::DetectedRetried => {
                self.detected += 1;
                self.retry_cycles += self.plan.retry_cycles_per_detection;
                self.refetch_bytes += self.plan.refetch_bytes_per_detection;
            }
        }
        if self.records.len() < Self::MAX_RECORDS {
            self.records.push(FaultRecord {
                class,
                event: self.events[i] - 1,
                bit,
                outcome,
            });
        }
    }

    /// One vulnerable f32 event (IR fold, weight-GLB read, DRAM transfer):
    /// returns the value with a bit of its IEEE-754 pattern flipped when a
    /// fault fires, otherwise unchanged. These sites are unprotected.
    pub fn corrupt_f32(&mut self, class: FaultClass, value: f32) -> f32 {
        match self.decide(class, 32) {
            Some(bit) => {
                self.record(class, bit, FaultOutcome::Silent);
                f32::from_bits(value.to_bits() ^ (1 << bit))
            }
            None => value,
        }
    }

    /// One RegBin read-modify-write on a stored partial sum: a fault flips
    /// a bit of the entry's 8-bit two's-complement view (at the plan's
    /// LSB weight). The plan's protection scheme decides the outcome:
    /// unprotected returns the corrupted value, parity detects and charges
    /// a retry (value restored), SECDED corrects in place.
    pub fn regbin_access(&mut self, stored: f32) -> f32 {
        let Some(bit) = self.decide(FaultClass::RegBin, 8) else {
            return stored;
        };
        match self.plan.protection {
            Protection::None => {
                self.record(FaultClass::RegBin, bit, FaultOutcome::Silent);
                flip_fixed_point_bit(stored, bit, self.plan.regbin_lsb)
            }
            Protection::ParityRetry => {
                self.record(FaultClass::RegBin, bit, FaultOutcome::DetectedRetried);
                stored
            }
            Protection::Secded => {
                self.record(FaultClass::RegBin, bit, FaultOutcome::Corrected);
                stored
            }
        }
    }

    /// Whether physical PE `pe` has a stuck-at-zero multiplier. The
    /// decision is drawn once per PE (lazily, on first query) and cached,
    /// so it is stable for the whole session.
    pub fn pe_is_stuck(&mut self, pe: usize) -> bool {
        if pe >= self.stuck_pes.len() {
            self.stuck_pes.resize(pe + 1, None);
        }
        if let Some(stuck) = self.stuck_pes[pe] {
            return stuck;
        }
        let stuck = match self.decide(FaultClass::StuckMac, 1) {
            Some(bit) => {
                self.record(FaultClass::StuckMac, bit, FaultOutcome::Silent);
                true
            }
            None => false,
        };
        self.stuck_pes[pe] = Some(stuck);
        stuck
    }

    /// Corrupt a serialized artifact at rest: every byte is one
    /// vulnerable [`FaultClass::ArtifactAtRest`] event, and a firing
    /// fault flips one bit of that byte. Returns how many bytes were
    /// struck. The flips are silent here — detection belongs to the
    /// `csp-io` container CRCs when the artifact is next decoded.
    pub fn corrupt_artifact(&mut self, bytes: &mut [u8]) -> usize {
        let mut struck = 0;
        for b in bytes.iter_mut() {
            if let Some(bit) = self.decide(FaultClass::ArtifactAtRest, 8) {
                self.record(FaultClass::ArtifactAtRest, bit, FaultOutcome::Silent);
                *b ^= 1 << bit;
                struck += 1;
            }
        }
        struck
    }

    /// Retry stall cycles accumulated so far (added to the run's cycle
    /// count by the arrays).
    pub fn retry_cycles(&self) -> u64 {
        self.retry_cycles
    }

    /// Snapshot the campaign summary.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            events: self.events,
            injected: self.injected,
            silent: self.silent,
            detected: self.detected,
            corrected: self.corrected,
            retry_cycles: self.retry_cycles,
            refetch_bytes: self.refetch_bytes,
            records: self.records.clone(),
        }
    }
}

/// Flip bit `bit` of `value`'s 8-bit two's-complement fixed-point view at
/// scale `lsb` (the RegBin storage format), returning the re-scaled value.
pub fn flip_fixed_point_bit(value: f32, bit: u32, lsb: f32) -> f32 {
    let lsb = if lsb > 0.0 && lsb.is_finite() {
        lsb
    } else {
        1.0
    };
    let q = (value / lsb).round().clamp(-128.0, 127.0) as i32 as i8 as u8;
    let flipped = q ^ (1 << (bit % 8));
    f32::from(flipped as i8) * lsb
}

// --- SECDED codec ---------------------------------------------------------
//
// Hamming(12,8) with check bits at codeword positions 1, 2, 4, 8 and data
// bits at 3, 5, 6, 7, 9, 10, 11, 12, extended with an overall even-parity
// bit at position 0: a 13-bit codeword per 8-bit RegBin entry.

const SECDED_DATA_POS: [u32; 8] = [3, 5, 6, 7, 9, 10, 11, 12];

/// Codeword width of the RegBin SECDED code (8 data + 5 check bits).
pub const SECDED_CODEWORD_BITS: u32 = 13;

/// Outcome of decoding a SECDED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecdedOutcome {
    /// Codeword clean; payload returned.
    Clean(u8),
    /// Single-bit error corrected; payload and flipped codeword position.
    Corrected(u8, u32),
    /// Uncorrectable double-bit error detected.
    DoubleError,
}

/// Encode an 8-bit RegBin payload into a 13-bit SECDED codeword.
pub fn secded_encode(data: u8) -> u16 {
    let mut cw: u16 = 0;
    for (i, &p) in SECDED_DATA_POS.iter().enumerate() {
        if (data >> i) & 1 == 1 {
            cw |= 1 << p;
        }
    }
    for c in [1u32, 2, 4, 8] {
        let mut parity = 0u16;
        for p in 1..=12u32 {
            if p & c != 0 && p != c {
                parity ^= (cw >> p) & 1;
            }
        }
        cw |= parity << c;
    }
    // Overall even parity over the 13-bit word.
    cw |= (cw.count_ones() as u16 & 1) & 1;
    cw
}

/// Decode a (possibly corrupted) 13-bit SECDED codeword: corrects any
/// single-bit flip, detects any double-bit flip.
pub fn secded_decode(mut cw: u16) -> SecdedOutcome {
    cw &= (1 << SECDED_CODEWORD_BITS) - 1;
    let mut syndrome = 0u32;
    for p in 1..=12u32 {
        if (cw >> p) & 1 == 1 {
            syndrome ^= p;
        }
    }
    let parity_ok = cw.count_ones().is_multiple_of(2);
    let extract = |cw: u16| -> u8 {
        let mut d = 0u8;
        for (i, &p) in SECDED_DATA_POS.iter().enumerate() {
            if (cw >> p) & 1 == 1 {
                d |= 1 << i;
            }
        }
        d
    };
    match (syndrome, parity_ok) {
        (0, true) => SecdedOutcome::Clean(extract(cw)),
        // Overall parity bit itself flipped; data intact.
        (0, false) => SecdedOutcome::Corrected(extract(cw), 0),
        (s, false) if s <= 12 => {
            let fixed = cw ^ (1 << s);
            SecdedOutcome::Corrected(extract(fixed), s)
        }
        // Non-zero syndrome with clean parity (or an out-of-range
        // syndrome): at least two bits flipped.
        _ => SecdedOutcome::DoubleError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::bernoulli(0.0, 7).is_none());
        assert!(!FaultPlan::bernoulli(0.1, 7).is_none());
        assert!(!FaultPlan::targeted(
            vec![TargetedFault {
                class: FaultClass::RegBin,
                event: 0,
                bit: 3
            }],
            0
        )
        .is_none());
    }

    #[test]
    fn zero_rate_session_never_corrupts() {
        let mut s = FaultSession::new(FaultPlan::bernoulli(0.0, 42));
        for i in 0..1000 {
            let v = i as f32 * 0.5;
            assert_eq!(
                s.corrupt_f32(FaultClass::WeightGlb, v).to_bits(),
                v.to_bits()
            );
            assert_eq!(s.regbin_access(v).to_bits(), v.to_bits());
        }
        assert!(!s.pe_is_stuck(3));
        let r = s.report();
        assert_eq!(r.total_injected(), 0);
        assert_eq!(r.total_events(), 2001);
    }

    #[test]
    fn same_seed_reproduces_same_faults() {
        let run = |seed: u64| {
            let mut s = FaultSession::new(FaultPlan::bernoulli(0.05, seed));
            let mut vals = Vec::new();
            for i in 0..500 {
                vals.push(s.corrupt_f32(FaultClass::IntermediateReg, i as f32));
                vals.push(s.regbin_access(i as f32 * 0.25));
            }
            (vals, s.report())
        };
        let (v1, r1) = run(99);
        let (v2, r2) = run(99);
        assert_eq!(r1, r2);
        assert!(v1.iter().zip(&v2).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(r1.total_injected() > 0, "rate 0.05 over 1000 events");
        let (_, r3) = run(100);
        assert_ne!(r1.records, r3.records);
    }

    #[test]
    fn targeted_fault_fires_at_exact_event() {
        let plan = FaultPlan::targeted(
            vec![TargetedFault {
                class: FaultClass::WeightGlb,
                event: 3,
                bit: 30,
            }],
            0,
        );
        let mut s = FaultSession::new(plan);
        for i in 0..6 {
            let v = 1.5f32;
            let got = s.corrupt_f32(FaultClass::WeightGlb, v);
            if i == 3 {
                assert_eq!(got.to_bits(), v.to_bits() ^ (1 << 30));
            } else {
                assert_eq!(got.to_bits(), v.to_bits());
            }
        }
        assert_eq!(s.report().injected[FaultClass::WeightGlb.index()], 1);
    }

    #[test]
    fn parity_retry_restores_value_and_charges() {
        let plan = FaultPlan::targeted(
            vec![TargetedFault {
                class: FaultClass::RegBin,
                event: 0,
                bit: 5,
            }],
            0,
        )
        .with_protection(Protection::ParityRetry);
        let mut s = FaultSession::new(plan);
        s.set_retry_costs(64, 32);
        assert_eq!(s.regbin_access(2.0), 2.0);
        let r = s.report();
        assert_eq!(r.detected, 1);
        assert_eq!(r.silent, 0);
        assert_eq!(r.retry_cycles, 64);
        assert_eq!(r.refetch_bytes, 32);
    }

    #[test]
    fn secded_corrects_and_charges_nothing_in_cycles() {
        let plan = FaultPlan::targeted(
            vec![TargetedFault {
                class: FaultClass::RegBin,
                event: 0,
                bit: 5,
            }],
            0,
        )
        .with_protection(Protection::Secded);
        let mut s = FaultSession::new(plan);
        assert_eq!(s.regbin_access(2.0), 2.0);
        let r = s.report();
        assert_eq!(r.corrected, 1);
        assert_eq!(r.retry_cycles, 0);
    }

    #[test]
    fn unprotected_regbin_flip_is_quantized() {
        let plan = FaultPlan::targeted(
            vec![TargetedFault {
                class: FaultClass::RegBin,
                event: 0,
                bit: 2,
            }],
            0,
        )
        .with_regbin_lsb(0.5);
        let mut s = FaultSession::new(plan);
        // 2.0 at LSB 0.5 → q = 4 = 0b100; flipping bit 2 clears it → 0.
        assert_eq!(s.regbin_access(2.0), 0.0);
    }

    #[test]
    fn stuck_pe_decision_is_stable() {
        let mut s = FaultSession::new(FaultPlan::bernoulli(0.3, 17));
        let first: Vec<bool> = (0..64).map(|p| s.pe_is_stuck(p)).collect();
        let second: Vec<bool> = (0..64).map(|p| s.pe_is_stuck(p)).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&b| b), "rate 0.3 over 64 PEs");
        // Events counted once per PE, not per query.
        assert_eq!(s.report().events[FaultClass::StuckMac.index()], 64);
    }

    #[test]
    fn class_filter_masks_bernoulli() {
        let plan = FaultPlan::bernoulli(1.0, 5).with_classes(&[FaultClass::WeightGlb]);
        let mut s = FaultSession::new(plan);
        assert_eq!(s.regbin_access(1.0), 1.0);
        assert_ne!(
            s.corrupt_f32(FaultClass::WeightGlb, 1.0).to_bits(),
            1.0f32.to_bits()
        );
    }

    #[test]
    fn artifact_at_rest_corruption_is_deterministic_and_countable() {
        let run = |seed: u64| {
            let mut s = FaultSession::new(FaultPlan::bernoulli(0.02, seed));
            let mut bytes = vec![0u8; 2048];
            let struck = s.corrupt_artifact(&mut bytes);
            (bytes, struck, s.report())
        };
        let (b1, n1, r1) = run(11);
        let (b2, n2, _) = run(11);
        assert_eq!(b1, b2);
        assert_eq!(n1, n2);
        assert!(n1 > 0, "rate 0.02 over 2048 bytes");
        assert_eq!(r1.events[FaultClass::ArtifactAtRest.index()], 2048);
        assert_eq!(r1.injected[FaultClass::ArtifactAtRest.index()], n1 as u64);
        // Zero-rate session leaves the artifact untouched.
        let mut s = FaultSession::new(FaultPlan::bernoulli(0.0, 11));
        let mut bytes = vec![0xA5u8; 256];
        assert_eq!(s.corrupt_artifact(&mut bytes), 0);
        assert!(bytes.iter().all(|&b| b == 0xA5));
    }

    #[test]
    fn targeted_artifact_fault_strikes_exact_byte() {
        let plan = FaultPlan::targeted(
            vec![TargetedFault {
                class: FaultClass::ArtifactAtRest,
                event: 5,
                bit: 7,
            }],
            0,
        );
        let mut s = FaultSession::new(plan);
        let mut bytes = vec![0u8; 16];
        assert_eq!(s.corrupt_artifact(&mut bytes), 1);
        assert_eq!(bytes[5], 0x80);
        assert!(bytes.iter().enumerate().all(|(i, &b)| i == 5 || b == 0));
    }

    #[test]
    fn taxonomy_is_consistent() {
        assert_eq!(FaultClass::ALL.len(), N_FAULT_CLASSES);
        for (i, c) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "ALL must be in counter order");
        }
        // ACCEL and SERVE partition ALL.
        let mut union: Vec<FaultClass> = FaultClass::ACCEL.to_vec();
        union.extend(FaultClass::SERVE);
        assert_eq!(union, FaultClass::ALL.to_vec());
    }

    /// Draws are keyed by `(class, event ordinal)`: enabling RegBin faults
    /// leaves the weight-GLB fault sites where they were.
    #[test]
    fn enabling_a_class_does_not_move_another_class_fault_sites() {
        let run = |classes: &[FaultClass]| {
            let mut s = FaultSession::new(FaultPlan::bernoulli(0.2, 31).with_classes(classes));
            for i in 0..256 {
                s.corrupt_f32(FaultClass::WeightGlb, i as f32);
                s.regbin_access(i as f32 * 0.25);
            }
            let mut r = s.report();
            r.records.retain(|rec| rec.class == FaultClass::WeightGlb);
            r
        };
        let alone = run(&[FaultClass::WeightGlb]);
        let both = run(&[FaultClass::WeightGlb, FaultClass::RegBin]);
        assert!(!alone.records.is_empty() && both.injected[FaultClass::RegBin.index()] > 0);
        assert_eq!(
            alone.records, both.records,
            "RegBin draws moved the weight-GLB sites"
        );
    }

    #[test]
    fn fixed_point_flip_round_trips() {
        // Flipping the same bit twice restores the quantized value.
        let lsb = 1.0 / 64.0;
        let v = 0.75f32;
        let once = flip_fixed_point_bit(v, 3, lsb);
        let twice = flip_fixed_point_bit(once, 3, lsb);
        assert_eq!(twice, (v / lsb).round() * lsb);
        assert_ne!(once, twice);
    }

    #[test]
    fn secded_roundtrip_clean() {
        for d in 0u16..=255 {
            let cw = secded_encode(d as u8);
            assert_eq!(secded_decode(cw), SecdedOutcome::Clean(d as u8));
        }
    }

    #[test]
    fn secded_corrects_every_single_bit_flip() {
        for d in 0u16..=255 {
            let cw = secded_encode(d as u8);
            for bit in 0..SECDED_CODEWORD_BITS {
                match secded_decode(cw ^ (1 << bit)) {
                    SecdedOutcome::Corrected(got, pos) => {
                        assert_eq!(got, d as u8, "data after flipping bit {bit}");
                        assert_eq!(pos, bit);
                    }
                    other => panic!("flip of bit {bit} in codeword of {d}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn secded_detects_every_double_bit_flip() {
        for d in 0u16..=255 {
            let cw = secded_encode(d as u8);
            for b1 in 0..SECDED_CODEWORD_BITS {
                for b2 in (b1 + 1)..SECDED_CODEWORD_BITS {
                    assert_eq!(
                        secded_decode(cw ^ (1 << b1) ^ (1 << b2)),
                        SecdedOutcome::DoubleError,
                        "bits {b1},{b2} of codeword of {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn check_bit_counts() {
        assert_eq!(Protection::None.check_bits(8), 0);
        assert_eq!(Protection::ParityRetry.check_bits(8), 1);
        assert_eq!(Protection::Secded.check_bits(8), 5);
        assert_eq!(Protection::Secded.check_bits(16), 6);
    }
}
