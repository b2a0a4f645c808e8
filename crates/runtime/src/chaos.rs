//! Seeded fault injection for the runtime itself.
//!
//! A [`RuntimeChaosSession`] makes dispatches misbehave on purpose so the
//! supervision machinery can be exercised deterministically:
//!
//! | class                             | injected where                  | effect                      |
//! |-----------------------------------|---------------------------------|-----------------------------|
//! | [`RuntimeFaultClass::ChunkPanic`] | any participant, at chunk claim | the chunk closure panics    |
//! | [`RuntimeFaultClass::WorkerStall`]| any participant, at chunk claim | sleeps, then runs the chunk |
//! | [`RuntimeFaultClass::WorkerLoss`] | pool workers only               | thread abandons its chunk and exits |
//!
//! ## Determinism under nondeterministic scheduling
//!
//! Chunks are claimed by whichever participant gets there first, so a
//! shared sequential fault stream (as `csp-sim`'s `FaultSession` uses)
//! would hand different faults to different chunks from run to run.
//! Instead, every decision is a **pure function** of
//! `(seed, dispatch_seq, chunk_index, class)` hashed through splitmix64:
//! the same chunk of the same dispatch draws the same fault at every
//! pool width and under any interleaving. Injected panics travel the
//! *real* `catch_unwind` containment path — chaos forges no shortcuts.
//!
//! Sessions install into a thread-local scope ([`RuntimeChaosSession::run`])
//! and apply only to top-level dispatches made by that thread; nested
//! dispatches inside chunk closures never draw faults, which keeps
//! outcomes width-invariant (at width 1 the nested call runs on the
//! calling thread, where the session is installed; at width N it runs on
//! a worker, where it is not).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Marker prefix carried by every injected panic payload; used to filter
/// noise in [`silence_injected_panics`] and recognizable in
/// [`RuntimeError::ChunkPanicked`](crate::RuntimeError::ChunkPanicked).
pub const INJECTED_PANIC_MARK: &str = "csp-chaos:";

/// The runtime fault classes a [`RuntimeChaosSession`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeFaultClass {
    /// The chunk closure panics (contained by the dispatch).
    ChunkPanic,
    /// The participant sleeps before running the chunk (trips the stall
    /// watchdog when a deadline is configured).
    WorkerStall,
    /// A pool worker abandons its claimed-but-untouched chunk and its
    /// thread exits; the dispatcher re-executes the chunk and the
    /// supervisor respawns the worker.
    WorkerLoss,
}

impl RuntimeFaultClass {
    /// All classes, in a fixed order (index = [`Self::index`]).
    pub const ALL: [RuntimeFaultClass; 3] = [
        RuntimeFaultClass::ChunkPanic,
        RuntimeFaultClass::WorkerStall,
        RuntimeFaultClass::WorkerLoss,
    ];

    /// Stable position of this class in per-class tables.
    pub fn index(self) -> usize {
        match self {
            RuntimeFaultClass::ChunkPanic => 0,
            RuntimeFaultClass::WorkerStall => 1,
            RuntimeFaultClass::WorkerLoss => 2,
        }
    }

    /// Human-readable class name (also the telemetry label).
    pub fn name(self) -> &'static str {
        match self {
            RuntimeFaultClass::ChunkPanic => "chunk_panic",
            RuntimeFaultClass::WorkerStall => "worker_stall",
            RuntimeFaultClass::WorkerLoss => "worker_loss",
        }
    }
}

/// What a participant must do with a claimed chunk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RuntimeFault {
    /// Panic inside the chunk closure.
    Panic,
    /// Sleep, then run the chunk normally.
    Stall(Duration),
    /// Abandon the chunk untouched and kill the worker thread.
    Loss,
}

/// Summary of one chaos campaign: injections per class, in
/// [`RuntimeFaultClass::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeChaosReport {
    /// Faults actually injected, indexed by [`RuntimeFaultClass::index`].
    pub injected: [u64; 3],
}

impl RuntimeChaosReport {
    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

/// A seeded source of runtime faults, scoped to a closure via [`run`].
///
/// [`run`]: RuntimeChaosSession::run
#[derive(Debug)]
pub struct RuntimeChaosSession {
    seed: u64,
    rates: [f64; 3],
    stall: Duration,
    next_seq: AtomicU64,
    injected: [AtomicU64; 3],
}

impl RuntimeChaosSession {
    /// A session with every fault class disabled; enable classes with
    /// [`with_rate`](Self::with_rate).
    pub fn new(seed: u64) -> Self {
        RuntimeChaosSession {
            seed,
            rates: [0.0; 3],
            stall: Duration::from_millis(20),
            next_seq: AtomicU64::new(0),
            injected: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Set the per-chunk injection probability for `class` (clamped to
    /// `[0, 1]`).
    pub fn with_rate(mut self, class: RuntimeFaultClass, rate: f64) -> Self {
        self.rates[class.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Set how long an injected [`RuntimeFaultClass::WorkerStall`]
    /// sleeps.
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// Faults injected so far for `class`.
    pub fn injected(&self, class: RuntimeFaultClass) -> u64 {
        self.injected[class.index()].load(Ordering::Relaxed)
    }

    /// Snapshot the campaign summary.
    pub fn report(&self) -> RuntimeChaosReport {
        let mut r = RuntimeChaosReport::default();
        for (slot, v) in r.injected.iter_mut().zip(&self.injected) {
            *slot = v.load(Ordering::Relaxed);
        }
        r
    }

    /// Run `f` with this session installed on the current thread: every
    /// top-level dispatch `f` makes draws faults from the session.
    /// Restores the previous session on exit, also on panic.
    pub fn run<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let _guard = InstallGuard::set(Arc::clone(self));
        f()
    }

    fn count(&self, class: RuntimeFaultClass) {
        self.injected[class.index()].fetch_add(1, Ordering::Relaxed);
        if csp_telemetry::enabled() {
            csp_telemetry::counter_add(
                csp_telemetry::names::RUNTIME_CHAOS_INJECTED,
                class.name(),
                1,
            );
        }
    }

    /// Pure draw: does `class` fire for `(dispatch_seq, chunk)`?
    fn draws(&self, seq: u64, chunk: usize, class: RuntimeFaultClass) -> bool {
        let rate = self.rates[class.index()];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mix = self
            .seed
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((chunk as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((class.index() as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let h = splitmix64(mix);
        // 53 high bits -> uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }
}

/// The standard splitmix64 finalizer (public-domain constants). A private
/// copy of `csp_sim::fault::splitmix64` (same constants), because this
/// crate cannot depend on csp-sim.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

thread_local! {
    /// Session installed on this thread, if any.
    static INSTALLED: RefCell<Option<Arc<RuntimeChaosSession>>> = const { RefCell::new(None) };
    /// Depth of chunk closures currently executing on this thread;
    /// nested dispatches under a chunk never draw faults.
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

struct InstallGuard {
    prev: Option<Arc<RuntimeChaosSession>>,
}

impl InstallGuard {
    fn set(session: Arc<RuntimeChaosSession>) -> Self {
        let prev = INSTALLED.with(|c| c.borrow_mut().replace(session));
        InstallGuard { prev }
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        INSTALLED.with(|c| *c.borrow_mut() = prev);
    }
}

/// RAII depth guard: while held, this thread draws no faults.
pub(crate) struct SuppressGuard;

impl SuppressGuard {
    pub(crate) fn enter() -> Self {
        SUPPRESS.with(|c| c.set(c.get() + 1));
        SuppressGuard
    }
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// Whether a session is installed *and* applicable on this thread — the
/// engine must route even width-1 dispatches through the containment
/// path when this is true.
pub(crate) fn active() -> bool {
    SUPPRESS.with(Cell::get) == 0 && INSTALLED.with(|c| c.borrow().is_some())
}

/// Per-dispatch fault context: the installed session plus this dispatch's
/// sequence number.
pub(crate) struct DispatchChaos {
    session: Arc<RuntimeChaosSession>,
    seq: u64,
}

/// Claim a fault context for a new top-level dispatch, if a session is
/// installed and not suppressed.
pub(crate) fn begin_dispatch() -> Option<DispatchChaos> {
    if SUPPRESS.with(Cell::get) != 0 {
        return None;
    }
    INSTALLED.with(|c| {
        c.borrow().as_ref().map(|s| DispatchChaos {
            session: Arc::clone(s),
            seq: s.next_seq.fetch_add(1, Ordering::Relaxed),
        })
    })
}

impl DispatchChaos {
    /// The fault (if any) for `chunk`, drawn deterministically. Class
    /// priority is Panic > Loss > Stall so that outcomes stay
    /// width-invariant: `Loss` applies only to pool workers (a width-1
    /// caller simply executes the chunk), which never changes delivered
    /// results because an abandoned chunk is re-executed untouched.
    pub(crate) fn fault_for(&self, chunk: usize, is_worker: bool) -> Option<RuntimeFault> {
        let s = &self.session;
        if s.draws(self.seq, chunk, RuntimeFaultClass::ChunkPanic) {
            s.count(RuntimeFaultClass::ChunkPanic);
            return Some(RuntimeFault::Panic);
        }
        if is_worker && s.draws(self.seq, chunk, RuntimeFaultClass::WorkerLoss) {
            s.count(RuntimeFaultClass::WorkerLoss);
            return Some(RuntimeFault::Loss);
        }
        if s.draws(self.seq, chunk, RuntimeFaultClass::WorkerStall) {
            s.count(RuntimeFaultClass::WorkerStall);
            return Some(RuntimeFault::Stall(s.stall));
        }
        None
    }
}

/// Install a process-wide panic hook that swallows the default "thread
/// panicked" stderr report for *injected* panics (payloads starting with
/// [`INJECTED_PANIC_MARK`]) while delegating everything else to the
/// previous hook. Idempotent; used by chaos tests and the
/// `runtime_resilience` study to keep output readable.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.starts_with(INJECTED_PANIC_MARK))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.starts_with(INJECTED_PANIC_MARK))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions_of_coordinates() {
        let s = RuntimeChaosSession::new(42).with_rate(RuntimeFaultClass::ChunkPanic, 0.3);
        let a: Vec<bool> = (0..256)
            .map(|c| s.draws(3, c, RuntimeFaultClass::ChunkPanic))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|c| s.draws(3, c, RuntimeFaultClass::ChunkPanic))
            .collect();
        assert_eq!(a, b, "same coordinates, same draw");
        assert!(a.iter().any(|&x| x), "rate 0.3 over 256 chunks must fire");
        assert!(!a.iter().all(|&x| x), "rate 0.3 must not always fire");
    }

    #[test]
    fn different_seeds_differ() {
        let a = RuntimeChaosSession::new(1).with_rate(RuntimeFaultClass::ChunkPanic, 0.5);
        let b = RuntimeChaosSession::new(2).with_rate(RuntimeFaultClass::ChunkPanic, 0.5);
        let da: Vec<bool> = (0..128)
            .map(|c| a.draws(0, c, RuntimeFaultClass::ChunkPanic))
            .collect();
        let db: Vec<bool> = (0..128)
            .map(|c| b.draws(0, c, RuntimeFaultClass::ChunkPanic))
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn disabled_classes_never_fire() {
        let s = RuntimeChaosSession::new(7).with_rate(RuntimeFaultClass::WorkerStall, 1.0);
        assert!(!s.draws(0, 0, RuntimeFaultClass::ChunkPanic));
        assert!(!s.draws(0, 0, RuntimeFaultClass::WorkerLoss));
        assert!(s.draws(0, 0, RuntimeFaultClass::WorkerStall));
    }

    #[test]
    fn install_scope_nests_and_restores() {
        assert!(!active());
        let s = Arc::new(RuntimeChaosSession::new(1));
        s.run(|| {
            assert!(active());
            let inner = Arc::new(RuntimeChaosSession::new(2));
            inner.run(|| assert!(active()));
            assert!(active());
            let _g = SuppressGuard::enter();
            assert!(!active(), "suppressed inside a chunk closure");
        });
        assert!(!active());
    }

    #[test]
    fn sessions_count_injections() {
        let s =
            Arc::new(RuntimeChaosSession::new(11).with_rate(RuntimeFaultClass::ChunkPanic, 1.0));
        s.run(|| {
            let cx = begin_dispatch().expect("session installed");
            assert!(matches!(cx.fault_for(0, false), Some(RuntimeFault::Panic)));
        });
        assert_eq!(s.injected(RuntimeFaultClass::ChunkPanic), 1);
        assert_eq!(s.report().total(), 1);
    }
}
