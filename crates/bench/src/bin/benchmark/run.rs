//! One benchmark run: cold set-ups, warm-up, open loop and saturation over
//! TCP and, when traced, the replays and probes behind the per-layer
//! metrics. Every phase ends with its ledgers checked.

use crate::drive::{self, Load};
use crate::probes::{self, Reps};
use crate::stack::{connect, construct, roundtrip, SetupTimes, Stack};
use crate::stats::{
    counter_total, ledger, median, metric, ms, quantile, sorted, Counters, Metric, Notes, Tally,
};
use crate::trace::{durations, Recorder, Span};
use crate::workload::{poisson, rng, Planned, Served, Workload, POOL};
use csp_serve::histogram_quantile;
use csp_telemetry::names;
use rand::Rng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Config {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measured seconds: two thirds open loop, one third saturation.
    pub seconds: f64,
    pub trace: bool,
    /// About a second per phase, a tenth of the rate, no timing gates.
    pub smoke: bool,
    /// Where the artifacts are written.
    pub dir: PathBuf,
}

pub struct Report {
    /// The metrics `BENCHMARK.json` bounds.
    pub end_to_end: Vec<Metric>,
    /// Printed beside them: error and miss shares, lateness, sample counts.
    pub context: Vec<Metric>,
    /// Traced runs only.
    pub per_layer: Vec<Metric>,
    /// Requests sent in the open loop and saturation.
    pub attempted: u64,
    /// Of those, the ones not answered OK.
    pub failed: u64,
    pub notes: Notes,
    pub spans: Vec<Span>,
}

/// Rounds of a full-length run.
const ROUNDS: usize = 10;

/// Redeploys spread over the open loop of a churning workload.
const SWAPS: usize = 20;

/// Longest pause before a set-up's first client arrives: two polls of the
/// server's acceptor.
const MAX_PAUSE: Duration = Duration::from_millis(2);

/// Gap between the idle round trips behind `net.idle_rtt_ms`.
const IDLE_GAP: Duration = Duration::from_millis(10);

/// Phase lengths and repetition counts. The measured time alternates
/// rounds of open loop and saturation, so both metrics sample the whole run
/// alike when the host's speed drifts.
struct Lengths {
    setups: usize,
    warm: f64,
    rounds: usize,
    /// Seconds of open loop per round.
    open: f64,
    /// Seconds of saturation per round.
    sat: f64,
    idle_rtts: usize,
    redeploys: usize,
    drain: Duration,
    rate_scale: f64,
    reps: Reps,
}

fn lengths(cfg: &Config) -> Lengths {
    if cfg.smoke {
        Lengths {
            setups: 3,
            warm: 0.2,
            rounds: 2,
            open: 0.3,
            sat: 0.15,
            idle_rtts: 10,
            redeploys: 2,
            drain: Duration::from_secs(60),
            rate_scale: 0.1,
            reps: Reps {
                min_reps: 2,
                min_time: Duration::ZERO,
            },
        }
    } else {
        Lengths {
            setups: 21,
            warm: 2.0,
            rounds: ROUNDS,
            open: cfg.seconds * 2.0 / 3.0 / ROUNDS as f64,
            sat: cfg.seconds / 3.0 / ROUNDS as f64,
            idle_rtts: 200,
            redeploys: 10,
            drain: Duration::from_secs(10),
            rate_scale: 1.0,
            reps: Reps {
                min_reps: 10,
                min_time: Duration::from_secs(1),
            },
        }
    }
}

/// What the generator threads of one phase drive.
#[derive(Clone, Copy)]
enum Gen<'a> {
    Tcp(Load<'a>),
    InProc(&'a [Planned]),
}

/// One phase, merged over its generator threads.
#[derive(Default)]
struct Phase {
    tally: Tally,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ok_in_window: u64,
    /// Server counters over the phase.
    counters: Counters,
    deploy_ms: Vec<f64>,
    spans: Vec<Span>,
}

/// The live stack and what every phase shares.
struct Bench<'a> {
    stack: &'a Stack,
    models: &'a [Served],
    epoch: Instant,
    drain: Duration,
    main: Recorder,
    notes: Notes,
    /// Redeploys so far; the next one redeploys model `deploys % n`.
    deploys: usize,
}

impl Bench<'_> {
    /// Run one generator thread per entry of `gens`; with `churn =
    /// (secs, n)`, make `n` redeploys from this thread meanwhile, spread
    /// over `secs`.
    fn phase(
        &mut self,
        name: &str,
        gens: &[Gen<'_>],
        churn: Option<(f64, usize)>,
        tracing: bool,
    ) -> Phase {
        let before = self.stack.counters(self.models);
        let (addr, client, models, drain, epoch) = (
            self.stack.addr(),
            self.stack.engine.client(),
            self.models,
            self.drain,
            self.epoch,
        );
        let (results, deploy_ms) = std::thread::scope(|s| {
            let handles: Vec<_> = gens
                .iter()
                .enumerate()
                .map(|(t, &gen)| {
                    let client = client.clone();
                    s.spawn(move || {
                        let mut rec = tracing.then(|| Recorder::new(epoch, t as u64 + 1));
                        let log = match gen {
                            Gen::Tcp(load) => drive::tcp(addr, models, load, drain, rec.as_mut()),
                            Gen::InProc(plan) => {
                                drive::inproc(&client, models, plan, drain, rec.as_mut())
                            }
                        };
                        (log, rec.map(|r| r.spans).unwrap_or_default())
                    })
                })
                .collect();
            let deploy_ms = match churn {
                Some((secs, n)) => self.churn(secs, n, tracing),
                None => Vec::new(),
            };
            (
                handles.into_iter().map(|h| h.join()).collect::<Vec<_>>(),
                deploy_ms,
            )
        });
        let mut out = Phase {
            deploy_ms,
            ..Phase::default()
        };
        for r in results {
            let Ok((log, spans)) = r else {
                self.notes
                    .add(format!("{name}: a generator thread panicked"));
                continue;
            };
            out.tally.add(&log.tally);
            out.latency_ms.extend(log.latency_ms);
            out.late_ms.extend(log.late_ms);
            out.ok_in_window += log.ok_in_window;
            out.spans.extend(spans);
            self.notes.absorb(log.notes);
        }
        out.counters = self.stack.counters(self.models).since(&before);
        let tcp = matches!(gens.first(), Some(Gen::Tcp(_)));
        for v in ledger(name, &out.tally, &out.counters, tcp) {
            self.notes.add(v);
        }
        out
    }

    /// `n` redeploys, one model at a time, evenly spread over `secs`.
    fn churn(&mut self, secs: f64, n: usize, tracing: bool) -> Vec<f64> {
        let start = Instant::now();
        let gap = secs / n as f64;
        (0..n)
            .map(|k| {
                let due = start + Duration::from_secs_f64((k as f64 + 0.5) * gap);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                self.redeploy(tracing)
            })
            .collect()
    }

    /// Redeploy the next model through `ShardedEngine::deploy`; returns ms.
    fn redeploy(&mut self, tracing: bool) -> f64 {
        let m = &self.models[self.deploys % self.models.len()];
        self.deploys += 1;
        let (v, bytes) = m.begin_deploy();
        let t0 = Instant::now();
        match self.stack.engine.deploy(m.name, m.spec, bytes) {
            Ok(roll) if roll.versions.iter().all(|&x| x == v) => {}
            Ok(roll) => self.notes.add(format!(
                "redeploy of {} rolled to {:?}, expected version {v}",
                m.name, roll.versions
            )),
            Err(e) => self.notes.add(format!("redeploy of {}: {e}", m.name)),
        }
        let t1 = Instant::now();
        m.end_deploy(v);
        if tracing {
            self.main.record(0, 0, "registry.deploy", t0, t1);
        }
        ms(t1 - t0)
    }

    /// `n` single requests on an idle server, `IDLE_GAP` apart; ms each.
    fn idle_rtts(&mut self, n: usize) -> Vec<f64> {
        let mut stream = match connect(self.stack.addr()) {
            Ok(s) => s,
            Err(e) => {
                self.notes.add(format!("idle probe connect: {e}"));
                return Vec::new();
            }
        };
        let start = Instant::now();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            std::thread::sleep(
                (start + IDLE_GAP * i as u32).saturating_duration_since(Instant::now()),
            );
            let m = &self.models[i % self.models.len()];
            let (input, floor) = (i % POOL, m.floor());
            let t0 = Instant::now();
            match roundtrip(&mut stream, m, input, i as u64) {
                Ok(reply) => {
                    out.push(ms(t0.elapsed()));
                    if let Err(e) = m.check(input, floor, &reply) {
                        self.notes.add(e);
                    }
                }
                Err(e) => self.notes.add(format!("idle request {i}: {e}")),
            }
        }
        out
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Seconds of vCPU time the hypervisor gave to others, summed over this
/// machine's CPUs; 0 where /proc/stat has no steal column.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// One ascending vector holding `f` of every round.
fn pooled(rounds: &[Phase], f: impl Fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
    sorted(rounds.iter().flat_map(|r| f(r).iter().copied()).collect())
}

/// The `q`-quantile latency over every open-loop request of `rounds`;
/// failures count as +∞.
fn latency(rounds: &[Phase], q: f64) -> f64 {
    quantile(&pooled(rounds, |r| &r.latency_ms), q)
}

fn mean_batch(rounds: &[Phase]) -> f64 {
    let (batched, batches) = rounds.iter().fold((0, 0), |(a, b), r| {
        (a + r.counters.batched, b + r.counters.batches)
    });
    batched as f64 / batches.max(1) as f64
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let wl = cfg.workload;
    let len = lengths(cfg);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cpus.min(2);

    // Everything derived from the seed is built before timing starts.
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    let models = wl
        .models
        .iter()
        .zip(0..)
        .map(|(plan, i)| Served::prepare(plan, i, cfg.seed, &cfg.dir))
        .collect::<Result<Vec<_>, _>>()?;
    let rate = wl.rate_rps * len.rate_scale / threads as f64;
    // Stream `round << 8 | thread` of the seed; round 0 is the warm-up.
    let plans: Vec<Vec<Vec<Planned>>> = (0..=len.rounds as u64)
        .map(|r| {
            let secs = if r == 0 { len.warm } else { len.open };
            (0..threads as u64)
                .map(|t| poisson(cfg.seed, r << 8 | t, rate, secs, models.len()))
                .collect()
        })
        .collect();
    let tcp_open =
        |r: usize| -> Vec<Gen> { plans[r].iter().map(|p| Gen::Tcp(Load::Open(p))).collect() };
    let saturate = |r: usize| -> Vec<Gen> {
        (0..threads as u64)
            .map(|t| {
                Gen::Tcp(Load::Saturate {
                    secs: len.sat,
                    seed: cfg.seed ^ (1 << 32 | (r as u64) << 8 | t),
                })
            })
            .collect()
    };
    let epoch = Instant::now();
    let mut main = Recorder::new(epoch, 0);

    // Cold set-ups; the last one serves the run.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(len.setups);
    let mut stack = None;
    let mut pauses = rng(cfg.seed, 2 << 32);
    for _ in 0..len.setups {
        if let Some(s) = stack.take() {
            Stack::shutdown(s)?;
        }
        let pause = MAX_PAUSE.mul_f64(pauses.gen::<f64>());
        let (s, t) = construct(&models, pause, cfg.trace.then_some(&mut main))?;
        setups.push(t);
        stack = Some(s);
    }
    let stack = stack.ok_or("no set-up ran")?;
    let mut b = Bench {
        stack: &stack,
        models: &models,
        epoch,
        drain: len.drain,
        main,
        notes: Notes::default(),
        deploys: 0,
    };
    let churn = wl.churn.then_some((len.open, SWAPS.div_ceil(len.rounds)));

    b.phase("warm-up", &tcp_open(0), None, false);
    let (mut open, mut sat) = (Vec::new(), Vec::new());
    let (steal0, t0) = (steal_s(), Instant::now());
    for r in 1..=len.rounds {
        open.push(b.phase("open loop", &tcp_open(r), churn, false));
        sat.push(b.phase("saturation", &saturate(r), None, false));
    }
    let steal_frac = (steal_s() - steal0) / (t0.elapsed().as_secs_f64() * cpus as f64);

    let lat = pooled(&open, |r| &r.latency_ms);
    let late_p99 = quantile(&pooled(&open, |r| &r.late_ms), 0.99);
    if !cfg.smoke && late_p99 > wl.limit_ms {
        b.notes.add(format!(
            "generator ran {late_p99:.3} ms late at p99, past the {} ms limit: run invalid",
            wl.limit_ms
        ));
    }
    let slo_miss =
        lat.iter().filter(|&&l| l > wl.limit_ms).count() as f64 / lat.len().max(1) as f64;
    let (mut open_tally, mut sat_tally) = (Tally::default(), Tally::default());
    open.iter().for_each(|r| open_tally.add(&r.tally));
    sat.iter().for_each(|r| sat_tally.add(&r.tally));
    let mut both = open_tally;
    both.add(&sat_tally);

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if cfg.trace {
        csp_telemetry::set_enabled(true);
        let g0 = csp_telemetry::global_snapshot();
        // The replays cover the schedules of the first half of the rounds.
        let replayed = len.rounds.div_ceil(2);
        let traced: Vec<Phase> = (1..=replayed)
            .map(|r| b.phase("traced open loop", &tcp_open(r), churn, true))
            .collect();
        let g1 = csp_telemetry::global_snapshot();
        let inproc: Vec<Phase> = (1..=replayed)
            .map(|r| {
                let gens: Vec<Gen> = plans[r].iter().map(|p| Gen::InProc(p)).collect();
                b.phase("in-process replay", &gens, churn, true)
            })
            .collect();
        let idle = b.idle_rtts(len.idle_rtts);
        let idle_deploys: Vec<f64> = (0..len.redeploys).map(|_| b.redeploy(true)).collect();
        csp_telemetry::set_enabled(false);

        let deploy_ms: Vec<f64> = [&open, &traced, &inproc]
            .iter()
            .flat_map(|rs| rs.iter().flat_map(|r| r.deploy_ms.iter().copied()))
            .chain(idle_deploys)
            .collect();
        let t_spans: Vec<Span> = traced
            .iter()
            .flat_map(|r| r.spans.iter().cloned())
            .collect();
        let totals = stack.counters(&models);
        let server = traced
            .iter()
            .filter_map(|r| r.counters.latency.clone())
            .reduce(|mut a, h| {
                a.merge(&h);
                a
            });
        let server_q = |q: f64| server.as_ref().map_or(0, |h| histogram_quantile(h, q)) as f64;
        let setup_ms =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        let shards = &totals.shard_requests;
        let shard_mean = shards.iter().sum::<u64>() as f64 / shards.len().max(1) as f64;
        let d =
            |name: &str| counter_total(&g1, name).saturating_sub(counter_total(&g0, name)) as f64;
        let (macs, skipped) = (d(names::SPARSE_GEMM_MACS), d(names::SPARSE_GEMM_SKIPPED));
        let traced_p50 = latency(&traced, 0.5);
        per_layer.extend([
            metric(
                "protocol.encode_us_p50",
                median(&durations(&t_spans, "protocol.encode")),
                "us",
            ),
            metric(
                "protocol.decode_us_p50",
                median(&durations(&t_spans, "protocol.decode")),
                "us",
            ),
            metric(
                "net.overhead_p50_ms",
                traced_p50 - latency(&inproc, 0.5),
                "ms",
            ),
            metric(
                "net.overhead_p99_ms",
                latency(&traced, 0.99) - latency(&inproc, 0.99),
                "ms",
            ),
            metric("net.idle_rtt_ms", median(&idle), "ms"),
            metric("net.frames", totals.frames as f64, "count"),
            metric(
                "net.protocol_errors",
                totals.protocol_errors as f64,
                "count",
            ),
            metric("net.serve_ms", setup_ms(|t| t.net_serve_ms), "ms"),
            metric("net.first_reply_ms", setup_ms(|t| t.first_reply_ms), "ms"),
            metric("engine.start_ms", setup_ms(|t| t.engine_start_ms), "ms"),
            metric("engine.inproc_p50_ms", latency(&inproc, 0.5), "ms"),
            metric("engine.inproc_p99_ms", latency(&inproc, 0.99), "ms"),
            metric("engine.server_p50_us", server_q(0.5), "us"),
            metric("engine.server_p99_us", server_q(0.99), "us"),
            metric("batch.mean_size", mean_batch(&traced), "count"),
            metric("batch.sat_mean_size", mean_batch(&sat), "count"),
            metric("batch.admitted", totals.admitted as f64, "count"),
            metric("batch.shed", totals.shed as f64, "count"),
            metric("batch.expired", totals.expired as f64, "count"),
            metric("batch.failed", totals.failed as f64, "count"),
            metric(
                "shard.imbalance",
                shards.iter().copied().max().unwrap_or(0) as f64 / shard_mean.max(1.0),
                "ratio",
            ),
            metric("registry.deploy_ms_p50", median(&deploy_ms), "ms"),
            metric("registry.load_ms", setup_ms(|t| t.registry_load_ms), "ms"),
            metric(
                "sparse.skip_frac",
                if macs + skipped > 0.0 {
                    skipped / (macs + skipped)
                } else {
                    0.0
                },
                "ratio",
            ),
            metric("sparse.gemm.calls", d(names::SPARSE_GEMM_CALLS), "count"),
            metric("gen.late_p99_ms", late_p99, "ms"),
            metric(
                "trace.overhead_p50_frac",
                traced_p50 / latency(&open[..replayed], 0.5) - 1.0,
                "ratio",
            ),
        ]);
        spans.extend(t_spans);
        spans.extend(inproc.into_iter().flat_map(|r| r.spans));
        spans.append(&mut b.main.spans);
    }
    let mut notes = b.notes;
    let totals = stack.counters(&models);
    if totals.admitted != totals.completed + totals.failed + totals.expired {
        notes.add(format!(
            "run: server admitted {} != completed {} + failed {} + expired {}",
            totals.admitted, totals.completed, totals.failed, totals.expired
        ));
    }
    stack.shutdown()?;

    if cfg.trace {
        // Kernels are probed with telemetry off, as they serve untraced.
        per_layer.extend(probes::run(&models, len.reps)?);
    }

    let peak_rps =
        sat.iter().map(|r| r.ok_in_window).sum::<u64>() as f64 / (len.sat * len.rounds as f64);
    let end_to_end = vec![
        metric(
            "setup_s",
            median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>()),
            "s",
        ),
        metric("p50_ms", quantile(&lat, 0.5), "ms"),
        metric("p99_ms", quantile(&lat, 0.99), "ms"),
        metric("slo_met_frac", 1.0 - slo_miss, "ratio"),
        metric("peak_rps", peak_rps, "req/s"),
        metric("rss_mb", peak_rss_mib()?, "MiB"),
    ];
    let context = vec![
        metric("slo_miss_frac", slo_miss, "ratio"),
        metric(
            "error_frac",
            both.not_ok() as f64 / both.sent.max(1) as f64,
            "ratio",
        ),
        metric("gen.late_p99_ms", late_p99, "ms"),
        metric("open.sent", open_tally.sent as f64, "count"),
        metric("saturation.sent", sat_tally.sent as f64, "count"),
        metric("host.steal_frac", steal_frac, "ratio"),
    ];
    Ok(Report {
        end_to_end,
        context,
        per_layer,
        attempted: both.sent,
        failed: both.not_ok(),
        notes,
        spans,
    })
}
