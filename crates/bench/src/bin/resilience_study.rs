//! resilience_study — a seeded chaos campaign against the full serving
//! stack (resilient client → event-loop TCP front-end → sharded batched
//! engine).
//!
//! Usage: `resilience_study [--smoke] [--json] [--threads N] [--out PATH]
//! [--seed N] [--telemetry]`
//!
//! Each cell serves on the shipped defaults — `ShardedEngine` with
//! `ShardPolicy::default()` behind a `ShardedServer` with 2 IO shards —
//! and attaches one [`ChaosSession`] to both the engine shards (worker
//! stalls, worker panics) and the front-end (connection drops, frame
//! truncation, reply corruption), then drives it with [`ResilientClient`]s
//! under a fault-rate sweep. The campaign asserts, per cell:
//!
//! * **nothing is lost silently** — every issued request lands in exactly
//!   one typed client outcome (ok / shed / expired / failed / transport),
//!   and server-side `admitted == completed + failed + expired`;
//! * **delivered replies are exact** — every `Ok` reply's logits are
//!   bit-identical to a chaos-free serial reference (the wire CRC turns
//!   corruption into typed transport errors, never silent drift);
//! * **the engine survives** — after the storm, supervised worker
//!   restarts have kept the pool alive and a chaos-free in-process
//!   request still succeeds.
//!
//! Everything is seeded: the same `--seed` replays the exact same fault
//! sites, retry delays, and outcomes. `--smoke` shrinks the sweep for CI
//! and exits nonzero on any violated invariant; `--json` additionally
//! writes `results/BENCH_resilience.json`.

use csp_bench::cli::CommonCli;
use csp_io::write_with_history;
use csp_serve::testutil::{prune_to_artifact, sample_input};
use csp_serve::{
    BatchPolicy, ChaosSession, ModelSpec, ResilientClient, RetryPolicy, ShardPolicy, ShardedEngine,
    ShardedServer, StatsSnapshot,
};
use csp_sim::{FaultClass, FaultPlan};
use csp_tensor::{CspError, CspResult, Tensor};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "basic";
/// IO shards of the front-end (the shipped setting).
const IO_SHARDS: usize = 2;
/// How long a chaos-stalled worker sleeps (well below any budget).
const STALL: Duration = Duration::from_millis(20);
/// Per-request retry-loop budget; generous so only true exhaustion, not
/// the 1-core host's scheduling noise, expires a request.
const BUDGET: Duration = Duration::from_secs(20);

/// Client-side typed outcomes: every request lands in exactly one bucket.
#[derive(Debug, Default, Clone, Copy)]
struct Outcomes {
    ok: u64,
    shed: u64,
    expired: u64,
    failed: u64,
    transport: u64,
    /// `Ok` replies whose logits differed from the reference (must be 0).
    mismatched: u64,
}

impl Outcomes {
    fn record<T>(&mut self, r: &CspResult<T>) {
        match r {
            Ok(_) => self.ok += 1,
            Err(CspError::Overloaded { .. }) => self.shed += 1,
            Err(CspError::Expired { .. }) => self.expired += 1,
            Err(CspError::Io { .. }) | Err(CspError::Corrupt { .. }) => self.transport += 1,
            Err(_) => self.failed += 1,
        }
    }

    fn merge(&mut self, o: Outcomes) {
        self.ok += o.ok;
        self.shed += o.shed;
        self.expired += o.expired;
        self.failed += o.failed;
        self.transport += o.transport;
        self.mismatched += o.mismatched;
    }

    fn total(&self) -> u64 {
        self.ok + self.shed + self.expired + self.failed + self.transport
    }
}

/// One measured cell of the campaign.
struct Cell {
    label: String,
    classes: Vec<FaultClass>,
    rate: f64,
    clients: usize,
    requests: u64,
    outcomes: Outcomes,
    retries: u64,
    reconnects: u64,
    injected: [u64; csp_sim::N_FAULT_CLASSES],
    restarts: u64,
    panics: u64,
    /// Chaos-free in-process request succeeded after the storm.
    survived: bool,
    wall_s: f64,
    snap: StatsSnapshot,
}

fn class_label(classes: &[FaultClass]) -> String {
    if classes.len() == FaultClass::SERVE.len() {
        return "all".to_string();
    }
    classes
        .iter()
        .map(|c| c.label())
        .collect::<Vec<_>>()
        .join("+")
}

/// The request samples clients rotate through, plus their chaos-free
/// serial reference logits.
fn reference_pool(
    spec: ModelSpec,
    artifact: &Path,
    seed: u64,
) -> CspResult<Vec<(Tensor, Vec<f32>)>> {
    let engine = ShardedEngine::start(ShardPolicy {
        shards: 1,
        workers: 1,
        batch: BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_cap: 64,
        },
        ..ShardPolicy::default()
    })?;
    engine.rolling_swap_from_path(MODEL, spec, artifact)?;
    let client = engine.client();
    let mut pool = Vec::new();
    for i in 0..8 {
        let x = sample_input(spec, seed + i, 1);
        let d = spec.input_dims();
        let x = Tensor::from_vec(x.as_slice().to_vec(), &d).expect("same length");
        let reply = client.infer(MODEL, &x, None)?;
        pool.push((x, reply.output));
    }
    engine.shutdown()?;
    Ok(pool)
}

/// Run one chaos cell: a fresh engine + server wearing `classes` at
/// `rate`, driven by `clients` resilient clients.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    spec: ModelSpec,
    artifact: &Path,
    pool: &Arc<Vec<(Tensor, Vec<f32>)>>,
    classes: &[FaultClass],
    rate: f64,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> CspResult<Cell> {
    let chaos = Arc::new(ChaosSession::new(
        FaultPlan::bernoulli(rate, seed).with_classes(classes),
        STALL,
    ));
    let engine = ShardedEngine::start_with_chaos(ShardPolicy::default(), Some(Arc::clone(&chaos)))?;
    engine.rolling_swap_from_path(MODEL, spec, artifact)?;
    let server = ShardedServer::serve_with_chaos(
        engine.client(),
        "127.0.0.1:0",
        IO_SHARDS,
        Some(Arc::clone(&chaos)),
    )?;
    let addr = server.addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let pool = Arc::clone(pool);
            std::thread::spawn(move || -> (Outcomes, u64, u64) {
                let policy = RetryPolicy {
                    max_attempts: 8,
                    base: Duration::from_micros(500),
                    cap: Duration::from_millis(20),
                    seed: seed ^ (t as u64 + 1),
                };
                let mut client = match ResilientClient::connect(&addr, policy) {
                    Ok(c) => c,
                    Err(_) => {
                        // Count every request this client would have sent
                        // as a transport failure — nothing silent.
                        let o = Outcomes {
                            transport: per_client as u64,
                            ..Outcomes::default()
                        };
                        return (o, 0, 0);
                    }
                };
                let mut outcomes = Outcomes::default();
                for i in 0..per_client {
                    let (x, want) = &pool[(t + i) % pool.len()];
                    let r = client.infer(MODEL, x, Some(BUDGET));
                    outcomes.record(&r);
                    if let Ok(reply) = &r {
                        if &reply.output != want {
                            outcomes.mismatched += 1;
                        }
                    }
                }
                (outcomes, client.retries(), client.reconnects())
            })
        })
        .collect();
    let mut outcomes = Outcomes::default();
    let mut retries = 0u64;
    let mut reconnects = 0u64;
    for h in handles {
        let (o, r, c) = h.join().unwrap_or_default();
        outcomes.merge(o);
        retries += r;
        reconnects += c;
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Survival probe: a chaos-free in-process request (no wire in the
    // way; worker-side faults may still fire, so allow a few tries).
    let probe = engine.client();
    let (x, want) = &pool[0];
    let mut survived = false;
    for _ in 0..16 {
        if let Ok(reply) = probe.infer(MODEL, x, None) {
            survived = &reply.output == want;
            break;
        }
    }

    let health = engine.health();
    let snap = engine.stats(MODEL);
    server.shutdown(Duration::from_secs(10))?;
    engine.shutdown()?;
    Ok(Cell {
        label: format!("{}@{rate}", class_label(classes)),
        classes: classes.to_vec(),
        rate,
        clients,
        requests: (clients * per_client) as u64,
        outcomes,
        retries,
        reconnects,
        injected: chaos.report().injected,
        restarts: health.restarts,
        panics: health.panics,
        survived,
        wall_s,
        snap,
    })
}

fn study_table(cells: &[Cell]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<22} {:>8} {:>6} {:>5} {:>7} {:>6} {:>5} {:>7} {:>9} {:>8} {:>8} {:>7}\n",
        "cell",
        "requests",
        "ok",
        "shed",
        "expired",
        "failed",
        "io",
        "retries",
        "injected",
        "restarts",
        "survived",
        "wall_s"
    ));
    for c in cells {
        s.push_str(&format!(
            "{:<22} {:>8} {:>6} {:>5} {:>7} {:>6} {:>5} {:>7} {:>9} {:>8} {:>8} {:>7.2}\n",
            c.label,
            c.requests,
            c.outcomes.ok,
            c.outcomes.shed,
            c.outcomes.expired,
            c.outcomes.failed,
            c.outcomes.transport,
            c.retries,
            c.injected.iter().sum::<u64>(),
            c.restarts,
            if c.survived { "yes" } else { "NO" },
            c.wall_s,
        ));
    }
    s
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(path: &str, cells: &[Cell], smoke: bool, seed: u64) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut body = String::from("{\n");
    body.push_str("  \"schema\": \"csp-bench/resilience/v1\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str(&format!("  \"seed\": {seed},\n"));
    body.push_str(&format!("  \"host_threads\": {host},\n"));
    body.push_str(&format!("  \"stall_ms\": {},\n", STALL.as_millis()));
    body.push_str(&format!("  \"budget_ms\": {},\n", BUDGET.as_millis()));
    body.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let classes = c
            .classes
            .iter()
            .map(|cl| format!("\"{}\"", cl.label()))
            .collect::<Vec<_>>()
            .join(", ");
        let injected = c
            .injected
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        body.push_str(&format!(
            "    {{\"cell\": \"{}\", \"classes\": [{}], \"rate\": {}, \
             \"clients\": {}, \"requests\": {}, \"ok\": {}, \"shed\": {}, \
             \"expired\": {}, \"failed\": {}, \"transport\": {}, \
             \"mismatched\": {}, \"lost\": {}, \"retries\": {}, \
             \"reconnects\": {}, \"injected\": [{}], \"worker_restarts\": {}, \
             \"worker_panics\": {}, \"survived\": {}, \
             \"server_admitted\": {}, \"server_completed\": {}, \
             \"server_failed\": {}, \"server_expired\": {}, \"server_shed\": {}, \
             \"wall_s\": {:.4}}}{}\n",
            json_escape(&c.label),
            classes,
            c.rate,
            c.clients,
            c.requests,
            c.outcomes.ok,
            c.outcomes.shed,
            c.outcomes.expired,
            c.outcomes.failed,
            c.outcomes.transport,
            c.outcomes.mismatched,
            c.requests.saturating_sub(c.outcomes.total()),
            c.retries,
            c.reconnects,
            injected,
            c.restarts,
            c.panics,
            c.survived,
            c.snap.admitted,
            c.snap.completed,
            c.snap.failed,
            c.snap.expired,
            c.snap.shed,
            c.wall_s,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Some(dir) = Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// The campaign invariants the CI gate checks. Returns violation messages.
fn check_invariants(cells: &[Cell]) -> Vec<String> {
    let mut bad = Vec::new();
    for c in cells {
        if c.outcomes.total() != c.requests {
            bad.push(format!(
                "cell {}: {} requests issued but only {} typed outcomes — requests \
                 were lost silently",
                c.label,
                c.requests,
                c.outcomes.total()
            ));
        }
        if c.outcomes.mismatched > 0 {
            bad.push(format!(
                "cell {}: {} delivered replies differed from the chaos-free \
                 reference — corruption slipped past the CRC",
                c.label, c.outcomes.mismatched
            ));
        }
        if c.snap.admitted != c.snap.completed + c.snap.failed + c.snap.expired {
            bad.push(format!(
                "cell {}: server admitted {} but accounted only {} \
                 (completed {} + failed {} + expired {})",
                c.label,
                c.snap.admitted,
                c.snap.completed + c.snap.failed + c.snap.expired,
                c.snap.completed,
                c.snap.failed,
                c.snap.expired
            ));
        }
        if !c.survived {
            bad.push(format!(
                "cell {}: engine did not answer a chaos-free probe after the storm",
                c.label
            ));
        }
        if c.rate == 0.0 && c.outcomes.ok != c.requests {
            bad.push(format!(
                "cell {}: fault-free baseline had errors ({} ok of {})",
                c.label, c.outcomes.ok, c.requests
            ));
        }
        if c.rate > 0.0 && c.injected.iter().sum::<u64>() == 0 {
            bad.push(format!(
                "cell {}: rate {} injected nothing — chaos plumbing inert",
                c.label, c.rate
            ));
        }
        if c.rate > 0.0 && c.outcomes.ok == 0 {
            bad.push(format!(
                "cell {}: nothing was delivered at rate {} — retry loop inert",
                c.label, c.rate
            ));
        }
    }
    let panicked: u64 = cells
        .iter()
        .filter(|c| c.classes.contains(&FaultClass::WorkerPanic) && c.rate > 0.0)
        .map(|c| c.panics)
        .sum();
    let restarted: u64 = cells
        .iter()
        .filter(|c| c.classes.contains(&FaultClass::WorkerPanic) && c.rate > 0.0)
        .map(|c| c.restarts)
        .sum();
    if panicked > 0 && restarted == 0 {
        bad.push(format!(
            "{panicked} worker panics but zero supervised restarts — supervision inert"
        ));
    }
    bad
}

/// Suppress the stderr spam from chaos-injected worker panics (they are
/// the point of the campaign); real panics still print.
fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("chaos-injected"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("chaos-injected"))
            })
            .unwrap_or(false);
        if !injected {
            default(info);
        }
    }));
}

fn run(cli: &CommonCli) -> CspResult<Vec<Cell>> {
    let smoke = cli.smoke;
    let seed = cli.seed_or(2022);
    let spec = ModelSpec::default();

    let dir = std::env::temp_dir().join(format!("csp-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| CspError::Io {
        path: dir.display().to_string(),
        what: format!("create temp dir: {e}"),
    })?;
    let artifact: PathBuf = dir.join("model.cspio");
    write_with_history(&artifact, &prune_to_artifact(spec, 0.8), None)?;
    let pool = Arc::new(reference_pool(spec, &artifact, seed)?);

    let (clients, per_client) = if smoke { (2, 10) } else { (4, 40) };
    let rates: &[f64] = if smoke {
        &[0.3]
    } else {
        &[0.05, 0.1, 0.3, 0.5]
    };

    let mut cells = Vec::new();
    // Fault-free baseline: everything must simply succeed.
    cells.push(run_cell(
        spec,
        &artifact,
        &pool,
        &FaultClass::SERVE,
        0.0,
        clients,
        per_client,
        seed,
    )?);
    // Each class alone at a fixed rate, so a regression in one fault
    // path cannot hide behind the others.
    let solo_rate = 0.3;
    for class in FaultClass::SERVE {
        cells.push(run_cell(
            spec,
            &artifact,
            &pool,
            &[class],
            solo_rate,
            clients,
            per_client,
            seed + 1 + class.index() as u64,
        )?);
    }
    // All five classes together across the rate sweep.
    for (i, &rate) in rates.iter().enumerate() {
        cells.push(run_cell(
            spec,
            &artifact,
            &pool,
            &FaultClass::SERVE,
            rate,
            clients,
            per_client,
            seed + 100 + i as u64,
        )?);
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(cells)
}

fn main() -> ExitCode {
    let cli = match CommonCli::parse().and_then(|cli| {
        cli.reject_unknown(
            "resilience_study [--smoke] [--json] [--threads N] [--out PATH] [--seed N] \
             [--telemetry]",
        )?;
        Ok(cli)
    }) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    install_quiet_panic_hook();
    println!(
        "resilience_study: {} campaign, seed {}",
        if cli.smoke { "smoke" } else { "full" },
        cli.seed_or(2022)
    );
    let cells = match run(&cli) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("resilience_study failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let table = study_table(&cells);
    print!("\n{table}");
    let study_path = "results/resilience_study.txt";
    if let Some(dir) = Path::new(study_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut study = String::from("resilience_study: seeded chaos against the serving stack\n\n");
    study.push_str(&table);
    study.push_str(
        "\ncells: <classes>@<rate>. Fault classes: conn-drop / frame-truncate =\n\
         wire faults on replies; reply-corrupt = one bit flipped (caught by the\n\
         v2 CRC); worker-stall = 20 ms sleep before a batch; worker-panic =\n\
         panic inside the forward region (supervised restart).\n\
         outcome columns are client-side typed replies; injected counts every\n\
         fired fault; survived = a chaos-free probe succeeded after the storm.\n",
    );
    match std::fs::write(study_path, &study) {
        Ok(()) => println!("wrote {study_path}"),
        Err(e) => eprintln!("failed to write {study_path}: {e}"),
    }

    if cli.json {
        write_json(
            cli.out_or("results/BENCH_resilience.json"),
            &cells,
            cli.smoke,
            cli.seed_or(2022),
        );
    }

    cli.dump_telemetry("resilience");

    let violations = check_invariants(&cells);
    if violations.is_empty() {
        println!("\nall resilience invariants hold");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        ExitCode::FAILURE
    }
}
