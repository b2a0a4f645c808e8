//! `csp-serve` — a batched inference serving engine for weaved CSP
//! artifacts, in pure `std`.
//!
//! The crate turns the repository's offline pipeline artifacts into an
//! online service:
//!
//! * [`registry`] loads weaved-model artifacts (with `.prev` fall-back
//!   recovery) and hot-swaps model versions behind an `Arc`;
//! * [`batch`] is the dynamic batcher — a bounded request queue with
//!   max-batch-size / max-wait batch formation and admission-control
//!   shedding ([`csp_tensor::CspError::Overloaded`]);
//! * [`engine`] runs one shard's worker pool; a batch of `N` requests is
//!   byte-identical to `N` serial single-request calls;
//! * [`protocol`] is the length-prefixed binary wire protocol, reusing
//!   `csp_io::wire`;
//! * [`shard`] scales the engine out: N engine shards behind a
//!   consistent-hash router on `(model, token)`, with rolling
//!   shard-by-shard hot-swap and shard-count-invariant merged stats;
//! * [`net`] is the TCP front-end — acceptor/IO shards hand-polling
//!   nonblocking sockets, so thousands of connections share a few
//!   event-loop threads;
//! * [`stats`] keeps per-model rolling QPS, log-linear latency
//!   percentiles, and the executed batch-size histogram;
//! * [`retry`] is the TCP client — deterministic seeded backoff,
//!   reconnect-and-retry, and idempotent request keys so a retry after a
//!   lost reply never double-executes;
//! * [`chaos`] injects seeded serving-tier faults (connection drops,
//!   frame truncation, reply corruption, worker stalls and panics) for
//!   resilience campaigns;
//! * [`testutil`] builds small weaved artifacts without running the full
//!   training pipeline (for tests and benchmarks).
//!
//! ```no_run
//! use csp_serve::{ModelSpec, ShardPolicy, ShardedEngine};
//!
//! // Two engine shards of two workers each; `shards: 1` is a single engine.
//! let engine = ShardedEngine::start(ShardPolicy::default()).unwrap();
//! engine
//!     .rolling_swap_from_path("basic", ModelSpec::default(), std::path::Path::new("model.cspio"))
//!     .unwrap();
//! let client = engine.client();
//! # let input = csp_tensor::Tensor::zeros(&[1, 8, 8]);
//! let reply = client.infer("basic", &input, None).unwrap();
//! println!("logits = {:?} (v{})", reply.output, reply.model_version);
//! engine.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod engine;
pub mod net;
pub mod protocol;
pub mod registry;
pub mod retry;
pub mod shard;
pub mod stats;
pub mod testutil;

pub use batch::{BatchPolicy, InferReply};
pub use chaos::ChaosSession;
pub use csp_sparse::Execution;
pub use engine::{Client, PendingReply};
pub use net::ShardedServer;
pub use protocol::{HealthReport, HealthState};
pub use registry::{LoadedModel, ModelRegistry, ModelSpec};
pub use retry::{ResilientClient, RetryPolicy};
pub use shard::{RollingSwap, ShardClient, ShardPolicy, ShardedEngine};
pub use stats::{histogram_quantile, StatsSnapshot};
