//! # polyject-serve
//!
//! The serving layer: a long-lived compilation daemon (`polyjectd`) with a
//! persistent, content-addressed schedule cache, turning repeated
//! compilation cost from O(requests) into O(unique kernels).
//!
//! * [`pool`] — the dependency-free work-stealing worker pool (moved here
//!   from `polyject-bench` so both the Table II harness and the daemon
//!   share one executor), plus a persistent [`pool::WorkerPool`];
//! * [`json`] — a minimal, deterministic JSON value model (the workspace
//!   is offline and carries no serde);
//! * [`hash`] — stable FNV-1a content hashing for cache keys;
//! * [`cache`] — the on-disk cache: versioned JSON entries, atomic
//!   writes, checksum-verified reads with quarantine, LRU eviction, a
//!   startup sweep of torn temporaries;
//! * [`faults`] — the deterministic fault-injection seam: an [`faults::Io`]
//!   trait in front of every cache file operation, with a SplitMix64-seeded
//!   fault schedule for the chaos suite;
//! * [`protocol`] — the length-prefixed JSON request/response wire format;
//! * [`service`] — canonical kernel hashing + compile-through-cache with
//!   single-flight deduplication;
//! * [`daemon`] — the `polyjectd` accept loop: bounded queue,
//!   backpressure, per-request timeouts, graceful shutdown;
//! * [`net`] — the listener both servers accept on (nonblocking
//!   accept plus a readiness wait, so no accept loop sleeps on the
//!   request path), the connection stream type, and the stop signal;
//! * [`client`] — the client used by `polyjectc --remote` and tests,
//!   including client-side shard selection ([`client::ShardedClient`]);
//! * [`stats`] — hit/miss/eviction/error counters and latency
//!   aggregates, plus the router's per-shard [`stats::ShardMetrics`];
//! * [`tuned`] — persisted tuned configurations: the autotuner's
//!   cache-backed entry points (`tune_cached`, and `tune_cached_batch`
//!   fanning whole per-kernel searches over the pool) and the
//!   `tuned-config` entry kind;
//! * [`membership`] — the consistent-hash ring over the FNV-1a key
//!   space, with per-shard health for failover ordering;
//! * [`hot`] — the bounded in-memory hot tier above the disk cache;
//! * [`router`] — the `polyject-router` core: hedged requests,
//!   retry/backoff with seeded jitter, failover, R-way replication of
//!   hot keys, and resumable cross-node warm transfer.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod faults;
pub mod hash;
pub mod hot;
pub mod json;
pub mod membership;
pub mod net;
pub mod pool;
pub mod protocol;
pub mod router;
pub mod service;
pub mod stats;
pub mod tuned;

pub use cache::{CacheStats, DiskCache};
pub use client::ShardedClient;
pub use client::{Client, Endpoint};
pub use daemon::{run_daemon, DaemonConfig};
pub use faults::{FaultyIo, Io, NetChaos, RealIo};
pub use hash::{fnv1a64, Fnv64};
pub use hot::HotTier;
pub use json::Json;
pub use membership::{HashRing, Membership, ShardState};
pub use pool::{default_workers, parallel_map, WorkerPool};
pub use protocol::{read_frame, write_frame, BatchItem, CompileReply, Request};
pub use router::{Router, RouterConfig};
pub use service::{
    cache_key, cache_key_with_options, compile_reply, compile_reply_with_budget,
    compile_reply_with_options, config_by_name, CompileService, Governance, Served,
};
pub use stats::{LatencyAgg, ServeStats, ShardMetrics};
pub use tuned::{
    batch_reports, decode_tuned, encode_tuned, tune_cached, tune_cached_batch, tuned_key,
    BatchTuneReport, ParallelRunner, TuneJob, TuneReport, TUNED_FORMAT_VERSION, TUNED_KIND,
};
