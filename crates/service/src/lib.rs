//! Silver as a service: a multi-tenant execution server for the
//! verified stack.
//!
//! The paper's stack gives a machine-checked guarantee that every
//! engine implementing the Silver ISA behaves identically (theorem J,
//! checked continuously by `jet::Lockstep`). That is exactly the
//! property that makes it safe to serve untrusted compile+run jobs at
//! scale on the *fastest* engine with *sampled* lockstep checking: the
//! contract is one, the implementations are many, and the sampler keeps
//! the implementations honest in production.
//!
//! Architecture (one crate, one process):
//!
//! ```text
//! silver-client ──wire──▶ net::serve ──▶ Service::submit
//!                                           │  validate → cache → admit
//!                                           ▼
//!                                bounded WorkQueue (testkit::pool)
//!                                           │
//!                              sharded WorkerPool (N workers)
//!                                           │  compile → run in checkpoint-
//!                                           │  sized slices (silver::exec;
//!                                           │  sampled jobs as the lockstep)
//!                                           ▼
//!                       JobOutcome ──▶ cache + tenant settle + metrics
//! ```
//!
//! A worker stopped mid-job requeues the job at the queue front with
//! its last rolling checkpoint ([`silver::snapshot::Snapshot`]); any
//! worker resumes it byte-identically — the crash-resume contract of
//! `tests/checkpoint.rs`, promoted to live job migration.
//!
//! Safety defaults are deliberate and guarded by CI:
//! * shadow sampling is **on** by default (`shadow_every_jobs: 8`);
//! * a cached result is **never** served without a cache-version check
//!   ([`cache::ResultCache::lookup`]).

pub mod cache;
pub mod client;
pub mod job;
pub mod net;
pub mod server;
pub mod signal;
pub mod tenant;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use client::{loadgen, parse_stats, Client, LoadgenConfig, LoadgenSummary, StatsSnapshot};
pub use job::{
    job_key, EnginePref, JobOutcome, JobSpec, JobStatus, ShadowPref, CACHE_VERSION,
};
pub use ag32::Engine;
pub use net::{serve, Endpoint};
pub use server::{RejectReason, Service};
pub use tenant::{AdmitError, TenantPolicy, TenantTable};

/// Service construction knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker (shard) count.
    pub shards: usize,
    /// Bounded shared queue depth (back-pressure bound).
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Shadow sampling: every Nth executed job runs as the lockstep of
    /// the reference interpreter and jet, which checks theorem J after
    /// every retire of its whole execution and serves the lockstep's
    /// own result (`0` disables sampling; jobs can still force a check
    /// via [`ShadowPref::Always`]).
    pub shadow_every_jobs: u64,
    /// Rolling-checkpoint cadence in retires (also the migration
    /// granularity: a stop is noticed at the next boundary).
    pub checkpoint_every: u64,
    /// Per-tenant metering policy.
    pub tenant: TenantPolicy,
    /// Engine for [`EnginePref::Auto`] jobs. Jet: the fastest engine is
    /// the right default precisely because shadow sampling stays on.
    pub default_engine: Engine,
    /// Completed-trace store capacity: the newest N job traces are
    /// retrievable through the `Trace` wire op (0 disables tracing
    /// retention; the flight recorder still runs).
    pub trace_capacity: usize,
    /// Flight-recorder ring capacity, in events per shard ring.
    pub flight_capacity: usize,
    /// Where flight-recorder dumps land (Chrome trace-event JSON,
    /// written automatically on shadow divergence, worker death and
    /// shutdown). `None` disables dumping; recording still happens.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Cadence of time-series stats lines appended to the bench file by
    /// the socket front end, in milliseconds (0 = only the shutdown
    /// lines).
    pub stats_every_ms: u64,
    /// Fault-injection hook for tests and CI: XORed into the jet side's
    /// ALU results inside shadowed runs so a divergence (and its automatic
    /// flight-recorder dump) can be provoked on demand. Keep 0 in
    /// production.
    #[doc(hidden)]
    pub fault_xor: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 4,
            queue_depth: 256,
            cache_capacity: 256,
            // Shadow sampling defaults ON: serving jet-by-default is
            // only safe while theorem J keeps being spot-checked in
            // production. (scripts/ci.sh pins this default.)
            shadow_every_jobs: 8,
            checkpoint_every: 100_000,
            tenant: TenantPolicy::default(),
            default_engine: Engine::Jet,
            trace_capacity: 512,
            flight_capacity: 4096,
            trace_dir: None,
            stats_every_ms: 1000,
            fault_xor: 0,
        }
    }
}
