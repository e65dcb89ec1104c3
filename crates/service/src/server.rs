//! The in-process execution service: admission → cache → queue →
//! sharded worker pool → outcome, with shadow sampling, checkpoint
//! migration, metrics, and per-job tracing.
//!
//! Submission path:
//!
//! 1. **Validate** the spec (non-empty source, no named files, fuel > 0).
//! 2. **Cache lookup** by content key — a hit is served immediately
//!    (after the mandatory cache-version check) without touching the
//!    tenant's fuel budget.
//! 3. **Admission** reserves the job's fuel and an in-flight slot
//!    against the tenant's policy, then the job is enqueued on the
//!    bounded work queue (back-pressure: a full queue rejects).
//! 4. A **worker** compiles and runs the job in checkpoint-sized
//!    slices ([`silver::exec::run`]). Every `shadow_every_jobs`-th
//!    executed job runs as the lockstep of the reference interpreter
//!    and jet (theorem J checked on every retire) and returns the
//!    lockstep's own result; a divergence fails the job with forensics
//!    and is never cached.
//! 5. A worker stopped mid-job requeues the job *at the front* of the
//!    queue with a checkpoint of the boundary it stopped at; any
//!    worker — including a freshly respawned one — resumes it from
//!    there. The resumed result is byte-identical to an uninterrupted
//!    run (the crash-resume contract, now as live job migration). A
//!    shadowed job resumes as a lockstep again, so every segment is
//!    checked.
//!
//! Every step above also emits a span into the job's
//! [`obs::trace::JobTrace`] — admit, cache lookup, tenant reserve,
//! queue wait, compile, shadow check, exec slices, checkpoints,
//! migration, requeue, reply — timed by **logical clocks** (per-job
//! event sequence numbers; retire counts and queue depths as span
//! args). Wall-clock readings ride along only as optional annotations.
//! The same events tee into a bounded per-shard [`FlightRecorder`]; on
//! a shadow divergence, a worker death, or shutdown the recorder dumps
//! Chrome trace-event JSON (Perfetto-loadable) into
//! [`ServiceConfig::trace_dir`].

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ag32::{Engine, Machine, NoTrace, State};
use basis::{build_image, ExitStatus, Finished};
use cakeml::{compile_source, CompilerConfig, TargetLayout};
use obs::metrics::Registry;
use obs::trace::{chrome_trace_json, FlightRecorder, JobTrace, SpanId, SpanKind, TraceBuilder};
use obs::Forensics;
use silver::exec::{Hooks, Plan, RunEnd, Shadow};
use silver::snapshot::Snapshot;
use testkit::pool::{PushError, WorkQueue, WorkerCtl, WorkerPool};

use crate::cache::{CacheStats, ResultCache};
use crate::job::{job_key, EnginePref, JobOutcome, JobSpec, JobStatus, ShadowPref};
use crate::tenant::{AdmitError, TenantTable};
use crate::ServiceConfig;

/// Why the service refused a job at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Per-job fuel cap exceeded.
    JobFuel(String),
    /// Tenant fuel budget exhausted.
    FuelBudget(String),
    /// Tenant in-flight cap reached.
    QueueDepth(String),
    /// The shared queue is full (global back-pressure).
    QueueFull,
    /// Malformed job.
    BadRequest(String),
    /// The service is shutting down.
    ShuttingDown,
}

impl RejectReason {
    /// The wire code for this rejection.
    #[must_use]
    pub fn code(&self) -> u8 {
        use crate::wire::reject_code as rc;
        match self {
            RejectReason::JobFuel(_) => rc::JOB_FUEL,
            RejectReason::FuelBudget(_) => rc::FUEL_BUDGET,
            RejectReason::QueueDepth(_) => rc::QUEUE_DEPTH,
            RejectReason::QueueFull => rc::QUEUE_FULL,
            RejectReason::BadRequest(_) => rc::BAD_REQUEST,
            RejectReason::ShuttingDown => rc::SHUTTING_DOWN,
        }
    }

    /// Human-readable reason.
    #[must_use]
    pub fn reason(&self) -> String {
        match self {
            RejectReason::JobFuel(s)
            | RejectReason::FuelBudget(s)
            | RejectReason::QueueDepth(s)
            | RejectReason::BadRequest(s) => s.clone(),
            RejectReason::QueueFull => "shared work queue is full".to_string(),
            RejectReason::ShuttingDown => "service is shutting down".to_string(),
        }
    }
}

struct Pending {
    spec: JobSpec,
    key: u64,
    job_id: u64,
    engine: Engine,
    shadowed: bool,
    resume: Option<Box<Snapshot>>,
    migrations: u32,
    /// The job's span tree under construction (None only transiently
    /// inside `handle_job`).
    trace: Option<TraceBuilder>,
    /// The currently open queue-wait span, ended when a worker picks
    /// the job up.
    queue_span: Option<SpanId>,
    tx: mpsc::Sender<JobOutcome>,
    submitted: Instant,
}

struct Metrics {
    registry: Registry,
    submitted: Arc<obs::metrics::Counter>,
    completed: Arc<obs::metrics::Counter>,
    cached: Arc<obs::metrics::Counter>,
    rejected: Arc<obs::metrics::Counter>,
    shadow_jobs: Arc<obs::metrics::Counter>,
    divergences: Arc<obs::metrics::Counter>,
    migrations: Arc<obs::metrics::Counter>,
    checkpoints: Arc<obs::metrics::Counter>,
    cache_hits: Arc<obs::metrics::Counter>,
    cache_misses: Arc<obs::metrics::Counter>,
    cache_evictions: Arc<obs::metrics::Counter>,
    job_us: Arc<obs::metrics::Histogram>,
    exec_us: Arc<obs::metrics::Histogram>,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        Metrics {
            submitted: registry.counter("service.jobs.submitted"),
            completed: registry.counter("service.jobs.completed"),
            cached: registry.counter("service.jobs.cached"),
            rejected: registry.counter("service.jobs.rejected"),
            shadow_jobs: registry.counter("service.shadow.jobs"),
            divergences: registry.counter("service.shadow.divergences"),
            migrations: registry.counter("service.migrations"),
            checkpoints: registry.counter("service.checkpoints"),
            cache_hits: registry.counter("service.cache.hits"),
            cache_misses: registry.counter("service.cache.misses"),
            cache_evictions: registry.counter("service.cache.evictions"),
            job_us: registry.histogram("service.job_us"),
            exec_us: registry.histogram("service.exec_us"),
            registry,
        }
    }
}

struct Inner {
    cfg: ServiceConfig,
    layout: TargetLayout,
    compiler_cfg: CompilerConfig,
    queue: Arc<WorkQueue<Pending>>,
    cache: ResultCache,
    tenants: TenantTable,
    m: Metrics,
    /// Admission sequence: the service-global logical clock that names
    /// jobs (`job_id`) and orders them causally.
    admit_seq: AtomicU64,
    /// Executed-job counter driving `shadow_every_jobs` sampling.
    shadow_seq: AtomicU64,
    /// Checkpoint boundaries reached (also the clock for the
    /// deterministic kill tripwire).
    checkpoint_seq: AtomicU64,
    /// Stats-line sequence for the time-series bench lines.
    stats_seq: AtomicU64,
    /// Fault-injection tripwire for tests: when nonzero, the worker
    /// that reaches this checkpoint count "dies" (requeues its job and
    /// stops) — a deterministic stand-in for killing a worker mid-job.
    kill_at_checkpoint: AtomicU64,
    /// High-water mark of worker slots ever spawned. Outlives the pool
    /// so post-shutdown stats still cover every shard that existed.
    spawned_hwm: AtomicUsize,
    /// The flight recorder every trace event tees into.
    flight: Arc<FlightRecorder>,
    /// The newest `cfg.trace_capacity` completed job traces, oldest
    /// first — what the `Trace` wire op serves.
    traces: Mutex<VecDeque<JobTrace>>,
    started: Instant,
}

impl Inner {
    /// Wall-clock annotation for spans: µs since service start. Only
    /// ever attached as an *annotation* — ordering is logical clocks.
    fn wall_us(&self) -> Option<u64> {
        Some(self.started.elapsed().as_micros() as u64)
    }

    /// The deterministic kill tripwire is armed and its checkpoint
    /// count has been reached.
    fn tripwire_fired(&self) -> bool {
        let at = self.kill_at_checkpoint.load(Ordering::Relaxed);
        at != 0 && self.checkpoint_seq.load(Ordering::Relaxed) >= at
    }

    fn store_trace(&self, trace: JobTrace) {
        if self.cfg.trace_capacity == 0 {
            return;
        }
        let mut traces = self.traces.lock().expect("trace lock");
        while traces.len() >= self.cfg.trace_capacity {
            traces.pop_front();
        }
        traces.push_back(trace);
    }

    /// Writes a Chrome trace-event dump (`traces` plus the flight
    /// recorder's resident events) into `trace_dir` as
    /// `TRACE_<label>.json`. No-op without a configured dir.
    fn dump_flight(&self, label: &str, traces: &[JobTrace]) -> Option<std::path::PathBuf> {
        let dir = self.cfg.trace_dir.as_ref()?;
        let doc = chrome_trace_json(traces, &self.flight.chrome_events());
        let path = dir.join(format!("TRACE_{label}.json"));
        match std::fs::write(&path, doc) {
            Ok(()) => Some(path),
            Err(_) => None,
        }
    }
}

/// The multi-tenant execution service. Cheap to share: all state is
/// behind `Arc`/locks; [`Service::submit`] may be called from any
/// number of threads (the socket front end spawns one per connection).
pub struct Service {
    inner: Arc<Inner>,
    pool: Mutex<Option<WorkerPool<Pending>>>,
}

impl Service {
    /// Starts a service with `cfg.shards` workers.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Service {
        let queue = WorkQueue::bounded(cfg.queue_depth.max(1));
        let flight = Arc::new(FlightRecorder::new(cfg.shards.max(1), cfg.flight_capacity.max(1)));
        let inner = Arc::new(Inner {
            layout: TargetLayout::default(),
            compiler_cfg: CompilerConfig::default(),
            queue: Arc::clone(&queue),
            cache: ResultCache::new(cfg.cache_capacity),
            tenants: TenantTable::new(cfg.tenant),
            m: Metrics::new(),
            admit_seq: AtomicU64::new(0),
            shadow_seq: AtomicU64::new(0),
            checkpoint_seq: AtomicU64::new(0),
            stats_seq: AtomicU64::new(0),
            kill_at_checkpoint: AtomicU64::new(0),
            spawned_hwm: AtomicUsize::new(0),
            flight,
            traces: Mutex::new(VecDeque::new()),
            started: Instant::now(),
            cfg,
        });
        let shards = inner.cfg.shards.max(1);
        inner.spawned_hwm.store(shards, Ordering::Relaxed);
        let handler_inner = Arc::clone(&inner);
        let pool = WorkerPool::new(queue, shards, move |ctl, job| {
            handle_job(&handler_inner, ctl, job);
        });
        Service { inner, pool: Mutex::new(Some(pool)) }
    }

    /// Submits a job and blocks until its outcome.
    ///
    /// # Errors
    ///
    /// [`RejectReason`] when admission refuses the job.
    pub fn submit(&self, spec: JobSpec) -> Result<JobOutcome, RejectReason> {
        let rx = self.submit_async(spec)?;
        Ok(rx.recv().unwrap_or_else(|_| {
            status_outcome(JobStatus::Internal, "worker lost the job channel".to_string())
        }))
    }

    /// Submits a job, returning a receiver for its outcome (already
    /// filled for cache hits).
    ///
    /// # Errors
    ///
    /// [`RejectReason`] when admission refuses the job.
    pub fn submit_async(
        &self,
        spec: JobSpec,
    ) -> Result<mpsc::Receiver<JobOutcome>, RejectReason> {
        let inner = &self.inner;
        inner.m.submitted.inc();

        // Every submission gets a job id (the admit sequence number —
        // the service-global logical clock) and a trace builder teeing
        // into the flight recorder.
        let job_id = inner.admit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut tb = TraceBuilder::new(job_id, Some(Arc::clone(&inner.flight)));
        tb.begin(SpanKind::Job, 0, inner.wall_us());
        let admit = tb.begin(SpanKind::Admit, 0, inner.wall_us());

        if let Err(r) = validate(&spec) {
            inner.m.rejected.inc();
            return Err(r);
        }
        tb.end(admit, 0, inner.wall_us());
        let key = job_key(&spec);
        let (tx, rx) = mpsc::channel();

        // Cache: a hit costs the tenant nothing and touches no worker.
        let lookup = tb.begin(SpanKind::CacheLookup, 0, inner.wall_us());
        if let Some(mut hit) = inner.cache.lookup(key) {
            tb.end(lookup, 1, inner.wall_us());
            inner.m.cache_hits.inc();
            inner.m.cached.inc();
            inner.m.completed.inc();
            inner.m.job_us.record(0);
            hit.job_id = job_id;
            tb.instant(SpanKind::Reply, 0, inner.wall_us());
            inner.store_trace(tb.finish());
            let _ = tx.send(hit);
            return Ok(rx);
        }
        tb.end(lookup, 0, inner.wall_us());
        inner.m.cache_misses.inc();

        let reserve = tb.begin(SpanKind::TenantReserve, spec.fuel, inner.wall_us());
        if let Err(e) = inner.tenants.admit(&spec.tenant, spec.fuel) {
            inner.m.rejected.inc();
            return Err(match e {
                AdmitError::JobFuel { asked, cap } => {
                    RejectReason::JobFuel(format!("job fuel {asked} exceeds per-job cap {cap}"))
                }
                AdmitError::FuelBudget { asked, remaining } => RejectReason::FuelBudget(format!(
                    "job fuel {asked} exceeds tenant's remaining budget {remaining}"
                )),
                AdmitError::QueueDepth { cap } => {
                    RejectReason::QueueDepth(format!("tenant already has {cap} jobs in flight"))
                }
            });
        }
        tb.end(reserve, spec.fuel, inner.wall_us());

        let engine = match spec.engine {
            EnginePref::Auto => inner.cfg.default_engine,
            EnginePref::Ref => Engine::Ref,
            EnginePref::Jet => Engine::Jet,
        };
        let shadowed = match spec.shadow {
            ShadowPref::Always => true,
            ShadowPref::Default => match inner.cfg.shadow_every_jobs {
                0 => false,
                every => inner.shadow_seq.fetch_add(1, Ordering::Relaxed) % every == 0,
            },
        };

        // Queue wait: begun here with the observed queue depth, ended
        // by the worker that dequeues the job.
        let queue_span = tb.begin(SpanKind::QueueWait, inner.queue.len() as u64, inner.wall_us());

        let tenant = spec.tenant.clone();
        let fuel = spec.fuel;
        let pending = Pending {
            spec,
            key,
            job_id,
            engine,
            shadowed,
            resume: None,
            migrations: 0,
            trace: Some(tb),
            queue_span: Some(queue_span),
            tx,
            submitted: Instant::now(),
        };
        match inner.queue.try_push(pending) {
            Ok(()) => Ok(rx),
            Err(err) => {
                inner.tenants.settle(&tenant, fuel, 0);
                inner.m.rejected.inc();
                Err(match err {
                    PushError::Full(_) => RejectReason::QueueFull,
                    PushError::Closed(_) => RejectReason::ShuttingDown,
                })
            }
        }
    }

    /// Signals worker `i` to stop; a job in flight is requeued from its
    /// last rolling checkpoint at the next slice boundary.
    pub fn kill_worker(&self, i: usize) -> bool {
        match self.pool.lock().expect("pool lock").as_mut() {
            Some(p) => p.stop_worker(i),
            None => false,
        }
    }

    /// Spawns a replacement worker; returns its index.
    pub fn respawn_worker(&self) -> Option<usize> {
        let idx = self.pool.lock().expect("pool lock").as_mut().map(WorkerPool::spawn_worker);
        if let Some(i) = idx {
            self.inner.spawned_hwm.fetch_max(i + 1, Ordering::Relaxed);
        }
        idx
    }

    /// Arms the deterministic kill tripwire: the worker that reaches
    /// checkpoint boundary number `current + n` dies there (requeueing
    /// its job with a checkpoint of that boundary). Test hook — production kills go through
    /// [`kill_worker`](Service::kill_worker).
    pub fn inject_kill_after_checkpoints(&self, n: u64) {
        let at = self.inner.checkpoint_seq.load(Ordering::Relaxed) + n;
        self.inner.kill_at_checkpoint.store(at.max(1), Ordering::Relaxed);
    }

    /// Checkpoint boundaries reached so far (a checkpoint is captured
    /// only at the boundary where a job stops).
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.inner.checkpoint_seq.load(Ordering::Relaxed)
    }

    /// Shadow divergences observed so far (0 is the expected value —
    /// anything else is a found engine bug).
    #[must_use]
    pub fn divergences(&self) -> u64 {
        self.inner.m.divergences.get()
    }

    /// Cache accounting.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Per-tenant `(name, fuel_spent, jobs_completed, in_flight)`.
    #[must_use]
    pub fn tenant_snapshot(&self) -> Vec<(String, u64, u64, usize)> {
        self.inner.tenants.snapshot()
    }

    /// The span tree of job `job_id`, if it is still in the bounded
    /// trace store (the newest [`ServiceConfig::trace_capacity`]
    /// completed jobs).
    #[must_use]
    pub fn trace(&self, job_id: u64) -> Option<JobTrace> {
        let traces = self.inner.traces.lock().expect("trace lock");
        traces.iter().rev().find(|t| t.job_id == job_id).cloned()
    }

    /// Writes a flight-recorder dump labelled `label` into the
    /// configured trace dir (Chrome trace-event JSON). Returns the path
    /// written, or `None` when no trace dir is configured.
    pub fn dump_flight(&self, label: &str) -> Option<std::path::PathBuf> {
        self.inner.dump_flight(label, &[])
    }

    /// The configured cadence of periodic time-series stats lines
    /// (`None` when [`ServiceConfig::stats_every_ms`] is 0).
    #[must_use]
    pub fn stats_every(&self) -> Option<std::time::Duration> {
        match self.inner.cfg.stats_every_ms {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        }
    }

    /// One time-series stats line (the `BENCH_service.json` line the
    /// socket front end appends periodically): the service summary with
    /// a monotonically increasing `seq` and the current in-flight count.
    #[must_use]
    pub fn stats_line(&self) -> String {
        let inner = &self.inner;
        let cache = inner.cache.stats();
        // Mirror cache-internal accounting into the registry counters
        // (hits/misses move through submit, evictions only here).
        let ev = cache.evictions.saturating_sub(inner.m.cache_evictions.get());
        inner.m.cache_evictions.add(ev);

        let uptime_us = inner.started.elapsed().as_micros().max(1) as u64;
        let submitted = inner.m.submitted.get();
        let completed = inner.m.completed.get();
        let rejected = inner.m.rejected.get();
        let inflight = submitted.saturating_sub(completed).saturating_sub(rejected);
        let qps = completed as f64 / (uptime_us as f64 / 1e6);
        let lookups = cache.hits + cache.misses;
        let hit_rate = if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 };
        inner.m.registry.gauge("service.qps").set(qps);
        inner.m.registry.gauge("service.cache.hit_rate").set(hit_rate);
        inner.m.registry.gauge("service.uptime_us").set(uptime_us as f64);
        inner.m.registry.gauge("service.inflight").set(inflight as f64);
        for i in 0..self.spawned_workers() {
            let busy = inner.m.registry.counter(&format!("service.shard_busy_us.{i}")).get();
            inner
                .m
                .registry
                .gauge(&format!("service.shard_util.{i}"))
                .set(busy as f64 / uptime_us as f64);
        }

        format!(
            "{{\"suite\":\"service\",\"seq\":{},\"uptime_us\":{},\"shards\":{},\"jobs\":{},\"cached\":{},\"rejected\":{},\"inflight\":{},\"qps\":{:.2},\"p50_us\":{},\"p99_us\":{},\"cache_hit_rate\":{:.4},\"evictions\":{},\"shadow_jobs\":{},\"divergences\":{},\"migrations\":{},\"checkpoints\":{}}}\n",
            inner.stats_seq.fetch_add(1, Ordering::Relaxed),
            uptime_us,
            self.inner.cfg.shards,
            completed,
            inner.m.cached.get(),
            rejected,
            inflight,
            qps,
            inner.m.job_us.quantile(0.50),
            inner.m.job_us.quantile(0.99),
            hit_rate,
            cache.evictions,
            inner.m.shadow_jobs.get(),
            inner.m.divergences.get(),
            inner.m.migrations.get(),
            inner.m.checkpoints.get(),
        )
    }

    /// One summary JSON line (a [`stats_line`](Service::stats_line))
    /// followed by the full metrics registry as JSON lines — what the
    /// `Stats` wire op returns.
    #[must_use]
    pub fn stats_text(&self) -> String {
        let mut out = self.stats_line();
        out.push_str(&self.inner.m.registry.json_lines());
        out
    }

    /// Appends one time-series stats line to `path` — the periodic
    /// `BENCH_service.json` emission.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn append_stats_line(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(self.stats_line().as_bytes())
    }

    /// Appends the final [`stats_text`](Service::stats_text) to `path`
    /// — the shutdown tail of the `BENCH_service.json` artifact, after
    /// the run's periodic time-series lines.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write_bench(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(self.stats_text().as_bytes())
    }

    /// Worker slots ever spawned (indices are stable, so this is also
    /// the exclusive upper bound on shard indices in metrics). Survives
    /// shutdown so the bench artifact covers every shard.
    #[must_use]
    pub fn spawned_workers(&self) -> usize {
        self.inner.spawned_hwm.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop admitting, drain every queued job, join
    /// all workers, and dump the flight recorder (when a trace dir is
    /// configured). Safe to call more than once.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        let pool = self.pool.lock().expect("pool lock").take();
        if let Some(p) = pool {
            p.join();
            self.inner.dump_flight("shutdown", &[]);
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.queue.close();
        if let Some(p) = self.pool.lock().expect("pool lock").take() {
            p.join();
        }
    }
}

fn validate(spec: &JobSpec) -> Result<(), RejectReason> {
    if spec.source.trim().is_empty() {
        return Err(RejectReason::BadRequest("empty source".to_string()));
    }
    if !spec.files.is_empty() {
        return Err(RejectReason::BadRequest(
            "named files are not realised at machine level (std streams only)".to_string(),
        ));
    }
    if spec.fuel == 0 {
        return Err(RejectReason::BadRequest("zero fuel".to_string()));
    }
    Ok(())
}

/// An outcome that carries only a status and its detail.
fn status_outcome(status: JobStatus, message: String) -> JobOutcome {
    JobOutcome {
        job_id: 0,
        status,
        message,
        stdout: Vec::new(),
        stderr: Vec::new(),
        instructions: 0,
        engine: Engine::Ref,
        cached: false,
        shadowed: false,
        migrations: 0,
    }
}

/// The outcome of a run that reached its end.
fn finished_outcome(f: Finished) -> JobOutcome {
    let (status, message) = match f.exit {
        ExitStatus::Exited(c) => (JobStatus::Exited(c), String::new()),
        ExitStatus::OutOfFuel => (JobStatus::OutOfFuel, String::new()),
        ExitStatus::Wedged => (JobStatus::Wedged, String::new()),
        ExitStatus::FfiFailed(detail) => (JobStatus::FfiFailed, detail),
    };
    JobOutcome {
        stdout: f.stdout,
        stderr: f.stderr,
        instructions: f.instructions,
        ..status_outcome(status, message)
    }
}

/// Compiles a fresh job and builds its boot image, tracing both phases.
fn boot_image(inner: &Inner, spec: &JobSpec, tb: &mut TraceBuilder) -> Result<State, JobOutcome> {
    let compile = tb.begin(SpanKind::Compile, 0, inner.wall_us());
    let compiled = compile_source(&spec.source, inner.layout, &inner.compiler_cfg);
    tb.end(compile, u64::from(compiled.is_err()), inner.wall_us());
    let compiled =
        compiled.map_err(|e| status_outcome(JobStatus::CompileError, e.to_string()))?;
    let args: Vec<&str> = spec.args.iter().map(String::as_str).collect();
    let build = tb.begin(SpanKind::ImageBuild, 0, inner.wall_us());
    let image = build_image(&compiled, &args, &spec.stdin);
    tb.end(build, u64::from(image.is_err()), inner.wall_us());
    image.map_err(|e| status_outcome(JobStatus::ImageError, e.to_string()))
}

/// The worker's hooks into the shared slice loop: every slice and
/// checkpoint boundary lands in the job's trace, a stop request (or the
/// test tripwire) is honoured at the next boundary by handing back a
/// checkpoint captured there, and a shadowed run's end-of-run verdict is
/// the `ShadowCheck` span.
struct JobHooks<'a> {
    inner: &'a Inner,
    ctl: &'a WorkerCtl,
    tb: &'a mut TraceBuilder,
}

impl Hooks for JobHooks<'_> {
    type Stop = Box<Snapshot>;

    fn slice(&mut self, before: u64, after: u64) {
        let s = self.tb.begin(SpanKind::Slice, before, None);
        self.tb.end(s, after, self.inner.wall_us());
    }

    fn boundary<M: Machine>(&mut self, m: &M) -> ControlFlow<Box<Snapshot>> {
        self.inner.checkpoint_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.m.checkpoints.inc();
        self.tb.instant(SpanKind::Checkpoint, m.retired(), self.inner.wall_us());
        if self.ctl.stop_requested() || self.inner.tripwire_fired() {
            ControlFlow::Break(Box::new(Snapshot::capture(m)))
        } else {
            ControlFlow::Continue(())
        }
    }

    fn shadow_check(
        &mut self,
        check: impl FnOnce() -> Result<u64, Box<Forensics>>,
    ) -> Result<u64, Box<Forensics>> {
        let span = self.tb.begin(SpanKind::ShadowCheck, 0, self.inner.wall_us());
        let verdict = check();
        self.tb.end(span, u64::from(verdict.is_err()), self.inner.wall_us());
        verdict
    }
}

/// The worker body: compile (fresh jobs), run in slices — as the
/// lockstep of both engines when the job is shadowed, resumed segments
/// included — and either finish the job or requeue it from its last
/// checkpoint when stopped. Every phase lands in the job's trace.
fn handle_job(inner: &Arc<Inner>, ctl: &WorkerCtl, mut job: Pending) {
    let t_exec = Instant::now();
    let busy = inner.m.registry.counter(&format!("service.shard_busy_us.{}", ctl.index));

    let mut tb = job.trace.take().unwrap_or_else(|| TraceBuilder::new(job.job_id, None));
    tb.set_shard(ctl.index as u32);
    if let Some(q) = job.queue_span.take() {
        tb.end(q, inner.queue.len() as u64, inner.wall_us());
    }

    let start = match job.resume.take() {
        Some(snap) => Ok(snap.restore()),
        None => {
            if job.shadowed {
                inner.m.shadow_jobs.inc();
            }
            boot_image(inner, &job.spec, &mut tb)
        }
    };
    let mut out = match start {
        Err(out) => out,
        Ok(state) => {
            let plan = Plan {
                layout: &inner.layout,
                engine: job.engine,
                shadow: job.shadowed.then_some(Shadow { fault_xor: inner.cfg.fault_xor }),
                fuel: job.spec.fuel,
                every: inner.cfg.checkpoint_every,
            };
            let exec = tb.begin(SpanKind::Exec, state.instructions_retired, inner.wall_us());
            let mut hooks = JobHooks { inner, ctl, tb: &mut tb };
            let end = silver::exec::run(state, &plan, &mut hooks, &mut NoTrace);
            let retired = match &end {
                RunEnd::Done(f) => f.instructions,
                RunEnd::Stopped(snap) => snap.retired(),
                // Retires reached, the divergent one (a zero-based index) included.
                RunEnd::Diverged(fx) => fx.divergent_step.map_or(0, |step| step + 1),
            };
            tb.end(exec, retired, inner.wall_us());
            match end {
                RunEnd::Done(f) => finished_outcome(f),
                RunEnd::Diverged(fx) => {
                    inner.m.divergences.inc();
                    // The flight recorder's reason to exist: dump the
                    // record, with this job's lifecycle so far attached.
                    inner.dump_flight(&format!("divergence_job{}", job.job_id), &[tb.snapshot()]);
                    status_outcome(JobStatus::Divergence, fx.render())
                }
                RunEnd::Stopped(snap) => {
                    busy.add(t_exec.elapsed().as_micros() as u64);
                    requeue(inner, ctl, job, tb, snap);
                    return;
                }
            }
        }
    };
    busy.add(t_exec.elapsed().as_micros() as u64);

    out.job_id = job.job_id;
    out.shadowed = job.shadowed;
    out.migrations = job.migrations;
    out.engine = job.engine;
    inner.tenants.settle(&job.spec.tenant, job.spec.fuel, out.instructions);
    inner.cache.insert(job.key, &out);
    inner.m.completed.inc();
    inner.m.job_us.record(job.submitted.elapsed().as_micros() as u64);
    inner.m.exec_us.record(t_exec.elapsed().as_micros() as u64);
    tb.instant(SpanKind::Reply, out.instructions, inner.wall_us());
    inner.store_trace(tb.finish());
    let _ = job.tx.send(out);
}

/// Puts a job stopped mid-run back at the queue front with its last
/// checkpoint, for any worker to resume.
fn requeue(
    inner: &Inner,
    ctl: &WorkerCtl,
    mut job: Pending,
    mut tb: TraceBuilder,
    snap: Box<Snapshot>,
) {
    // Disarm a fired tripwire and make this worker actually die, so the
    // respawn path is exercised exactly like a real kill.
    if inner.tripwire_fired() {
        inner.kill_at_checkpoint.store(0, Ordering::Relaxed);
        ctl.request_stop();
    }
    inner.m.migrations.inc();
    job.migrations += 1;
    tb.instant(SpanKind::Migrate, snap.retired(), inner.wall_us());
    tb.instant(SpanKind::Requeue, u64::from(job.migrations), inner.wall_us());
    // The resumed segment waits on the queue again.
    job.queue_span = Some(tb.begin(SpanKind::QueueWait, inner.queue.len() as u64, inner.wall_us()));
    // A dying worker is a flight-recorder moment: dump what every shard
    // was doing when this one stopped mid-job.
    inner.dump_flight(&format!("worker_death_shard{}", ctl.index), &[tb.snapshot()]);
    job.resume = Some(snap);
    job.trace = Some(tb);
    if let Err(dropped) = inner.queue.push_front(job) {
        let mut out = status_outcome(
            JobStatus::Internal,
            "worker stopped mid-job after the queue closed; no resume path".to_string(),
        );
        out.job_id = dropped.job_id;
        let _ = dropped.tx.send(out);
    }
}
