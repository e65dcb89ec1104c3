//! `serve` — one `silver-client` job from submit to reply. An
//! in-process [`Service`] (default configuration, one shard) is served
//! on a Unix socket and driven by one [`Client`] connection in a closed
//! loop, which keeps the busy threads within two cores and makes the
//! choice of shadow-checked jobs deterministic. Jobs are corpus apps
//! with 1–12 lines of seeded stdin; a fixed share of ops resubmits an
//! earlier job verbatim, so it hits the result cache.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::trace::{JobTrace, SpanKind};
use service::wire::Response;
use service::{Client, Endpoint, JobSpec, JobStatus, Service, ServiceConfig, ShadowPref};
use silver_stack::apps;

use crate::gen::{self, op_rng};
use crate::refs::{self, digest, Outcome};
use crate::{metric, Bench, Metric};

const STREAM: u64 = 3;

/// Ops run in a fixed pattern of this period. Ops in [`REPEAT_SLOTS`]
/// resubmit an earlier job verbatim; ops in [`SHADOW_SLOTS`] submit a
/// fresh job that asks for a shadow check; the rest submit fresh jobs
/// under the service's sampling policy. `README.md` explains how the
/// shares keep both reported percentiles off a cluster boundary.
pub const PERIOD: usize = 8;
/// See [`PERIOD`].
pub const REPEAT_SLOTS: &[usize] = &[1, 4, 7];
/// See [`PERIOD`].
pub const SHADOW_SLOTS: &[usize] = &[5];
/// A resubmission repeats one of the last this-many fresh jobs, all of
/// which are still in the result cache.
const REPEAT_WINDOW: usize = 32;

/// The span kinds the fold reports. `Migrate` and `Requeue` only occur
/// when a worker is stopped mid-job, which this workload never does.
pub const PHASES: [SpanKind; 11] = [
    SpanKind::Admit,
    SpanKind::CacheLookup,
    SpanKind::TenantReserve,
    SpanKind::QueueWait,
    SpanKind::Compile,
    SpanKind::ImageBuild,
    SpanKind::ShadowCheck,
    SpanKind::Exec,
    SpanKind::Slice,
    SpanKind::Checkpoint,
    SpanKind::Reply,
];

fn is_repeat(i: usize) -> bool {
    REPEAT_SLOTS.contains(&(i % PERIOD))
}

/// The fresh op whose job op `i` submits (`i` itself unless `i` is a
/// resubmission). A resubmission goes back a fixed, cycling distance of
/// 1 to [`REPEAT_WINDOW`] ops, so every run repeats the same mix.
#[must_use]
pub fn source_op(i: usize) -> usize {
    if !is_repeat(i) {
        return i;
    }
    let back = 1 + (i * 5 + i / PERIOD) % REPEAT_WINDOW;
    let mut j = i.saturating_sub(back);
    while is_repeat(j) {
        j -= 1;
    }
    j
}

/// The job op `i` submits, and the index of its corpus app. Fresh jobs
/// rotate through the corpus apps and through 1–12 lines of stdin, so
/// every run submits the same mix; the seed draws the contents.
#[must_use]
pub fn job(seed: u64, i: usize) -> (JobSpec, usize) {
    let j = source_op(i);
    let fresh = j
        - (j / PERIOD) * REPEAT_SLOTS.len()
        - REPEAT_SLOTS.iter().filter(|&&s| s < j % PERIOD).count();
    let mut rng = op_rng(seed, STREAM, j as u64);
    let n = apps::ALL.len();
    let app = fresh % n;
    let (name, src) = apps::ALL[app];
    let lines = 1 + (fresh / n) % 12;
    let (args, stdin) = gen::app_input(&mut rng, name, lines);
    let mut spec = JobSpec::new(&format!("tenant-{}", j % 4), src);
    spec.args = args;
    spec.stdin = stdin;
    if SHADOW_SLOTS.contains(&(j % PERIOD)) {
        spec.shadow = ShadowPref::Always;
    }
    (spec, app)
}

/// A job's server-side time folded by phase, in µs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fold {
    /// The `Job` span: first wall annotation (admit) to the reply.
    pub job_us: u64,
    /// Folded time per entry of [`PHASES`].
    pub phase_us: [u64; PHASES.len()],
    /// Job span minus the sum of the phases.
    pub unattributed_us: i64,
    /// Rolling checkpoints captured.
    pub checkpoints: u64,
    /// Execution slices run.
    pub slices: u64,
}

/// Folds a job's trace into per-phase time. Each span carries one wall
/// annotation, taken at its end (the root `Job` span's at its begin).
/// Sorting those points by logical clock and charging each gap between
/// consecutive points to the span whose end closes it attributes every
/// µs from admit to reply to exactly one phase.
///
/// # Errors
///
/// A trace whose wall annotations run backwards in logical-clock order,
/// or that lacks its root or reply.
pub fn fold(trace: &JobTrace) -> Result<Fold, String> {
    let mut points: Vec<(u64, u64, SpanKind)> = trace
        .spans
        .iter()
        .filter_map(|s| {
            let lc = if s.kind == SpanKind::Job {
                s.begin_lc
            } else {
                s.end_lc
            };
            s.wall_us.map(|w| (lc, w, s.kind))
        })
        .collect();
    points.sort_by_key(|p| p.0);
    let root = trace
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Job)
        .and_then(|s| s.wall_us);
    let reply = trace
        .spans
        .iter()
        .rev()
        .find(|s| s.kind == SpanKind::Reply)
        .and_then(|s| s.wall_us);
    let (Some(begin), Some(end)) = (root, reply) else {
        return Err(format!(
            "trace of job {} lacks its root or reply",
            trace.job_id
        ));
    };
    let mut f = Fold {
        job_us: end.saturating_sub(begin),
        ..Fold::default()
    };
    for w in points.windows(2) {
        let (prev, cur) = (w[0], w[1]);
        let dt = cur.1.checked_sub(prev.1).ok_or_else(|| {
            format!(
                "trace of job {}: wall time runs backwards at lc {}",
                trace.job_id, cur.0
            )
        })?;
        if let Some(k) = PHASES.iter().position(|&p| p == cur.2) {
            f.phase_us[k] += dt;
        }
    }
    f.checkpoints = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Checkpoint)
        .count() as u64;
    f.slices = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Slice)
        .count() as u64;
    f.unattributed_us = f.job_us as i64 - f.phase_us.iter().sum::<u64>() as i64;
    Ok(f)
}

/// One op's output.
#[derive(Clone, Debug)]
pub struct Out {
    /// Corpus app index.
    pub app: usize,
    /// The job's behaviour.
    pub outcome: Outcome,
    /// Instructions retired.
    pub retired: u64,
    /// Served from the result cache.
    pub cached: bool,
    /// Shadow-checked by the service.
    pub shadowed: bool,
    /// The folded trace, when the op ran traced.
    pub fold: Option<Fold>,
}

/// Per-op samples of a traced segment.
#[derive(Default)]
pub struct Layers {
    submit_ms: Vec<f64>,
    folds: Vec<Fold>,
}

/// The fixture: a running service and one connected client.
pub struct Serve {
    seed: u64,
    client: Option<Client>,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

static SOCKETS: AtomicUsize = AtomicUsize::new(0);

fn connect(endpoint: &Endpoint) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(endpoint) {
            Ok(c) => return c,
            Err(e) if Instant::now() > deadline => panic!("cannot connect to {endpoint}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

impl Serve {
    fn submit(&mut self, spec: &JobSpec) -> Result<service::JobOutcome, String> {
        let client = self.client.as_mut().expect("client connected");
        match client.submit(spec).map_err(|e| e.to_string())? {
            Response::Done(out) => Ok(out),
            Response::Rejected { reason, .. } => Err(format!("rejected: {reason}")),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    fn out(app: usize, o: &service::JobOutcome, fold: Option<Fold>) -> Result<Out, String> {
        let exit = match o.status {
            JobStatus::Exited(c) => Some(c),
            JobStatus::OutOfFuel | JobStatus::Wedged => None,
            ref s => return Err(format!("job {}: {s}: {}", o.job_id, o.message)),
        };
        Ok(Out {
            app,
            outcome: Outcome::new(exit, &o.stdout, &o.stderr),
            retired: o.instructions,
            cached: o.cached,
            shadowed: o.shadowed,
            fold,
        })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut c) = self.client.take() {
            let _ = c.shutdown();
        }
        if let Some(t) = self.server.take() {
            let _ = t.join();
        }
    }
}

/// Generated code bytes of each corpus app, compiled once on demand.
fn app_code_bytes() -> &'static [u64] {
    static SIZES: OnceLock<Vec<u64>> = OnceLock::new();
    SIZES.get_or_init(|| {
        let stack = silver_stack::Stack::new();
        apps::ALL
            .iter()
            .map(|(_, src)| stack.compile(src).expect("corpus app compiles").code.len() as u64)
            .collect()
    })
}

impl Bench for Serve {
    type Out = Out;
    type Layers = Layers;

    fn setup(seed: u64) -> Serve {
        let service = Arc::new(Service::start(ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        }));
        let n = SOCKETS.fetch_add(1, Ordering::Relaxed);
        let endpoint = Endpoint::Unix(PathBuf::from(format!(
            ".stackbench-{}-{n}.sock",
            std::process::id()
        )));
        let server = {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || service::serve(&service, &endpoint, None))
        };
        let mut s = Serve {
            seed,
            client: Some(connect(&endpoint)),
            server: Some(server),
        };
        // Warm-up: every corpus app once, with a command line no timed
        // job uses, so these entries never serve a timed op from cache.
        for (name, src) in apps::ALL {
            let mut spec = JobSpec::new("warmup", src);
            spec.args = vec![format!("warmup-{name}")];
            spec.stdin = b"warm up\n".to_vec();
            s.submit(&spec).expect("warm-up job completes");
        }
        s
    }

    fn op(&mut self, i: usize) -> Result<Out, String> {
        let (spec, app) = job(self.seed, i);
        let o = self.submit(&spec)?;
        Serve::out(app, &o, None)
    }

    fn op_traced(&mut self, i: usize, l: &mut Layers) -> Result<Out, String> {
        let (spec, app) = job(self.seed, i);
        let t = Instant::now();
        let o = self.submit(&spec)?;
        l.submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let client = self.client.as_mut().expect("client connected");
        let trace = client
            .trace(o.job_id)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no trace for job {}", o.job_id))?;
        let f = fold(&trace)?;
        if f.unattributed_us != 0 {
            return Err(format!(
                "job {}: {} µs of the job span not attributed",
                o.job_id, f.unattributed_us
            ));
        }
        l.folds.push(f.clone());
        Serve::out(app, &o, Some(f))
    }

    fn check(seed: u64, i: usize, out: &Out) -> Result<(), String> {
        let (spec, _) = job(seed, i);
        out.outcome
            .check(&refs::interpret(&spec.source, &spec.args, &spec.stdin)?)?;
        if out.cached != is_repeat(i) {
            return Err(format!(
                "cached={} but the op is {}a resubmission",
                out.cached,
                if out.cached { "not " } else { "" }
            ));
        }
        if !out.cached && spec.shadow == ShadowPref::Always && !out.shadowed {
            return Err("a job that asked for a shadow check was not shadowed".into());
        }
        Ok(())
    }

    fn input_digest(seed: u64, i: usize) -> u64 {
        let (spec, _) = job(seed, i);
        digest(format!("{spec:?}").as_bytes()).0
    }

    fn retired(out: &Out) -> u64 {
        out.retired
    }

    fn executed(out: &Out) -> u64 {
        if out.cached {
            0
        } else {
            out.retired
        }
    }

    fn code_bytes(out: &Out) -> u64 {
        app_code_bytes()[out.app]
    }

    fn exact_counts(outs: &[&Out]) -> Vec<(String, u64)> {
        let mut v = vec![
            (
                "service.cache_hits".into(),
                outs.iter().filter(|o| o.cached).count() as u64,
            ),
            (
                "service.shadowed_jobs".into(),
                outs.iter().filter(|o| o.shadowed).count() as u64,
            ),
        ];
        let folds: Vec<&Fold> = outs.iter().filter_map(|o| o.fold.as_ref()).collect();
        if folds.len() == outs.len() {
            v.push((
                "service.checkpoints".into(),
                folds.iter().map(|f| f.checkpoints).sum(),
            ));
            v.push((
                "service.slices".into(),
                folds.iter().map(|f| f.slices).sum(),
            ));
            // Job-span time the fold left unattributed; any op with some
            // has already failed its check, so this reads 0.
            v.push((
                "service.unattributed_us".into(),
                folds.iter().map(|f| f.unattributed_us.unsigned_abs()).sum(),
            ));
        }
        v
    }

    fn layer_metrics(l: &Layers, exact: &[&Out], _op_ms: &[f64]) -> Vec<Metric> {
        let n = l.folds.len() as f64;
        let job_us: u64 = l.folds.iter().map(|f| f.job_us).sum();
        let mut m = vec![metric("service.job_ms", job_us as f64 / n / 1e3, "ms")];
        for (k, kind) in PHASES.iter().enumerate() {
            let us: u64 = l.folds.iter().map(|f| f.phase_us[k]).sum();
            m.push(metric(
                &format!("service.{}_ms", kind.name()),
                us as f64 / n / 1e3,
                "ms",
            ));
            m.push(metric(
                &format!("service.{}.share", kind.name()),
                us as f64 / job_us as f64,
                "ratio",
            ));
        }
        let wire: f64 = l.submit_ms.iter().sum::<f64>() - job_us as f64 / 1e3;
        m.push(metric("service.wire_ms", wire / n, "ms"));
        let e = exact.len() as f64;
        let count = |f: fn(&Out) -> u64| exact.iter().map(|o| f(o)).sum::<u64>() as f64;
        m.push(metric(
            "service.cache_hit_ratio",
            count(|o| u64::from(o.cached)) / e,
            "ratio",
        ));
        m.push(metric(
            "service.shadowed_jobs",
            count(|o| u64::from(o.shadowed)),
            "count",
        ));
        m.push(metric(
            "service.checkpoints",
            count(|o| o.fold.as_ref().map_or(0, |f| f.checkpoints)),
            "count",
        ));
        m.push(metric(
            "service.slices",
            count(|o| o.fold.as_ref().map_or(0, |f| f.slices)),
            "count",
        ));
        m
    }
}

#[cfg(test)]
mod tests {
    use obs::trace::TraceBuilder;

    use super::*;

    fn phase(f: &Fold, kind: SpanKind) -> u64 {
        f.phase_us[PHASES
            .iter()
            .position(|&p| p == kind)
            .expect("reported phase")]
    }

    #[test]
    fn fold_charges_every_gap_to_the_span_it_closes() {
        // The span shape the service records for an executed job.
        let mut tb = TraceBuilder::new(9, None);
        tb.begin(SpanKind::Job, 0, Some(100));
        for (kind, end) in [
            (SpanKind::Admit, 101),
            (SpanKind::CacheLookup, 103),
            (SpanKind::TenantReserve, 104),
            (SpanKind::QueueWait, 110),
            (SpanKind::Compile, 150),
            (SpanKind::ImageBuild, 152),
        ] {
            let s = tb.begin(kind, 0, Some(0));
            tb.end(s, 0, Some(end));
        }
        let exec = tb.begin(SpanKind::Exec, 0, Some(152));
        let s = tb.begin(SpanKind::Slice, 0, None);
        tb.end(s, 100_000, Some(170));
        tb.instant(SpanKind::Checkpoint, 100_000, Some(180));
        let s = tb.begin(SpanKind::Slice, 100_000, None);
        tb.end(s, 150_000, Some(185));
        tb.end(exec, 150_000, Some(186));
        tb.instant(SpanKind::Reply, 150_000, Some(190));
        let f = fold(&tb.finish()).expect("folds");

        assert_eq!(f.job_us, 90);
        assert_eq!(f.unattributed_us, 0);
        assert_eq!(phase(&f, SpanKind::QueueWait), 6);
        assert_eq!(phase(&f, SpanKind::Compile), 40);
        assert_eq!(phase(&f, SpanKind::Slice), 18 + 5);
        assert_eq!(phase(&f, SpanKind::Checkpoint), 10);
        assert_eq!(phase(&f, SpanKind::Exec), 1);
        assert_eq!(phase(&f, SpanKind::Reply), 4);
        assert_eq!((f.checkpoints, f.slices), (1, 2));
    }

    #[test]
    fn fold_rejects_a_trace_without_a_reply() {
        let mut tb = TraceBuilder::new(1, None);
        tb.begin(SpanKind::Job, 0, Some(5));
        assert!(fold(&tb.finish()).is_err());
    }

    #[test]
    fn resubmissions_point_at_earlier_fresh_jobs() {
        for i in 0..200 {
            let j = source_op(i);
            assert!(j <= i && !is_repeat(j), "op {i} repeats op {j}");
            assert_eq!(j == i, !is_repeat(i));
        }
    }
}
