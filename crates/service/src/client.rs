//! The wire client, the seeded loadgen, and the stats-line parser
//! behind `silver-client top`.
//!
//! [`Client`] is a thin blocking connection speaking the
//! [`wire`](crate::wire) protocol. [`loadgen`] replays a seeded mixed
//! workload — N tenants × M jobs drawn from a program corpus with
//! deliberate duplicates — over C connections, and reports client-side
//! latency quantiles alongside outcome tallies. Everything is derived
//! from the seed, so a loadgen run is reproducible job-for-job (the
//! interleaving across connections is scheduling-dependent; the job
//! *set* is not).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use obs::metrics::quantile_sorted;
use obs::trace::JobTrace;
use testkit::{Rng, TestRng};

use crate::job::{EnginePref, JobSpec, JobStatus, ShadowPref};
use crate::net::Endpoint;
use crate::wire::{read_response, write_request, Request, Response, WireError};

trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// A blocking client connection.
pub struct Client {
    stream: Box<dyn Stream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Connection errors.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Client> {
        let stream: Box<dyn Stream> = match endpoint {
            Endpoint::Tcp(addr) => Box::new(TcpStream::connect(addr)?),
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        Ok(Client { stream })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, WireError> {
        write_request(&mut self.stream, req)?;
        read_response(&mut self.stream)
    }

    /// Submits a job and waits for the server's verdict.
    ///
    /// # Errors
    ///
    /// Transport/decode failures ([`WireError`]).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Response, WireError> {
        self.roundtrip(&Request::Submit(spec.clone()))
    }

    /// Fetches the server's stats text.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected response kind.
    pub fn stats(&mut self) -> Result<String, WireError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            other => Err(WireError::Io(std::io::Error::other(format!(
                "expected Stats, got {other:?}"
            )))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected response kind.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(WireError::Io(std::io::Error::other(format!(
                "expected Pong, got {other:?}"
            )))),
        }
    }

    /// Fetches the span tree of job `job_id` (`Ok(None)` when the
    /// server no longer holds it).
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected response kind.
    pub fn trace(&mut self, job_id: u64) -> Result<Option<JobTrace>, WireError> {
        match self.roundtrip(&Request::Trace(job_id))? {
            Response::Trace(t) => Ok(t),
            other => Err(WireError::Io(std::io::Error::other(format!(
                "expected Trace, got {other:?}"
            )))),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected response kind.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(WireError::Io(std::io::Error::other(format!(
                "expected ShutdownAck, got {other:?}"
            )))),
        }
    }
}

/// Loadgen parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Tenants to spread jobs across (`tenant-0` … `tenant-{n-1}`).
    pub tenants: usize,
    /// Total jobs to submit.
    pub jobs: usize,
    /// Distinct (program, stdin) pairs; jobs are drawn from this pool,
    /// so `jobs − distinct` submissions are potential cache hits.
    pub distinct: usize,
    /// Concurrent client connections.
    pub conns: usize,
    /// Master seed for the workload.
    pub seed: u64,
    /// Per-job fuel budget.
    pub fuel: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig { tenants: 4, jobs: 1000, distinct: 200, conns: 8, seed: 1, fuel: 100_000_000 }
    }
}

/// What a loadgen run observed, client-side.
#[derive(Clone, Debug, Default)]
pub struct LoadgenSummary {
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that completed with [`JobStatus::Exited`].
    pub exited: usize,
    /// Completions served from the cache.
    pub cached: usize,
    /// Completions that were shadow-checked.
    pub shadowed: usize,
    /// Shadow divergences (must be 0).
    pub divergences: usize,
    /// Admission rejections.
    pub rejected: usize,
    /// Other terminal statuses (out-of-fuel, wedged, errors).
    pub other: usize,
    /// Client-observed p50 latency, µs.
    pub p50_us: u64,
    /// Client-observed p99 latency, µs.
    pub p99_us: u64,
}

impl LoadgenSummary {
    /// One JSON line, same spirit as the `BENCH_*.json` schemas.
    #[must_use]
    pub fn json_line(&self) -> String {
        format!(
            "{{\"suite\":\"service-loadgen\",\"submitted\":{},\"exited\":{},\"cached\":{},\"shadowed\":{},\"divergences\":{},\"rejected\":{},\"other\":{},\"p50_us\":{},\"p99_us\":{}}}",
            self.submitted,
            self.exited,
            self.cached,
            self.shadowed,
            self.divergences,
            self.rejected,
            self.other,
            self.p50_us,
            self.p99_us,
        )
    }
}

const WORDS: &[&str] = &[
    "silver", "cake", "verified", "stack", "theorem", "retire", "fuel", "shard", "jet", "proof",
    "halt", "carry", "mango", "pear", "apple",
];

fn gen_stdin(rng: &mut TestRng) -> Vec<u8> {
    let lines = rng.gen_range(1..=20usize);
    let mut out = Vec::new();
    for _ in 0..lines {
        let words = rng.gen_range(1..=4usize);
        for w in 0..words {
            if w > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
        }
        out.push(b'\n');
    }
    out
}

/// Builds the deterministic distinct-job pool from a program corpus of
/// `(name, source)` pairs.
#[must_use]
pub fn loadgen_pool(cfg: &LoadgenConfig, corpus: &[(&str, &str)]) -> Vec<JobSpec> {
    let mut rng = TestRng::seed_from_u64(cfg.seed);
    let mut pool = Vec::with_capacity(cfg.distinct);
    for _ in 0..cfg.distinct.max(1) {
        let (name, source) = corpus[rng.gen_range(0..corpus.len())];
        let mut spec = JobSpec::new("tenant-0", source);
        spec.args = vec![name.to_string()];
        spec.stdin = gen_stdin(&mut rng);
        spec.fuel = cfg.fuel;
        spec.engine = EnginePref::Auto;
        spec.shadow = ShadowPref::Default;
        pool.push(spec);
    }
    pool
}

/// Runs the seeded mixed workload against a server. Job `j` uses pool
/// entry `rng(j)` under tenant `tenant-{rng(j) % tenants}` — both
/// derived from the seed, independent of connection scheduling.
///
/// # Errors
///
/// A message when connecting fails or a connection dies mid-run.
pub fn loadgen(
    endpoint: &Endpoint,
    cfg: &LoadgenConfig,
    corpus: &[(&str, &str)],
) -> Result<LoadgenSummary, String> {
    assert!(!corpus.is_empty(), "loadgen needs a non-empty corpus");
    let pool = loadgen_pool(cfg, corpus);

    // Pre-draw every job's (pool index, tenant) so the workload is
    // seed-deterministic regardless of how connections interleave.
    let mut rng = TestRng::seed_from_u64(cfg.seed ^ 0x10AD_6E4E);
    let draws: Vec<(usize, usize)> = (0..cfg.jobs)
        .map(|_| (rng.gen_range(0..pool.len()), rng.gen_range(0..cfg.tenants.max(1))))
        .collect();

    let next = AtomicUsize::new(0);
    let tally = Mutex::new((LoadgenSummary::default(), Vec::<u64>::new()));
    let errors = Mutex::new(Vec::<String>::new());

    std::thread::scope(|scope| {
        for _ in 0..cfg.conns.max(1) {
            scope.spawn(|| {
                let mut client = match Client::connect(endpoint) {
                    Ok(c) => c,
                    Err(e) => {
                        errors.lock().expect("errors lock").push(format!("connect: {e}"));
                        return;
                    }
                };
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= draws.len() {
                        return;
                    }
                    let (pi, ti) = draws[j];
                    let mut spec = pool[pi].clone();
                    spec.tenant = format!("tenant-{ti}");
                    let t0 = std::time::Instant::now();
                    let resp = client.submit(&spec);
                    let us = t0.elapsed().as_micros() as u64;
                    let mut guard = tally.lock().expect("tally lock");
                    let (summary, lat) = &mut *guard;
                    summary.submitted += 1;
                    match resp {
                        Ok(Response::Done(out)) => {
                            lat.push(us);
                            if out.cached {
                                summary.cached += 1;
                            }
                            if out.shadowed {
                                summary.shadowed += 1;
                            }
                            match out.status {
                                JobStatus::Exited(_) => summary.exited += 1,
                                JobStatus::Divergence => summary.divergences += 1,
                                _ => summary.other += 1,
                            }
                        }
                        Ok(Response::Rejected { .. }) => summary.rejected += 1,
                        Ok(other) => {
                            drop(guard);
                            errors
                                .lock()
                                .expect("errors lock")
                                .push(format!("unexpected response: {other:?}"));
                            return;
                        }
                        Err(e) => {
                            drop(guard);
                            errors.lock().expect("errors lock").push(format!("submit: {e}"));
                            return;
                        }
                    }
                }
            });
        }
    });

    let errs = errors.into_inner().expect("errors lock");
    if !errs.is_empty() {
        return Err(errs.join("; "));
    }
    let (mut summary, mut lat) = tally.into_inner().expect("tally lock");
    lat.sort_unstable();
    summary.p50_us = quantile_sorted(&lat, 0.50);
    summary.p99_us = quantile_sorted(&lat, 0.99);
    Ok(summary)
}

/// The head summary line of a server's stats text, parsed — what
/// `silver-client top` polls and diffs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Stats-line sequence number (monotonic per server).
    pub seq: u64,
    /// Server uptime, µs.
    pub uptime_us: u64,
    /// Worker shard count.
    pub shards: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Completions served from the cache.
    pub cached: u64,
    /// Admission rejections.
    pub rejected: u64,
    /// Jobs admitted but not yet completed.
    pub inflight: u64,
    /// Completed jobs per second over the whole uptime.
    pub qps: f64,
    /// Server-side p50 job latency, µs.
    pub p50_us: u64,
    /// Server-side p99 job latency, µs.
    pub p99_us: u64,
    /// Cache hit rate over all lookups.
    pub cache_hit_rate: f64,
    /// Shadow divergences (anything nonzero is a found engine bug).
    pub divergences: u64,
    /// Checkpoint migrations.
    pub migrations: u64,
    /// Checkpoint boundaries reached.
    pub checkpoints: u64,
}

fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the first `"suite":"service"` summary line out of a stats
/// text (or a bench file's contents). Returns `None` when no such line
/// exists or mandatory keys are missing.
#[must_use]
pub fn parse_stats(text: &str) -> Option<StatsSnapshot> {
    let line = text.lines().find(|l| l.contains("\"suite\":\"service\""))?;
    let num = |k: &str| json_num(line, k);
    let int = |k: &str| num(k).map(|v| v as u64);
    Some(StatsSnapshot {
        seq: int("seq")?,
        uptime_us: int("uptime_us")?,
        shards: int("shards")?,
        jobs: int("jobs")?,
        cached: int("cached").unwrap_or(0),
        rejected: int("rejected").unwrap_or(0),
        inflight: int("inflight")?,
        qps: num("qps")?,
        p50_us: int("p50_us").unwrap_or(0),
        p99_us: int("p99_us").unwrap_or(0),
        cache_hit_rate: num("cache_hit_rate").unwrap_or(0.0),
        divergences: int("divergences").unwrap_or(0),
        migrations: int("migrations").unwrap_or(0),
        checkpoints: int("checkpoints").unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_stats_reads_the_summary_line() {
        let text = "{\"suite\":\"service\",\"seq\":7,\"uptime_us\":1000000,\"shards\":4,\"jobs\":42,\"cached\":10,\"rejected\":1,\"inflight\":3,\"qps\":42.00,\"p50_us\":150,\"p99_us\":900,\"cache_hit_rate\":0.2381,\"evictions\":0,\"shadow_jobs\":6,\"divergences\":0,\"migrations\":2,\"checkpoints\":9}\n{\"name\":\"x\",\"kind\":\"counter\",\"value\":1}\n";
        let s = parse_stats(text).expect("parses");
        assert_eq!(s.seq, 7);
        assert_eq!(s.shards, 4);
        assert_eq!(s.jobs, 42);
        assert_eq!(s.inflight, 3);
        assert!((s.qps - 42.0).abs() < 1e-9);
        assert!((s.cache_hit_rate - 0.2381).abs() < 1e-9);
        assert_eq!(s.migrations, 2);
    }

    #[test]
    fn parse_stats_rejects_other_lines() {
        assert_eq!(parse_stats("{\"suite\":\"loadgen\"}\n"), None);
        assert_eq!(parse_stats(""), None);
    }
}
