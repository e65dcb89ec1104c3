//! # stackbench — end-to-end and per-layer benchmark of the stack
//!
//! One command runs one workload from a single process, checks every
//! op's output against an independent reference, and prints every
//! metric by name and unit as the last line of standard output:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path stackbench/Cargo.toml -- \
//!     --workload compile --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The four workloads (see `README.md` for why each exists):
//!
//! * [`compile`] — every op compiles a source no other op shares, loads
//!   it and runs it on jet;
//! * [`exec`] — long jet runs of programs compiled during set-up;
//! * [`serve`] — one client in a closed loop against an in-process
//!   service on a Unix socket, with a share of verbatim resubmissions;
//! * [`hw`] — circuit-level runs on the RTL and Verilog simulators.
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` it runs the same ops on two fixtures in alternating
//! chunks, one untraced and one traced, and reports every per-layer
//! metric of [`PER_LAYER`] from the traced one (0 for layers the
//! workload never calls) plus the tracing overhead (traced minus
//! untraced median latency). The per-layer numbers come from timing
//! calls into each layer's public functions from this crate; the
//! program itself is not instrumented.

use std::time::Instant;

pub mod compile;
pub mod exec;
pub mod gen;
pub mod hw;
pub mod refs;
pub mod serve;

/// Minimum ops per timed run, and the size of the exact-count set: the
/// first `min_ops` ops of a run, whose counts repeat exactly for a seed.
pub const MIN_OPS: usize = 100;

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Stack size for threads that run the source interpreter, which
/// recurses on the Rust stack.
const CHECK_STACK: usize = 256 * 1024 * 1024;

/// Worker threads for output checking after the timed region.
const CHECK_THREADS: usize = 2;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
/// A traced run of any workload prints all of them. A layer the
/// workload's ops never call reports 0: no time, no share, no count,
/// and no rate, since nothing ran there.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("cakeml.parse_ms", "ms"),
    ("cakeml.parse.share", "ratio"),
    ("cakeml.types_ms", "ms"),
    ("cakeml.types.share", "ratio"),
    ("cakeml.anf_ms", "ms"),
    ("cakeml.anf.share", "ratio"),
    ("cakeml.opt_ms", "ms"),
    ("cakeml.opt.share", "ratio"),
    ("cakeml.clos_ms", "ms"),
    ("cakeml.clos.share", "ratio"),
    ("cakeml.codegen_ms", "ms"),
    ("cakeml.codegen.share", "ratio"),
    ("cakeml.ast_decls", "count"),
    ("cakeml.anf_vars", "count"),
    ("cakeml.flat_funs", "count"),
    ("cakeml.code_kib", "KiB"),
    ("basis.image_ms", "ms"),
    ("basis.image.share", "ratio"),
    ("jet.run_ms", "ms"),
    ("jet.run.share", "ratio"),
    ("jet.mips", "Minstr/s"),
    ("jet.chain_hit_ratio", "ratio"),
    ("jet.blocks_decoded", "count"),
    ("jet.redecodes", "count"),
    ("jet.slow_steps", "count"),
    ("service.job_ms", "ms"),
    ("service.admit_ms", "ms"),
    ("service.admit.share", "ratio"),
    ("service.cache_lookup_ms", "ms"),
    ("service.cache_lookup.share", "ratio"),
    ("service.tenant_reserve_ms", "ms"),
    ("service.tenant_reserve.share", "ratio"),
    ("service.queue_wait_ms", "ms"),
    ("service.queue_wait.share", "ratio"),
    ("service.compile_ms", "ms"),
    ("service.compile.share", "ratio"),
    ("service.image_build_ms", "ms"),
    ("service.image_build.share", "ratio"),
    ("service.shadow_check_ms", "ms"),
    ("service.shadow_check.share", "ratio"),
    ("service.exec_ms", "ms"),
    ("service.exec.share", "ratio"),
    ("service.slice_ms", "ms"),
    ("service.slice.share", "ratio"),
    ("service.checkpoint_ms", "ms"),
    ("service.checkpoint.share", "ratio"),
    ("service.reply_ms", "ms"),
    ("service.reply.share", "ratio"),
    ("service.wire_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.shadowed_jobs", "count"),
    ("service.checkpoints", "count"),
    ("service.slices", "count"),
    ("rtl.run_ms", "ms"),
    ("rtl.run.share", "ratio"),
    ("rtl.kcycles_per_s", "kcycles/s"),
    ("verilog.run_ms", "ms"),
    ("verilog.run.share", "ratio"),
    ("verilog.self_ms", "ms"),
    ("rtl.cycles", "count"),
    ("rtl.cpi", "cycles/instr"),
    ("sim_mcycles", "Mcycles"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead.share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold compiles of distinct sources, each run once on jet.
    Compile,
    /// Long guest runs on jet of programs compiled during set-up.
    Exec,
    /// Jobs through the service, submit to reply.
    Serve,
    /// Circuit-level runs on the RTL and Verilog simulators.
    Hw,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Compile,
        Workload::Exec,
        Workload::Serve,
        Workload::Hw,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Exec => "exec",
            Workload::Serve => "serve",
            Workload::Hw => "hw",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Timed-region length (each segment's, in a traced run).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Minimum ops per timed region and size of the exact-count set.
    pub min_ops: usize,
}

impl Options {
    /// Settings for a timed run.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            min_ops: MIN_OPS,
        }
    }
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub(crate) fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Ops attempted in the reported timed region.
    pub attempted: usize,
    /// Why each failed op failed (mismatch, rejection or error).
    pub failures: Vec<String>,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// Exact counts over the exact-count set, which must repeat for a
    /// seed (the determinism test compares them between runs).
    pub exact: Vec<(String, u64)>,
    /// Digest of the exact-count set's generated inputs.
    pub inputs: u64,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// Looks up an exact count by name.
    #[must_use]
    pub fn exact(&self, name: &str) -> Option<u64> {
        self.exact.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// JSON has no infinities: a failed op's latency ("beyond any limit")
/// prints as the largest finite double.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// A workload as the run loop sees it. Inputs are pure functions of the
/// seed and op index, so checks regenerate them.
pub trait Bench: Sized {
    /// One op's output.
    type Out: Send + Sync;
    /// Per-layer samples a traced segment accumulates.
    type Layers: Default;

    /// Compiles the fixed programs, starts what must run and warms up.
    fn setup(seed: u64) -> Self;
    /// Runs op `i` through the one-call path.
    ///
    /// # Errors
    ///
    /// Any error or rejection: the op counts as failed.
    fn op(&mut self, i: usize) -> Result<Self::Out, String>;
    /// Runs op `i` through timed calls into each layer's public steps.
    ///
    /// # Errors
    ///
    /// As [`Bench::op`].
    fn op_traced(&mut self, i: usize, layers: &mut Self::Layers) -> Result<Self::Out, String>;
    /// Checks op `i`'s output against an independent reference.
    ///
    /// # Errors
    ///
    /// The mismatch.
    fn check(seed: u64, i: usize, out: &Self::Out) -> Result<(), String>;
    /// Digest of op `i`'s generated input.
    fn input_digest(seed: u64, i: usize) -> u64;
    /// Guest instructions the op retired (exact).
    fn retired(out: &Self::Out) -> u64;
    /// Guest instructions the engines actually executed for the op
    /// (differs from [`Bench::retired`] for cache hits and for runs
    /// repeated on two simulators).
    fn executed(out: &Self::Out) -> u64;
    /// Generated code bytes of the op's program (exact).
    fn code_bytes(out: &Self::Out) -> u64;
    /// Workload-specific exact counts over the exact-count set.
    fn exact_counts(outs: &[&Self::Out]) -> Vec<(String, u64)>;
    /// Per-layer metrics of a traced segment. `exact` holds the outputs
    /// of its exact-count set.
    fn layer_metrics(layers: &Self::Layers, exact: &[&Self::Out], op_ms: &[f64]) -> Vec<Metric>;
}

/// One timed region: per-op latencies and outputs.
struct Segment<O> {
    lat_ms: Vec<f64>,
    outs: Vec<Result<O, String>>,
    wall_s: f64,
}

impl<O> Segment<O> {
    fn new() -> Segment<O> {
        Segment {
            lat_ms: Vec::new(),
            outs: Vec::new(),
            wall_s: 0.0,
        }
    }

    /// Runs and times one op.
    fn push(&mut self, op: impl FnOnce() -> Result<O, String>) {
        let t = Instant::now();
        let out = op();
        self.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.outs.push(out);
    }
}

/// Runs ops `0, 1, …` until both `seconds` of op time have passed and
/// `min_ops` ops are done. `setups` holds the set-up time of `b`; at
/// even intervals the loop pauses to time the set-up of a spare fixture
/// until it holds [`SETUP_REPEATS`] samples. Spreading the samples over
/// the run keeps one slow stretch of the host from deciding `setup_s`.
/// Paused time is not op time.
fn timed<B: Bench>(b: &mut B, opts: &Options, setups: &mut Vec<f64>) -> Segment<B::Out> {
    let mut seg = Segment::new();
    let start = Instant::now();
    let mut paused = 0.0;
    let every = opts.seconds / SETUP_REPEATS as f64;
    loop {
        let active = start.elapsed().as_secs_f64() - paused;
        if setups.len() < SETUP_REPEATS && active >= every * setups.len() as f64 {
            let t = Instant::now();
            drop(B::setup(opts.seed));
            setups.push(t.elapsed().as_secs_f64());
            paused += t.elapsed().as_secs_f64();
        } else if seg.outs.len() < opts.min_ops || active < opts.seconds {
            let i = seg.outs.len();
            seg.push(|| b.op(i));
        } else {
            break;
        }
    }
    seg.wall_s = start.elapsed().as_secs_f64() - paused;
    seg
}

/// Checks every op of `seg` on [`CHECK_THREADS`] threads, after the
/// timed region. Returns one message per failed op; a failed op's
/// latency becomes infinite.
fn check_all<B: Bench>(seed: u64, seg: &mut Segment<B::Out>) -> Vec<String> {
    let n = seg.outs.len();
    let outs = &seg.outs;
    let verdicts: Vec<Option<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                std::thread::Builder::new()
                    .stack_size(CHECK_STACK)
                    .spawn_scoped(scope, move || {
                        (t..n)
                            .step_by(CHECK_THREADS)
                            .map(|i| {
                                let r = match &outs[i] {
                                    Ok(out) => B::check(seed, i, out),
                                    Err(e) => Err(e.clone()),
                                };
                                (i, r.err().map(|e| format!("op {i}: {e}")))
                            })
                            .collect::<Vec<_>>()
                    })
                    .expect("spawn checker thread")
            })
            .collect();
        let mut v = vec![None; n];
        for w in workers {
            for (i, r) in w.join().expect("checker thread panicked") {
                v[i] = r;
            }
        }
        v
    });
    let mut failures = Vec::new();
    for (i, v) in verdicts.into_iter().enumerate() {
        if let Some(msg) = v {
            seg.lat_ms[i] = f64::INFINITY;
            failures.push(msg);
        }
    }
    failures
}

/// Linear-interpolated quantile of a sorted sample.
#[must_use]
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted[lo], sorted[hi]);
    if lo == hi || a == b {
        a
    } else {
        a + (b - a) * (pos - lo as f64)
    }
}

/// Median of an unsorted sample.
#[must_use]
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Sum of a sample.
#[must_use]
pub(crate) fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// `VmHWM` of this process in MiB.
#[must_use]
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Outputs of the exact-count set (the first `min_ops` ops), or `None`
/// when one of them failed.
fn exact_set<O>(seg: &Segment<O>, min_ops: usize) -> Option<Vec<&O>> {
    seg.outs[..min_ops.min(seg.outs.len())]
        .iter()
        .map(|r| r.as_ref().ok())
        .collect()
}

/// Jet metrics of a traced segment: `run_ms` holds each op's direct jet
/// run, `retired` what those runs retired, `op_ms` each op's latency
/// and `cs` the counters of the exact-count set.
#[must_use]
pub(crate) fn jet_metrics(
    run_ms: &[f64],
    retired: u64,
    op_ms: &[f64],
    cs: &[jet::JetCounters],
) -> Vec<Metric> {
    let s = |f: fn(&jet::JetCounters) -> u64| cs.iter().map(f).sum::<u64>();
    // Successor-cache misses are not counted by the engine; each one
    // decodes or re-validates a block, so hits over hits plus decodes
    // bounds the share of chained block transfers.
    let decodes = s(|c| c.blocks_decoded) + s(|c| c.redecodes);
    vec![
        metric("jet.run_ms", median(run_ms), "ms"),
        metric("jet.run.share", sum(run_ms) / sum(op_ms), "ratio"),
        metric("jet.mips", retired as f64 / sum(run_ms) / 1e3, "Minstr/s"),
        metric(
            "jet.chain_hit_ratio",
            s(|c| c.chain_hits) as f64 / (s(|c| c.chain_hits) + decodes) as f64,
            "ratio",
        ),
        metric(
            "jet.blocks_decoded",
            s(|c| c.blocks_decoded) as f64 / cs.len() as f64,
            "count",
        ),
        metric("jet.redecodes", s(|c| c.redecodes) as f64, "count"),
        metric("jet.slow_steps", s(|c| c.slow_steps) as f64, "count"),
    ]
}

/// Orders `measured` as [`PER_LAYER`] and adds a 0 for every layer
/// metric the workload does not measure.
///
/// # Panics
///
/// If a measured metric is not in [`PER_LAYER`] or has another unit.
fn all_layers(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.contains(&(m.name.as_str(), m.unit)),
            "per-layer metric {} ({}) is not in PER_LAYER",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

/// A direct jet run, classified like `Stack::run_image` classifies it.
pub(crate) struct JetRun {
    /// The program's behaviour.
    pub outcome: refs::Outcome,
    /// Instructions retired.
    pub retired: u64,
    /// The engine's translation-cache counters.
    pub counters: jet::JetCounters,
}

/// Runs `image` on a fresh [`jet::Jet`] through its public steps
/// (`from_state`, `run`, `counters`).
#[must_use]
pub(crate) fn run_jet(image: &ag32::State, stack: &silver_stack::Stack, fuel: u64) -> JetRun {
    let mut j = jet::Jet::from_state(image);
    let retired = j.run(fuel);
    let (stdout, stderr) = basis::extract_streams(&j.io_events);
    let layout = &stack.layout;
    let code = j.mem().read_word(layout.exit_code_addr);
    let clean = retired < fuel || j.is_halted();
    let exit = (clean && j.pc == layout.halt_addr && code != basis::image::EXIT_UNSET)
        .then_some(code as u8);
    JetRun {
        outcome: refs::Outcome::new(exit, &stdout, &stderr),
        retired,
        counters: j.counters(),
    }
}

/// Runs one workload as `opts` says.
#[must_use]
pub fn run(opts: &Options) -> Report {
    match opts.workload {
        Workload::Compile => run_bench::<compile::Compile>(opts),
        Workload::Exec => run_bench::<exec::Exec>(opts),
        Workload::Serve => run_bench::<serve::Serve>(opts),
        Workload::Hw => run_bench::<hw::Hw>(opts),
    }
}

fn run_bench<B: Bench>(opts: &Options) -> Report {
    let inputs = {
        let mut h = std::hash::DefaultHasher::new();
        for i in 0..opts.min_ops {
            std::hash::Hash::hash(&B::input_digest(opts.seed, i), &mut h);
        }
        std::hash::Hasher::finish(&h)
    };
    if opts.trace {
        run_traced::<B>(opts, inputs)
    } else {
        run_untraced::<B>(opts, inputs)
    }
}

fn run_untraced<B: Bench>(opts: &Options, inputs: u64) -> Report {
    let t = Instant::now();
    let mut b = B::setup(opts.seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut seg = timed(&mut b, opts, &mut setups);
    drop(b);
    // Peak memory of the program under test, before the checks run the
    // references.
    let rss = peak_rss_mib();
    let failures = check_all::<B>(opts.seed, &mut seg);
    let exact = exact_set(&seg, opts.min_ops);
    let report_failed = failures.len();

    let mut sorted = seg.lat_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let executed: u64 = seg.outs.iter().flatten().map(B::executed).sum();
    let (retired, code) = match &exact {
        Some(set) => (
            set.iter().map(|o| B::retired(o)).sum::<u64>(),
            set.iter().map(|o| B::code_bytes(o)).sum::<u64>() as f64 / set.len() as f64,
        ),
        None => (0, 0.0),
    };
    let mut report = Report {
        attempted: seg.outs.len(),
        failures,
        metrics: vec![
            metric("setup_s", median(&setups), "s"),
            metric("latency_ms.p50", quantile(&sorted, 0.5), "ms"),
            metric("latency_ms.p90", quantile(&sorted, 0.9), "ms"),
            metric(
                "throughput_per_s",
                (seg.outs.len() - report_failed) as f64 / seg.wall_s,
                "1/s",
            ),
            metric("retired_minstr", retired as f64 / 1e6, "Minstr"),
            metric("code_kib", code / 1024.0, "KiB"),
            metric("peak_rss_mib", rss, "MiB"),
            metric("sim_mips", executed as f64 / seg.wall_s / 1e6, "Minstr/s"),
        ],
        exact: Vec::new(),
        inputs,
    };
    if let Some(set) = exact {
        report.exact.push(("retired".into(), retired));
        report.exact.push((
            "code_bytes".into(),
            set.iter().map(|o| B::code_bytes(o)).sum(),
        ));
        report.exact.extend(B::exact_counts(&set));
    }
    report
}

/// Ops per chunk when a traced run alternates between its fixtures.
const TRACE_CHUNK: usize = 8;

fn run_traced<B: Bench>(opts: &Options, inputs: u64) -> Report {
    // Two fixtures run the same ops in alternating chunks: one through
    // the one-call path, the baseline the tracing overhead is taken
    // against, and one traced. Alternating keeps host-speed drift out
    // of the difference.
    let mut plain_fx = B::setup(opts.seed);
    let mut traced_fx = B::setup(opts.seed);
    let mut layers = B::Layers::default();
    let mut plain = Segment::new();
    let mut seg = Segment::new();
    let start = Instant::now();
    while seg.outs.len() < opts.min_ops || start.elapsed().as_secs_f64() < opts.seconds {
        let first = seg.outs.len();
        for i in first..first + TRACE_CHUNK {
            plain.push(|| plain_fx.op(i));
        }
        for i in first..first + TRACE_CHUNK {
            seg.push(|| traced_fx.op_traced(i, &mut layers));
        }
    }
    drop((plain_fx, traced_fx));
    let mut failures = check_all::<B>(opts.seed, &mut plain);
    failures.extend(check_all::<B>(opts.seed, &mut seg));

    let plain_p50 = median(&plain.lat_ms);
    let traced_p50 = median(&seg.lat_ms);
    let mut report = Report {
        attempted: seg.outs.len(),
        failures,
        inputs,
        ..Report::default()
    };
    let mut measured = Vec::new();
    if let Some(set) = exact_set(&seg, opts.min_ops) {
        measured = B::layer_metrics(&layers, &set, &seg.lat_ms);
        report
            .exact
            .push(("retired".into(), set.iter().map(|o| B::retired(o)).sum()));
        report.exact.push((
            "code_bytes".into(),
            set.iter().map(|o| B::code_bytes(o)).sum(),
        ));
        report.exact.extend(B::exact_counts(&set));
    }
    measured.push(metric("trace.overhead_ms", traced_p50 - plain_p50, "ms"));
    measured.push(metric(
        "trace.overhead.share",
        (traced_p50 - plain_p50) / plain_p50,
        "ratio",
    ));
    report.metrics = all_layers(measured);
    report
}
