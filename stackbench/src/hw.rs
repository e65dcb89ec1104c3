//! `hw` — circuit level. Set-up compiles programs that read no stdin:
//! `hello` and seeded prelude-free exit-code programs from the campaign
//! generator. Each op runs one image on the circuit-level CPU
//! (`Backend::Rtl`) and then on the generated Verilog
//! (`Backend::Verilog`). No program reads stdin: every `read_all`
//! costs about 130k retires, which would make one op take seconds.

use std::time::Instant;

use ag32::State;
use cakeml::{compile_source, CompilerConfig};
use silver_stack::{apps, Backend, RunConfig, Stack, StackResult};
use testkit::{Ctx, Rng, TestRng};

use crate::refs::{digest, Outcome};
use crate::{median, metric, sum, Bench, Metric};

const STREAM: u64 = 4;

/// Seeded exit-code programs next to `hello`.
pub const EXIT_PROGRAMS: usize = 31;

/// Loop iterations of the exit programs, spread evenly over this range
/// so that every program runs about as long as `hello` and op
/// latencies stay unimodal.
const LOOP_ITERS: (u64, u64) = (18, 34);

/// The workload's sources: `hello` (with the prelude) and then
/// [`EXIT_PROGRAMS`] prelude-free programs drawn from the seed. Each of
/// those is a seeded loop followed by a campaign-generated exit-code
/// program; the loop gives it `hello`'s length, and its result feeds a
/// branch the compiler cannot fold away.
#[must_use]
pub fn programs(seed: u64) -> Vec<(String, bool)> {
    let mut v = vec![(apps::HELLO.to_string(), true)];
    let mut rng = TestRng::seed_from_u64(seed ^ STREAM.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for _ in 0..EXIT_PROGRAMS {
        let (lo, hi) = LOOP_ITERS;
        let iters = lo + (hi - lo) * (v.len() as u64 - 1) / (EXIT_PROGRAMS as u64 - 1);
        let k = 2 + rng.next_u64() % 50;
        let c = rng.next_u64() % 1000;
        let exit = campaign::gen::source_program(&mut Ctx::recording(&mut rng));
        v.push((
            format!(
                "fun bench_loop i acc = if i = 0 then acc else bench_loop (i - 1) (if acc > 1000 then acc - 997 else acc + {k});\n\
                 val bench_acc = bench_loop {iters} {c};\n\
                 val _ = if bench_acc = 5000 then Runtime.exit 1 else ();\n{exit}\n"
            ),
            false,
        ));
    }
    v
}

fn load(stack: &Stack, src: &str, prelude: bool) -> Result<(State, u64), String> {
    let cfg = CompilerConfig {
        prelude,
        ..CompilerConfig::default()
    };
    let compiled = compile_source(src, stack.layout, &cfg).map_err(|e| e.to_string())?;
    let image = stack
        .load(&compiled, &["hw"], b"")
        .map_err(|e| e.to_string())?;
    Ok((image, compiled.code.len() as u64))
}

/// One op's output.
#[derive(Clone, Debug)]
pub struct Out {
    /// Program index.
    pub program: usize,
    /// Behaviour on the circuit-level CPU.
    pub rtl: Outcome,
    /// Behaviour on the Verilog.
    pub verilog: Outcome,
    /// Instructions the circuit-level CPU retired.
    pub retired: u64,
    /// Clock cycles on the circuit-level CPU and on the Verilog.
    pub cycles: (u64, u64),
    /// Code bytes of the program.
    pub code_bytes: u64,
}

/// Per-op simulator timings of a traced segment.
#[derive(Default)]
pub struct Layers {
    rtl: Vec<f64>,
    verilog: Vec<f64>,
    cycles: (u64, u64),
}

/// The fixture: loaded images of every program.
pub struct Hw {
    stack: Stack,
    rc: RunConfig,
    images: Vec<(State, u64)>,
}

fn outcome(r: &StackResult) -> Outcome {
    Outcome::of_status(&r.exit, &r.stdout, &r.stderr)
}

impl Hw {
    fn run(&self, i: usize, backend: Backend) -> Result<StackResult, String> {
        let (image, _) = &self.images[i % self.images.len()];
        self.stack
            .run_image(image.clone(), backend, &self.rc)
            .map_err(|e| e.to_string())
    }

    fn out(&self, i: usize, rtl: &StackResult, verilog: &StackResult) -> Out {
        Out {
            program: i % self.images.len(),
            rtl: outcome(rtl),
            verilog: outcome(verilog),
            retired: rtl.instructions,
            cycles: (rtl.cycles.unwrap_or(0), verilog.cycles.unwrap_or(0)),
            code_bytes: self.images[i % self.images.len()].1,
        }
    }
}

impl Bench for Hw {
    type Out = Out;
    type Layers = Layers;

    fn setup(seed: u64) -> Hw {
        let stack = Stack::new();
        let images = programs(seed)
            .iter()
            .map(|(src, prelude)| {
                load(&stack, src, *prelude).expect("hw program compiles and loads")
            })
            .collect();
        let mut h = Hw {
            stack,
            rc: RunConfig::default(),
            images,
        };
        // Warm-up: `hello` and one exit program on both simulators.
        for i in 0..2 {
            h.op(i).expect("warm-up op runs");
        }
        h
    }

    fn op(&mut self, i: usize) -> Result<Out, String> {
        let rtl = self.run(i, Backend::Rtl)?;
        let verilog = self.run(i, Backend::Verilog)?;
        Ok(self.out(i, &rtl, &verilog))
    }

    fn op_traced(&mut self, i: usize, l: &mut Layers) -> Result<Out, String> {
        let t = Instant::now();
        let rtl = self.run(i, Backend::Rtl)?;
        l.rtl.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let verilog = self.run(i, Backend::Verilog)?;
        l.verilog.push(t.elapsed().as_secs_f64() * 1e3);
        let out = self.out(i, &rtl, &verilog);
        l.cycles.0 += out.cycles.0;
        l.cycles.1 += out.cycles.1;
        Ok(out)
    }

    fn check(seed: u64, _i: usize, out: &Out) -> Result<(), String> {
        // The ISA result of the same image is the reference.
        let stack = Stack::new();
        let progs = programs(seed);
        let (src, prelude) = &progs[out.program];
        let (image, _) = load(&stack, src, *prelude)?;
        let isa = stack
            .run_image(image, Backend::Isa, &RunConfig::default())
            .map_err(|e| e.to_string())?;
        let expected = outcome(&isa);
        out.rtl.check(&expected).map_err(|e| format!("rtl: {e}"))?;
        out.verilog
            .check(&expected)
            .map_err(|e| format!("verilog: {e}"))?;
        if out.retired != isa.instructions {
            return Err(format!(
                "rtl retired {} != isa {}",
                out.retired, isa.instructions
            ));
        }
        Ok(())
    }

    fn input_digest(seed: u64, i: usize) -> u64 {
        let progs = programs(seed);
        digest(progs[i % progs.len()].0.as_bytes()).0
    }

    fn retired(out: &Out) -> u64 {
        out.retired
    }

    fn executed(out: &Out) -> u64 {
        // The same instructions run once on each simulator.
        2 * out.retired
    }

    fn code_bytes(out: &Out) -> u64 {
        out.code_bytes
    }

    fn exact_counts(outs: &[&Out]) -> Vec<(String, u64)> {
        vec![
            ("rtl.cycles".into(), outs.iter().map(|o| o.cycles.0).sum()),
            (
                "verilog.cycles".into(),
                outs.iter().map(|o| o.cycles.1).sum(),
            ),
        ]
    }

    fn layer_metrics(l: &Layers, exact: &[&Out], op_ms: &[f64]) -> Vec<Metric> {
        let total = sum(op_ms);
        let self_ms: Vec<f64> = l.verilog.iter().zip(&l.rtl).map(|(v, r)| v - r).collect();
        let rtl_cycles: u64 = exact.iter().map(|o| o.cycles.0).sum();
        let sim_cycles: u64 = exact.iter().map(|o| o.cycles.0 + o.cycles.1).sum();
        let retired: u64 = exact.iter().map(|o| o.retired).sum();
        vec![
            metric("rtl.run_ms", median(&l.rtl), "ms"),
            metric("rtl.run.share", sum(&l.rtl) / total, "ratio"),
            metric(
                "rtl.kcycles_per_s",
                l.cycles.0 as f64 / sum(&l.rtl),
                "kcycles/s",
            ),
            metric("verilog.run_ms", median(&l.verilog), "ms"),
            metric("verilog.run.share", sum(&l.verilog) / total, "ratio"),
            metric("verilog.self_ms", median(&self_ms), "ms"),
            metric(
                "rtl.cycles",
                rtl_cycles as f64 / exact.len() as f64,
                "count",
            ),
            metric(
                "rtl.cpi",
                rtl_cycles as f64 / retired as f64,
                "cycles/instr",
            ),
            metric("sim_mcycles", sim_cycles as f64 / 1e6, "Mcycles"),
            metric(
                "sim_kcycles_per_s",
                (l.cycles.0 + l.cycles.1) as f64 / (sum(&l.rtl) + sum(&l.verilog)),
                "kcycles/s",
            ),
        ]
    }
}
