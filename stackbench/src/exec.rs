//! `exec` — long guest runs. `sort`, `wc`, `grep`, `cat` and
//! `mini_compiler` are compiled once during set-up; each op builds an
//! image with a seeded, larger stdin and runs jet to halt. Steady-state
//! jet (warm blocks, chaining) is nearly all of the time; compiler
//! changes reach this workload only through the retired-instruction
//! count.

use std::time::Instant;

use basis::build_image;
use cakeml::CompiledProgram;
use silver_stack::{apps, Backend, Engine, RunConfig, Stack};

use crate::gen::{self, op_rng};
use crate::refs::{self, digest, Outcome};
use crate::{median, metric, sum, Bench, Metric};

const STREAM: u64 = 2;

/// The programs, in op rotation order, with the input size range each
/// op draws from: lines of text, or terms for the mini compiler. The
/// ranges are sized so every program's op retires a similar number of
/// instructions, which keeps the latency distribution unimodal.
pub const PROGRAMS: [(&str, &str, (usize, usize)); 5] = [
    ("sort", apps::SORT, (290, 430)),
    ("wc", apps::WC, (1850, 2750)),
    ("grep", apps::GREP, (800, 1200)),
    ("cat", apps::CAT, (6300, 9400)),
    ("mini_compiler", apps::MINI_COMPILER, (200, 300)),
];

/// Op `i`'s input: program index, command line and stdin. Programs
/// rotate and sizes follow [`gen::spread`], so every run covers the
/// same mix; the seed draws the contents.
#[must_use]
pub fn input(seed: u64, i: usize) -> (usize, Vec<String>, Vec<u8>) {
    let p = i % PROGRAMS.len();
    let (name, _, (lo, hi)) = PROGRAMS[p];
    let mut rng = op_rng(seed, STREAM, i as u64);
    let size = gen::spread(i / PROGRAMS.len(), lo, hi);
    let (args, stdin) = match name {
        "mini_compiler" => (
            vec![name.to_string()],
            gen::expression(&mut rng, size, size / 20 + 1),
        ),
        _ => gen::app_input(&mut rng, name, size),
    };
    (p, args, stdin)
}

/// One op's output.
#[derive(Clone, Debug)]
pub struct Out {
    /// The program's behaviour.
    pub outcome: Outcome,
    /// Instructions retired.
    pub retired: u64,
    /// Code bytes of the program run.
    pub code_bytes: u64,
    /// Jet counters when the op ran traced.
    pub counters: Option<jet::JetCounters>,
}

/// Per-op layer timings of a traced segment.
#[derive(Default)]
pub struct Layers {
    image: Vec<f64>,
    run: Vec<f64>,
    retired: u64,
}

/// The fixture: the programs, compiled once.
pub struct Exec {
    seed: u64,
    stack: Stack,
    rc: RunConfig,
    programs: Vec<CompiledProgram>,
}

impl Bench for Exec {
    type Out = Out;
    type Layers = Layers;

    fn setup(seed: u64) -> Exec {
        let stack = Stack::new();
        let programs = PROGRAMS
            .iter()
            .map(|(_, src, _)| stack.compile(src).expect("corpus app compiles"))
            .collect();
        let mut e = Exec {
            seed,
            stack,
            rc: RunConfig {
                engine: Engine::Jet,
                ..RunConfig::default()
            },
            programs,
        };
        // Warm-up: one op of each program.
        for i in 0..PROGRAMS.len() {
            e.op(i).expect("warm-up op runs");
        }
        e
    }

    fn op(&mut self, i: usize) -> Result<Out, String> {
        let (p, args, stdin) = input(self.seed, i);
        let prog = &self.programs[p];
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let image = self
            .stack
            .load(prog, &args, &stdin)
            .map_err(|e| e.to_string())?;
        let r = self
            .stack
            .run_image(image, Backend::Isa, &self.rc)
            .map_err(|e| e.to_string())?;
        Ok(Out {
            outcome: Outcome::of_status(&r.exit, &r.stdout, &r.stderr),
            retired: r.instructions,
            code_bytes: prog.code.len() as u64,
            counters: None,
        })
    }

    fn op_traced(&mut self, i: usize, l: &mut Layers) -> Result<Out, String> {
        let (p, args, stdin) = input(self.seed, i);
        let prog = &self.programs[p];
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let t = Instant::now();
        let image = build_image(prog, &args, &stdin).map_err(|e| e.to_string())?;
        l.image.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let run = crate::run_jet(&image, &self.stack, self.rc.fuel);
        l.run.push(t.elapsed().as_secs_f64() * 1e3);
        l.retired += run.retired;
        Ok(Out {
            outcome: run.outcome,
            retired: run.retired,
            code_bytes: prog.code.len() as u64,
            counters: Some(run.counters),
        })
    }

    fn check(seed: u64, i: usize, out: &Out) -> Result<(), String> {
        let (p, args, stdin) = input(seed, i);
        let expected = match PROGRAMS[p].0 {
            "sort" => refs::sort(&stdin),
            "wc" => refs::wc(&stdin),
            "grep" => refs::grep(&args[1], &stdin),
            "cat" => refs::cat(&stdin),
            _ => refs::mini_compiler(&stdin),
        };
        out.outcome.check(&expected)?;
        if out.counters.is_some() {
            // Traced-path equivalence: the direct jet run must agree
            // with Stack::run_image.
            let stack = Stack::new();
            let prog = stack.compile(PROGRAMS[p].1).map_err(|e| e.to_string())?;
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let image = stack
                .load(&prog, &args, &stdin)
                .map_err(|e| e.to_string())?;
            let rc = RunConfig {
                engine: Engine::Jet,
                ..RunConfig::default()
            };
            let r = stack
                .run_image(image, Backend::Isa, &rc)
                .map_err(|e| e.to_string())?;
            if r.instructions != out.retired
                || Outcome::of_status(&r.exit, &r.stdout, &r.stderr) != out.outcome
            {
                return Err(format!(
                    "traced jet run differs from Stack::run_image: {} vs {} retires",
                    out.retired, r.instructions
                ));
            }
        }
        Ok(())
    }

    fn input_digest(seed: u64, i: usize) -> u64 {
        let (p, args, stdin) = input(seed, i);
        digest(format!("{p}\0{args:?}\0{stdin:?}").as_bytes()).0
    }

    fn retired(out: &Out) -> u64 {
        out.retired
    }

    fn executed(out: &Out) -> u64 {
        out.retired
    }

    fn code_bytes(out: &Out) -> u64 {
        out.code_bytes
    }

    fn exact_counts(outs: &[&Out]) -> Vec<(String, u64)> {
        let cs: Vec<jet::JetCounters> = outs.iter().filter_map(|o| o.counters).collect();
        if cs.len() != outs.len() {
            return Vec::new();
        }
        vec![
            (
                "jet.chain_hits".into(),
                cs.iter().map(|c| c.chain_hits).sum(),
            ),
            (
                "jet.blocks_decoded".into(),
                cs.iter().map(|c| c.blocks_decoded).sum(),
            ),
            ("jet.redecodes".into(), cs.iter().map(|c| c.redecodes).sum()),
            (
                "jet.slow_steps".into(),
                cs.iter().map(|c| c.slow_steps).sum(),
            ),
        ]
    }

    fn layer_metrics(l: &Layers, exact: &[&Out], op_ms: &[f64]) -> Vec<Metric> {
        let cs: Vec<jet::JetCounters> = exact.iter().filter_map(|o| o.counters).collect();
        let mut m = vec![
            metric("basis.image_ms", median(&l.image), "ms"),
            metric("basis.image.share", sum(&l.image) / sum(op_ms), "ratio"),
        ];
        m.extend(crate::jet_metrics(&l.run, l.retired, op_ms, &cs));
        m
    }
}
