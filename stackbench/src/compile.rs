//! `compile` — silverc, cold. Every op compiles a source that no other
//! op shares (a corpus app behind a seeded, distinct tail), loads it
//! with 1–3 lines of stdin and runs it on jet. The compiler dominates
//! the op, and since no source repeats, no source-keyed cache can help:
//! this workload is the control for `serve`.

use std::time::Instant;

use basis::build_image;
use cakeml::{anf, check_program, clos, codegen, full_source, opt, parse_program};
use silver_stack::{apps, Backend, Engine, RunConfig, Stack};

use crate::gen::{self, op_rng};
use crate::refs::{self, digest, Outcome};
use crate::{median, metric, sum, Bench, Metric};

const STREAM: u64 = 1;

/// Op `i`'s input: the source, command line and stdin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Input {
    /// Complete source (without the prelude).
    pub src: String,
    /// Command line.
    pub args: Vec<String>,
    /// Standard input.
    pub stdin: Vec<u8>,
}

/// Generates op `i`'s input. The op's shape follows a fixed rotation —
/// corpus app, stdin line count and tail template — so every run and
/// every seed compiles the same mix; the seed draws the contents.
#[must_use]
pub fn input(seed: u64, i: usize) -> Input {
    let mut rng = op_rng(seed, STREAM, i as u64);
    let n = apps::ALL.len();
    let (name, app) = apps::ALL[i % n];
    let lines = 1 + (i / n) % 3;
    let (args, stdin) = gen::app_input(&mut rng, name, lines);
    let id = (seed % 1000) * 100_000 + i as u64;
    Input {
        src: format!("{}{app}", gen::tail(&mut rng, id, i / (3 * n))),
        args,
        stdin,
    }
}

/// Sizes of the intermediate representations (traced ops only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrSizes {
    /// Top-level declarations after parsing (prelude included).
    pub ast_decls: u64,
    /// Variables after ANF lowering.
    pub anf_vars: u64,
    /// First-order functions after closure conversion.
    pub flat_funs: u64,
    /// Jet's translation-cache counters of the run.
    pub jet: jet::JetCounters,
}

/// One op's output.
#[derive(Clone, Debug)]
pub struct Out {
    /// The program's behaviour.
    pub outcome: Outcome,
    /// Instructions retired.
    pub retired: u64,
    /// Generated code bytes and their digest.
    pub code: (u64, usize),
    /// IR sizes when the op ran traced.
    pub ir: Option<IrSizes>,
}

/// Per-op layer timings of a traced segment.
#[derive(Default)]
pub struct Layers {
    parse: Vec<f64>,
    types: Vec<f64>,
    anf: Vec<f64>,
    opt: Vec<f64>,
    clos: Vec<f64>,
    codegen: Vec<f64>,
    image: Vec<f64>,
    jet: Vec<f64>,
    retired: u64,
}

/// The fixture: just the stack configuration.
pub struct Compile {
    seed: u64,
    stack: Stack,
    rc: RunConfig,
}

fn jet_config() -> RunConfig {
    RunConfig {
        engine: Engine::Jet,
        ..RunConfig::default()
    }
}

/// Compile-and-run through the one-call path (`Stack::compile`, `load`,
/// `run_image` on jet).
fn run_one(stack: &Stack, rc: &RunConfig, inp: &Input) -> Result<Out, String> {
    let compiled = stack.compile(&inp.src).map_err(|e| e.to_string())?;
    let args: Vec<&str> = inp.args.iter().map(String::as_str).collect();
    let image = stack
        .load(&compiled, &args, &inp.stdin)
        .map_err(|e| e.to_string())?;
    let r = stack
        .run_image(image, Backend::Isa, rc)
        .map_err(|e| e.to_string())?;
    Ok(Out {
        outcome: Outcome::of_status(&r.exit, &r.stdout, &r.stderr),
        retired: r.instructions,
        code: digest(&compiled.code),
        ir: None,
    })
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Bench for Compile {
    type Out = Out;
    type Layers = Layers;

    fn setup(seed: u64) -> Compile {
        let c = Compile {
            seed,
            stack: Stack::new(),
            rc: jet_config(),
        };
        // Warm-up: every corpus app once, so allocator and caches are
        // past their first-use costs before the timed region.
        for (name, app) in apps::ALL {
            let mut rng = op_rng(seed, STREAM + 100, 0);
            let (args, stdin) = gen::app_input(&mut rng, name, 1);
            let warm = Input {
                src: app.to_string(),
                args,
                stdin,
            };
            run_one(&c.stack, &c.rc, &warm).expect("corpus app compiles and runs");
        }
        c
    }

    fn op(&mut self, i: usize) -> Result<Out, String> {
        run_one(&self.stack, &self.rc, &input(self.seed, i))
    }

    fn op_traced(&mut self, i: usize, l: &mut Layers) -> Result<Out, String> {
        let inp = input(self.seed, i);
        let cfg = self.stack.compiler;
        let t = Instant::now();
        let mut prog = parse_program(&full_source(&inp.src, &cfg)).map_err(|e| e.to_string())?;
        l.parse.push(ms(t));
        let t = Instant::now();
        let data = check_program(&mut prog).map_err(|e| e.to_string())?;
        l.types.push(ms(t));
        let t = Instant::now();
        let mut lowered = anf::lower_program_with(&prog, &data, cfg.direct_calls);
        l.anf.push(ms(t));
        let anf_vars = u64::from(lowered.var_count);
        let t = Instant::now();
        if cfg.const_fold {
            lowered = opt::optimize(lowered);
        }
        l.opt.push(ms(t));
        let t = Instant::now();
        let flat = clos::convert_program(&lowered);
        l.clos.push(ms(t));
        let t = Instant::now();
        let compiled =
            codegen::generate(&flat, self.stack.layout, cfg).map_err(|e| e.to_string())?;
        l.codegen.push(ms(t));
        let args: Vec<&str> = inp.args.iter().map(String::as_str).collect();
        let t = Instant::now();
        let image = build_image(&compiled, &args, &inp.stdin).map_err(|e| e.to_string())?;
        l.image.push(ms(t));
        let t = Instant::now();
        let run = crate::run_jet(&image, &self.stack, self.rc.fuel);
        l.jet.push(ms(t));
        l.retired += run.retired;
        Ok(Out {
            outcome: run.outcome,
            retired: run.retired,
            code: digest(&compiled.code),
            ir: Some(IrSizes {
                ast_decls: prog.decls.len() as u64,
                anf_vars,
                flat_funs: flat.funs.len() as u64,
                jet: run.counters,
            }),
        })
    }

    fn check(seed: u64, i: usize, out: &Out) -> Result<(), String> {
        let inp = input(seed, i);
        out.outcome
            .check(&refs::interpret(&inp.src, &inp.args, &inp.stdin)?)?;
        if out.ir.is_some() {
            // Traced-path equivalence: the per-pass compile and the
            // direct jet run must agree with the one-call path.
            let plain = run_one(&Stack::new(), &jet_config(), &inp)?;
            if plain.code != out.code {
                return Err("traced per-pass compile differs from compile_source".into());
            }
            if plain.retired != out.retired || plain.outcome != out.outcome {
                return Err(format!(
                    "traced jet run differs from Stack::run_image: {} vs {} retires",
                    out.retired, plain.retired
                ));
            }
        }
        Ok(())
    }

    fn input_digest(seed: u64, i: usize) -> u64 {
        let inp = input(seed, i);
        digest(format!("{}\0{:?}\0{:?}", inp.src, inp.args, inp.stdin).as_bytes()).0
    }

    fn retired(out: &Out) -> u64 {
        out.retired
    }

    fn executed(out: &Out) -> u64 {
        out.retired
    }

    fn code_bytes(out: &Out) -> u64 {
        out.code.1 as u64
    }

    fn exact_counts(outs: &[&Out]) -> Vec<(String, u64)> {
        let irs: Vec<IrSizes> = outs.iter().filter_map(|o| o.ir).collect();
        if irs.len() != outs.len() {
            return Vec::new();
        }
        vec![
            (
                "cakeml.ast_decls".into(),
                irs.iter().map(|s| s.ast_decls).sum(),
            ),
            (
                "cakeml.anf_vars".into(),
                irs.iter().map(|s| s.anf_vars).sum(),
            ),
            (
                "cakeml.flat_funs".into(),
                irs.iter().map(|s| s.flat_funs).sum(),
            ),
            (
                "jet.blocks_decoded".into(),
                irs.iter().map(|s| s.jet.blocks_decoded).sum(),
            ),
        ]
    }

    fn layer_metrics(l: &Layers, exact: &[&Out], op_ms: &[f64]) -> Vec<Metric> {
        let total = sum(op_ms);
        let mut m = Vec::new();
        for (name, xs) in [
            ("cakeml.parse", &l.parse),
            ("cakeml.types", &l.types),
            ("cakeml.anf", &l.anf),
            ("cakeml.opt", &l.opt),
            ("cakeml.clos", &l.clos),
            ("cakeml.codegen", &l.codegen),
            ("basis.image", &l.image),
        ] {
            m.push(metric(&format!("{name}_ms"), median(xs), "ms"));
            m.push(metric(&format!("{name}.share"), sum(xs) / total, "ratio"));
        }
        let n = exact.len() as f64;
        let mean = |f: fn(&IrSizes) -> u64| {
            exact
                .iter()
                .filter_map(|o| o.ir.as_ref())
                .map(f)
                .sum::<u64>() as f64
                / n
        };
        m.push(metric("cakeml.ast_decls", mean(|s| s.ast_decls), "count"));
        m.push(metric("cakeml.anf_vars", mean(|s| s.anf_vars), "count"));
        m.push(metric("cakeml.flat_funs", mean(|s| s.flat_funs), "count"));
        m.push(metric(
            "cakeml.code_kib",
            exact.iter().map(|o| o.code.1 as f64).sum::<f64>() / n / 1024.0,
            "KiB",
        ));
        let cs: Vec<jet::JetCounters> = exact.iter().filter_map(|o| o.ir).map(|s| s.jet).collect();
        m.extend(crate::jet_metrics(&l.jet, l.retired, op_ms, &cs));
        m
    }
}
