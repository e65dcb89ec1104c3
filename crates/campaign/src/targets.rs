//! The differential-target registry.
//!
//! Each [`Target`] wraps one of the repo's theorem-analog relations as
//! a fuzzable check: draw a case from a choice stream, run the two (or
//! three) semantics it relates, and report agreement plus the coverage
//! the case earned. Failure verdicts name the layer pair that diverged
//! — the targets compare adjacent layers top-down, so the first failing
//! comparison *is* the layer bisection the triage step reports.
//!
//! | target | relation | paper |
//! |---|---|---|
//! | `t2`, `t2-gc`, `t2-noopt` | interpreter ↔ compiled ISA code | theorem (2) |
//! | `t2@jet` family | the same relation, verdict run on the jet engine under full shadow | theorem (2) ∘ theorem J |
//! | `t9` | ISA ↔ circuit lockstep | theorem (9) |
//! | `t10` | circuit ↔ generated Verilog | theorem (10) |
//! | `syscall` | oracle ↔ system-call machine code | theorems (11)–(13) |
//! | `t-jet` | reference `Next` ↔ jet translation-cache engine | theorem J |
//! | `t-snap` | checkpointed-and-resumed run ↔ uninterrupted run | crash-resume over theorem J |
//!
//! The full end-to-end target (theorem (8)) lives in the `silver-stack`
//! crate — it needs the stack composition, which sits above this crate.

use ag32::Machine as _;
use basis::{
    build_image, classify_exit, pure_image, run_to_halt_observed, run_with_oracle, BasisHost,
    ExitStatus, FsState,
};
use cakeml::{
    compile_source, frontend, program_features, run_program, CompilerConfig, NoFfi, Stop,
    TargetLayout,
};
use obs::Forensics;
use silver::env::{Latency, MemEnvConfig};
use silver::exec::{Plan, RunEnd, Shadow};
use silver::silver_cpu;
use testkit::prop::Ctx;

use crate::coverage::CovSnap;
use crate::gen;

/// The verdict of one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All compared layers agreed.
    Pass,
    /// Two layers diverged (or one of them failed to run).
    Fail {
        /// Which layer (pair) is to blame, e.g. `"isa vs source"`.
        layer: String,
        /// Human-readable detail, including the generated case.
        message: String,
    },
}

impl Verdict {
    /// True for [`Verdict::Fail`].
    #[must_use]
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail { .. })
    }
}

/// What one case produced: its verdict and the coverage it earned.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Coverage observed while running the case.
    pub cov: CovSnap,
    /// Agreement verdict.
    pub verdict: Verdict,
    /// Boot-replay fuel a checkpoint-anchored triage replay avoided
    /// (retires skipped by replaying from the anchor instead of reset).
    /// `None` when the case passed or no anchor was available.
    pub fuel_saved: Option<u64>,
}

impl CaseOutcome {
    fn pass(cov: CovSnap) -> Self {
        CaseOutcome { cov, verdict: Verdict::Pass, fuel_saved: None }
    }

    fn fail(cov: CovSnap, layer: &str, message: String) -> Self {
        CaseOutcome {
            cov,
            verdict: Verdict::Fail { layer: layer.to_string(), message },
            fuel_saved: None,
        }
    }

    /// A lockstep divergence: the rendered forensics, and the boot
    /// retires its anchored replay skipped.
    fn diverged(cov: CovSnap, layer: &str, fx: &Forensics) -> Self {
        CaseOutcome { fuel_saved: fx.replay_anchor, ..CaseOutcome::fail(cov, layer, fx.render()) }
    }
}

/// A differential fuzz target: a pure function from a choice stream to
/// a [`CaseOutcome`]. Implementations must be deterministic — the same
/// choices must yield the same verdict — because replay, shrinking and
/// the corpus all depend on it.
pub trait Target: Sync {
    /// Stable registry name (used in reports, seed files, repro lines).
    fn name(&self) -> &'static str;

    /// Draws one case from `ctx` and checks it.
    fn run_case(&self, ctx: &mut Ctx) -> CaseOutcome;

    /// Relative scheduling weight (cheap targets get more cases).
    fn weight(&self) -> u32 {
        3
    }
}

// ---- theorem (2): interpreter vs compiled ISA code ----

/// Compiler correctness under one [`CompilerConfig`], executed on the
/// reference interpreter or — the campaign-throughput configuration —
/// on the jet translation-cache engine under full lockstep shadow.
pub struct CompilerTarget {
    name: &'static str,
    cfg: CompilerConfig,
    jet: bool,
}

impl CompilerTarget {
    /// The config matrix: default optimising build, GC build, and the
    /// everything-off build (each exercises different backend paths).
    #[must_use]
    pub fn matrix() -> Vec<CompilerTarget> {
        let base = CompilerConfig { prelude: false, ..CompilerConfig::default() };
        vec![
            CompilerTarget { name: "t2", cfg: base.clone(), jet: false },
            CompilerTarget {
                name: "t2-gc",
                cfg: CompilerConfig { gc: true, ..base.clone() },
                jet: false,
            },
            CompilerTarget {
                name: "t2-noopt",
                cfg: CompilerConfig {
                    direct_calls: false,
                    tail_calls: false,
                    const_fold: false,
                    ..base
                },
                jet: false,
            },
        ]
    }

    /// The same config matrix sharded onto the jet engine with full
    /// shadow on: every case is still compared retire-for-retire
    /// against the reference interpreter (theorem J), but the verdict
    /// run and the coverage stats come from jet. Comparing this
    /// family's case rate with [`matrix`](CompilerTarget::matrix)'s is
    /// the campaign-throughput experiment (`BENCH_campaign.json`
    /// engine-rate lines).
    #[must_use]
    pub fn jet_matrix() -> Vec<CompilerTarget> {
        Self::matrix()
            .into_iter()
            .map(|t| CompilerTarget {
                name: match t.name {
                    "t2" => "t2@jet",
                    "t2-gc" => "t2-gc@jet",
                    _ => "t2-noopt@jet",
                },
                cfg: t.cfg,
                jet: true,
            })
            .collect()
    }
}

/// Retire budget of one compiled program.
const T2_FUEL: u64 = 100_000_000;

impl Target for CompilerTarget {
    fn name(&self) -> &'static str {
        self.name
    }

    fn weight(&self) -> u32 {
        4
    }

    fn run_case(&self, ctx: &mut Ctx) -> CaseOutcome {
        let src = gen::source_program(ctx);
        let mut cov = CovSnap::new();

        let (prog, _) = match frontend(&src, &self.cfg) {
            Ok(p) => p,
            Err(e) => {
                return CaseOutcome::fail(cov, "source", format!("generated program rejected: {e}\n{src}"))
            }
        };
        cov.features = program_features(&prog);

        // Specification: the interpreter.
        let spec = match run_program(&prog, &mut NoFfi, 50_000_000) {
            Ok(out) => out.exit_code,
            Err(Stop::Exit(c)) => c,
            Err(other) => {
                return CaseOutcome::fail(cov, "source", format!("interpreter: {other}\n{src}"))
            }
        };

        // Implementation: compiled Silver code under pure `Next`.
        let layout = TargetLayout::default();
        let compiled = match compile_source(&src, layout, &self.cfg) {
            Ok(c) => c,
            Err(e) => return CaseOutcome::fail(cov, "compile", format!("{e}\n{src}")),
        };
        let mut s = pure_image(&compiled);

        // On the jet family the run is the theorem-J lockstep of jet and
        // the reference (its state is the reference side's, equal to
        // jet's once the lockstep passed); edge coverage stays empty —
        // this family is throughput-oriented.
        let layer = if self.jet {
            let mut ls = jet::Lockstep::new(&s, 0);
            ls.run(T2_FUEL);
            if let Err(fx) = ls.finish() {
                let message = format!("{}\nfor:\n{src}", fx.render());
                return CaseOutcome::fail(cov, "jet vs isa", message);
            }
            s = ls.capture();
            "jet"
        } else {
            s.run_traced(T2_FUEL, &mut cov.edges);
            "isa"
        };
        cov.stats = s.stats.clone();
        let got = match classify_exit(&s, &layout, s.instructions_retired < T2_FUEL) {
            ExitStatus::Exited(got) if got == spec => return CaseOutcome::pass(cov),
            ExitStatus::OutOfFuel => {
                return CaseOutcome::fail(cov, layer, format!("compiled code did not halt\n{src}"))
            }
            ExitStatus::Exited(got) => format!("exit {got}"),
            other => format!("{other:?}"),
        };
        let message = format!("{got} vs exit {spec} for:\n{src}");
        CaseOutcome::fail(cov, &format!("{layer} vs source"), message)
    }
}

// ---- theorem (9): ISA vs circuit lockstep ----

/// ISA↔RTL lockstep over random structured machine programs with a
/// randomised-latency environment.
pub struct LockstepTarget;

impl Target for LockstepTarget {
    fn name(&self) -> &'static str {
        "t9"
    }

    fn weight(&self) -> u32 {
        2
    }

    fn run_case(&self, ctx: &mut Ctx) -> CaseOutcome {
        let state = gen::isa_state(ctx);
        let max_instructions: u64 = ctx.gen_range(50u64..=1500);
        let cfg = MemEnvConfig {
            mem_latency: Latency::Random { max: ctx.choose(4) as u32 },
            interrupt_latency: Latency::Random { max: ctx.choose(4) as u32 },
            start_delay: ctx.choose(3) as u32,
            seed: ctx.draw(u64::MAX),
        };

        // Coverage comes from the lockstep's reference side: the ISA
        // run the relation checks, with the identity accelerator the
        // generated programs already use.
        let mut cov = CovSnap::new();
        let max_cycles = max_instructions * 64 + 10_000;
        let verdict = silver::check_lockstep(
            silver_cpu(),
            &state,
            max_instructions,
            cfg,
            max_cycles,
            &mut cov,
        );
        // The report carries the divergence forensics (divergent retire
        // and cycle, retire tails on both sides, register deltas, a VCD
        // window and the verdict of the replay from the last anchor
        // before the divergence) into the failure record and, after
        // triage shrinks it, the minimal counterexample.
        match verdict {
            Ok(_) => CaseOutcome::pass(cov),
            Err(fx) => CaseOutcome::diverged(cov, "rtl vs isa", &fx),
        }
    }
}

// ---- theorem (10): circuit vs generated Verilog ----

/// Cycle-exact circuit↔Verilog agreement from the all-zero reset state
/// (the program is assembled at address 0, as the equivalence checker
/// requires).
pub struct VerilogTarget;

impl Target for VerilogTarget {
    fn name(&self) -> &'static str {
        "t10"
    }

    fn weight(&self) -> u32 {
        1
    }

    fn run_case(&self, ctx: &mut Ctx) -> CaseOutcome {
        let state = gen::isa_state(ctx);
        let cycles: u64 = ctx.gen_range(40u64..=250);
        let cfg = MemEnvConfig {
            mem_latency: Latency::Random { max: ctx.choose(3) as u32 },
            interrupt_latency: Latency::Fixed(0),
            start_delay: ctx.choose(3) as u32,
            seed: ctx.draw(u64::MAX),
        };

        // ISA shadow run for coverage feedback (the equivalence check
        // itself compares signals, not retires).
        let mut cov = CovSnap::new();
        let mut isa = state.clone();
        isa.run_traced(cycles, &mut cov.edges);
        cov.stats = isa.stats.clone();

        // One observed run: a divergence comes back with its forensics —
        // the divergent cycle and signal, both sides' signal tails and a
        // VCD window.
        match silver::check_cpu_verilog_equiv(&state, cfg, cycles) {
            Ok(()) => CaseOutcome::pass(cov),
            Err(fx) => CaseOutcome::fail(cov, "verilog vs rtl", fx.render()),
        }
    }
}

// ---- theorem J: reference `Next` vs the jet translation-cache engine ----

/// Full-shadow differential run of the [`jet`] engine against the
/// reference interpreter over random structured machine programs — the
/// engine-level analogue of `t9`, one layer up: instead of ISA↔circuit,
/// it relates the two *implementations* of the ISA layer. Every
/// retire's PC and the whole architectural state are compared; a
/// divergence fails with the rendered forensics report (divergent
/// retire index, field deltas, retire tails), which triage then shrinks
/// like any other failure.
pub struct JetTarget;

impl Target for JetTarget {
    fn name(&self) -> &'static str {
        "t-jet"
    }

    fn weight(&self) -> u32 {
        4 // cheap: two software engines, no circuit simulation
    }

    fn run_case(&self, ctx: &mut Ctx) -> CaseOutcome {
        let state = gen::isa_state(ctx);
        let fuel: u64 = ctx.gen_range(50u64..=2000);

        // The lockstep runs in quarter-fuel slices through the stack's
        // run loop, so a divergence is replayed from its anchor — the
        // last verified-good boundary — instead of from boot. Coverage
        // comes from the same run: the edges of its reference side, the
        // stats of its end.
        let mut cov = CovSnap::new();
        let plan = Plan {
            layout: &TargetLayout::default(),
            engine: ag32::Engine::Jet,
            shadow: Some(Shadow { fault_xor: 0 }),
            fuel,
            every: (fuel / 4).max(1),
        };
        match silver::exec::run(state, &plan, &mut (), &mut cov.edges) {
            RunEnd::Done(f) => {
                cov.stats = f.stats;
                CaseOutcome::pass(cov)
            }
            RunEnd::Stopped(never) => match never {},
            RunEnd::Diverged(fx) => CaseOutcome::diverged(cov, "jet vs isa", &fx),
        }
    }
}

// ---- snapshot/replay: crash-resume equivalence across engines ----

/// Snapshot/replay equivalence over random structured machine programs:
/// a run checkpointed at an arbitrary retire count and resumed — on
/// *either* engine — must be indistinguishable from the uninterrupted
/// run, and the checkpoint bytes must be identical no matter which
/// engine captured them. This is the fuzzable form of the crash-resume
/// obligation (`testkit::crash_resume_equiv`) plus the byte-stability
/// half of the snapshot format contract.
pub struct SnapTarget;

impl Target for SnapTarget {
    fn name(&self) -> &'static str {
        "t-snap"
    }

    fn weight(&self) -> u32 {
        2
    }

    fn run_case(&self, ctx: &mut Ctx) -> CaseOutcome {
        use silver::snapshot::Snapshot;

        let state = gen::isa_state(ctx);
        let fuel: u64 = ctx.gen_range(50u64..=2000);

        // Uninterrupted reference run: the crash-resume baseline, and
        // the case's coverage.
        let mut cov = CovSnap::new();
        let mut base = state.clone();
        base.run_traced(fuel, &mut cov.edges);
        cov.stats = base.stats.clone();
        let total = base.instructions_retired;

        // Kill point: an arbitrary retire count within the run.
        let k: u64 = ctx.gen_range(0..=total);

        // Checkpoint the same prefix on both engines.
        let mut pre = state.clone();
        pre.run(k);
        let snap_ref = Snapshot::capture(&pre);
        let mut jet_pre = jet::Jet::from_state(&state);
        jet_pre.run(k);
        let snap_jet = Snapshot::capture(&jet_pre);

        // Byte stability: the two captures must serialise to identical
        // bytes (no host ordering, no engine-private state may leak into
        // the format).
        let bytes = snap_ref.to_bytes();
        if bytes != snap_jet.to_bytes() {
            return CaseOutcome::fail(
                cov,
                "snapshot bytes: jet vs ref",
                format!("engines captured different checkpoint bytes at retire {k} (fuel {fuel})"),
            );
        }

        // Round-trip through the wire format, then resume on each
        // engine for the remaining fuel and compare with the baseline.
        let restored = match Snapshot::from_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => {
                return CaseOutcome::fail(
                    cov,
                    "snapshot decode",
                    format!("self-produced snapshot rejected at retire {k}: {e}"),
                )
            }
        };
        let remaining = fuel - k;

        let mut resumed_ref = restored.restore();
        resumed_ref.run(remaining);
        if !resumed_ref.isa_visible_eq(&base)
            || resumed_ref.instructions_retired != base.instructions_retired
            || resumed_ref.stats != base.stats
        {
            return CaseOutcome::fail(
                cov,
                "resume(ref) vs uninterrupted",
                format!(
                    "ref resume from retire {k} diverged (pc {:#x} vs {:#x}, retired {} vs {})",
                    resumed_ref.pc, base.pc, resumed_ref.instructions_retired, base.instructions_retired
                ),
            );
        }

        let mut resumed_jet = jet::Jet::from_state(&restored.restore());
        resumed_jet.run(remaining);
        let jet_final = resumed_jet.to_state();
        if !jet_final.isa_visible_eq(&base)
            || resumed_jet.instructions_retired != base.instructions_retired
            || resumed_jet.stats != base.stats
        {
            return CaseOutcome::fail(
                cov,
                "resume(jet) vs uninterrupted",
                format!(
                    "jet resume from retire {k} diverged (pc {:#x} vs {:#x}, retired {} vs {})",
                    jet_final.pc, base.pc, resumed_jet.instructions_retired, base.instructions_retired
                ),
            );
        }
        CaseOutcome::pass(cov)
    }
}

// ---- theorems (11)–(13): oracle vs system-call machine code ----

/// Three-way agreement on I/O-performing programs: interpreter with the
/// `basis_ffi` oracle, `machine_sem` (FFI serviced by the oracle), and
/// pure `Next` through the real system-call code.
pub struct SyscallTarget;

impl Target for SyscallTarget {
    fn name(&self) -> &'static str {
        "syscall"
    }

    fn weight(&self) -> u32 {
        2
    }

    fn run_case(&self, ctx: &mut Ctx) -> CaseOutcome {
        let (src, stdin) = gen::ffi_program(ctx);
        let args = ["fuzz"];
        let layout = TargetLayout::default();
        let cfg = CompilerConfig::default();
        let mut cov = CovSnap::new();

        let (prog, _) = match frontend(&src, &cfg) {
            Ok(p) => p,
            Err(e) => {
                return CaseOutcome::fail(cov, "source", format!("generated program rejected: {e}\n{src}"))
            }
        };
        cov.features = program_features(&prog);

        // 1. Interpreter + oracle (the specification).
        let mut host = BasisHost::new(FsState::stdin_only(&args, &stdin));
        let spec_code = match run_program(&prog, &mut host, 2_000_000_000) {
            Ok(out) => out.exit_code,
            Err(Stop::Exit(c)) => c,
            Err(other) => {
                return CaseOutcome::fail(cov, "source", format!("interpreter: {other}\n{src}"))
            }
        };

        let compiled = match compile_source(&src, layout, &cfg) {
            Ok(c) => c,
            Err(e) => return CaseOutcome::fail(cov, "compile", format!("{e}\n{src}")),
        };
        let image = match build_image(&compiled, &args, &stdin) {
            Ok(i) => i,
            Err(e) => return CaseOutcome::fail(cov, "image", format!("{e}\n{src}")),
        };

        // 2. machine_sem: FFI steps serviced by the interference oracle.
        let oracle_run = run_with_oracle(
            image.clone(),
            &layout,
            &compiled.ffi_names,
            FsState::stdin_only(&args, &stdin),
            500_000_000,
        );
        if oracle_run.exit != ExitStatus::Exited(spec_code)
            || oracle_run.stdout != host.fs.stdout
            || oracle_run.stderr != host.fs.stderr
        {
            return CaseOutcome::fail(
                cov,
                "oracle vs source",
                format!(
                    "oracle-mode {:?}/{:?} vs interpreter {spec_code}/{:?} for:\n{src}",
                    oracle_run.exit,
                    oracle_run.stdout_utf8(),
                    host.fs.stdout_utf8()
                ),
            );
        }

        // 3. Pure `Next` through the real system-call machine code.
        let machine_run = run_to_halt_observed(image, &layout, 500_000_000, &mut cov.edges);
        cov.stats = machine_run.stats.clone();
        if machine_run.exit != oracle_run.exit
            || machine_run.stdout != oracle_run.stdout
            || machine_run.stderr != oracle_run.stderr
        {
            return CaseOutcome::fail(
                cov,
                "machine vs oracle",
                format!(
                    "machine {:?}/{:?} vs oracle {:?}/{:?} for:\n{src}",
                    machine_run.exit,
                    machine_run.stdout_utf8(),
                    oracle_run.exit,
                    oracle_run.stdout_utf8()
                ),
            );
        }
        CaseOutcome::pass(cov)
    }
}

// ---- registry ----

/// Resolves a `--target` selection to a list of targets.
///
/// # Errors
///
/// An unknown selection name (listing the valid ones).
pub fn registry(selection: &str) -> Result<Vec<Box<dyn Target>>, String> {
    let mut out: Vec<Box<dyn Target>> = Vec::new();
    match selection {
        "all" => {
            out.extend(CompilerTarget::matrix().into_iter().map(|t| Box::new(t) as _));
            out.push(Box::new(LockstepTarget));
            out.push(Box::new(VerilogTarget));
            out.push(Box::new(SyscallTarget));
            out.push(Box::new(JetTarget));
            out.push(Box::new(SnapTarget));
        }
        "t2" => out.extend(CompilerTarget::matrix().into_iter().map(|t| Box::new(t) as _)),
        "t2@jet" | "t2-jet" => {
            out.extend(CompilerTarget::jet_matrix().into_iter().map(|t| Box::new(t) as _));
        }
        "t2@both" => {
            out.extend(CompilerTarget::matrix().into_iter().map(|t| Box::new(t) as _));
            out.extend(CompilerTarget::jet_matrix().into_iter().map(|t| Box::new(t) as _));
        }
        "t9" | "lockstep" => out.push(Box::new(LockstepTarget)),
        "t10" | "verilog" => out.push(Box::new(VerilogTarget)),
        "syscall" | "ffi" => out.push(Box::new(SyscallTarget)),
        "t-jet" | "jet" => out.push(Box::new(JetTarget)),
        "t-snap" | "snap" => out.push(Box::new(SnapTarget)),
        other => {
            return Err(format!(
                "unknown target {other:?}; expected one of: all, t2, t2@jet, t2@both, t9, t10, syscall, t-jet, t-snap"
            ))
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::rng::TestRng;

    #[test]
    fn registry_resolves_and_rejects() {
        assert_eq!(registry("all").expect("all").len(), 8);
        assert_eq!(registry("t2").expect("t2").len(), 3);
        assert_eq!(registry("t2@jet").expect("t2@jet").len(), 3);
        assert_eq!(registry("t2@both").expect("t2@both").len(), 6);
        assert_eq!(registry("t9").expect("t9").len(), 1);
        assert_eq!(registry("t-jet").expect("t-jet").len(), 1);
        assert_eq!(registry("t-snap").expect("t-snap").len(), 1);
        assert!(registry("bogus").is_err());
    }

    #[test]
    fn compiler_target_passes_and_replays_deterministically() {
        let t = &CompilerTarget::matrix()[0];
        let mut rng = TestRng::seed_from_u64(0xCA5E);
        for _ in 0..4 {
            let mut ctx = Ctx::recording(&mut rng);
            let out = t.run_case(&mut ctx);
            assert_eq!(out.verdict, Verdict::Pass, "{:?}", out.verdict);
            assert!(out.cov.stats.total() > 0, "no instructions retired");
            assert!(out.cov.edges.count() > 0, "no edges observed");
            assert!(out.cov.features.count() > 0, "no features observed");

            // Replaying the recorded choices reproduces the outcome.
            let choices = ctx.recorded_choices().to_vec();
            let again = t.run_case(&mut Ctx::replaying(&choices));
            assert_eq!(again.verdict, out.verdict);
            assert_eq!(again.cov.stats, out.cov.stats);
        }
    }

    #[test]
    fn jet_compiler_target_passes_and_replays_deterministically() {
        let jets = CompilerTarget::jet_matrix();
        assert_eq!(
            jets.iter().map(|t| t.name()).collect::<Vec<_>>(),
            ["t2@jet", "t2-gc@jet", "t2-noopt@jet"],
        );
        let t = &jets[0];
        let mut rng = TestRng::seed_from_u64(0xCA5E);
        let mut ctx = Ctx::recording(&mut rng);
        let out = t.run_case(&mut ctx);
        assert_eq!(out.verdict, Verdict::Pass, "{:?}", out.verdict);
        assert!(out.cov.stats.total() > 0, "no instructions retired on jet");

        let choices = ctx.recorded_choices().to_vec();
        let again = t.run_case(&mut Ctx::replaying(&choices));
        assert_eq!(again.verdict, out.verdict);
        assert_eq!(again.cov.stats, out.cov.stats);
    }

    #[test]
    fn lockstep_target_passes() {
        let mut rng = TestRng::seed_from_u64(9);
        let mut ctx = Ctx::recording(&mut rng);
        let out = LockstepTarget.run_case(&mut ctx);
        assert_eq!(out.verdict, Verdict::Pass, "{:?}", out.verdict);
        assert!(out.cov.stats.total() > 0);
    }

    #[test]
    fn jet_target_passes_and_replays_deterministically() {
        let mut rng = TestRng::seed_from_u64(0x1E7);
        let mut ctx = Ctx::recording(&mut rng);
        let out = JetTarget.run_case(&mut ctx);
        assert_eq!(out.verdict, Verdict::Pass, "{:?}", out.verdict);
        assert!(out.cov.stats.total() > 0);

        let choices = ctx.recorded_choices().to_vec();
        let again = JetTarget.run_case(&mut Ctx::replaying(&choices));
        assert_eq!(again.verdict, out.verdict);
        assert_eq!(again.cov.stats, out.cov.stats);
    }

    #[test]
    fn snap_target_passes_and_replays_deterministically() {
        let mut rng = TestRng::seed_from_u64(0x5A9);
        let mut ctx = Ctx::recording(&mut rng);
        let out = SnapTarget.run_case(&mut ctx);
        assert_eq!(out.verdict, Verdict::Pass, "{:?}", out.verdict);
        assert!(out.cov.stats.total() > 0);

        let choices = ctx.recorded_choices().to_vec();
        let again = SnapTarget.run_case(&mut Ctx::replaying(&choices));
        assert_eq!(again.verdict, out.verdict);
        assert_eq!(again.cov.stats, out.cov.stats);
    }

    #[test]
    fn syscall_target_passes() {
        let mut rng = TestRng::seed_from_u64(77);
        let mut ctx = Ctx::recording(&mut rng);
        let out = SyscallTarget.run_case(&mut ctx);
        assert_eq!(out.verdict, Verdict::Pass, "{:?}", out.verdict);
        assert!(out.cov.features.count() > 0);
    }
}
