//! The verified stack, assembled: compile → load → run at any level.

use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use ag32::{Machine, NoTrace, RetireRing, State, Tracer};
use basis::{build_image, ExitStatus, Finished, ImageError, SyscallTracer};
use cakeml::{CompileError, CompiledProgram, CompilerConfig, TargetLayout};
use obs::CycleProfiler;
use silver::env::{Latency, MemEnvConfig};
use silver::exec::{Hooks, Plan, RunEnd, Shadow};
use silver::lockstep::LockstepError;
use silver::machine::{CircuitMachine, CycleObserver, NoCycleObserver};
use silver::snapshot::{Snapshot, SnapshotError};
use silver::trace::{PcSampler, Vcd};

/// Checkpoint cadence used when [`RunConfig::checkpoint`] names a file
/// but no interval was chosen.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1_000_000;

/// Which layer of Figure 1 executes the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Silver ISA (`Next`), layer 2.
    Isa,
    /// The circuit-level CPU implementation, layer 3.
    Rtl,
    /// The generated deep-embedded Verilog, layer 4.
    Verilog,
}

/// Which *implementation* of the ISA layer executes the program when
/// [`Backend::Isa`] is selected (theorem J: jet ≡ Next, checkable at
/// runtime via [`RunConfig::shadow`]). The hardware backends ignore it.
pub use ag32::Engine;

/// Execution limits and environment behaviour.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Maximum ISA instructions (ISA backend).
    pub fuel: u64,
    /// Maximum clock cycles (circuit/Verilog backends).
    pub max_cycles: u64,
    /// Lab-environment behaviour for the hardware backends.
    pub env: MemEnvConfig,
    /// ISA-layer implementation ([`Backend::Isa`] only).
    pub engine: Engine,
    /// Shadow-mode differential checking for [`Engine::Jet`]: `true`
    /// runs the reference interpreter in lockstep and compares the
    /// architectural state after every retire; `false` (default) runs
    /// the jet engine alone. A divergence surfaces as
    /// [`StackError::Divergence`] carrying the forensics report.
    /// Ignored for [`Engine::Ref`].
    pub shadow: bool,
    /// Rolling-checkpoint file for [`Backend::Isa`] runs: every
    /// [`RunConfig::checkpoint_interval`] retires the run's snapshot is
    /// rewritten here (atomically, via a temp sibling + rename), so a
    /// killed run resumes from its last checkpoint via
    /// [`Stack::resume_snapshot`]. `None` (default) writes nothing.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint cadence in retires. Also drives *checkpoint-anchored
    /// shadow mode*: with [`RunConfig::shadow`] set, a divergence
    /// replays from the last in-memory anchor instead of from boot,
    /// even when no checkpoint file was requested. `None` falls back to
    /// [`DEFAULT_CHECKPOINT_EVERY`] when `checkpoint` names a file.
    pub checkpoint_interval: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            fuel: 4_000_000_000,
            max_cycles: 4_000_000_000,
            env: MemEnvConfig { mem_latency: Latency::Fixed(0), ..MemEnvConfig::default() },
            engine: Engine::Ref,
            shadow: false,
            checkpoint: None,
            checkpoint_interval: None,
        }
    }
}

impl RunConfig {
    /// The run plan for an ISA-level run: the lockstep when shadowing
    /// the jet engine, slices of the checkpoint cadence (one slice when
    /// neither a file nor an interval asks for boundaries).
    fn plan<'a>(&self, layout: &'a TargetLayout) -> Plan<'a> {
        let every = match (&self.checkpoint, self.checkpoint_interval) {
            (_, Some(n)) => n,
            (Some(_), None) => DEFAULT_CHECKPOINT_EVERY,
            (None, None) => u64::MAX,
        };
        Plan {
            layout,
            engine: self.engine,
            shadow: (self.shadow && self.engine == Engine::Jet).then_some(Shadow { fault_xor: 0 }),
            fuel: self.fuel,
            every,
        }
    }
}

/// The outcome of running a program on the stack.
#[derive(Clone, Debug)]
pub struct StackResult {
    /// Exit classification.
    pub exit: ExitStatus,
    /// Standard output bytes.
    pub stdout: Vec<u8>,
    /// Standard error bytes.
    pub stderr: Vec<u8>,
    /// Instructions retired (on the hardware backends, by the circuit).
    pub instructions: u64,
    /// Clock cycles (hardware backends only).
    pub cycles: Option<u64>,
    /// Per-opcode retire counters (ISA backend only; the hardware
    /// simulators do not decode what they retire).
    pub stats: Option<ag32::ExecStats>,
}

impl StackResult {
    /// Standard output as a string (lossy).
    #[must_use]
    pub fn stdout_utf8(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }

    /// Standard error as a string (lossy).
    #[must_use]
    pub fn stderr_utf8(&self) -> String {
        String::from_utf8_lossy(&self.stderr).into_owned()
    }

    /// The exit code, if the program exited.
    #[must_use]
    pub fn exit_code(&self) -> Option<u8> {
        match self.exit {
            ExitStatus::Exited(c) => Some(c),
            _ => None,
        }
    }
}

/// Stack-level errors.
#[derive(Debug)]
pub enum StackError {
    /// Compilation failed.
    Compile(CompileError),
    /// Image construction failed (`initAg` assumption violated).
    Image(ImageError),
    /// A hardware backend failed or timed out.
    Hardware(LockstepError),
    /// An observability sink (VCD/profile file) failed.
    Io(std::io::Error),
    /// Shadow mode caught the jet engine diverging from the reference
    /// interpreter — theorem J violated. Carries the full forensics
    /// report (divergent retire index, differing fields, retire tails).
    Divergence(Box<obs::Forensics>),
    /// Writing a rolling checkpoint or loading a snapshot to resume
    /// failed (I/O, or a corrupt/incompatible snapshot file).
    Snapshot(SnapshotError),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::Compile(e) => write!(f, "compile: {e}"),
            StackError::Image(e) => write!(f, "image: {e}"),
            StackError::Hardware(e) => write!(f, "hardware: {e}"),
            StackError::Io(e) => write!(f, "io: {e}"),
            StackError::Divergence(fx) => write!(f, "shadow divergence:\n{}", fx.render()),
            StackError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for StackError {}

impl From<CompileError> for StackError {
    fn from(e: CompileError) -> Self {
        StackError::Compile(e)
    }
}

impl From<ImageError> for StackError {
    fn from(e: ImageError) -> Self {
        StackError::Image(e)
    }
}

impl From<LockstepError> for StackError {
    fn from(e: LockstepError) -> Self {
        StackError::Hardware(e)
    }
}

impl From<std::io::Error> for StackError {
    fn from(e: std::io::Error) -> Self {
        StackError::Io(e)
    }
}

impl From<SnapshotError> for StackError {
    fn from(e: SnapshotError) -> Self {
        StackError::Snapshot(e)
    }
}

/// What to observe during a run. Everything is off by default, and the
/// observed entry points degrade to the plain ones when nothing is
/// requested — observability costs nothing unless asked for.
///
/// On the ISA backend the retire log, the profile and the syscall
/// trace are [`ag32::Tracer`]s on the one run loop, so an observed run
/// executes once and honours the whole [`RunConfig`] (checkpoints and
/// shadowing included). They see reference retires: a shadowed run's
/// lockstep reference side, and for an unshadowed [`Engine::Jet`] run
/// the reference interpreter, which runs it instead (theorem J: same
/// result).
#[derive(Debug, Default)]
pub struct Observe {
    /// Keep the last N retired instructions in a ring (ISA backend).
    /// `0` disables the retire log.
    pub retire_log: usize,
    /// Attribute execution to source functions (retires on the ISA
    /// backend, true clock cycles on the hardware backends) and report
    /// flamegraph folded stacks.
    pub profile: bool,
    /// Record every system call: name, arguments, result, descriptor
    /// state (ISA backend).
    pub syscalls: bool,
    /// Dump a GTKWave-viewable VCD waveform of every CPU signal to this
    /// file (hardware backends).
    pub vcd: Option<PathBuf>,
}

impl Observe {
    fn is_off(&self) -> bool {
        self.retire_log == 0 && !self.profile && !self.syscalls && self.vcd.is_none()
    }
}

/// What a run observed (fields mirror [`Observe`]).
#[derive(Debug, Default)]
pub struct Observations {
    /// The retire log, oldest first.
    pub retire_log: Option<ag32::RetireRing>,
    /// The cycle/retire profiler, ready for
    /// [`folded`](obs::CycleProfiler::folded) output.
    pub profile: Option<CycleProfiler>,
    /// The system-call trace.
    pub syscalls: Option<basis::SyscallTrace>,
    /// Where the VCD waveform was written.
    pub vcd: Option<PathBuf>,
}

/// The stack: a compiler configuration plus a memory layout.
#[derive(Clone, Debug, Default)]
pub struct Stack {
    /// Compiler options.
    pub compiler: CompilerConfig,
    /// Memory layout.
    pub layout: TargetLayout,
}

impl Stack {
    /// A stack with default configuration.
    #[must_use]
    pub fn new() -> Self {
        Stack::default()
    }

    /// Compiles a program (theorem (3): `compile confAg prog = Some ...`).
    ///
    /// # Errors
    ///
    /// Parse, type or code-generation errors.
    pub fn compile(&self, src: &str) -> Result<CompiledProgram, StackError> {
        Ok(cakeml::compile_source(src, self.layout, &self.compiler)?)
    }

    /// Builds the Figure-2 initial machine state for a compiled program.
    ///
    /// # Errors
    ///
    /// [`ImageError`] when stdin or the command line exceed their devices.
    pub fn load(
        &self,
        compiled: &CompiledProgram,
        args: &[&str],
        stdin: &[u8],
    ) -> Result<State, StackError> {
        Ok(build_image(compiled, args, stdin)?)
    }

    /// Compiles, loads and runs in one step.
    ///
    /// # Errors
    ///
    /// Any [`StackError`].
    pub fn run_source(
        &self,
        src: &str,
        args: &[&str],
        stdin: &[u8],
        backend: Backend,
        rc: &RunConfig,
    ) -> Result<StackResult, StackError> {
        let compiled = self.compile(src)?;
        let image = self.load(&compiled, args, stdin)?;
        self.run_image(image, backend, rc)
    }

    /// Runs a loaded image on the chosen backend.
    ///
    /// # Errors
    ///
    /// Hardware-backend simulation failures or timeouts.
    pub fn run_image(
        &self,
        image: State,
        backend: Backend,
        rc: &RunConfig,
    ) -> Result<StackResult, StackError> {
        match backend {
            Backend::Isa => self.run_isa(image, rc, &mut NoTrace),
            Backend::Rtl | Backend::Verilog => {
                Ok(self.run_hw(&image, backend, rc, NoCycleObserver)?.0)
            }
        }
    }

    /// [`run_source`](Stack::run_source) with observability: compiles,
    /// loads, runs, and returns whatever `ocfg` asked to observe. With
    /// the default (all-off) [`Observe`] this is exactly `run_source` —
    /// the observed entry points construct nothing unless asked.
    ///
    /// # Errors
    ///
    /// Any [`StackError`]; I/O failures writing a requested VCD file
    /// surface as [`StackError::Io`].
    pub fn run_source_observed(
        &self,
        src: &str,
        args: &[&str],
        stdin: &[u8],
        backend: Backend,
        rc: &RunConfig,
        ocfg: &Observe,
    ) -> Result<(StackResult, Observations), StackError> {
        let compiled = self.compile(src)?;
        let image = self.load(&compiled, args, stdin)?;
        self.run_image_observed(&compiled, image, backend, rc, ocfg)
    }

    /// [`run_image`](Stack::run_image) with observability: one run, with
    /// the requested observers attached (see [`Observe`]). The compiled
    /// program is needed for its symbol table (profiling) and FFI names
    /// (syscall tracing). Fields of `ocfg` that do not apply to the
    /// chosen backend are ignored (e.g. `vcd` on the ISA backend).
    ///
    /// # Errors
    ///
    /// Any [`StackError`].
    pub fn run_image_observed(
        &self,
        compiled: &CompiledProgram,
        image: State,
        backend: Backend,
        rc: &RunConfig,
        ocfg: &Observe,
    ) -> Result<(StackResult, Observations), StackError> {
        if ocfg.is_off() {
            return Ok((self.run_image(image, backend, rc)?, Observations::default()));
        }
        let mut obs = Observations::default();
        let result = match backend {
            Backend::Isa => {
                let mut ring = (ocfg.retire_log > 0).then(|| RetireRing::new(ocfg.retire_log));
                let mut prof =
                    ocfg.profile.then(|| CycleProfiler::new(compiled.symbols.to_ranges()));
                let mut calls = ocfg
                    .syscalls
                    .then(|| SyscallTracer::new(&image, &self.layout, &compiled.ffi_names));
                let result = self.run_isa(image, rc, &mut (&mut ring, (&mut prof, &mut calls)))?;
                obs.retire_log = ring;
                obs.profile = prof;
                obs.syscalls = calls.map(SyscallTracer::into_trace);
                result
            }
            Backend::Rtl | Backend::Verilog => {
                let vcd = match &ocfg.vcd {
                    Some(path) => Some(Vcd::new(
                        BufWriter::new(File::create(path)?),
                        &silver::silver_cpu(),
                        "silver_cpu",
                    )?),
                    None => None,
                };
                let sampler = ocfg
                    .profile
                    .then(|| PcSampler::new(CycleProfiler::new(compiled.symbols.to_ranges())));
                let (result, (vcd, sampler)) = self.run_hw(&image, backend, rc, (vcd, sampler))?;
                if let Some(vcd) = vcd {
                    vcd.finish()?;
                    obs.vcd = ocfg.vcd.clone();
                }
                obs.profile = sampler.map(|s| s.profiler);
                result
            }
        };
        Ok((result, obs))
    }

    /// Resumes a checkpoint on the configured engine — including
    /// cross-engine resume (a `ref` checkpoint under [`Engine::Jet`]
    /// and vice versa), which is theorem J restated over serialised
    /// state. `rc.fuel` is the *total* fuel of the logical run: a
    /// snapshot taken at retire `C` under fuel `F` resumes with `F − C`
    /// remaining, so exit classification (`OutOfFuel` in particular)
    /// matches the uninterrupted run exactly. The result's
    /// `instructions` count is likewise the total including the
    /// pre-checkpoint prefix. Rolling checkpoints and shadow mode
    /// compose with resume.
    ///
    /// # Errors
    ///
    /// Any [`StackError`]; shadow divergence over the resumed segment
    /// surfaces as [`StackError::Divergence`].
    pub fn resume_snapshot(
        &self,
        snap: &Snapshot,
        rc: &RunConfig,
    ) -> Result<StackResult, StackError> {
        self.run_isa(snap.restore(), rc, &mut NoTrace)
    }

    /// [`resume_snapshot`](Stack::resume_snapshot) straight from a
    /// `.snap` file — the `silverc --resume` entry point.
    ///
    /// # Errors
    ///
    /// [`StackError::Snapshot`] when the file is unreadable or corrupt,
    /// otherwise any [`StackError`].
    pub fn resume_file(&self, path: &Path, rc: &RunConfig) -> Result<StackResult, StackError> {
        self.resume_snapshot(&Snapshot::read_from(path)?, rc)
    }

    /// Runs a boot image or a restored checkpoint on the configured
    /// engine through the shared slice loop ([`silver::exec::run`]),
    /// with `tracer` seeing every reference retire and the rolling
    /// checkpoint file rewritten at every boundary. A shadowed jet run
    /// is the lockstep itself: its result is returned only once theorem
    /// J held over the whole execution, and a divergence comes back
    /// replayed from its anchor, the last boundary. When that boundary
    /// is in this run, the anchor is also the last checkpoint written.
    fn run_isa<T: Tracer>(
        &self,
        start: State,
        rc: &RunConfig,
        tracer: &mut T,
    ) -> Result<StackResult, StackError> {
        let plan = rc.plan(&self.layout);
        let resumed_at = start.instructions_retired;
        let mut hooks = Rolling { path: rc.checkpoint.as_deref() };
        match silver::exec::run(start, &plan, &mut hooks, tracer) {
            RunEnd::Done(f) => Ok(f.into()),
            RunEnd::Stopped(e) => Err(StackError::Snapshot(e)),
            RunEnd::Diverged(mut fx) => {
                if let (Some(at), Some(path)) = (fx.replay_anchor, hooks.path) {
                    if at > resumed_at {
                        fx.notes.push(format!(
                            "anchor checkpoint written to {} (resume with --resume to replay)",
                            path.display()
                        ));
                    }
                }
                Err(StackError::Divergence(fx))
            }
        }
    }

    /// Runs a loaded image on the circuit — mirrored by its generated
    /// Verilog on [`Backend::Verilog`] — with `obs` seeing every cycle,
    /// and classifies the end like an ISA run. The hardware backends
    /// have no retire budget, only [`RunConfig::max_cycles`].
    fn run_hw<O: CycleObserver>(
        &self,
        image: &State,
        backend: Backend,
        rc: &RunConfig,
        obs: O,
    ) -> Result<(StackResult, O), StackError> {
        let cpu = silver::silver_cpu();
        let mut m = CircuitMachine::with_circuit(cpu, image, rc.env.clone(), rc.max_cycles, obs);
        if backend == Backend::Verilog {
            m = m.with_verilog()?;
        }
        m.run(u64::MAX);
        if let Some(e) = m.error() {
            return Err(StackError::Hardware(e.clone()));
        }
        let f = basis::finished(&m, &self.layout, u64::MAX);
        let result = StackResult { cycles: Some(m.cycles()), stats: None, ..f.into() };
        Ok((result, m.into_observer()))
    }
}

/// Rolling-checkpoint hooks for the shared slice loop: rewrite the
/// checkpoint file (when one is configured) at every boundary.
struct Rolling<'a> {
    path: Option<&'a Path>,
}

impl Hooks for Rolling<'_> {
    type Stop = SnapshotError;

    fn boundary<M: Machine>(&mut self, m: &M) -> ControlFlow<SnapshotError> {
        if let Some(path) = self.path {
            if let Err(e) = Snapshot::capture(m).write_rolling(path) {
                return ControlFlow::Break(e);
            }
        }
        ControlFlow::Continue(())
    }
}

impl From<Finished> for StackResult {
    fn from(f: Finished) -> Self {
        StackResult {
            exit: f.exit,
            stdout: f.stdout,
            stderr: f.stderr,
            instructions: f.instructions,
            cycles: None,
            stats: Some(f.stats),
        }
    }
}
