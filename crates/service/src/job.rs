//! Job specifications, outcomes, and the content-addressed cache key.
//!
//! A job is one compile+run request: source text, command line, stdin,
//! an (optional, currently unrealised) file image and a fuel budget.
//! The cache key is an FNV-1a-64 hash ([`Fnv64`], the same hasher that
//! seals snapshot files) over exactly the inputs that
//! determine the result bytes — and *nothing else*. In particular the
//! serving engine and the shadow policy are excluded on purpose:
//! theorem J (checked continuously by the shadow sampler) says the
//! reference interpreter and the jet engine produce identical
//! observable behaviour, so a result computed on either engine may be
//! served to a request asking for the other. The tenant is excluded
//! too — results are content-addressed, not principal-addressed.

use std::fmt;

use ag32::Engine;
use silver::snapshot::Fnv64;

/// Bump when the *meaning* of a cached result changes (result encoding,
/// classification rules, compiler defaults). Entries recorded under a
/// different version are never served; see
/// [`ResultCache::lookup`](crate::cache::ResultCache::lookup).
pub const CACHE_VERSION: u32 = 1;

/// Which engine a job asks for. `Auto` defers to the server default
/// (jet — the fastest engine is safe to default to precisely because
/// shadow sampling keeps checking theorem J in production).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnginePref {
    /// Server picks (jet by default).
    Auto,
    /// Force the reference interpreter.
    Ref,
    /// Force the jet translation-cache engine.
    Jet,
}

/// Per-job shadow request. Jobs may *strengthen* the server's sampling
/// policy (force a full lockstep check) but never weaken it — an
/// untrusted tenant must not be able to opt out of safety checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowPref {
    /// Follow the server's sampling policy.
    Default,
    /// Always shadow-check this job.
    Always,
}

/// One compile+run request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Tenant the job is metered against.
    pub tenant: String,
    /// CakeML-style source text to compile.
    pub source: String,
    /// Command line (including `argv[0]`).
    pub args: Vec<String>,
    /// Standard input bytes.
    pub stdin: Vec<u8>,
    /// Named file image. Part of the wire format and the cache key for
    /// forward compatibility, but machine-level runs realise only the
    /// std streams (paper §2.4), so jobs with named files are rejected
    /// at admission.
    pub files: Vec<(String, Vec<u8>)>,
    /// Total instruction budget (retires from boot).
    pub fuel: u64,
    /// Engine request.
    pub engine: EnginePref,
    /// Shadow request.
    pub shadow: ShadowPref,
}

impl JobSpec {
    /// A minimal spec: empty stdin, `argv = [tenant-agnostic "job"]`,
    /// the server-default engine and shadow policy, and a 100M-retire
    /// budget (plenty for the app corpus).
    #[must_use]
    pub fn new(tenant: &str, source: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            source: source.to_string(),
            args: vec!["job".to_string()],
            stdin: Vec::new(),
            files: Vec::new(),
            fuel: 100_000_000,
            engine: EnginePref::Auto,
            shadow: ShadowPref::Default,
        }
    }
}

/// How a completed job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to the halt loop with an exit code.
    Exited(u8),
    /// Fuel budget exhausted before halting.
    OutOfFuel,
    /// Stopped without reaching a well-formed halt.
    Wedged,
    /// The source failed to compile (detail in `message`).
    CompileError,
    /// The compiled program violated an image-build assumption.
    ImageError,
    /// An FFI call failed during execution (detail in `message`).
    FfiFailed,
    /// The shadow check caught an engine divergence — the result is
    /// untrusted and never cached; `message` carries the forensics.
    Divergence,
    /// Service-internal failure (worker lost without a resume path).
    Internal,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobStatus::Exited(c) => write!(f, "exited({c})"),
            JobStatus::OutOfFuel => write!(f, "out-of-fuel"),
            JobStatus::Wedged => write!(f, "wedged"),
            JobStatus::CompileError => write!(f, "compile-error"),
            JobStatus::ImageError => write!(f, "image-error"),
            JobStatus::FfiFailed => write!(f, "ffi-failed"),
            JobStatus::Divergence => write!(f, "divergence"),
            JobStatus::Internal => write!(f, "internal-error"),
        }
    }
}

/// Everything the service returns for one job. The deterministic core
/// (`status`, `message`, `stdout`, `stderr`, `instructions`) is what
/// byte-identity contracts — cache hits, crash-resume — compare; the
/// rest (`engine`, `cached`, `shadowed`, `migrations`) is provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The submission's id (its admit sequence number) — the handle the
    /// `Trace` wire op takes. A cache hit gets a fresh id of its own;
    /// its (tiny) trace records the hit, not the original computation.
    pub job_id: u64,
    /// Final classification.
    pub status: JobStatus,
    /// Error / divergence detail (empty on success).
    pub message: String,
    /// Standard output bytes.
    pub stdout: Vec<u8>,
    /// Standard error bytes.
    pub stderr: Vec<u8>,
    /// Instructions retired (0 for compile/image errors).
    pub instructions: u64,
    /// Engine that produced the result.
    pub engine: Engine,
    /// Served from the result cache.
    pub cached: bool,
    /// A full lockstep shadow check ran over this execution.
    pub shadowed: bool,
    /// Times the job was resumed from a checkpoint after a worker
    /// stop (migrations between workers/shards).
    pub migrations: u32,
}

impl JobOutcome {
    /// The deterministic result core — what must be byte-identical
    /// between a cache hit and the original computation, and between a
    /// migrated and an uninterrupted run.
    #[must_use]
    pub fn result_bytes_eq(&self, other: &JobOutcome) -> bool {
        self.status == other.status
            && self.message == other.message
            && self.stdout == other.stdout
            && self.stderr == other.stderr
            && self.instructions == other.instructions
    }
}

/// Length-prefixed field, so adjacent fields can never alias
/// (`("ab","c")` vs `("a","bc")`).
fn field(h: &mut Fnv64, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// The content-addressed cache key of a job: an FNV-1a-64 hash over
/// (program, args, stdin, file image, fuel). Engine, shadow policy and
/// tenant are deliberately excluded — see the module docs.
#[must_use]
pub fn job_key(spec: &JobSpec) -> u64 {
    let mut h = Fnv64::new();
    field(&mut h, &CACHE_VERSION.to_le_bytes());
    field(&mut h, spec.source.as_bytes());
    h.update(&(spec.args.len() as u64).to_le_bytes());
    for a in &spec.args {
        field(&mut h, a.as_bytes());
    }
    field(&mut h, &spec.stdin);
    // Canonical file order: the image is a *set* of named files.
    let mut files: Vec<&(String, Vec<u8>)> = spec.files.iter().collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    h.update(&(files.len() as u64).to_le_bytes());
    for (name, data) in files {
        field(&mut h, name.as_bytes());
        field(&mut h, data);
    }
    field(&mut h, &spec.fuel.to_le_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache address of a fixed job, pinned: a change to the hash
    /// or to the key layout moves every cached result and must be a
    /// deliberate `CACHE_VERSION` bump, not a side effect.
    #[test]
    fn key_of_a_fixed_job_is_pinned() {
        let mut spec = JobSpec::new("alice", "val _ = print \"hi\";");
        spec.args.push("-v".into());
        spec.stdin = b"some input\n".to_vec();
        assert_eq!(job_key(&spec), 0x95d2_2f5f_114d_a2c8);
    }

    #[test]
    fn key_ignores_engine_shadow_and_tenant() {
        let a = JobSpec::new("alice", "val _ = print \"hi\";");
        let mut b = a.clone();
        b.tenant = "bob".into();
        b.engine = EnginePref::Ref;
        b.shadow = ShadowPref::Always;
        assert_eq!(job_key(&a), job_key(&b));
    }

    #[test]
    fn key_depends_on_every_content_field() {
        let base = JobSpec::new("t", "val _ = print \"hi\";");
        let k = job_key(&base);
        for (label, spec) in [
            ("source", JobSpec { source: "val _ = print \"ho\";".into(), ..base.clone() }),
            ("args", JobSpec { args: vec!["job".into(), "-x".into()], ..base.clone() }),
            ("stdin", JobSpec { stdin: b"input".to_vec(), ..base.clone() }),
            ("files", JobSpec { files: vec![("f".into(), b"x".to_vec())], ..base.clone() }),
            ("fuel", JobSpec { fuel: base.fuel + 1, ..base.clone() }),
        ] {
            assert_ne!(job_key(&spec), k, "{label} must affect the key");
        }
    }

    #[test]
    fn key_is_canonical_in_file_order_but_not_field_aliasable() {
        let mut a = JobSpec::new("t", "src");
        a.files = vec![("a".into(), b"1".to_vec()), ("b".into(), b"2".to_vec())];
        let mut b = a.clone();
        b.files.reverse();
        assert_eq!(job_key(&a), job_key(&b), "file image is a set");

        let mut c = JobSpec::new("t", "ab");
        c.args = vec!["c".into()];
        let mut d = JobSpec::new("t", "a");
        d.args = vec!["bc".into()];
        assert_ne!(job_key(&c), job_key(&d), "length prefixes prevent aliasing");
    }
}
