//! `silver-serve` — the multi-tenant execution server.
//!
//! ```sh
//! silver-serve (--unix PATH | --tcp ADDR) [--shards N] [--queue N]
//!              [--cache N] [--shadow-every N] [--checkpoint-every N]
//!              [--engine ref|jet] [--tenant-fuel N] [--tenant-depth N]
//!              [--max-job-fuel N] [--bench FILE] [--stats-every MS]
//!              [--trace-dir DIR] [--trace-cap N] [--flight-cap N]
//!              [--fault-xor HEX]
//! ```
//!
//! Accepts compile+run jobs over the length-prefixed wire protocol
//! (see `EXPERIMENTS.md`, "Silver as a service"), executes them on a
//! sharded worker pool, and serves until a client sends `shutdown` (or
//! the process receives SIGINT/SIGTERM — the bench artifact and trace
//! dumps are flushed either way). With `--bench`, one time-series
//! stats line is appended every `--stats-every` milliseconds and the
//! full registry follows on shutdown. With `--trace-dir`, the
//! per-shard flight recorder dumps Chrome trace-event JSON
//! (Perfetto-loadable) on shadow divergence, worker death and
//! shutdown; individual span trees are available live via the client's
//! `trace` command.
//!
//! Safety defaults: jobs run on the jet engine with shadow sampling
//! **on** (every 8th job is checked in full lockstep against the
//! reference interpreter). `--shadow-every 0` turns sampling off;
//! individual jobs may still force a check but can never opt out of a
//! sampled one.

use std::path::PathBuf;
use std::process::ExitCode;

use service::{serve, Endpoint, Engine, Service, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: silver-serve (--unix PATH | --tcp ADDR) [--shards N] [--queue N] [--cache N]\n\
         \x20                  [--shadow-every N] [--checkpoint-every N]\n\
         \x20                  [--engine ref|jet] [--tenant-fuel N] [--tenant-depth N]\n\
         \x20                  [--max-job-fuel N] [--bench FILE] [--stats-every MS]\n\
         \x20                  [--trace-dir DIR] [--trace-cap N] [--flight-cap N]\n\
         \x20                  [--fault-xor HEX]"
    );
    std::process::exit(2)
}

struct Options {
    endpoint: Option<Endpoint>,
    bench: Option<PathBuf>,
    cfg: ServiceConfig,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options { endpoint: None, bench: None, cfg: ServiceConfig::default() };
    let need = |v: Option<String>| v.unwrap_or_else(|| usage());
    let num = |v: Option<String>| need(v).parse::<u64>().unwrap_or_else(|_| usage());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--unix" => opts.endpoint = Some(Endpoint::Unix(PathBuf::from(need(args.next())))),
            "--tcp" => opts.endpoint = Some(Endpoint::Tcp(need(args.next()))),
            "--shards" => opts.cfg.shards = num(args.next()).max(1) as usize,
            "--queue" => opts.cfg.queue_depth = num(args.next()).max(1) as usize,
            "--cache" => opts.cfg.cache_capacity = num(args.next()) as usize,
            "--shadow-every" => opts.cfg.shadow_every_jobs = num(args.next()),
            "--checkpoint-every" => opts.cfg.checkpoint_every = num(args.next()).max(1),
            "--engine" => {
                opts.cfg.default_engine = match need(args.next()).as_str() {
                    "ref" => Engine::Ref,
                    "jet" => Engine::Jet,
                    _ => usage(),
                }
            }
            "--tenant-fuel" => opts.cfg.tenant.fuel_budget = num(args.next()),
            "--tenant-depth" => opts.cfg.tenant.max_in_flight = num(args.next()) as usize,
            "--max-job-fuel" => opts.cfg.tenant.max_job_fuel = num(args.next()),
            "--bench" => opts.bench = Some(PathBuf::from(need(args.next()))),
            "--stats-every" => opts.cfg.stats_every_ms = num(args.next()),
            "--trace-dir" => opts.cfg.trace_dir = Some(PathBuf::from(need(args.next()))),
            "--trace-cap" => opts.cfg.trace_capacity = num(args.next()) as usize,
            "--flight-cap" => opts.cfg.flight_capacity = num(args.next()).max(1) as usize,
            // Fault injection for divergence drills (tests/CI only):
            // XORed into the jet side's ALU results inside shadow checks.
            "--fault-xor" => {
                opts.cfg.fault_xor =
                    u32::from_str_radix(need(args.next()).trim_start_matches("0x"), 16)
                        .unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let Some(endpoint) = opts.endpoint else { usage() };

    if let Some(dir) = &opts.cfg.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("silver-serve: cannot create trace dir {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let svc = std::sync::Arc::new(Service::start(opts.cfg.clone()));
    eprintln!(
        "silver-serve: listening on {endpoint} ({} shards, engine {}, shadow every {} jobs)",
        opts.cfg.shards,
        opts.cfg.default_engine.name(),
        opts.cfg.shadow_every_jobs,
    );
    match serve(&svc, &endpoint, opts.bench.as_deref()) {
        Ok(()) => {
            if let Some(path) = &opts.bench {
                eprintln!("silver-serve: bench written to {}", path.display());
            }
            eprintln!("silver-serve: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("silver-serve: {e}");
            ExitCode::from(2)
        }
    }
}
