//! The socket front end: accept connections on TCP or a Unix socket,
//! speak the [`wire`](crate::wire) protocol, one thread per connection.
//!
//! The accept loop is non-blocking so a `Shutdown` request (observed by
//! any connection thread) or a SIGINT/SIGTERM (latched by
//! [`crate::signal`]) stops accepting promptly; the service then drains
//! its queue, joins its workers, and — when configured — emits
//! `BENCH_service.json`. With a bench path set, the loop also appends
//! one time-series stats line every
//! [`stats_every_ms`](crate::ServiceConfig::stats_every_ms), so the
//! artifact is a QPS/cache/utilization time series rather than a single
//! shutdown blob.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::server::Service;
use crate::signal;
use crate::wire::{read_request, write_response, Request, Response, WireError};

/// Where to listen.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
    /// Unix-domain socket path (a stale socket file is replaced).
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Serves `service` on `endpoint` until a client sends `Shutdown`, then
/// drains and (if `bench` is set) writes the bench artifact. Blocks the
/// calling thread for the server's lifetime.
///
/// # Errors
///
/// Bind/accept errors and bench-write failures.
pub fn serve(
    service: &Arc<Service>,
    endpoint: &Endpoint,
    bench: Option<&std::path::Path>,
) -> std::io::Result<()> {
    let listener = match endpoint {
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Listener::Tcp(l)
        }
        Endpoint::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Listener::Unix(l)
        }
    };

    signal::install_termination_latch();
    let stats_every = service.stats_every();
    // `None` until the first line, which is written before the first
    // accept: the series starts at `seq` 0 however quickly the first
    // client polls `stats` (polls share the sequence counter).
    let mut last_stats: Option<Instant> = None;

    let shutdown = Arc::new(AtomicBool::new(false));
    while !shutdown.load(Ordering::Relaxed) && !signal::termination_requested() {
        if let (Some(path), Some(every)) = (bench, stats_every) {
            if last_stats.is_none_or(|t| t.elapsed() >= every) {
                last_stats = Some(Instant::now());
                service.append_stats_line(path)?;
            }
        }
        let stream: Option<Box<dyn ReadWrite + Send>> = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Some(Box::new(s))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Some(Box::new(s))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        match stream {
            Some(s) => {
                let service = Arc::clone(service);
                let shutdown = Arc::clone(&shutdown);
                // Detached: a connection blocked on a long job must not
                // block shutdown of the accept loop; its response write
                // races only against process exit, which the CLI delays
                // until after the drain.
                std::thread::spawn(move || serve_conn(&service, s, &shutdown));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    service.shutdown();
    if let Some(path) = bench {
        service.write_bench(path)?;
    }
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// `Read + Write` object-safe alias for TCP/Unix streams.
pub trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

fn serve_conn(
    service: &Arc<Service>,
    mut stream: Box<dyn ReadWrite + Send>,
    shutdown: &AtomicBool,
) {
    loop {
        let req = match read_request(&mut stream) {
            Ok(r) => r,
            Err(WireError::Truncated) | Err(WireError::Io(_)) => return, // peer gone
            Err(e) => {
                let _ = write_response(&mut stream, &Response::Error(e.to_string()));
                return;
            }
        };
        let resp = match req {
            Request::Submit(spec) => match service.submit(spec) {
                Ok(outcome) => Response::Done(outcome),
                Err(reject) => {
                    Response::Rejected { code: reject.code(), reason: reject.reason() }
                }
            },
            Request::Stats => Response::Stats(service.stats_text()),
            Request::Ping => Response::Pong,
            Request::Trace(job_id) => Response::Trace(service.trace(job_id)),
            Request::Shutdown => {
                let _ = write_response(&mut stream, &Response::ShutdownAck);
                shutdown.store(true, Ordering::Relaxed);
                return;
            }
        };
        if write_response(&mut stream, &resp).is_err() {
            return;
        }
    }
}
