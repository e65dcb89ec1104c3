//! # obs — cross-layer observability for the Silver stack
//!
//! The differential checks in this workspace relate four semantic levels
//! (CakeML interpreter ↔ ag32 ISA ↔ Silver RTL ↔ Verilog); when two
//! levels diverge, *that* they diverged is one bit — *where and why* is
//! what this crate extracts. Zero external dependencies, and everything
//! here is strictly opt-in: nothing in the execution hot paths touches
//! this crate unless a `--trace`/`--vcd`/`--profile` flag (or a
//! campaign) asked for it.
//!
//! Four pieces:
//!
//! * [`metrics`] — a lock-free-enough registry of counters, gauges and
//!   power-of-two-bucket histograms ([`Registry`]). Atomics on the hot
//!   path, a mutex only at registration; deterministic JSONL export in
//!   the `BENCH_*.json` convention.
//! * [`vcd`] — a standard Value Change Dump writer ([`VcdWriter`]),
//!   viewable in GTKWave, fed by the RTL interpreter's and Verilog
//!   evaluator's cycle hooks.
//! * [`forensics`] — the divergence report ([`Forensics`]): the
//!   divergent step/cycle, the differing field, register deltas, the
//!   last-N retired instructions on both sides and a VCD window around
//!   the divergence.
//! * [`profile`] — a flat cycle/retire profiler ([`CycleProfiler`])
//!   attributing PCs to symbols and emitting flamegraph-compatible
//!   folded stacks.
//! * [`trace`] — per-job distributed tracing ([`TraceBuilder`] /
//!   [`JobTrace`]) with deterministic logical clocks, a bounded
//!   per-shard lock-free flight recorder ([`FlightRecorder`]), and
//!   Chrome trace-event JSON export (Perfetto-loadable).

pub mod forensics;
pub mod metrics;
pub mod profile;
pub mod trace;
pub mod vcd;

pub use forensics::{push_tail, Forensics, RegDelta, FORENSIC_TAIL};
pub use metrics::{quantile_sorted, Counter, Gauge, Histogram, Registry};
pub use profile::CycleProfiler;
pub use trace::{chrome_trace_json, FlightRecorder, JobTrace, SpanKind, TraceBuilder};
pub use vcd::{SignalId, VcdWriter};
