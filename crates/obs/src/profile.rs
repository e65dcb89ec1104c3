//! A flat guest-program profiler: attributes PCs to symbols.
//!
//! Two feeding modes, one per backend family:
//!
//! * **ISA**: as an [`ag32::trace::Tracer`], every retired instruction's
//!   PC is attributed to the enclosing symbol — retire counts.
//! * **RTL/Verilog**: via [`CycleProfiler::record_pc`] called once per
//!   clock cycle with the `pc` signal — true *cycle* attribution, which
//!   naturally charges memory-latency stalls to the function that
//!   executed the access.
//!
//! Output is the flamegraph "folded" format — `name count` lines — so
//! `flamegraph.pl` (or any folded-stack viewer) renders it directly.
//! Symbols come from the compiler's
//! [`SymbolTable`](https://example.org) (see `cakeml::layout`): the
//! profiler itself only needs `(start address, name)` pairs.

use std::collections::HashMap;

use ag32::trace::{RetireEvent, Tracer};
use ag32::State;

/// A flat PC → symbol profiler.
#[derive(Clone, Debug)]
pub struct CycleProfiler {
    /// `(start address, name)` sorted by address.
    symbols: Vec<(u32, String)>,
    /// Counts indexed like `symbols`; the last slot is `<unknown>` (PCs
    /// below the first symbol or with no symbol table at all).
    counts: Vec<u64>,
    total: u64,
}

impl CycleProfiler {
    /// A profiler over `(start address, name)` pairs (any order;
    /// duplicates keep the first name seen for an address).
    #[must_use]
    pub fn new(mut symbols: Vec<(u32, String)>) -> Self {
        symbols.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        symbols.dedup_by_key(|s| s.0);
        let n = symbols.len();
        CycleProfiler { symbols, counts: vec![0; n + 1], total: 0 }
    }

    /// Index into `counts` for a PC: the last symbol starting at or
    /// before it, else the `<unknown>` slot.
    fn slot(&self, pc: u32) -> usize {
        match self.symbols.binary_search_by(|s| s.0.cmp(&pc)) {
            Ok(i) => i,
            Err(0) => self.symbols.len(), // below every symbol
            Err(i) => i - 1,
        }
    }

    /// Attributes one cycle (or retire) at `pc`.
    #[inline]
    pub fn record_pc(&mut self, pc: u32) {
        let slot = self.slot(pc);
        self.counts[slot] += 1;
        self.total += 1;
    }

    /// Total samples attributed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Nonzero `(name, count)` rows, highest count first (ties broken
    /// by name, so output is deterministic).
    #[must_use]
    pub fn rows(&self) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> = self
            .symbols
            .iter()
            .zip(self.counts.iter())
            .filter(|&(_, &c)| c > 0)
            .map(|((_, name), &c)| (name.as_str(), c))
            .collect();
        let unknown = self.counts[self.symbols.len()];
        if unknown > 0 {
            rows.push(("<unknown>", unknown));
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        rows
    }

    /// Flamegraph-compatible folded stacks: one `name count` line per
    /// symbol with samples, highest count first. Flat profile — each
    /// stack is a single frame.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (name, count) in self.rows() {
            out.push_str(&format!("{name} {count}\n"));
        }
        out
    }

    /// `rows()` as an owned map, for programmatic assertions.
    #[must_use]
    pub fn counts_by_name(&self) -> HashMap<String, u64> {
        self.rows().into_iter().map(|(n, c)| (n.to_string(), c)).collect()
    }
}

impl Tracer for CycleProfiler {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent, _state: &State) {
        self.record_pc(ev.pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler() -> CycleProfiler {
        CycleProfiler::new(vec![
            (0x100, "main".to_string()),
            (0x200, "helper".to_string()),
            (0x300, "rt_exit".to_string()),
        ])
    }

    #[test]
    fn pc_attribution_uses_enclosing_symbol() {
        let mut p = profiler();
        p.record_pc(0x100); // main start
        p.record_pc(0x1FC); // still main
        p.record_pc(0x200); // helper start
        p.record_pc(0x2FF); // helper body
        p.record_pc(0x400); // past last symbol: rt_exit
        p.record_pc(0x50); // below first symbol: unknown
        assert_eq!(p.total(), 6);
        let counts = p.counts_by_name();
        assert_eq!(counts["main"], 2);
        assert_eq!(counts["helper"], 2);
        assert_eq!(counts["rt_exit"], 1);
        assert_eq!(counts["<unknown>"], 1);
    }

    #[test]
    fn folded_output_is_sorted_and_parseable() {
        let mut p = profiler();
        for _ in 0..5 {
            p.record_pc(0x210);
        }
        p.record_pc(0x110);
        let folded = p.folded();
        assert_eq!(folded, "helper 5\nmain 1\n");
    }

    #[test]
    fn empty_symbol_table_attributes_everything_to_unknown() {
        let mut p = CycleProfiler::new(Vec::new());
        p.record_pc(0x1234);
        assert_eq!(p.folded(), "<unknown> 1\n");
    }
}
