//! Divergence forensics: the report emitted when two semantic levels
//! disagree.
//!
//! A bare mismatch error says *that* two levels (say the ISA and the
//! RTL) diverged; a [`Forensics`] report says *where*
//! (retire index and clock cycle), *what* (every differing register /
//! field with both values), and *how we got there* (the last-N retired
//! instructions on both sides, rendered from
//! [`ag32::RetireEvent`](ag32::trace::RetireEvent) ring buffers, plus a
//! VCD waveform window around the divergent cycle for GTKWave).
//!
//! Reports are plain text by design: they are embedded in campaign
//! failure messages, survive triage shrinking, and end up in terminal
//! scrollback — see the worked read-through in `EXPERIMENTS.md`.

use std::collections::VecDeque;
use std::fmt;

/// Last-N retired instructions (or, for theorem (10), cycles) a
/// forensics report keeps on each side.
pub const FORENSIC_TAIL: usize = 32;

/// Appends `line` to a forensics tail, dropping the oldest line once
/// the tail holds [`FORENSIC_TAIL`].
pub fn push_tail(tail: &mut VecDeque<String>, line: String) {
    if tail.len() == FORENSIC_TAIL {
        tail.pop_front();
    }
    tail.push_back(line);
}

/// One architectural field that differs at the divergent step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegDelta {
    /// Field name (`"r5"`, `"pc"`, `"carry"`, `"mem[0x1000]"`, …).
    pub field: String,
    /// Value on the specification side (ISA for t9, RTL for t10).
    pub spec: String,
    /// Value on the implementation side (RTL for t9, Verilog for t10).
    pub impl_: String,
}

/// A cross-level divergence report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Forensics {
    /// Which relation diverged (`"t9 ISA↔RTL lockstep"`, `"t10
    /// RTL↔Verilog equivalence"`, …).
    pub kind: String,
    /// Names of the two sides, e.g. `("isa", "rtl")`.
    pub sides: (String, String),
    /// Zero-based index of the retire at which the divergence was
    /// detected (spec side): `Some(0)` is the first instruction.
    pub divergent_step: Option<u64>,
    /// Clock cycle at which the divergence was detected (impl side).
    pub divergent_cycle: Option<u64>,
    /// Every differing architectural field, with both values.
    pub deltas: Vec<RegDelta>,
    /// Last-N retired instructions on the spec side, oldest first,
    /// rendered one per line.
    pub spec_tail: Vec<String>,
    /// Last-N retires observed on the impl side, oldest first.
    pub impl_tail: Vec<String>,
    /// VCD text covering a window of cycles around the divergence
    /// (empty when waveform capture was off).
    pub vcd_window: String,
    /// Retire count of the last good checkpoint before the divergence,
    /// when the run was checkpoint-anchored — triage replays from this
    /// retire instead of from boot.
    pub replay_anchor: Option<u64>,
    /// Free-form notes (timeout diagnostics, wedge states, …).
    pub notes: Vec<String>,
}

impl Forensics {
    /// A report for `kind` between `spec` and `impl_` sides.
    #[must_use]
    pub fn new(kind: &str, spec: &str, impl_: &str) -> Self {
        Forensics {
            kind: kind.to_string(),
            sides: (spec.to_string(), impl_.to_string()),
            ..Forensics::default()
        }
    }

    /// The full plain-text report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== divergence forensics: {} ===\n", self.kind));
        match (self.divergent_step, self.divergent_cycle) {
            (Some(s), Some(c)) => {
                out.push_str(&format!("divergent step: {s} (retire index), cycle: {c}\n"));
            }
            (Some(s), None) => out.push_str(&format!("divergent step: {s} (retire index)\n")),
            (None, Some(c)) => out.push_str(&format!("divergent cycle: {c}\n")),
            (None, None) => {}
        }
        if let Some(anchor) = self.replay_anchor {
            out.push_str(&format!(
                "replay anchor: retire {anchor} (replay from this checkpoint, not from boot)\n"
            ));
        }
        if !self.deltas.is_empty() {
            out.push_str(&format!(
                "differing fields ({}={} vs {}={}):\n",
                "spec", self.sides.0, "impl", self.sides.1
            ));
            for d in &self.deltas {
                out.push_str(&format!(
                    "  {:<14} {}={:<12} {}={}\n",
                    d.field, self.sides.0, d.spec, self.sides.1, d.impl_
                ));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        if !self.spec_tail.is_empty() {
            out.push_str(&format!(
                "--- last {} retired on {} (oldest first) ---\n",
                self.spec_tail.len(),
                self.sides.0
            ));
            for line in &self.spec_tail {
                out.push_str(&format!("  {line}\n"));
            }
        }
        if !self.impl_tail.is_empty() {
            out.push_str(&format!(
                "--- last {} retired on {} (oldest first) ---\n",
                self.impl_tail.len(),
                self.sides.1
            ));
            for line in &self.impl_tail {
                out.push_str(&format!("  {line}\n"));
            }
        }
        if !self.vcd_window.is_empty() {
            out.push_str("--- vcd window around divergence (save as .vcd for GTKWave) ---\n");
            out.push_str(&self.vcd_window);
            if !self.vcd_window.ends_with('\n') {
                out.push('\n');
            }
        }
        out.push_str("=== end forensics ===");
        out
    }
}

impl fmt::Display for Forensics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_names_cycle_fields_and_tails() {
        let mut fx = Forensics::new("t9 ISA↔RTL lockstep", "isa", "rtl");
        fx.divergent_step = Some(17);
        fx.divergent_cycle = Some(103);
        fx.deltas.push(RegDelta {
            field: "r5".to_string(),
            spec: "0x00000007".to_string(),
            impl_: "0x00000006".to_string(),
        });
        fx.spec_tail.push("#16 0x00000040 Add r5 <- r5, 1".to_string());
        fx.impl_tail.push("#16 0x00000040 retired, pc -> 0x00000044".to_string());
        fx.vcd_window = "$version silver-stack obs $end".to_string();
        fx.replay_anchor = Some(16);
        let text = fx.render();
        assert!(text.contains("divergent step: 17"), "{text}");
        assert!(text.contains("replay anchor: retire 16"), "{text}");
        assert!(text.contains("cycle: 103"));
        assert!(text.contains("r5"));
        assert!(text.contains("isa=0x00000007"));
        assert!(text.contains("rtl=0x00000006"));
        assert!(text.contains("last 1 retired on isa"));
        assert!(text.contains("last 1 retired on rtl"));
        assert!(text.contains("vcd window"));
        assert!(text.ends_with("=== end forensics ==="));
    }

    #[test]
    fn empty_sections_are_omitted() {
        let fx = Forensics::new("t10 RTL↔Verilog equivalence", "rtl", "verilog");
        let text = fx.render();
        assert!(!text.contains("differing fields"));
        assert!(!text.contains("vcd window"));
        assert!(text.contains("t10 RTL↔Verilog equivalence"));
    }
}
