//! A standard Value Change Dump (IEEE 1364 §18) writer.
//!
//! Produces textual `.vcd` files readable by GTKWave and every other
//! waveform viewer. The output is deterministic — no `$date` section,
//! a fixed `$version` string — so a fixed RTL run dumps byte-identical
//! waveforms (pinned by `crates/silver/tests/vcd_golden.rs`).
//!
//! Usage: declare signals with [`VcdWriter::add_signal`], write the
//! header with [`VcdWriter::begin`], then call [`VcdWriter::sample`]
//! once per cycle with the current value of every signal (in
//! declaration order). Only *changed* values are emitted per timestep,
//! as the format intends.

use std::io::{self, Write};

/// Handle returned by [`VcdWriter::add_signal`]; indexes the values
/// slice passed to [`VcdWriter::sample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignalId(pub usize);

#[derive(Debug)]
struct Signal {
    name: String,
    width: u32,
    code: String,
}

/// Identifier codes: printable ASCII 33..=126, shortest-first base-94.
fn id_code(mut n: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    code
}

/// Streaming VCD writer over any [`Write`] sink.
#[derive(Debug)]
pub struct VcdWriter<W: Write> {
    w: W,
    signals: Vec<Signal>,
    last: Vec<Option<u64>>,
    header_written: bool,
}

impl<W: Write> VcdWriter<W> {
    /// A writer with no signals declared yet.
    pub fn new(w: W) -> Self {
        VcdWriter { w, signals: Vec::new(), last: Vec::new(), header_written: false }
    }

    /// Declares a signal of `width` bits. Must be called before
    /// [`begin`](VcdWriter::begin); ids index the `values` slice given
    /// to [`sample`](VcdWriter::sample) in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if called after the header was written or with zero width.
    pub fn add_signal(&mut self, name: &str, width: u32) -> SignalId {
        assert!(!self.header_written, "declare signals before begin()");
        assert!(width >= 1, "zero-width signal {name:?}");
        let id = SignalId(self.signals.len());
        self.signals.push(Signal {
            name: name.replace(char::is_whitespace, "_"),
            width,
            code: id_code(id.0),
        });
        self.last.push(None);
        id
    }

    /// Writes the VCD header, scoping every signal under `scope`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn begin(&mut self, scope: &str) -> io::Result<()> {
        assert!(!self.header_written, "begin() called twice");
        writeln!(self.w, "$version silver-stack obs $end")?;
        writeln!(self.w, "$timescale 1ns $end")?;
        writeln!(self.w, "$scope module {} $end", scope.replace(char::is_whitespace, "_"))?;
        for s in &self.signals {
            writeln!(self.w, "$var wire {} {} {} $end", s.width, s.code, s.name)?;
        }
        writeln!(self.w, "$upscope $end")?;
        writeln!(self.w, "$enddefinitions $end")?;
        self.header_written = true;
        Ok(())
    }

    fn write_value(w: &mut W, sig: &Signal, value: u64) -> io::Result<()> {
        if sig.width == 1 {
            writeln!(w, "{}{}", value & 1, sig.code)
        } else {
            let masked = if sig.width >= 64 { value } else { value & ((1u64 << sig.width) - 1) };
            writeln!(w, "b{masked:b} {}", sig.code)
        }
    }

    /// Records the value of every signal at `time` (in declaration
    /// order). The first sample emits a `$dumpvars` block with all
    /// values; later samples emit only changes, and timesteps with no
    /// changes are omitted entirely.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    ///
    /// # Panics
    ///
    /// Panics if `begin` has not been called or `values` has the wrong
    /// length.
    pub fn sample(&mut self, time: u64, values: &[u64]) -> io::Result<()> {
        assert!(self.header_written, "call begin() before sample()");
        assert_eq!(values.len(), self.signals.len(), "one value per declared signal");
        let first = self.last.iter().all(Option::is_none);
        if first {
            writeln!(self.w, "#{time}")?;
            writeln!(self.w, "$dumpvars")?;
            for (sig, &v) in self.signals.iter().zip(values) {
                Self::write_value(&mut self.w, sig, v)?;
            }
            writeln!(self.w, "$end")?;
        } else {
            let changed: Vec<usize> = (0..values.len())
                .filter(|&i| self.last[i] != Some(values[i]))
                .collect();
            if !changed.is_empty() {
                writeln!(self.w, "#{time}")?;
                for i in changed {
                    Self::write_value(&mut self.w, &self.signals[i], values[i])?;
                }
            }
        }
        for (slot, &v) in self.last.iter_mut().zip(values) {
            *slot = Some(v);
        }
        Ok(())
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_distinct_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let code = id_code(n);
            assert!(code.bytes().all(|b| (33..=126).contains(&b)), "{code:?}");
            assert!(seen.insert(code), "duplicate at {n}");
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
    }

    #[test]
    fn header_and_change_only_samples() {
        let mut vcd = VcdWriter::new(Vec::new());
        let _clk = vcd.add_signal("clk", 1);
        let _pc = vcd.add_signal("pc", 32);
        vcd.begin("cpu").unwrap();
        vcd.sample(0, &[0, 0]).unwrap();
        vcd.sample(1, &[1, 0]).unwrap(); // only clk changes
        vcd.sample(2, &[1, 0]).unwrap(); // nothing changes: no output
        vcd.sample(3, &[0, 4]).unwrap();
        let text = String::from_utf8(vcd.finish().unwrap()).unwrap();
        assert!(text.contains("$var wire 1 ! clk $end"), "{text}");
        assert!(text.contains("$var wire 32 \" pc $end"));
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("#0\n$dumpvars\n0!\nb0 \"\n$end\n"));
        assert!(text.contains("#1\n1!\n"), "{text}");
        assert!(!text.contains("#2"), "unchanged timestep omitted: {text}");
        assert!(text.contains("#3\n0!\nb100 \"\n"), "{text}");
    }

    #[test]
    fn output_has_no_date_section() {
        let mut vcd = VcdWriter::new(Vec::new());
        vcd.add_signal("x", 8);
        vcd.begin("top").unwrap();
        vcd.sample(0, &[255]).unwrap();
        let text = String::from_utf8(vcd.finish().unwrap()).unwrap();
        assert!(!text.contains("$date"), "determinism: no date section");
        assert!(text.contains("b11111111 !"));
    }
}
