//! Execution tracing for the Silver ISA: retire events, the one
//! per-retire observer trait, and retire-log ring buffers.
//!
//! A [`Tracer`] observes every retired instruction as a fully decoded
//! [`RetireEvent`] — the program counter, the instruction, the register
//! write and the memory operation — together with the [`State`] the
//! retire left behind. It is the ISA's only per-retire hook: the retire
//! log and profiler of `silverc --trace`/`--profile`, the system-call
//! tracer of `--trace-syscalls` (`basis::SyscallTracer`, which watches
//! the PC reach FFI entry points) and the campaigns' PC-edge coverage
//! ([`EdgeSet`](crate::EdgeSet)) are all tracers, and the shared run
//! loop (`silver::exec::run`) hands one to whichever engine runs the
//! reference retires.
//!
//! The default [`NoTrace`] sink monomorphises to nothing:
//! [`Tracer::ACTIVE`] is an associated `const`, and the event-capture
//! code in `State::next_traced` is guarded by `if T::ACTIVE`, so
//! untraced execution compiles to exactly the plain fetch–decode–execute
//! step (verified by the `trace_overhead` bench).

use crate::insn::Instr;
use crate::State;

/// A memory access performed by a retired instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// `true` for stores, `false` for loads.
    pub write: bool,
    /// `true` for byte accesses, `false` for word accesses.
    pub byte: bool,
    /// The effective (aligned, for word accesses) address.
    pub addr: u32,
    /// The value stored or loaded (zero-extended for bytes).
    pub value: u32,
}

/// One retired instruction, fully decoded for human consumption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetireEvent {
    /// Zero-based retire index (the value of `instructions_retired`
    /// *before* this instruction executed).
    pub seq: u64,
    /// PC the instruction was fetched from.
    pub pc: u32,
    /// PC after the instruction (reveals taken branches).
    pub next_pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// `(register index, value written)` when the instruction wrote a
    /// register.
    pub reg_write: Option<(u8, u32)>,
    /// The memory access, when the instruction performed one.
    pub mem: Option<MemOp>,
}

impl RetireEvent {
    /// One-line rendering: retire index, pc, disassembly, effects.
    ///
    /// ```text
    /// #12  0x00000010  Add r1 <- r1, 1            r1=0x0000000b
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let mut line = format!("#{:<6} {:#010x}  {:<34}", self.seq, self.pc, self.instr.to_string());
        if let Some((r, v)) = self.reg_write {
            line.push_str(&format!(" r{r}={v:#010x}"));
        }
        if let Some(m) = self.mem {
            let dir = if m.write { "W" } else { "R" };
            let sz = if m.byte { "b" } else { "w" };
            line.push_str(&format!(" mem{dir}{sz}[{:#010x}]={:#010x}", m.addr, m.value));
        }
        if self.next_pc != self.pc.wrapping_add(crate::WORD_BYTES) {
            line.push_str(&format!(" -> {:#010x}", self.next_pc));
        }
        line
    }
}

/// A sink observing every retired instruction as a [`RetireEvent`],
/// with the machine state after the retire.
///
/// The [`ACTIVE`](Tracer::ACTIVE) const gates event capture in the
/// interpreter: implementations that do nothing (i.e. [`NoTrace`]) set
/// it to `false` and the capture code is compiled away entirely.
pub trait Tracer {
    /// Whether the interpreter should build [`RetireEvent`]s at all.
    const ACTIVE: bool = true;

    /// Called after each retired instruction; `state` is the machine
    /// the retire left behind (its PC is `ev.next_pc`).
    fn retire(&mut self, ev: &RetireEvent, state: &State);
}

/// The no-op sink used by plain `State::next` / `State::run`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn retire(&mut self, _ev: &RetireEvent, _state: &State) {}
}

impl<T: Tracer> Tracer for &mut T {
    const ACTIVE: bool = T::ACTIVE;
    #[inline]
    fn retire(&mut self, ev: &RetireEvent, state: &State) {
        (**self).retire(ev, state);
    }
}

/// A sink that may be absent (an optional retire log or profile).
impl<T: Tracer> Tracer for Option<T> {
    const ACTIVE: bool = T::ACTIVE;
    #[inline]
    fn retire(&mut self, ev: &RetireEvent, state: &State) {
        if let Some(t) = self {
            t.retire(ev, state);
        }
    }
}

/// Fan-out to two sinks.
impl<A: Tracer, B: Tracer> Tracer for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;
    #[inline]
    fn retire(&mut self, ev: &RetireEvent, state: &State) {
        self.0.retire(ev, state);
        self.1.retire(ev, state);
    }
}

/// A bounded retire log: keeps the last `capacity` [`RetireEvent`]s and
/// a running total.
///
/// Capacity 0 is legal and keeps the total only — useful when a caller
/// wants instruction counting through the tracing interface without
/// paying for storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetireRing {
    capacity: usize,
    /// Events in ring order; once full, `head` marks the oldest slot.
    buf: Vec<RetireEvent>,
    /// Next slot to overwrite (only meaningful once `buf.len() == capacity`).
    head: usize,
    total: u64,
}

impl RetireRing {
    /// An empty ring retaining at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RetireRing { capacity, buf: Vec::with_capacity(capacity.min(4096)), head: 0, total: 0 }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (≥ [`len`](RetireRing::len)).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records an event, evicting the oldest when full.
    pub fn push(&mut self, ev: RetireEvent) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RetireEvent> {
        let (newer, older) = self.buf.split_at(self.head.min(self.buf.len()));
        older.iter().chain(newer.iter())
    }

    /// Retained events, oldest first, as an owned vector.
    #[must_use]
    pub fn events(&self) -> Vec<RetireEvent> {
        self.iter().copied().collect()
    }

    /// Appends all of `other`'s retained events (oldest first) into this
    /// ring, as if they had been pushed here; totals add.
    ///
    /// The merged ring keeps this ring's capacity, so only the newest
    /// `capacity` of the combined sequence survive.
    pub fn merge(&mut self, other: &RetireRing) {
        // `push` bumps `total` once per event; account for the events
        // `other` saw but did not retain as well.
        let untracked = other.total - other.len() as u64;
        for ev in other.iter() {
            self.push(*ev);
        }
        self.total += untracked;
    }

    /// Rendered retained events, oldest first, one line each.
    #[must_use]
    pub fn render(&self) -> Vec<String> {
        self.iter().map(RetireEvent::render).collect()
    }
}

impl Tracer for RetireRing {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent, _state: &State) {
        self.push(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Func, Reg, Ri};

    fn ev(seq: u64) -> RetireEvent {
        RetireEvent {
            seq,
            pc: (seq as u32) * 4,
            next_pc: (seq as u32) * 4 + 4,
            instr: Instr::Normal {
                func: Func::Add,
                w: Reg::new(1),
                a: Ri::Reg(Reg::new(1)),
                b: Ri::Imm(1),
            },
            reg_write: Some((1, seq as u32)),
            mem: None,
        }
    }

    #[test]
    fn ring_keeps_last_capacity_events() {
        let mut ring = RetireRing::new(3);
        for i in 0..7 {
            ring.push(ev(i));
        }
        assert_eq!(ring.total(), 7);
        assert_eq!(ring.len(), 3);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6], "oldest-first, last three retained");
    }

    #[test]
    fn ring_wraparound_is_exact_at_boundary() {
        let mut ring = RetireRing::new(2);
        ring.push(ev(0));
        assert_eq!(ring.events().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0]);
        ring.push(ev(1));
        assert_eq!(ring.events().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        ring.push(ev(2));
        assert_eq!(ring.events().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn capacity_zero_counts_without_storing() {
        let mut ring = RetireRing::new(0);
        for i in 0..5 {
            ring.push(ev(i));
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.len(), 0);
        assert!(ring.is_empty());
        assert!(ring.events().is_empty());
    }

    #[test]
    fn merge_concatenates_and_respects_capacity() {
        let mut a = RetireRing::new(4);
        a.push(ev(0));
        a.push(ev(1));
        let mut b = RetireRing::new(4);
        for i in 10..13 {
            b.push(ev(i));
        }
        a.merge(&b);
        assert_eq!(a.total(), 5);
        let seqs: Vec<u64> = a.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 10, 11, 12][1..].to_vec(), "capacity 4 keeps newest 4");
    }

    #[test]
    fn merge_counts_events_the_source_dropped() {
        let mut a = RetireRing::new(8);
        let mut b = RetireRing::new(2);
        for i in 0..5 {
            b.push(ev(i));
        }
        a.merge(&b);
        assert_eq!(a.total(), 5, "3 dropped + 2 retained");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn render_mentions_pc_and_write() {
        let line = ev(3).render();
        assert!(line.contains("0x0000000c"), "{line}");
        assert!(line.contains("r1=0x00000003"), "{line}");
    }
}
