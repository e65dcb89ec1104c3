//! Code generation: [`FlatIR`](crate::clos::FlatProgram) → Silver machine
//! code.
//!
//! The backend is a straightforward stack machine — every variable lives
//! in a frame slot — with three performance-relevant refinements that the
//! benchmark harness can ablate:
//!
//! * saturated known calls compile to direct jumps (decided earlier, in
//!   lowering),
//! * self- and mutual tail calls reuse the caller's return address
//!   (`CompilerConfig::tail_calls`), making loops run in constant stack,
//! * every allocation site (`alloc_const` for fixed-size blocks,
//!   `emit_alloc_bytes` for byte blocks) calls the runtime allocator
//!   `rt_alloc`, which bumps the heap pointer against a limit register
//!   and, on exhaustion, runs the Cheney collector first when it is
//!   enabled (`CompilerConfig::gc`); the out-of-memory path exits cleanly
//!   with [`EXIT_OOM`](crate::ast::EXIT_OOM), which is precisely the
//!   behaviour the paper's `extend_with_oom` accommodates (§2.3, §6.1).
//!
//! # Value representation
//!
//! Immediates (int, bool, char, unit, nullary constructors) are tagged
//! `(v << 1) | 1`; heap pointers are 4-aligned addresses of blocks
//! `[header, fields...]` with `header = (len << 8) | (tag << 2) | 0b10`
//! (see [`crate::layout`]). Booleans are `1`/`3` (tagged 0/1).
//!
//! # Register conventions
//!
//! | regs    | use                                        |
//! |---------|--------------------------------------------|
//! | r1–r5   | arguments / result / codegen scratch       |
//! | r6      | environment argument                       |
//! | r7–r12  | runtime-routine internals                  |
//! | r13–r31 | GC and runtime temporaries (`R13`…`R31`)   |
//! | r32–r54 | unused                                     |
//! | r55     | `GC_LINK` (the collector's return address) |
//! | r56     | HP (bump pointer)                          |
//! | r57     | HL (heap limit)                            |
//! | r58     | SP (stack pointer, grows down)             |
//! | r59–61  | assembler/codegen scratch                  |
//! | r62     | link register                              |
//! | r63     | runtime scratch                            |

use std::collections::HashMap;

use ag32::asm::{AsmError, Assembler};
use ag32::{Func, Instr, Reg, Ri, Shift};

use crate::anf::{Atom, VarId};
use crate::ast::{Prim, EXIT_DIV, EXIT_OOM, EXIT_SUBSCRIPT};
use crate::clos::{FExpr, FRhs, FlatProgram, FunId};
use crate::layout::{header, tag, Symbol, SymbolTable, TargetLayout};

const R1: Reg = Reg::new(1);
const R2: Reg = Reg::new(2);
const R3: Reg = Reg::new(3);
const R4: Reg = Reg::new(4);
const ENV: Reg = Reg::new(6);
const R7: Reg = Reg::new(7);
const R8: Reg = Reg::new(8);
const R9: Reg = Reg::new(9);
const R10: Reg = Reg::new(10);
const R11: Reg = Reg::new(11);
const R12: Reg = Reg::new(12);
const HP: Reg = Reg::new(56);
const HL: Reg = Reg::new(57);
const SP: Reg = Reg::new(58);
const S0: Reg = Reg::new(59);
const S1: Reg = Reg::new(60);
const S2: Reg = Reg::new(61);
const LINK: Reg = Reg::new(62);
// Registers r13-r31 are reserved for the garbage collector and runtime
// byte-copy temporaries; compiled code never holds values in them.
const R13: Reg = Reg::new(13);
const R14: Reg = Reg::new(14);
const R15: Reg = Reg::new(15);
const R16: Reg = Reg::new(16);
const R17: Reg = Reg::new(17);
const R18: Reg = Reg::new(18);
const R19: Reg = Reg::new(19);
const R20: Reg = Reg::new(20);
const R21: Reg = Reg::new(21);
const R22: Reg = Reg::new(22);
const R23: Reg = Reg::new(23);
const R24: Reg = Reg::new(24);
const R25: Reg = Reg::new(25);
const R26: Reg = Reg::new(26);
const R27: Reg = Reg::new(27);
const R28: Reg = Reg::new(28);
const R29: Reg = Reg::new(29);
const R30: Reg = Reg::new(30);
const R31: Reg = Reg::new(31);
const GC_LINK: Reg = Reg::new(55);

fn tag_imm(v: i64) -> u32 {
    ((v << 1) | 1) as u32
}

fn atom_imm(a: Atom) -> Option<u32> {
    match a {
        Atom::Int(v) => Some(tag_imm(v)),
        Atom::Bool(b) => Some(if b { 3 } else { 1 }),
        Atom::Char(c) => Some(tag_imm(i64::from(c))),
        Atom::Unit => Some(1),
        Atom::Var(_) | Atom::Str(_) => None,
    }
}

/// Compiler options; each switch exists so the ablation benchmarks can
/// measure what it buys.
#[derive(Clone, Copy, Debug)]
pub struct CompilerConfig {
    /// Recognise saturated calls of known functions (lowering).
    pub direct_calls: bool,
    /// Compile tail calls without growing the stack.
    pub tail_calls: bool,
    /// Prepend the basis-library prelude.
    pub prelude: bool,
    /// Run the ANF optimiser (constant folding, copy propagation, branch
    /// simplification, dead-code elimination).
    pub const_fold: bool,
    /// Enable the two-space copying garbage collector (the paper's
    /// CakeML has a GC; the primary runtime here is bump allocation with
    /// a clean out-of-memory exit, which `extend_with_oom` permits).
    /// With `gc` the heap is split into semispaces and exhaustion
    /// triggers a Cheney collection instead of an immediate OOM exit.
    pub gc: bool,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig { direct_calls: true, tail_calls: true, prelude: true, const_fold: true, gc: false }
    }
}

/// The output of compilation: a position-dependent code+data image based
/// at [`TargetLayout::code_base`].
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Machine code and data, to be loaded at `layout.code_base`.
    pub code: Vec<u8>,
    /// FFI names in jump-table order.
    pub ffi_names: Vec<String>,
    /// The memory layout the code was compiled against.
    pub layout: TargetLayout,
    /// Number of compiled functions (including curry wrappers and main).
    pub fun_count: usize,
    /// PC→name map over the image: source function names for `f{N}`
    /// labels, runtime routines (`rt_*`), and the `_start` stub. Feeds
    /// the `silverc --profile` cycle profiler.
    pub symbols: SymbolTable,
}

struct Gen {
    asm: Assembler,
    layout: TargetLayout,
    cfg: CompilerConfig,
    labels: u32,
    ffi_names: Vec<String>,
    slots: HashMap<VarId, u32>,
    frame_bytes: u32,
}

/// Compiles a closure-converted program to machine code.
///
/// # Errors
///
/// Assembler failures (duplicate/undefined labels) indicate a codegen
/// bug and are surfaced as [`AsmError`].
pub fn generate(p: &FlatProgram, layout: TargetLayout, cfg: CompilerConfig) -> Result<CompiledProgram, AsmError> {
    let mut g = Gen {
        asm: Assembler::new(layout.code_base),
        layout,
        cfg,
        labels: 0,
        ffi_names: p.ffi_names.clone(),
        slots: HashMap::new(),
        frame_bytes: 0,
    };
    g.emit_start(p.main);
    for (i, f) in p.funs.iter().enumerate() {
        g.emit_fun(FunId(i as u32), f);
    }
    g.emit_runtime();
    g.emit_strings(&p.strings);
    let code = g.asm.assemble()?;
    let symbols = symbol_table(&g.asm, p);
    Ok(CompiledProgram {
        code,
        ffi_names: p.ffi_names.clone(),
        layout,
        fun_count: p.funs.len(),
        symbols,
    })
}

/// Builds the PC→name map from the assembler's resolved labels:
/// `f{N}` labels are renamed to their source function's debug name
/// (disambiguated with the id when names repeat), runtime routines
/// (`rt_*`), `_start` and string-pool entries keep their labels, and
/// internal control-flow labels (`else_*`, `sub_*`, ...) are dropped.
fn symbol_table(asm: &Assembler, p: &FlatProgram) -> SymbolTable {
    let mut syms = Vec::new();
    for (label, addr) in asm.label_addresses() {
        if label == "_start" || label.starts_with("rt_") {
            syms.push(Symbol { addr, name: label });
        } else if let Some(n) = label.strip_prefix('f').and_then(|n| n.parse::<usize>().ok()) {
            if let Some(f) = p.funs.get(n) {
                let name =
                    if f.name.is_empty() { format!("f{n}") } else { format!("{}#{n}", f.name) };
                syms.push(Symbol { addr, name });
            }
        }
    }
    SymbolTable::new(syms)
}

fn fun_label(f: FunId) -> String {
    format!("f{}", f.0)
}

impl Gen {
    fn fresh_label(&mut self, stem: &str) -> String {
        self.labels += 1;
        format!("{stem}_{}", self.labels - 1)
    }

    fn li(&mut self, r: Reg, v: u32) {
        self.asm.li(r, v);
    }

    fn mov(&mut self, dst: Reg, src: Reg) {
        self.asm.normal(Func::Add, dst, Ri::Reg(src), Ri::Imm(0));
    }

    fn jmp(&mut self, label: &str) {
        self.asm.jmp(label, S1, S2);
    }

    fn call(&mut self, label: &str) {
        self.asm.call(label, S1, LINK);
    }

    fn ret(&mut self) {
        self.asm.instr(Instr::Jump { func: Func::Snd, w: S0, a: Ri::Reg(LINK) });
    }

    /// Loads an atom into `dst`; clobbers only `dst` and S2.
    fn load_atom(&mut self, dst: Reg, a: Atom) {
        match a {
            Atom::Var(v) => {
                let off = self.slot_off(v);
                self.li(S2, off);
                self.asm.normal(Func::Add, S2, Ri::Reg(SP), Ri::Reg(S2));
                self.asm.instr(Instr::LoadMem { w: dst, a: Ri::Reg(S2) });
            }
            Atom::Str(id) => self.asm.la(dst, format!("s{}", id.0)),
            other => self.li(dst, atom_imm(other).expect("immediate")),
        }
    }

    fn store_slot(&mut self, v: VarId, src: Reg) {
        let off = self.slot_off(v);
        self.li(S2, off);
        self.asm.normal(Func::Add, S2, Ri::Reg(SP), Ri::Reg(S2));
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(src), b: Ri::Reg(S2) });
    }

    fn slot_off(&mut self, v: VarId) -> u32 {
        let next = self.slots.len() as u32;
        4 + 4 * *self.slots.entry(v).or_insert(next)
    }

    /// Allocation of `size` bytes (header included, already 4-aligned);
    /// returns the block pointer in `ptr`. Goes through `rt_alloc`, which
    /// bump-allocates and — when the collector is enabled — performs a
    /// Cheney collection on exhaustion before giving up with OOM.
    fn alloc_const(&mut self, ptr: Reg, size: u32) {
        self.li(R9, size);
        self.call("rt_alloc");
        if ptr != R1 {
            self.mov(ptr, R1);
        }
    }

    /// Makes a block of `fields` atoms with the given tag; result in R1.
    /// Clobbers R3, R4, scratch.
    fn make_block(&mut self, tag_bits: u32, fields: &[Atom]) {
        self.alloc_const(R4, 4 + 4 * fields.len() as u32);
        self.li(S0, header(tag_bits, fields.len() as u32));
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(S0), b: Ri::Reg(R4) });
        for (i, f) in fields.iter().enumerate() {
            self.load_atom(R3, *f);
            self.li(S0, 4 + 4 * i as u32);
            self.asm.normal(Func::Add, S0, Ri::Reg(R4), Ri::Reg(S0));
            self.asm.instr(Instr::StoreMem { a: Ri::Reg(R3), b: Ri::Reg(S0) });
        }
        self.mov(R1, R4);
    }

    // ---- program scaffolding ----

    fn emit_start(&mut self, main: FunId) {
        self.asm.label("_start");
        self.li(SP, self.layout.stack_top);
        self.li(HP, self.layout.heap_base);
        let initial_limit =
            if self.cfg.gc { self.layout.heap_mid() } else { self.layout.heap_end };
        self.li(HL, initial_limit);
        self.li(ENV, 1);
        self.call(&fun_label(main));
        self.li(R1, 1); // exit code 0, tagged
        self.jmp("rt_exit");
    }

    fn collect_slots(e: &FExpr, out: &mut Vec<VarId>) {
        match e {
            FExpr::Ret(_) | FExpr::Crash(_) => {}
            FExpr::Let { dst, rhs, body } => {
                out.push(*dst);
                if let FRhs::Sub(s) = rhs {
                    Self::collect_slots(s, out);
                }
                Self::collect_slots(body, out);
            }
            FExpr::If { then_, else_, .. } => {
                Self::collect_slots(then_, out);
                Self::collect_slots(else_, out);
            }
        }
    }

    fn emit_fun(&mut self, id: FunId, f: &crate::clos::FlatFun) {
        // Assign slots: params, env, then every let destination.
        self.slots.clear();
        for p in &f.params {
            let n = self.slots.len() as u32;
            self.slots.insert(*p, n);
        }
        let n = self.slots.len() as u32;
        self.slots.insert(f.env_var, n);
        let mut dsts = Vec::new();
        Self::collect_slots(&f.body, &mut dsts);
        for d in dsts {
            let n = self.slots.len() as u32;
            self.slots.entry(d).or_insert(n);
        }
        self.frame_bytes = 4 + 4 * self.slots.len() as u32;

        self.asm.label(fun_label(id));
        // Prologue: stack check, push frame, save link/args/env.
        self.li(S0, self.frame_bytes);
        self.asm.normal(Func::Sub, S0, Ri::Reg(SP), Ri::Reg(S0));
        self.li(S1, self.layout.stack_floor);
        self.asm.branch_nonzero(Func::Lower, Ri::Reg(S0), Ri::Reg(S1), "rt_oom", S2);
        self.mov(SP, S0);
        if self.cfg.gc {
            // Zero the frame so the collector never scans stale words.
            let zl = self.fresh_label("zero");
            self.li(S0, 0);
            self.asm.normal(Func::Add, S1, Ri::Reg(SP), Ri::Imm(4));
            self.li(S2, self.frame_bytes);
            self.asm.normal(Func::Add, S2, Ri::Reg(SP), Ri::Reg(S2));
            self.asm.label(zl.clone());
            self.asm.branch_zero_sub(Ri::Reg(S1), Ri::Reg(S2), format!("{zl}_d"), R31);
            self.asm.instr(Instr::StoreMem { a: Ri::Reg(S0), b: Ri::Reg(S1) });
            self.asm.normal(Func::Add, S1, Ri::Reg(S1), Ri::Imm(4));
            self.asm.branch_zero(Func::Snd, Ri::Imm(0), Ri::Imm(0), zl.clone(), R31);
            self.asm.label(format!("{zl}_d"));
        }
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(LINK), b: Ri::Reg(SP) });
        let params = f.params.clone();
        for (i, p) in params.iter().enumerate() {
            self.store_slot(*p, Reg::new(1 + i as u8));
        }
        self.store_slot(f.env_var, ENV);

        self.gen_expr(&f.body, None);
    }

    /// Epilogue: restore the caller's link register and stack pointer.
    /// Clobbers S0 only.
    fn emit_epilogue_restore(&mut self) {
        self.asm.instr(Instr::LoadMem { w: LINK, a: Ri::Reg(SP) });
        self.li(S0, self.frame_bytes);
        self.asm.normal(Func::Add, SP, Ri::Reg(SP), Ri::Reg(S0));
    }

    /// Generates an expression. `end` is `None` in tail position
    /// (terminate by returning) or `Some(label)` for a nested
    /// computation that jumps to `label` with its value in R1.
    fn gen_expr(&mut self, e: &FExpr, end: Option<&str>) {
        match e {
            FExpr::Ret(a) => {
                self.load_atom(R1, *a);
                match end {
                    None => {
                        self.emit_epilogue_restore();
                        self.ret();
                    }
                    Some(l) => self.jmp(l),
                }
            }
            FExpr::Crash(c) => {
                self.li(R1, tag_imm(i64::from(*c)));
                self.jmp("rt_exit");
            }
            FExpr::If { cond, then_, else_ } => {
                let else_l = self.fresh_label("else");
                self.load_atom(R2, *cond);
                // false = 1, true = 3.
                self.asm.branch_nonzero_sub(Ri::Reg(R2), Ri::Imm(3), else_l.clone(), S0);
                self.gen_expr(then_, end);
                self.asm.label(else_l);
                self.gen_expr(else_, end);
            }
            FExpr::Let { dst, rhs, body } => {
                // Tail-call recognition.
                if self.cfg.tail_calls && end.is_none() {
                    if let FExpr::Ret(Atom::Var(v)) = **body {
                        if v == *dst {
                            match rhs {
                                FRhs::CallDirect { fun, args, env } => {
                                    let (fun, args, env) = (*fun, args.clone(), *env);
                                    self.gen_tail_call_direct(fun, &args, env);
                                    return;
                                }
                                FRhs::Apply { f, arg } => {
                                    let (f, arg) = (*f, *arg);
                                    self.gen_tail_apply(f, arg);
                                    return;
                                }
                                _ => {}
                            }
                        }
                    }
                }
                self.gen_rhs(rhs);
                self.store_slot(*dst, R1);
                self.gen_expr(body, end);
            }
        }
    }

    fn gen_tail_call_direct(&mut self, fun: FunId, args: &[Atom], env: Atom) {
        for (i, a) in args.iter().enumerate() {
            self.load_atom(Reg::new(1 + i as u8), *a);
        }
        self.load_atom(ENV, env);
        self.emit_epilogue_restore();
        self.jmp(&fun_label(fun));
    }

    fn gen_tail_apply(&mut self, f: Atom, arg: Atom) {
        self.load_atom(R2, f);
        self.load_atom(R1, arg);
        // env := f[1]; code := f[0].
        self.asm.normal(Func::Add, S0, Ri::Reg(R2), Ri::Imm(8));
        self.asm.instr(Instr::LoadMem { w: ENV, a: Ri::Reg(S0) });
        self.asm.normal(Func::Add, S0, Ri::Reg(R2), Ri::Imm(4));
        self.asm.instr(Instr::LoadMem { w: R2, a: Ri::Reg(S0) });
        self.emit_epilogue_restore();
        self.asm.instr(Instr::Jump { func: Func::Snd, w: S0, a: Ri::Reg(R2) });
    }

    fn gen_rhs(&mut self, rhs: &FRhs) {
        match rhs {
            FRhs::Atom(a) => self.load_atom(R1, *a),
            FRhs::Tuple(fields) => self.make_block(tag::TUPLE, fields),
            FRhs::Con { tag: t, arg } => match arg {
                None => self.li(R1, tag_imm(i64::from(*t))),
                Some(a) => {
                    assert!(*t <= tag::MAX_CON, "constructor tag overflow");
                    self.make_block(*t, std::slice::from_ref(a));
                }
            },
            FRhs::Proj { index, of } => {
                self.load_atom(R2, *of);
                self.li(S0, 4 + 4 * *index as u32);
                self.asm.normal(Func::Add, S0, Ri::Reg(R2), Ri::Reg(S0));
                self.asm.instr(Instr::LoadMem { w: R1, a: Ri::Reg(S0) });
            }
            FRhs::TagOf(a) => {
                self.load_atom(R2, *a);
                let imm_l = self.fresh_label("tag_imm");
                let end_l = self.fresh_label("tag_end");
                self.asm.normal(Func::And, R3, Ri::Reg(R2), Ri::Imm(1));
                self.asm.branch_nonzero(Func::Snd, Ri::Imm(0), Ri::Reg(R3), imm_l.clone(), S0);
                // Block: tagged tag = ((hdr >> 1) & 0x7E) | 1.
                self.asm.instr(Instr::LoadMem { w: R1, a: Ri::Reg(R2) });
                self.asm.shift(Shift::Lr, R1, Ri::Reg(R1), Ri::Imm(1));
                self.li(R3, 0x7E);
                self.asm.normal(Func::And, R1, Ri::Reg(R1), Ri::Reg(R3));
                self.asm.normal(Func::Or, R1, Ri::Reg(R1), Ri::Imm(1));
                self.jmp(&end_l);
                self.asm.label(imm_l);
                self.mov(R1, R2);
                self.asm.label(end_l);
            }
            FRhs::MakeClosure { fun, env } => {
                self.alloc_const(R4, 12);
                self.li(S0, header(tag::CLOSURE, 2));
                self.asm.instr(Instr::StoreMem { a: Ri::Reg(S0), b: Ri::Reg(R4) });
                self.asm.la(R3, fun_label(*fun));
                self.asm.normal(Func::Add, S0, Ri::Reg(R4), Ri::Imm(4));
                self.asm.instr(Instr::StoreMem { a: Ri::Reg(R3), b: Ri::Reg(S0) });
                self.load_atom(R3, *env);
                self.asm.normal(Func::Add, S0, Ri::Reg(R4), Ri::Imm(8));
                self.asm.instr(Instr::StoreMem { a: Ri::Reg(R3), b: Ri::Reg(S0) });
                self.mov(R1, R4);
            }
            FRhs::Apply { f, arg } => {
                self.load_atom(R2, *f);
                self.load_atom(R1, *arg);
                self.asm.normal(Func::Add, S0, Ri::Reg(R2), Ri::Imm(8));
                self.asm.instr(Instr::LoadMem { w: ENV, a: Ri::Reg(S0) });
                self.asm.normal(Func::Add, S0, Ri::Reg(R2), Ri::Imm(4));
                self.asm.instr(Instr::LoadMem { w: R2, a: Ri::Reg(S0) });
                self.asm.instr(Instr::Jump { func: Func::Snd, w: LINK, a: Ri::Reg(R2) });
            }
            FRhs::CallDirect { fun, args, env } => {
                for (i, a) in args.iter().enumerate() {
                    self.load_atom(Reg::new(1 + i as u8), *a);
                }
                self.load_atom(ENV, *env);
                self.call(&fun_label(*fun));
            }
            FRhs::Sub(sub) => {
                let end = self.fresh_label("sub");
                self.gen_expr(sub, Some(&end));
                self.asm.label(end);
            }
            FRhs::Prim(p, args) => self.gen_prim(p, args),
        }
    }

    fn retag_bool(&mut self) {
        // R1 in {0,1} → {1,3}.
        self.asm.shift(Shift::Ll, R1, Ri::Reg(R1), Ri::Imm(1));
        self.asm.normal(Func::Or, R1, Ri::Reg(R1), Ri::Imm(1));
    }

    fn untag(&mut self, r: Reg) {
        self.asm.shift(Shift::Ar, r, Ri::Reg(r), Ri::Imm(1));
    }

    fn load2(&mut self, args: &[Atom]) {
        self.load_atom(R2, args[0]);
        self.load_atom(R3, args[1]);
    }

    /// Loads the byte length of a string/bytes block at `block` into `len`.
    fn load_len(&mut self, len: Reg, block: Reg) {
        self.asm.instr(Instr::LoadMem { w: len, a: Ri::Reg(block) });
        self.asm.shift(Shift::Lr, len, Ri::Reg(len), Ri::Imm(8));
    }

    #[allow(clippy::too_many_lines)]
    fn gen_prim(&mut self, p: &Prim, args: &[Atom]) {
        match p {
            Prim::Add => {
                self.load2(args);
                self.asm.normal(Func::Add, R1, Ri::Reg(R2), Ri::Reg(R3));
                self.asm.normal(Func::Dec, R1, Ri::Imm(0), Ri::Reg(R1));
            }
            Prim::Sub => {
                self.load2(args);
                self.asm.normal(Func::Sub, R1, Ri::Reg(R2), Ri::Reg(R3));
                self.asm.normal(Func::Inc, R1, Ri::Imm(0), Ri::Reg(R1));
            }
            Prim::Mul => {
                self.load2(args);
                self.untag(R2);
                self.untag(R3);
                self.asm.normal(Func::Mul, R1, Ri::Reg(R2), Ri::Reg(R3));
                self.asm.shift(Shift::Ll, R1, Ri::Reg(R1), Ri::Imm(1));
                self.asm.normal(Func::Or, R1, Ri::Reg(R1), Ri::Imm(1));
            }
            Prim::Div | Prim::Mod => {
                self.load_atom(R1, args[0]);
                self.load_atom(R2, args[1]);
                self.untag(R1);
                self.untag(R2);
                self.call(if matches!(p, Prim::Div) { "rt_div" } else { "rt_mod" });
                self.asm.shift(Shift::Ll, R1, Ri::Reg(R1), Ri::Imm(1));
                self.asm.normal(Func::Or, R1, Ri::Reg(R1), Ri::Imm(1));
            }
            Prim::Lt => {
                self.load2(args);
                self.asm.normal(Func::Less, R1, Ri::Reg(R2), Ri::Reg(R3));
                self.retag_bool();
            }
            Prim::Gt => {
                self.load2(args);
                self.asm.normal(Func::Less, R1, Ri::Reg(R3), Ri::Reg(R2));
                self.retag_bool();
            }
            Prim::Le => {
                self.load2(args);
                self.asm.normal(Func::Less, R1, Ri::Reg(R3), Ri::Reg(R2));
                self.asm.normal(Func::Xor, R1, Ri::Reg(R1), Ri::Imm(1));
                self.retag_bool();
            }
            Prim::Ge => {
                self.load2(args);
                self.asm.normal(Func::Less, R1, Ri::Reg(R2), Ri::Reg(R3));
                self.asm.normal(Func::Xor, R1, Ri::Reg(R1), Ri::Imm(1));
                self.retag_bool();
            }
            Prim::Eq => {
                self.load2(args);
                self.asm.normal(Func::Equal, R1, Ri::Reg(R2), Ri::Reg(R3));
                self.retag_bool();
            }
            Prim::EqStr => {
                self.load_atom(R1, args[0]);
                self.load_atom(R2, args[1]);
                self.call("rt_streq");
                self.retag_bool();
            }
            Prim::Ne => unreachable!("removed by elaboration"),
            Prim::Not => {
                self.load_atom(R1, args[0]);
                self.asm.normal(Func::Xor, R1, Ri::Reg(R1), Ri::Imm(2));
            }
            Prim::Concat => {
                self.load_atom(R1, args[0]);
                self.load_atom(R2, args[1]);
                self.call("rt_concat");
            }
            Prim::StrSize | Prim::BytesLen => {
                self.load_atom(R2, args[0]);
                self.load_len(R1, R2);
                self.retag_bool(); // same transformation: (n << 1) | 1
            }
            Prim::StrSub | Prim::BytesGet => {
                self.load2(args);
                self.untag(R3);
                self.load_len(R1, R2);
                // index >= len (unsigned, catches negatives) → subscript.
                self.asm.branch_zero(
                    Func::Lower,
                    Ri::Reg(R3),
                    Ri::Reg(R1),
                    "rt_subscript",
                    S0,
                );
                self.asm.normal(Func::Add, R3, Ri::Reg(R3), Ri::Imm(4));
                self.asm.normal(Func::Add, R3, Ri::Reg(R3), Ri::Reg(R2));
                self.asm.instr(Instr::LoadMemByte { w: R1, a: Ri::Reg(R3) });
                self.retag_bool();
            }
            Prim::BytesSet => {
                self.load_atom(R2, args[0]);
                self.load_atom(R3, args[1]);
                self.load_atom(R4, args[2]);
                self.untag(R3);
                self.untag(R4);
                self.load_len(R1, R2);
                self.asm.branch_zero(
                    Func::Lower,
                    Ri::Reg(R3),
                    Ri::Reg(R1),
                    "rt_subscript",
                    S0,
                );
                self.asm.normal(Func::Add, R3, Ri::Reg(R3), Ri::Imm(4));
                self.asm.normal(Func::Add, R3, Ri::Reg(R3), Ri::Reg(R2));
                self.asm.instr(Instr::StoreMemByte { a: Ri::Reg(R4), b: Ri::Reg(R3) });
                self.li(R1, 1);
            }
            Prim::Ord => self.load_atom(R1, args[0]),
            Prim::Chr => {
                self.load_atom(R1, args[0]);
                self.mov(R3, R1);
                self.untag(R3);
                self.li(R4, 256);
                self.asm.branch_zero(
                    Func::Lower,
                    Ri::Reg(R3),
                    Ri::Reg(R4),
                    "rt_subscript",
                    S0,
                );
            }
            Prim::BytesNew => {
                self.load_atom(R1, args[0]);
                self.load_atom(R2, args[1]);
                self.untag(R1);
                self.untag(R2);
                self.call("rt_bytes_new");
            }
            Prim::BytesToStr | Prim::StrSubstr => {
                self.load_atom(R1, args[0]);
                self.load_atom(R2, args[1]);
                self.load_atom(R3, args[2]);
                self.untag(R2);
                self.untag(R3);
                self.call("rt_substring");
            }
            Prim::StrToBytes => {
                self.load_atom(R1, args[0]);
                self.load_atom(R2, args[1]);
                self.load_atom(R3, args[2]);
                self.untag(R3);
                self.call("rt_copystr");
                self.li(R1, 1);
            }
            Prim::RefNew => self.make_block(tag::REF, std::slice::from_ref(&args[0])),
            Prim::RefGet => {
                self.load_atom(R2, args[0]);
                self.asm.normal(Func::Add, R2, Ri::Reg(R2), Ri::Imm(4));
                self.asm.instr(Instr::LoadMem { w: R1, a: Ri::Reg(R2) });
            }
            Prim::RefSet => {
                self.load2(args);
                self.asm.normal(Func::Add, R2, Ri::Reg(R2), Ri::Imm(4));
                self.asm.instr(Instr::StoreMem { a: Ri::Reg(R3), b: Ri::Reg(R2) });
                self.li(R1, 1);
            }
            Prim::Ffi(name) => {
                let idx = self
                    .ffi_names
                    .iter()
                    .position(|n| n == name)
                    .expect("ffi name collected during lowering") as u32;
                self.load_atom(R1, args[0]);
                self.load_atom(R3, args[1]);
                self.load_len(R2, R1);
                self.asm.normal(Func::Add, R1, Ri::Reg(R1), Ri::Imm(4));
                self.load_len(R4, R3);
                self.asm.normal(Func::Add, R3, Ri::Reg(R3), Ri::Imm(4));
                self.li(S1, self.layout.ffi_entry_addr(idx));
                self.asm.instr(Instr::LoadMem { w: S1, a: Ri::Reg(S1) });
                self.asm.instr(Instr::Jump { func: Func::Snd, w: LINK, a: Ri::Reg(S1) });
                self.li(R1, 1);
            }
            Prim::Exit => {
                self.load_atom(R1, args[0]);
                self.jmp("rt_exit");
            }
        }
    }

    // ---- the runtime ----

    fn emit_runtime(&mut self) {
        self.emit_rt_exit();
        self.emit_rt_alloc();
        if self.cfg.gc {
            self.emit_rt_gc();
        }
        self.emit_rt_divmod();
        self.emit_rt_streq();
        self.emit_rt_concat();
        self.emit_rt_bytes_new();
        self.emit_rt_substring();
        self.emit_rt_copystr();
    }

    fn emit_rt_exit(&mut self) {
        // r1 = tagged exit code; never returns.
        self.asm.label("rt_exit");
        self.untag(R1);
        self.li(R2, 0xFF);
        self.asm.normal(Func::And, R1, Ri::Reg(R1), Ri::Reg(R2));
        self.li(R2, self.layout.exit_code_addr);
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(R1), b: Ri::Reg(R2) });
        // Jump to the halt self-loop in the startup region.
        self.li(R2, self.layout.halt_addr);
        self.asm.instr(Instr::Jump { func: Func::Snd, w: S0, a: Ri::Reg(R2) });

        self.asm.label("rt_oom");
        self.li(R1, tag_imm(i64::from(EXIT_OOM)));
        self.jmp("rt_exit");

        self.asm.label("rt_subscript");
        self.li(R1, tag_imm(i64::from(EXIT_SUBSCRIPT)));
        self.jmp("rt_exit");

        self.asm.label("rt_div_zero");
        self.li(R1, tag_imm(i64::from(EXIT_DIV)));
        self.jmp("rt_exit");
    }

    /// Emits the signed-division body (shift-subtract long division).
    /// Inputs r1 = A, r2 = B (untagged); outputs r1 = quotient,
    /// r2 = remainder, truncating semantics. Clobbers r7-r12, scratch.
    fn emit_divmod_body(&mut self, p: &str) {
        self.asm.branch_zero(Func::Snd, Ri::Imm(0), Ri::Reg(R2), "rt_div_zero", S0);
        self.asm.normal(Func::Less, R7, Ri::Reg(R1), Ri::Imm(0));
        self.asm.normal(Func::Less, R8, Ri::Reg(R2), Ri::Imm(0));
        self.asm.branch_zero(Func::Snd, Ri::Imm(0), Ri::Reg(R7), format!("{p}_apos"), S0);
        self.asm.normal(Func::Sub, R1, Ri::Imm(0), Ri::Reg(R1));
        self.asm.label(format!("{p}_apos"));
        self.asm.branch_zero(Func::Snd, Ri::Imm(0), Ri::Reg(R8), format!("{p}_bpos"), S0);
        self.asm.normal(Func::Sub, R2, Ri::Imm(0), Ri::Reg(R2));
        self.asm.label(format!("{p}_bpos"));
        self.li(R9, 0); // quotient
        self.li(R10, 0); // remainder
        self.li(R11, 32); // counter
        self.asm.label(format!("{p}_loop"));
        self.asm.shift(Shift::Ll, R10, Ri::Reg(R10), Ri::Imm(1));
        self.asm.shift(Shift::Lr, R12, Ri::Reg(R1), Ri::Imm(31));
        self.asm.normal(Func::Or, R10, Ri::Reg(R10), Ri::Reg(R12));
        self.asm.shift(Shift::Ll, R1, Ri::Reg(R1), Ri::Imm(1));
        self.asm.shift(Shift::Ll, R9, Ri::Reg(R9), Ri::Imm(1));
        self.asm.branch_nonzero(
            Func::Lower,
            Ri::Reg(R10),
            Ri::Reg(R2),
            format!("{p}_skip"),
            S0,
        );
        self.asm.normal(Func::Sub, R10, Ri::Reg(R10), Ri::Reg(R2));
        self.asm.normal(Func::Or, R9, Ri::Reg(R9), Ri::Imm(1));
        self.asm.label(format!("{p}_skip"));
        self.asm.normal(Func::Dec, R11, Ri::Imm(0), Ri::Reg(R11));
        self.asm.branch_nonzero_sub(Ri::Reg(R11), Ri::Imm(0), format!("{p}_loop"), S0);
        self.asm.normal(Func::Xor, R12, Ri::Reg(R7), Ri::Reg(R8));
        self.asm.branch_zero(Func::Snd, Ri::Imm(0), Ri::Reg(R12), format!("{p}_qpos"), S0);
        self.asm.normal(Func::Sub, R9, Ri::Imm(0), Ri::Reg(R9));
        self.asm.label(format!("{p}_qpos"));
        self.asm.branch_zero(Func::Snd, Ri::Imm(0), Ri::Reg(R7), format!("{p}_rpos"), S0);
        self.asm.normal(Func::Sub, R10, Ri::Imm(0), Ri::Reg(R10));
        self.asm.label(format!("{p}_rpos"));
        self.mov(R1, R9);
        self.mov(R2, R10);
    }

    fn emit_rt_divmod(&mut self) {
        self.asm.label("rt_div");
        self.emit_divmod_body("dv");
        self.ret();
        self.asm.label("rt_mod");
        self.emit_divmod_body("md");
        self.mov(R1, R2);
        self.ret();
    }

    fn emit_rt_streq(&mut self) {
        // r1, r2 = string blocks → r1 ∈ {0, 1}.
        self.asm.label("rt_streq");
        self.load_len(R7, R1);
        self.load_len(R8, R2);
        self.asm.branch_nonzero_sub(Ri::Reg(R7), Ri::Reg(R8), "se_ne", S0);
        self.li(R9, 0);
        self.asm.normal(Func::Add, R10, Ri::Reg(R1), Ri::Imm(4));
        self.asm.normal(Func::Add, R11, Ri::Reg(R2), Ri::Imm(4));
        self.asm.label("se_loop");
        self.asm.branch_zero_sub(Ri::Reg(R9), Ri::Reg(R7), "se_eq", S0);
        self.asm.normal(Func::Add, R8, Ri::Reg(R10), Ri::Reg(R9));
        self.asm.instr(Instr::LoadMemByte { w: R8, a: Ri::Reg(R8) });
        self.asm.normal(Func::Add, R12, Ri::Reg(R11), Ri::Reg(R9));
        self.asm.instr(Instr::LoadMemByte { w: R12, a: Ri::Reg(R12) });
        self.asm.branch_nonzero_sub(Ri::Reg(R8), Ri::Reg(R12), "se_ne", S0);
        self.asm.normal(Func::Inc, R9, Ri::Imm(0), Ri::Reg(R9));
        self.jmp("se_loop");
        self.asm.label("se_eq");
        self.li(R1, 1);
        self.ret();
        self.asm.label("se_ne");
        self.li(R1, 0);
        self.ret();
    }

    /// Allocates a byte block: length in `len_reg`, tag constant; returns
    /// pointer in `ptr`; writes the header. Goes through `rt_alloc` (so a
    /// collection may run): the caller must have spilled any live heap
    /// pointers to the GC root words first, and `len_reg` must be one of
    /// the preserved registers (r2-r8, r10-r12).
    fn emit_alloc_bytes(&mut self, ptr: Reg, len_reg: Reg, tag_bits: u32) {
        debug_assert!(len_reg != R1 && len_reg != R9 && ptr != R9);
        // size = 4 + round4(len) = (len + 7) & ~3.
        self.asm.normal(Func::Add, R9, Ri::Reg(len_reg), Ri::Imm(7));
        self.li(S1, 0xFFFF_FFFC);
        self.asm.normal(Func::And, R9, Ri::Reg(R9), Ri::Reg(S1));
        self.rt_save_link();
        self.call("rt_alloc");
        self.rt_restore_link();
        if ptr != R1 {
            self.mov(ptr, R1);
        }
        // header = (len << 8) | (tag << 2) | 2.
        self.asm.shift(Shift::Ll, S0, Ri::Reg(len_reg), Ri::Imm(8));
        self.li(S1, (tag_bits << 2) | 2);
        self.asm.normal(Func::Or, S0, Ri::Reg(S0), Ri::Reg(S1));
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(S0), b: Ri::Reg(ptr) });
    }

    /// The allocator: `r9` = size in bytes (4-aligned, header included);
    /// returns the block pointer in `r1`. Preserves r2-r8 and r10-r12.
    /// On exhaustion: with the collector enabled, runs a Cheney
    /// collection and retries; otherwise (or if the retry fails) exits
    /// with the out-of-memory code.
    fn emit_rt_alloc(&mut self) {
        self.asm.label("rt_alloc");
        self.asm.normal(Func::Add, R13, Ri::Reg(HP), Ri::Reg(R9));
        self.asm.branch_zero(Func::Lower, Ri::Reg(HL), Ri::Reg(R13), "ra_fit", S0);
        if self.cfg.gc {
            self.asm.call("rt_gc", S1, GC_LINK);
            self.asm.normal(Func::Add, R13, Ri::Reg(HP), Ri::Reg(R9));
            self.asm.branch_zero(Func::Lower, Ri::Reg(HL), Ri::Reg(R13), "ra_fit", S0);
        }
        self.jmp("rt_oom");
        self.asm.label("ra_fit");
        self.mov(R1, HP);
        self.mov(HP, R13);
        self.ret();
    }

    /// The two-space Cheney collector. Roots: every word of the active
    /// stack `[SP, stack_top)` plus the GC root words; values are
    /// identified exactly (immediates have their low bit set, heap
    /// pointers are 4-aligned addresses inside the live from-space;
    /// return addresses and code/static-string pointers fall outside the
    /// from-space range and are left untouched). Forwarding pointers
    /// overwrite block headers and are distinguished by header bit 1.
    /// Uses r13-r31 only, so the allocator's callers keep their state.
    fn emit_rt_gc(&mut self) {
        let mid = self.layout.heap_mid();
        self.asm.label("rt_gc");
        // Which semispace is live? HL == mid means space 0.
        self.li(R19, mid);
        self.asm.branch_nonzero_sub(Ri::Reg(HL), Ri::Reg(R19), "gc_s1", S0);
        self.li(R13, mid); // to_base
        self.li(R28, self.layout.heap_end); // to_end
        self.li(R16, self.layout.heap_base); // from_lo
        self.jmp("gc_init");
        self.asm.label("gc_s1");
        self.li(R13, self.layout.heap_base);
        self.li(R28, mid);
        self.li(R16, mid);
        self.asm.label("gc_init");
        self.mov(R17, HP); // live end of from-space
        self.mov(R14, R13); // free
        self.mov(R15, R13); // scan
        // Roots: the active stack.
        self.mov(R26, SP);
        self.li(R27, self.layout.stack_top);
        self.asm.label("gc_rl1");
        self.asm.branch_zero_sub(Ri::Reg(R26), Ri::Reg(R27), "gc_r2", S0);
        self.mov(R18, R26);
        self.asm.call("rt_fwd", S1, R30);
        self.asm.normal(Func::Add, R26, Ri::Reg(R26), Ri::Imm(4));
        self.jmp("gc_rl1");
        self.asm.label("gc_r2");
        // Roots: the runtime's spill words.
        self.li(R26, self.layout.gc_roots_addr());
        self.li(R27, self.layout.gc_roots_addr() + 4 * TargetLayout::GC_ROOT_WORDS);
        self.asm.label("gc_rl2");
        self.asm.branch_zero_sub(Ri::Reg(R26), Ri::Reg(R27), "gc_scan", S0);
        self.mov(R18, R26);
        self.asm.call("rt_fwd", S1, R30);
        self.asm.normal(Func::Add, R26, Ri::Reg(R26), Ri::Imm(4));
        self.jmp("gc_rl2");
        // Cheney scan of the to-space.
        self.asm.label("gc_scan");
        self.asm.branch_zero_sub(Ri::Reg(R15), Ri::Reg(R14), "gc_done", S0);
        self.asm.instr(Instr::LoadMem { w: R19, a: Ri::Reg(R15) });
        self.asm.shift(Shift::Lr, R27, Ri::Reg(R19), Ri::Imm(8)); // len
        self.asm.shift(Shift::Lr, R19, Ri::Reg(R19), Ri::Imm(2));
        self.li(R26, 0x3F);
        self.asm.normal(Func::And, R19, Ri::Reg(R19), Ri::Reg(R26)); // tag
        self.li(R26, tag::STR);
        self.asm.branch_zero_sub(Ri::Reg(R19), Ri::Reg(R26), "gc_bytes", S0);
        self.li(R26, tag::BYTES);
        self.asm.branch_zero_sub(Ri::Reg(R19), Ri::Reg(R26), "gc_bytes", S0);
        // A pointer block: forward each field.
        self.asm.normal(Func::Add, R18, Ri::Reg(R15), Ri::Imm(4));
        self.asm.shift(Shift::Ll, R27, Ri::Reg(R27), Ri::Imm(2));
        self.asm.normal(Func::Add, R26, Ri::Reg(R18), Ri::Reg(R27));
        self.asm.label("gc_fl");
        self.asm.branch_zero_sub(Ri::Reg(R18), Ri::Reg(R26), "gc_fln", S0);
        self.asm.call("rt_fwd", S1, R30);
        self.asm.normal(Func::Add, R18, Ri::Reg(R18), Ri::Imm(4));
        self.jmp("gc_fl");
        self.asm.label("gc_fln");
        self.mov(R15, R26);
        self.jmp("gc_scan");
        self.asm.label("gc_bytes");
        self.asm.normal(Func::Add, R27, Ri::Reg(R27), Ri::Imm(3));
        self.li(R26, 0xFFFF_FFFC);
        self.asm.normal(Func::And, R27, Ri::Reg(R27), Ri::Reg(R26));
        self.asm.normal(Func::Add, R15, Ri::Reg(R15), Ri::Imm(4));
        self.asm.normal(Func::Add, R15, Ri::Reg(R15), Ri::Reg(R27));
        self.jmp("gc_scan");
        self.asm.label("gc_done");
        self.mov(HP, R14);
        self.mov(HL, R28);
        self.asm.instr(Instr::Jump { func: Func::Snd, w: S0, a: Ri::Reg(GC_LINK) });

        // rt_fwd: forwards the value stored at address r18. Uses r19-r25;
        // preserves the collector's state registers. Link in r30.
        self.asm.label("rt_fwd");
        self.asm.instr(Instr::LoadMem { w: R19, a: Ri::Reg(R18) });
        self.asm.normal(Func::And, R20, Ri::Reg(R19), Ri::Imm(3));
        self.asm.branch_nonzero(Func::Snd, Ri::Imm(0), Ri::Reg(R20), "fwd_ret", S0);
        self.asm.branch_nonzero(Func::Lower, Ri::Reg(R19), Ri::Reg(R16), "fwd_ret", S0);
        self.asm.branch_zero(Func::Lower, Ri::Reg(R19), Ri::Reg(R17), "fwd_ret", S0);
        self.asm.instr(Instr::LoadMem { w: R20, a: Ri::Reg(R19) });
        self.asm.normal(Func::And, R21, Ri::Reg(R20), Ri::Imm(2));
        self.asm.branch_nonzero(Func::Snd, Ri::Imm(0), Ri::Reg(R21), "fwd_copy", S0);
        // Already forwarded: the header word is the new address.
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(R20), b: Ri::Reg(R18) });
        self.jmp("fwd_ret");
        self.asm.label("fwd_copy");
        self.asm.shift(Shift::Lr, R21, Ri::Reg(R20), Ri::Imm(8)); // len
        self.asm.shift(Shift::Lr, R22, Ri::Reg(R20), Ri::Imm(2));
        self.li(R23, 0x3F);
        self.asm.normal(Func::And, R22, Ri::Reg(R22), Ri::Reg(R23)); // tag
        self.li(R23, tag::STR);
        self.asm.branch_zero_sub(Ri::Reg(R22), Ri::Reg(R23), "fwd_b", S0);
        self.li(R23, tag::BYTES);
        self.asm.branch_zero_sub(Ri::Reg(R22), Ri::Reg(R23), "fwd_b", S0);
        self.asm.shift(Shift::Ll, R21, Ri::Reg(R21), Ri::Imm(2)); // words → bytes
        self.jmp("fwd_sz");
        self.asm.label("fwd_b");
        self.asm.normal(Func::Add, R21, Ri::Reg(R21), Ri::Imm(3));
        self.li(R23, 0xFFFF_FFFC);
        self.asm.normal(Func::And, R21, Ri::Reg(R21), Ri::Reg(R23));
        self.asm.label("fwd_sz");
        self.asm.normal(Func::Add, R21, Ri::Reg(R21), Ri::Imm(4)); // + header
        // Word-copy the block to the free pointer.
        self.mov(R22, R19);
        self.mov(R23, R14);
        self.asm.normal(Func::Add, R24, Ri::Reg(R19), Ri::Reg(R21));
        self.asm.label("fwd_cp");
        self.asm.branch_zero_sub(Ri::Reg(R22), Ri::Reg(R24), "fwd_cpd", S0);
        self.asm.instr(Instr::LoadMem { w: R25, a: Ri::Reg(R22) });
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(R25), b: Ri::Reg(R23) });
        self.asm.normal(Func::Add, R22, Ri::Reg(R22), Ri::Imm(4));
        self.asm.normal(Func::Add, R23, Ri::Reg(R23), Ri::Imm(4));
        self.jmp("fwd_cp");
        self.asm.label("fwd_cpd");
        // Install the forwarding pointer and update the slot.
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(R14), b: Ri::Reg(R19) });
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(R14), b: Ri::Reg(R18) });
        self.asm.normal(Func::Add, R14, Ri::Reg(R14), Ri::Reg(R21));
        self.asm.label("fwd_ret");
        self.asm.instr(Instr::Jump { func: Func::Snd, w: R29, a: Ri::Reg(R30) });
    }

    /// Emits a byte-copy loop: bytes from `src` until `end` go to `dst`
    /// (`src`/`dst` are advanced; `R31` is the byte temporary).
    fn emit_copy_loop(&mut self, label: &str, src: Reg, dst: Reg, end: Reg) {
        self.asm.label(label.to_string());
        self.asm.branch_zero_sub(Ri::Reg(src), Ri::Reg(end), format!("{label}_done"), S0);
        self.asm.instr(Instr::LoadMemByte { w: R31, a: Ri::Reg(src) });
        self.asm.instr(Instr::StoreMemByte { a: Ri::Reg(R31), b: Ri::Reg(dst) });
        self.asm.normal(Func::Inc, src, Ri::Imm(0), Ri::Reg(src));
        self.asm.normal(Func::Inc, dst, Ri::Imm(0), Ri::Reg(dst));
        self.jmp(label);
        self.asm.label(format!("{label}_done"));
    }

    /// Saves/restores the link register around runtime-internal calls
    /// (the runtime has no stack frames of its own).
    fn rt_save_link(&mut self) {
        self.li(S1, self.layout.rt_link_save_addr());
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(LINK), b: Ri::Reg(S1) });
    }

    fn rt_restore_link(&mut self) {
        self.li(S1, self.layout.rt_link_save_addr());
        self.asm.instr(Instr::LoadMem { w: LINK, a: Ri::Reg(S1) });
    }

    /// Spills a heap-pointer register to a GC root word, so a collection
    /// triggered by the next allocation can relocate it.
    fn spill_root(&mut self, slot: u32, r: Reg) {
        self.li(S1, self.layout.gc_roots_addr() + 4 * slot);
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(r), b: Ri::Reg(S1) });
    }

    fn reload_root(&mut self, slot: u32, r: Reg) {
        self.li(S1, self.layout.gc_roots_addr() + 4 * slot);
        self.asm.instr(Instr::LoadMem { w: r, a: Ri::Reg(S1) });
    }

    fn clear_root(&mut self, slot: u32) {
        self.li(S0, 0);
        self.li(S1, self.layout.gc_roots_addr() + 4 * slot);
        self.asm.instr(Instr::StoreMem { a: Ri::Reg(S0), b: Ri::Reg(S1) });
    }

    fn emit_rt_concat(&mut self) {
        // r1, r2 = strings → r1 = new string. The operands are heap
        // pointers, so they are spilled to GC roots around the
        // allocation (a collection may move them).
        self.asm.label("rt_concat");
        self.spill_root(0, R1);
        self.spill_root(1, R2);
        self.load_len(R7, R1);
        self.load_len(R8, R2);
        self.asm.normal(Func::Add, R10, Ri::Reg(R7), Ri::Reg(R8));
        self.emit_alloc_bytes(R11, R10, tag::STR);
        self.reload_root(0, R1);
        self.reload_root(1, R2);
        self.clear_root(0);
        self.clear_root(1);
        // Copy s1 then s2.
        self.asm.normal(Func::Add, R10, Ri::Reg(R1), Ri::Imm(4));
        self.asm.normal(Func::Add, R9, Ri::Reg(R10), Ri::Reg(R7));
        self.asm.normal(Func::Add, R12, Ri::Reg(R11), Ri::Imm(4));
        self.emit_copy_loop("cc1", R10, R12, R9);
        self.asm.normal(Func::Add, R10, Ri::Reg(R2), Ri::Imm(4));
        self.asm.normal(Func::Add, R9, Ri::Reg(R10), Ri::Reg(R8));
        self.emit_copy_loop("cc2", R10, R12, R9);
        self.mov(R1, R11);
        self.ret();
    }

    fn emit_rt_bytes_new(&mut self) {
        // r1 = n (untagged), r2 = fill byte → r1 = byte array.
        self.asm.label("rt_bytes_new");
        self.li(R7, 1 << 24);
        self.asm.branch_zero(Func::Lower, Ri::Reg(R1), Ri::Reg(R7), "rt_subscript", S0);
        self.mov(R8, R1);
        self.emit_alloc_bytes(R10, R8, tag::BYTES);
        self.asm.normal(Func::Add, R11, Ri::Reg(R10), Ri::Imm(4));
        self.asm.normal(Func::Add, R12, Ri::Reg(R11), Ri::Reg(R8));
        self.asm.label("bn_loop");
        self.asm.branch_zero_sub(Ri::Reg(R11), Ri::Reg(R12), "bn_done", S0);
        self.asm.instr(Instr::StoreMemByte { a: Ri::Reg(R2), b: Ri::Reg(R11) });
        self.asm.normal(Func::Inc, R11, Ri::Imm(0), Ri::Reg(R11));
        self.jmp("bn_loop");
        self.asm.label("bn_done");
        self.mov(R1, R10);
        self.ret();
    }

    fn emit_rt_substring(&mut self) {
        // r1 = str/bytes block, r2 = off, r3 = len → r1 = new string.
        self.asm.label("rt_substring");
        self.spill_root(0, R1);
        self.load_len(R7, R1);
        self.asm.normal(Func::Add, R8, Ri::Reg(R2), Ri::Reg(R3));
        self.asm.branch_nonzero(Func::Lower, Ri::Reg(R8), Ri::Reg(R2), "rt_subscript", S0);
        self.asm.branch_nonzero(Func::Lower, Ri::Reg(R7), Ri::Reg(R8), "rt_subscript", S0);
        self.emit_alloc_bytes(R10, R3, tag::STR);
        self.reload_root(0, R1);
        self.clear_root(0);
        self.asm.normal(Func::Add, R11, Ri::Reg(R1), Ri::Imm(4));
        self.asm.normal(Func::Add, R11, Ri::Reg(R11), Ri::Reg(R2));
        self.asm.normal(Func::Add, R12, Ri::Reg(R11), Ri::Reg(R3));
        self.asm.normal(Func::Add, R8, Ri::Reg(R10), Ri::Imm(4));
        self.emit_copy_loop("ss", R11, R8, R12);
        self.mov(R1, R10);
        self.ret();
    }

    fn emit_rt_copystr(&mut self) {
        // r1 = string, r2 = byte array, r3 = off (untagged).
        self.asm.label("rt_copystr");
        self.load_len(R7, R1);
        self.load_len(R8, R2);
        self.asm.normal(Func::Add, R9, Ri::Reg(R3), Ri::Reg(R7));
        self.asm.branch_nonzero(Func::Lower, Ri::Reg(R9), Ri::Reg(R3), "rt_subscript", S0);
        self.asm.branch_nonzero(Func::Lower, Ri::Reg(R8), Ri::Reg(R9), "rt_subscript", S0);
        self.asm.normal(Func::Add, R10, Ri::Reg(R1), Ri::Imm(4));
        self.asm.normal(Func::Add, R11, Ri::Reg(R10), Ri::Reg(R7));
        self.asm.normal(Func::Add, R12, Ri::Reg(R2), Ri::Imm(4));
        self.asm.normal(Func::Add, R12, Ri::Reg(R12), Ri::Reg(R3));
        self.mov(R8, R12);
        self.emit_copy_loop("cs", R10, R8, R11);
        self.li(R1, 1);
        self.ret();
    }

    fn emit_strings(&mut self, strings: &[String]) {
        for (i, s) in strings.iter().enumerate() {
            self.asm.align(4);
            self.asm.label(format!("s{i}"));
            self.asm.word(header(tag::STR, s.len() as u32));
            self.asm.bytes(s.as_bytes().to_vec());
        }
        self.asm.align(4);
    }
}
