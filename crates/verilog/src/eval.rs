//! Operational cycle semantics (`verilog_sem` in the paper).
//!
//! A clock cycle executes every process in declaration order against the
//! current state. Blocking assignments (`=`) update the state
//! immediately; non-blocking assignments (`<=`) are saved in a queue
//! during cycle execution, and "the contents of this queue is merged into
//! the program state at the end of every clock cycle" (§3). Inputs are
//! driven by an [`Env`] before each edge, mirroring the paper's `env`
//! function from timesteps to the state of the world.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{Binop, Dir, Expr, Lhs, Module, Stmt, Type, Unop, ValueOrArray};
use crate::value::Value;

/// Evaluation errors. The paper's `verilog_sem` returns `Ok fin` on
/// success; these are the failure cases a malformed program can hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VError {
    /// Reference to an undeclared variable.
    UnknownVar(String),
    /// Two declarations share a name.
    DuplicateVar(String),
    /// Indexing a variable that is not an unpacked array.
    NotAnArray(String),
    /// Using an unpacked array where a scalar/vector is required.
    NotAScalar(String),
    /// Operand widths disagree (context string names the operation).
    WidthMismatch(String),
    /// Unpacked-array index out of bounds.
    IndexOutOfBounds { name: String, index: u64, len: usize },
    /// Arithmetic on vectors wider than 64 bits is outside the subset.
    TooWide(usize),
    /// A conditional or `if` guard was not one bit wide.
    CondWidth(usize),
    /// Slice bounds outside the operand, or `hi < lo`.
    SliceRange { width: usize, hi: usize, lo: usize },
    /// Extension target narrower than the operand.
    ExtNarrows { from: usize, to: usize },
    /// Assignment value shape differs from the declared type.
    AssignShape(String),
}

impl fmt::Display for VError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VError::UnknownVar(n) => write!(f, "unknown variable `{n}`"),
            VError::DuplicateVar(n) => write!(f, "duplicate declaration of `{n}`"),
            VError::NotAnArray(n) => write!(f, "`{n}` is not an unpacked array"),
            VError::NotAScalar(n) => write!(f, "`{n}` is an unpacked array, not a value"),
            VError::WidthMismatch(ctx) => write!(f, "operand width mismatch in {ctx}"),
            VError::IndexOutOfBounds { name, index, len } => {
                write!(f, "index {index} out of bounds for `{name}` of length {len}")
            }
            VError::TooWide(w) => write!(f, "arithmetic on {w}-bit vector exceeds 64 bits"),
            VError::CondWidth(w) => write!(f, "condition is {w} bits wide, expected 1"),
            VError::SliceRange { width, hi, lo } => {
                write!(f, "slice [{hi}:{lo}] invalid for {width}-bit operand")
            }
            VError::ExtNarrows { from, to } => {
                write!(f, "extension from {from} to {to} bits would narrow")
            }
            VError::AssignShape(n) => write!(f, "assignment to `{n}` changes its shape"),
        }
    }
}

impl std::error::Error for VError {}

/// The state of every variable and port of a module.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct VarState {
    vars: HashMap<String, ValueOrArray>,
}

impl VarState {
    /// An all-zero state for `module`'s declarations.
    ///
    /// # Errors
    ///
    /// [`VError::DuplicateVar`] when two declarations share a name.
    pub fn zeroed(module: &Module) -> Result<VarState, VError> {
        let mut vars = HashMap::new();
        for (name, ty) in module.declarations() {
            if vars.insert(name.to_string(), ty.zero()).is_some() {
                return Err(VError::DuplicateVar(name.to_string()));
            }
        }
        Ok(VarState { vars })
    }

    /// Reads a scalar/vector variable (`verilog_get_var` in the paper).
    ///
    /// # Errors
    ///
    /// Unknown name, or the variable is an unpacked array.
    pub fn get(&self, name: &str) -> Result<&Value, VError> {
        match self.vars.get(name) {
            Some(ValueOrArray::Value(v)) => Ok(v),
            Some(ValueOrArray::Unpacked(_)) => Err(VError::NotAScalar(name.to_string())),
            None => Err(VError::UnknownVar(name.to_string())),
        }
    }

    /// Reads an element of an unpacked array.
    ///
    /// # Errors
    ///
    /// Unknown name, wrong shape, or out-of-bounds index.
    pub fn get_index(&self, name: &str, index: u64) -> Result<&Value, VError> {
        match self.vars.get(name) {
            Some(ValueOrArray::Unpacked(elems)) => elems.get(index as usize).ok_or_else(|| {
                VError::IndexOutOfBounds { name: name.to_string(), index, len: elems.len() }
            }),
            Some(ValueOrArray::Value(_)) => Err(VError::NotAnArray(name.to_string())),
            None => Err(VError::UnknownVar(name.to_string())),
        }
    }

    /// Writes a scalar/vector variable, preserving its shape.
    ///
    /// # Errors
    ///
    /// Unknown name or shape/width change.
    pub fn set(&mut self, name: &str, value: Value) -> Result<(), VError> {
        match self.vars.get_mut(name) {
            Some(ValueOrArray::Value(old)) => {
                if old.width() != value.width()
                    || matches!(old, Value::Bool(_)) != matches!(value, Value::Bool(_))
                {
                    return Err(VError::AssignShape(name.to_string()));
                }
                *old = value;
                Ok(())
            }
            Some(ValueOrArray::Unpacked(_)) => Err(VError::NotAScalar(name.to_string())),
            None => Err(VError::UnknownVar(name.to_string())),
        }
    }

    /// Writes one element of an unpacked array.
    ///
    /// # Errors
    ///
    /// Unknown name, wrong shape, bad index, or element-width change.
    pub fn set_index(&mut self, name: &str, index: u64, value: Value) -> Result<(), VError> {
        match self.vars.get_mut(name) {
            Some(ValueOrArray::Unpacked(elems)) => {
                let len = elems.len();
                let slot = elems.get_mut(index as usize).ok_or(VError::IndexOutOfBounds {
                    name: name.to_string(),
                    index,
                    len,
                })?;
                if slot.width() != value.width() {
                    return Err(VError::AssignShape(name.to_string()));
                }
                *slot = value;
                Ok(())
            }
            Some(ValueOrArray::Value(_)) => Err(VError::NotAnArray(name.to_string())),
            None => Err(VError::UnknownVar(name.to_string())),
        }
    }

    /// Whether every variable of `module` exists here with its declared
    /// type (`vars_has_type` in the paper's example).
    #[must_use]
    pub fn has_types_of(&self, module: &Module) -> bool {
        module.declarations().all(|(name, ty)| match (self.vars.get(name), ty) {
            (Some(ValueOrArray::Value(Value::Bool(_))), Type::Logic) => true,
            (Some(ValueOrArray::Value(Value::Array(b))), Type::Array(w)) => b.len() == w,
            (Some(ValueOrArray::Unpacked(es)), Type::Unpacked { elem_width, len }) => {
                es.len() == len && es.iter().all(|e| e.width() == elem_width)
            }
            _ => false,
        })
    }
}

/// Drives module inputs, one call per clock cycle.
///
/// This is the paper's `env`: a model of everything outside the circuit
/// (memory, the start interface, the interrupt interface). It observes
/// the module's outputs from the previous cycle and produces the input
/// values for the next one.
pub trait Env {
    /// Produces `(input_name, value)` pairs for the given cycle.
    fn drive(&mut self, cycle: u64, state: &VarState) -> Vec<(String, Value)>;
}

/// An environment holding every input constant.
#[derive(Clone, Debug)]
pub struct ConstEnv {
    inputs: Vec<(String, Value)>,
}

impl ConstEnv {
    /// Builds a constant environment.
    #[must_use]
    pub fn new(inputs: Vec<(String, Value)>) -> Self {
        ConstEnv { inputs }
    }
}

impl Env for ConstEnv {
    fn drive(&mut self, _cycle: u64, _state: &VarState) -> Vec<(String, Value)> {
        self.inputs.clone()
    }
}

fn bits_to_u64(bits: &[bool]) -> Result<u64, VError> {
    if bits.len() > 64 {
        return Err(VError::TooWide(bits.len()));
    }
    Ok(bits.iter().enumerate().fold(0, |acc, (i, &b)| acc | (u64::from(b) << i)))
}

fn as_signed(bits: &[bool]) -> Result<i64, VError> {
    let w = bits.len();
    let raw = bits_to_u64(bits)?;
    if w == 0 || w == 64 {
        return Ok(raw as i64);
    }
    let sign = bits[w - 1];
    Ok(if sign { (raw as i64) - (1i64 << w) } else { raw as i64 })
}

fn bool_like(v: &Value) -> Result<bool, VError> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Array(bits) if bits.len() == 1 => Ok(bits[0]),
        other => Err(VError::CondWidth(other.width())),
    }
}

fn bitwise(op: Binop, a: &Value, b: &Value) -> Result<Value, VError> {
    let f = |x: bool, y: bool| match op {
        Binop::And => x && y,
        Binop::Or => x || y,
        Binop::Xor => x ^ y,
        _ => unreachable!(),
    };
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(f(*x, *y))),
        (Value::Array(xs), Value::Array(ys)) if xs.len() == ys.len() => {
            Ok(Value::Array(xs.iter().zip(ys).map(|(&x, &y)| f(x, y)).collect()))
        }
        _ => Err(VError::WidthMismatch(format!("{op:?}"))),
    }
}

/// Evaluates an expression against a state.
///
/// # Errors
///
/// Any [`VError`] a malformed expression can produce; well-typed
/// generated code never fails.
pub fn eval(state: &VarState, e: &Expr) -> Result<Value, VError> {
    match e {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(name) => Ok(state.get(name)?.clone()),
        Expr::Index(name, idx) => {
            let i = bits_to_u64(&eval(state, idx)?.bits())?;
            Ok(state.get_index(name, i)?.clone())
        }
        Expr::Slice(inner, hi, lo) => {
            let bits = eval(state, inner)?.bits();
            if *hi >= bits.len() || lo > hi {
                return Err(VError::SliceRange { width: bits.len(), hi: *hi, lo: *lo });
            }
            Ok(Value::Array(bits[*lo..=*hi].to_vec()))
        }
        Expr::Unop(Unop::Not, inner) => match eval(state, inner)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Array(bits) => Ok(Value::Array(bits.iter().map(|b| !b).collect())),
        },
        Expr::Binop(op, a, b) => {
            let va = eval(state, a)?;
            let vb = eval(state, b)?;
            match op {
                Binop::And | Binop::Or | Binop::Xor => bitwise(*op, &va, &vb),
                Binop::Eq => {
                    if va.width() != vb.width() {
                        return Err(VError::WidthMismatch("Eq".into()));
                    }
                    Ok(Value::Bool(va.bits() == vb.bits()))
                }
                Binop::Lt => {
                    if va.width() != vb.width() {
                        return Err(VError::WidthMismatch("Lt".into()));
                    }
                    Ok(Value::Bool(bits_to_u64(&va.bits())? < bits_to_u64(&vb.bits())?))
                }
                Binop::Slt => {
                    if va.width() != vb.width() {
                        return Err(VError::WidthMismatch("Slt".into()));
                    }
                    Ok(Value::Bool(as_signed(&va.bits())? < as_signed(&vb.bits())?))
                }
                Binop::Add | Binop::Sub | Binop::Mul => {
                    let w = va.width();
                    if w != vb.width() {
                        return Err(VError::WidthMismatch(format!("{op:?}")));
                    }
                    let x = bits_to_u64(&va.bits())?;
                    let y = bits_to_u64(&vb.bits())?;
                    let r = match op {
                        Binop::Add => x.wrapping_add(y),
                        Binop::Sub => x.wrapping_sub(y),
                        Binop::Mul => x.wrapping_mul(y),
                        _ => unreachable!(),
                    };
                    Ok(Value::from_u64(w, if w == 64 { r } else { r & ((1 << w) - 1) }))
                }
                Binop::Shl | Binop::Shr | Binop::Sra => {
                    let bits = va.bits();
                    let w = bits.len();
                    let amount = bits_to_u64(&vb.bits())? as usize;
                    let x = bits_to_u64(&bits)?;
                    let r = match op {
                        Binop::Shl => {
                            if amount >= w {
                                0
                            } else {
                                x << amount
                            }
                        }
                        Binop::Shr => {
                            if amount >= w {
                                0
                            } else {
                                x >> amount
                            }
                        }
                        Binop::Sra => {
                            let sx = as_signed(&bits)?;
                            let sh = amount.min(63);
                            (sx >> sh) as u64
                        }
                        _ => unreachable!(),
                    };
                    Ok(Value::from_u64(w, if w == 64 { r } else { r & ((1 << w) - 1) }))
                }
            }
        }
        Expr::Cond(c, t, f) => {
            let cond = bool_like(&eval(state, c)?)?;
            let vt = eval(state, t)?;
            let vf = eval(state, f)?;
            if vt.width() != vf.width() {
                return Err(VError::WidthMismatch("Cond".into()));
            }
            Ok(if cond { vt } else { vf })
        }
        Expr::Concat(parts) => {
            // First element is most significant; accumulate LSB-first.
            let mut bits = Vec::new();
            for p in parts.iter().rev() {
                bits.extend(eval(state, p)?.bits());
            }
            Ok(Value::Array(bits))
        }
        Expr::ZExt(width, inner) => {
            let mut bits = eval(state, inner)?.bits();
            if bits.len() > *width {
                return Err(VError::ExtNarrows { from: bits.len(), to: *width });
            }
            bits.resize(*width, false);
            Ok(Value::Array(bits))
        }
        Expr::SExt(width, inner) => {
            let mut bits = eval(state, inner)?.bits();
            if bits.len() > *width {
                return Err(VError::ExtNarrows { from: bits.len(), to: *width });
            }
            let sign = bits.last().copied().unwrap_or(false);
            bits.resize(*width, sign);
            Ok(Value::Array(bits))
        }
    }
}

/// A queued non-blocking write, with the array index (if any) resolved at
/// execution time, as the standard requires.
enum QueuedWrite {
    Var(String, Value),
    Index(String, u64, Value),
}

fn exec_stmts(
    state: &mut VarState,
    queue: &mut Vec<QueuedWrite>,
    stmts: &[Stmt],
) -> Result<(), VError> {
    for stmt in stmts {
        match stmt {
            Stmt::If(cond, then_b, else_b) => {
                if bool_like(&eval(state, cond)?)? {
                    exec_stmts(state, queue, then_b)?;
                } else {
                    exec_stmts(state, queue, else_b)?;
                }
            }
            Stmt::Case(scrut, arms, default) => {
                let v = eval(state, scrut)?;
                let mut taken = false;
                for (consts, body) in arms {
                    if consts.iter().any(|c| c.bits() == v.bits()) {
                        exec_stmts(state, queue, body)?;
                        taken = true;
                        break;
                    }
                }
                if !taken {
                    if let Some(body) = default {
                        exec_stmts(state, queue, body)?;
                    }
                }
            }
            Stmt::NonBlocking(lhs, e) => {
                let value = eval(state, e)?;
                match lhs {
                    Lhs::Var(name) => queue.push(QueuedWrite::Var(name.clone(), value)),
                    Lhs::Index(name, idx) => {
                        let i = bits_to_u64(&eval(state, idx)?.bits())?;
                        queue.push(QueuedWrite::Index(name.clone(), i, value));
                    }
                }
            }
            Stmt::Blocking(lhs, e) => {
                let value = eval(state, e)?;
                match lhs {
                    Lhs::Var(name) => state.set(name, value)?,
                    Lhs::Index(name, idx) => {
                        let i = bits_to_u64(&eval(state, idx)?.bits())?;
                        state.set_index(name, i, value)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Executes one clock cycle: every process runs, then the non-blocking
/// queue is merged into the state (later writes win).
///
/// # Errors
///
/// Propagates any evaluation error.
pub fn cycle(module: &Module, state: &mut VarState) -> Result<(), VError> {
    let mut queue = Vec::new();
    for process in &module.processes {
        exec_stmts(state, &mut queue, &process.body)?;
    }
    for write in queue {
        match write {
            QueuedWrite::Var(name, v) => state.set(&name, v)?,
            QueuedWrite::Index(name, i, v) => state.set_index(&name, i, v)?,
        }
    }
    Ok(())
}

/// Runs `module` for `cycles` clock cycles from `init`, driving inputs
/// from `env` before every edge. This is the paper's
/// `verilog_sem env module init n = Ok fin`.
///
/// # Errors
///
/// Propagates any evaluation or input-driving error.
pub fn run(
    module: &Module,
    mut env: impl Env,
    mut init: VarState,
    cycles: u64,
) -> Result<VarState, VError> {
    for c in 0..cycles {
        step(module, &mut env, &mut init, c)?;
    }
    Ok(init)
}

/// One externally-driven step: drive inputs for cycle `c`, then clock.
///
/// # Errors
///
/// Propagates any evaluation or input-driving error.
pub fn step(
    module: &Module,
    env: &mut impl Env,
    state: &mut VarState,
    c: u64,
) -> Result<(), VError> {
    for (name, value) in env.drive(c, state) {
        debug_assert!(
            module.ports.iter().any(|p| p.name == name && p.dir == Dir::Input),
            "env drove `{name}`, which is not an input port"
        );
        state.set(&name, value)?;
    }
    cycle(module, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn counter_module() -> Module {
        Module {
            name: "counter".into(),
            ports: vec![Port { name: "en".into(), dir: Dir::Input, ty: Type::Logic }],
            vars: vec![VarDecl { name: "n".into(), ty: Type::Array(8) }],
            processes: vec![Process {
                body: vec![Stmt::If(
                    Expr::var("en"),
                    vec![Stmt::NonBlocking(
                        Lhs::Var("n".into()),
                        Expr::var("n").add(Expr::word(8, 1)),
                    )],
                    vec![],
                )],
            }],
        }
    }

    #[test]
    fn counter_counts_when_enabled() {
        let m = counter_module();
        let init = m.initial_state().unwrap();
        let fin =
            run(&m, ConstEnv::new(vec![("en".into(), Value::Bool(true))]), init.clone(), 7)
                .unwrap();
        assert_eq!(fin.get("n").unwrap().as_u64(), 7);
        let idle =
            run(&m, ConstEnv::new(vec![("en".into(), Value::Bool(false))]), init, 7).unwrap();
        assert_eq!(idle.get("n").unwrap().as_u64(), 0);
    }

    #[test]
    fn nonblocking_reads_old_value_within_cycle() {
        // Swap two registers with non-blocking writes: the classic test
        // that the queue semantics reads pre-edge values.
        let m = Module {
            name: "swap".into(),
            ports: vec![],
            vars: vec![
                VarDecl { name: "a".into(), ty: Type::Array(4) },
                VarDecl { name: "b".into(), ty: Type::Array(4) },
            ],
            processes: vec![
                Process {
                    body: vec![Stmt::NonBlocking(Lhs::Var("a".into()), Expr::var("b"))],
                },
                Process {
                    body: vec![Stmt::NonBlocking(Lhs::Var("b".into()), Expr::var("a"))],
                },
            ],
        };
        let mut st = m.initial_state().unwrap();
        st.set("a", Value::from_u64(4, 3)).unwrap();
        st.set("b", Value::from_u64(4, 9)).unwrap();
        cycle(&m, &mut st).unwrap();
        assert_eq!(st.get("a").unwrap().as_u64(), 9);
        assert_eq!(st.get("b").unwrap().as_u64(), 3);
    }

    #[test]
    fn blocking_write_is_immediate() {
        let m = Module {
            name: "blk".into(),
            ports: vec![],
            vars: vec![
                VarDecl { name: "x".into(), ty: Type::Array(4) },
                VarDecl { name: "y".into(), ty: Type::Array(4) },
            ],
            processes: vec![Process {
                body: vec![
                    Stmt::Blocking(Lhs::Var("x".into()), Expr::word(4, 5)),
                    Stmt::NonBlocking(Lhs::Var("y".into()), Expr::var("x")),
                ],
            }],
        };
        let mut st = m.initial_state().unwrap();
        cycle(&m, &mut st).unwrap();
        assert_eq!(st.get("y").unwrap().as_u64(), 5, "NBA saw the blocking write");
    }

    #[test]
    fn unpacked_array_read_write() {
        let m = Module {
            name: "regfile".into(),
            ports: vec![],
            vars: vec![
                VarDecl { name: "regs".into(), ty: Type::Unpacked { elem_width: 8, len: 4 } },
                VarDecl { name: "out".into(), ty: Type::Array(8) },
            ],
            processes: vec![Process {
                body: vec![
                    Stmt::NonBlocking(
                        Lhs::Index("regs".into(), Expr::word(2, 2)),
                        Expr::word(8, 0xAB),
                    ),
                    Stmt::NonBlocking(
                        Lhs::Var("out".into()),
                        Expr::Index("regs".into(), Box::new(Expr::word(2, 2))),
                    ),
                ],
            }],
        };
        let mut st = m.initial_state().unwrap();
        cycle(&m, &mut st).unwrap();
        assert_eq!(st.get("out").unwrap().as_u64(), 0, "read saw pre-edge value");
        cycle(&m, &mut st).unwrap();
        assert_eq!(st.get("out").unwrap().as_u64(), 0xAB);
    }

    #[test]
    fn case_selects_matching_arm() {
        let m = Module {
            name: "case".into(),
            ports: vec![Port { name: "sel".into(), dir: Dir::Input, ty: Type::Array(2) }],
            vars: vec![VarDecl { name: "out".into(), ty: Type::Array(8) }],
            processes: vec![Process {
                body: vec![Stmt::Case(
                    Expr::var("sel"),
                    vec![
                        (vec![Value::from_u64(2, 0)], vec![Stmt::NonBlocking(
                            Lhs::Var("out".into()),
                            Expr::word(8, 10),
                        )]),
                        (
                            vec![Value::from_u64(2, 1), Value::from_u64(2, 2)],
                            vec![Stmt::NonBlocking(Lhs::Var("out".into()), Expr::word(8, 20))],
                        ),
                    ],
                    Some(vec![Stmt::NonBlocking(Lhs::Var("out".into()), Expr::word(8, 99))]),
                )],
            }],
        };
        for (sel, expect) in [(0u64, 10u64), (1, 20), (2, 20), (3, 99)] {
            let mut st = m.initial_state().unwrap();
            st.set("sel", Value::from_u64(2, sel)).unwrap();
            cycle(&m, &mut st).unwrap();
            assert_eq!(st.get("out").unwrap().as_u64(), expect, "sel={sel}");
        }
    }

    #[test]
    fn expression_operators() {
        let st = VarState::default();
        let e = |x: Expr| eval(&st, &x).unwrap();
        assert_eq!(e(Expr::word(8, 200).add(Expr::word(8, 100))).as_u64(), 44, "wraps mod 256");
        assert_eq!(
            e(Expr::Binop(Binop::Sub, Box::new(Expr::word(8, 1)), Box::new(Expr::word(8, 2))))
                .as_u64(),
            255
        );
        assert_eq!(
            e(Expr::Binop(Binop::Slt, Box::new(Expr::word(8, 255)), Box::new(Expr::word(8, 0)))),
            Value::Bool(true),
            "255 is -1 signed"
        );
        assert_eq!(
            e(Expr::Binop(Binop::Lt, Box::new(Expr::word(8, 255)), Box::new(Expr::word(8, 0)))),
            Value::Bool(false)
        );
        assert_eq!(
            e(Expr::Binop(Binop::Sra, Box::new(Expr::word(8, 0x80)), Box::new(Expr::word(4, 7))))
                .as_u64(),
            0xFF
        );
        assert_eq!(
            e(Expr::Binop(Binop::Shl, Box::new(Expr::word(8, 1)), Box::new(Expr::word(8, 200))))
                .as_u64(),
            0,
            "overshift gives zero"
        );
        // {2'b10, 2'b01} == 4'b1001
        assert_eq!(e(Expr::Concat(vec![Expr::word(2, 2), Expr::word(2, 1)])).as_u64(), 0b1001);
        assert_eq!(e(Expr::SExt(8, Box::new(Expr::word(4, 0b1000)))).as_u64(), 0xF8);
        assert_eq!(e(Expr::ZExt(8, Box::new(Expr::word(4, 0b1000)))).as_u64(), 0x08);
        assert_eq!(
            e(Expr::Slice(Box::new(Expr::word(8, 0xA5)), 7, 4)).as_u64(),
            0xA,
            "slice takes high nibble"
        );
    }

    #[test]
    fn width_mismatch_detected() {
        let st = VarState::default();
        let bad = Expr::word(8, 1).add(Expr::word(4, 1));
        assert_eq!(eval(&st, &bad), Err(VError::WidthMismatch("Add".into())));
    }

    #[test]
    fn later_nba_write_wins() {
        let m = Module {
            name: "race".into(),
            ports: vec![],
            vars: vec![VarDecl { name: "x".into(), ty: Type::Array(4) }],
            processes: vec![
                Process { body: vec![Stmt::NonBlocking(Lhs::Var("x".into()), Expr::word(4, 1))] },
                Process { body: vec![Stmt::NonBlocking(Lhs::Var("x".into()), Expr::word(4, 2))] },
            ],
        };
        let mut st = m.initial_state().unwrap();
        cycle(&m, &mut st).unwrap();
        assert_eq!(st.get("x").unwrap().as_u64(), 2);
    }

    #[test]
    fn has_types_of_checks_shapes() {
        let m = counter_module();
        let st = m.initial_state().unwrap();
        assert!(st.has_types_of(&m));
        let other = Module { vars: vec![VarDecl { name: "n".into(), ty: Type::Array(9) }], ..m };
        assert!(!st.has_types_of(&other));
    }
}
