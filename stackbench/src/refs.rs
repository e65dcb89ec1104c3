//! Independent references the benchmark checks outputs against: the
//! source interpreter for whole programs, and host-native versions of
//! the long-running corpus apps.

use std::hash::{DefaultHasher, Hash, Hasher};

use basis::{BasisHost, ExitStatus, FsState};
use cakeml::{frontend, run_program, CompilerConfig, Stop};

/// Interpreter step budget: far above anything the workloads run.
const INTERP_FUEL: u64 = 4_000_000_000;

/// What a program run produced, with the streams kept as digests so a
/// run can hold thousands of outcomes until it checks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Exit code, or `None` when the run did not exit cleanly.
    pub exit: Option<u8>,
    /// Digest and length of standard output.
    pub stdout: (u64, usize),
    /// Digest and length of standard error.
    pub stderr: (u64, usize),
}

impl Outcome {
    /// An outcome from raw streams.
    #[must_use]
    pub fn new(exit: Option<u8>, stdout: &[u8], stderr: &[u8]) -> Outcome {
        Outcome {
            exit,
            stdout: digest(stdout),
            stderr: digest(stderr),
        }
    }

    /// The outcome of a machine run's exit classification.
    #[must_use]
    pub fn of_status(exit: &ExitStatus, stdout: &[u8], stderr: &[u8]) -> Outcome {
        let code = match exit {
            ExitStatus::Exited(c) => Some(*c),
            _ => None,
        };
        Outcome::new(code, stdout, stderr)
    }

    /// `Ok` when `self` matches `expected`, else what differs.
    ///
    /// # Errors
    ///
    /// A one-line description of the mismatch.
    pub fn check(&self, expected: &Outcome) -> Result<(), String> {
        if self == expected {
            return Ok(());
        }
        let mut diff = Vec::new();
        if self.exit != expected.exit {
            diff.push(format!(
                "exit {:?} != expected {:?}",
                self.exit, expected.exit
            ));
        }
        if self.stdout != expected.stdout {
            diff.push(format!(
                "stdout {} bytes != expected {} bytes",
                self.stdout.1, expected.stdout.1
            ));
        }
        if self.stderr != expected.stderr {
            diff.push(format!(
                "stderr {} bytes != expected {} bytes",
                self.stderr.1, expected.stderr.1
            ));
        }
        Err(diff.join("; "))
    }
}

/// A 64-bit digest of `bytes` and their length.
#[must_use]
pub fn digest(bytes: &[u8]) -> (u64, usize) {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    (h.finish(), bytes.len())
}

/// Runs `src` (with the prelude) under the source interpreter with the
/// basis FFI host — the specification side of the compiler theorem.
///
/// # Errors
///
/// Front-end errors and interpreter stops other than `exit`.
pub fn interpret(src: &str, args: &[String], stdin: &[u8]) -> Result<Outcome, String> {
    let (prog, _) = frontend(src, &CompilerConfig::default()).map_err(|e| e.to_string())?;
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut host = BasisHost::new(FsState::stdin_only(&args, stdin));
    let code = match run_program(&prog, &mut host, INTERP_FUEL) {
        Ok(out) => out.exit_code,
        Err(Stop::Exit(c)) => c,
        Err(e) => return Err(format!("interpreter: {e}")),
    };
    Ok(Outcome::new(Some(code), &host.fs.stdout, &host.fs.stderr))
}

/// The prelude's `split_lines`: a trailing newline ends the last line.
fn split_lines(input: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
}

fn join_lines(lines: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in lines {
        out.extend_from_slice(l);
        out.push(b'\n');
    }
    out
}

/// Native `sort`: byte-lexicographic, like the prelude's `string_lt`.
#[must_use]
pub fn sort(input: &[u8]) -> Outcome {
    let mut lines = split_lines(input);
    lines.sort_unstable();
    Outcome::new(Some(0), &join_lines(&lines), b"")
}

/// Native `wc`: lines, words and bytes.
#[must_use]
pub fn wc(input: &[u8]) -> Outcome {
    let lines = input.iter().filter(|&&b| b == b'\n').count();
    let words = input
        .split(|b| matches!(b, b' ' | b'\n' | b'\t' | b'\r'))
        .filter(|w| !w.is_empty())
        .count();
    Outcome::new(
        Some(0),
        format!("{lines} {words} {}\n", input.len()).as_bytes(),
        b"",
    )
}

/// Native `grep` with a literal pattern; exits 1 when nothing matched.
#[must_use]
pub fn grep(pattern: &str, input: &[u8]) -> Outcome {
    let p = pattern.as_bytes();
    let hits: Vec<&[u8]> = split_lines(input)
        .into_iter()
        .filter(|l| p.is_empty() || l.windows(p.len()).any(|w| w == p))
        .collect();
    Outcome::new(Some(u8::from(hits.is_empty())), &join_lines(&hits), b"")
}

/// Native `cat`.
#[must_use]
pub fn cat(input: &[u8]) -> Outcome {
    Outcome::new(Some(0), input, b"")
}

/// ML-style integer text: negatives print with `~`.
fn ml_int(v: i64) -> String {
    if v < 0 {
        format!("~{}", -v)
    } else {
        v.to_string()
    }
}

/// Native version of the corpus mini compiler: the same lex, parse,
/// stack-code emission and evaluation, written directly in Rust.
/// Inputs come from [`crate::gen::expression`] and are well formed.
#[must_use]
pub fn mini_compiler(input: &[u8]) -> Outcome {
    #[derive(Clone, Copy, PartialEq)]
    enum T {
        Num(i64),
        Plus,
        Minus,
        Times,
        Lp,
        Rp,
    }
    enum E {
        Lit(i64),
        Add(Box<E>, Box<E>),
        Sub(Box<E>, Box<E>),
        Mul(Box<E>, Box<E>),
    }
    fn atom(t: &[T], p: &mut usize) -> E {
        match t[*p] {
            T::Num(v) => {
                *p += 1;
                E::Lit(v)
            }
            T::Lp => {
                *p += 1;
                let e = expr(t, p);
                *p += 1; // Rp
                e
            }
            _ => panic!("mini compiler reference: generated input does not parse"),
        }
    }
    fn term(t: &[T], p: &mut usize) -> E {
        let mut e = atom(t, p);
        while *p < t.len() && t[*p] == T::Times {
            *p += 1;
            e = E::Mul(Box::new(e), Box::new(atom(t, p)));
        }
        e
    }
    fn expr(t: &[T], p: &mut usize) -> E {
        let mut e = term(t, p);
        while *p < t.len() && (t[*p] == T::Plus || t[*p] == T::Minus) {
            let op = t[*p];
            *p += 1;
            let rhs = term(t, p);
            e = if op == T::Plus {
                E::Add(Box::new(e), Box::new(rhs))
            } else {
                E::Sub(Box::new(e), Box::new(rhs))
            };
        }
        e
    }
    fn emit(e: &E, out: &mut String) {
        match e {
            E::Lit(v) => out.push_str(&format!("  LoadConstant r1, {}\n  Push r1\n", ml_int(*v))),
            E::Add(a, b) | E::Sub(a, b) | E::Mul(a, b) => {
                emit(a, out);
                emit(b, out);
                let name = match e {
                    E::Add(..) => "fAdd",
                    E::Sub(..) => "fSub",
                    _ => "fMul",
                };
                out.push_str(&format!(
                    "  Pop r2\n  Pop r1\n  Normal {name} r1, r1, r2\n  Push r1\n"
                ));
            }
        }
    }
    fn eval(e: &E) -> i64 {
        match e {
            E::Lit(v) => *v,
            E::Add(a, b) => eval(a) + eval(b),
            E::Sub(a, b) => eval(a) - eval(b),
            E::Mul(a, b) => eval(a) * eval(b),
        }
    }

    let mut toks = Vec::new();
    let mut i = 0;
    while i < input.len() {
        match input[i] {
            b' ' | b'\n' => i += 1,
            b'+' => {
                toks.push(T::Plus);
                i += 1;
            }
            b'-' => {
                toks.push(T::Minus);
                i += 1;
            }
            b'*' => {
                toks.push(T::Times);
                i += 1;
            }
            b'(' => {
                toks.push(T::Lp);
                i += 1;
            }
            b')' => {
                toks.push(T::Rp);
                i += 1;
            }
            _ => {
                let mut v = 0i64;
                while i < input.len() && input[i].is_ascii_digit() {
                    v = v * 10 + i64::from(input[i] - b'0');
                    i += 1;
                }
                toks.push(T::Num(v));
            }
        }
    }
    let mut p = 0;
    let e = expr(&toks, &mut p);
    let mut out = String::from("; silver-stack mini compiler output\n");
    emit(&e, &mut out);
    out.push_str(&format!("  Out r1 ; = {}\n", ml_int(eval(&e))));
    Outcome::new(Some(0), out.as_bytes(), b"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_lines_matches_the_prelude() {
        assert_eq!(split_lines(b"a\nb\n"), vec![&b"a"[..], b"b"]);
        assert_eq!(split_lines(b"a\nb"), vec![&b"a"[..], b"b"]);
        assert_eq!(split_lines(b"a\n\nb\n"), vec![&b"a"[..], b"", b"b"]);
    }

    #[test]
    fn native_references_match_the_interpreter() {
        use silver_stack::apps;
        let text = b"delta alpha\ncharlie bravo\nalpha\n";
        let cases: [(&str, Vec<String>, Outcome); 4] = [
            (apps::SORT, vec!["sort".into()], sort(text)),
            (apps::WC, vec!["wc".into()], wc(text)),
            (
                apps::GREP,
                vec!["grep".into(), "al".into()],
                grep("al", text),
            ),
            (apps::CAT, vec!["cat".into()], cat(text)),
        ];
        for (src, args, native) in cases {
            assert_eq!(
                interpret(src, &args, text).expect("interprets"),
                native,
                "{args:?}"
            );
        }
        let e = b"3 * 4 - (10 - 90) + 7\n";
        let spec = interpret(apps::MINI_COMPILER, &["mc".into()], e).expect("interprets");
        assert_eq!(spec, mini_compiler(e));
    }
}
