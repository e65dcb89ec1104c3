//! Building the initial memory image (Figure 2) — the `initAg` predicate
//! made constructive.
//!
//! The paper's theorem (5) assumes only "that the compiled code, system
//! calls code, and input data is in memory"; [`build_image`] is the
//! function that puts them there: startup code, command line, standard
//! input, the output buffer, the system-call region, and the compiled
//! program, each in its Figure-2 region.

use std::fmt;

use ag32::asm::Assembler;
use ag32::{Func, Instr, Reg, Ri, State};
use cakeml::CompiledProgram;

use crate::syscalls::generate_syscalls;

/// Image-construction errors — violations of the assumptions the
/// theorems carry (`|input| ≤ stdin_size`, `cl_ok cl`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// Standard input longer than the stdin device.
    StdinTooLarge {
        /// Given size.
        given: usize,
        /// Device capacity.
        max: u32,
    },
    /// Command line too long (`cl_ok` fails).
    CommandLineTooLarge {
        /// Bytes required.
        given: usize,
        /// Region capacity.
        max: u32,
    },
    /// Compiled code does not fit between `code_base` and 4 GiB.
    CodeTooLarge,
    /// System-call generation failed (a bug).
    Syscalls(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::StdinTooLarge { given, max } => {
                write!(f, "stdin of {given} bytes exceeds the {max}-byte device")
            }
            ImageError::CommandLineTooLarge { given, max } => {
                write!(f, "command line of {given} bytes exceeds the {max}-byte region")
            }
            ImageError::CodeTooLarge => write!(f, "compiled code does not fit"),
            ImageError::Syscalls(e) => write!(f, "system-call generation: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Initial value of the exit-code word: distinguishes "never exited".
///
/// Deliberately outside the `u8` range every exit path stores (the
/// compiler's `rt_exit` masks with `0xFF`, the `exit` system call loads
/// a single byte, the oracle widens a `u8`), so no legitimate exit code
/// can collide with the sentinel. The first fuzzing campaign caught the
/// original in-band value `0xFF`: `exit 255` was reported as wedged.
pub const EXIT_UNSET: u32 = 0x100;

/// Builds the complete initial machine state: memory per Figure 2, PC at
/// the startup code, I/O window over the output buffer.
///
/// # Errors
///
/// [`ImageError`] when an `initAg` assumption is violated.
pub fn build_image(
    compiled: &CompiledProgram,
    args: &[&str],
    stdin: &[u8],
) -> Result<State, ImageError> {
    let layout = compiled.layout;
    if stdin.len() > layout.stdin_size as usize {
        return Err(ImageError::StdinTooLarge { given: stdin.len(), max: layout.stdin_size });
    }
    let cl_bytes: usize = args.iter().map(|a| 4 + a.len().div_ceil(4) * 4).sum();
    if cl_bytes + 4 > layout.cl_size as usize {
        return Err(ImageError::CommandLineTooLarge {
            given: cl_bytes,
            max: layout.cl_size,
        });
    }
    if layout.code_base.checked_add(compiled.code.len() as u32).is_none() {
        return Err(ImageError::CodeTooLarge);
    }

    let mut s = pure_image(compiled);

    // Startup: jump to the compiled `_start`.
    let mut boot = Assembler::new(layout.startup_base);
    boot.li(Reg::new(60), layout.code_base);
    boot.instr(Instr::Jump { func: Func::Snd, w: Reg::new(61), a: Ri::Reg(Reg::new(60)) });
    let boot_code = boot.assemble().map_err(|e| ImageError::Syscalls(e.to_string()))?;
    assert!(
        layout.startup_base + (boot_code.len() as u32) <= layout.exit_code_addr,
        "startup code overlaps the exit-code word"
    );
    s.mem.write_bytes(layout.startup_base, &boot_code);

    // Command line: count, then length-prefixed, 4-padded arguments.
    s.mem.write_word(layout.cl_base, args.len() as u32);
    let mut at = layout.cl_base + 4;
    for a in args {
        s.mem.write_word(at, a.len() as u32);
        s.mem.write_bytes(at + 4, a.as_bytes());
        at += 4 + (a.len() as u32).div_ceil(4) * 4;
    }

    // Standard input: length, cursor, contents.
    s.mem.write_word(layout.stdin_base, stdin.len() as u32);
    s.mem.write_word(layout.stdin_base + 4, 0);
    s.mem.write_bytes(layout.stdin_base + 8, stdin);

    // System calls.
    let sys = generate_syscalls(&layout, &compiled.ffi_names)
        .map_err(|e| ImageError::Syscalls(e.to_string()))?;
    assert!(sys.len() as u32 <= layout.ffi_size, "syscall code exceeds its region");
    s.mem.write_bytes(layout.ffi_base, &sys);

    s.pc = layout.startup_base;
    s.io_window = layout.io_window();
    Ok(s)
}

/// The image of a program that makes no system calls, started without
/// startup code: the compiled code and data at `code_base` with the PC
/// there, the exit-code word unset and the halt loop. [`build_image`]
/// adds the startup code, command line, stdin and system calls to it.
#[must_use]
pub fn pure_image(compiled: &CompiledProgram) -> State {
    let layout = compiled.layout;
    let mut s = State::new();
    s.mem.write_word(layout.exit_code_addr, EXIT_UNSET);
    s.mem.write_word(
        layout.halt_addr,
        ag32::encode(Instr::Jump { func: Func::Add, w: Reg::new(0), a: Ri::Imm(0) }),
    );
    s.mem.write_bytes(layout.code_base, &compiled.code);
    s.pc = layout.code_base;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cakeml::{compile_source, CompilerConfig, TargetLayout};

    fn demo() -> CompiledProgram {
        compile_source(
            "val _ = print \"hi\";",
            TargetLayout::default(),
            &CompilerConfig::default(),
        )
        .expect("compiles")
    }

    #[test]
    fn image_layout_regions_are_populated() {
        let compiled = demo();
        let s = build_image(&compiled, &["demo", "arg1"], b"input text").unwrap();
        let l = compiled.layout;
        assert_eq!(s.pc, l.startup_base);
        assert_eq!(s.mem.read_word(l.cl_base), 2, "argc");
        assert_eq!(s.mem.read_word(l.cl_base + 4), 4, "first arg length");
        assert_eq!(s.mem.read_bytes(l.cl_base + 8, 4), b"demo");
        assert_eq!(s.mem.read_word(l.stdin_base), 10);
        assert_eq!(s.mem.read_bytes(l.stdin_base + 8, 5), b"input");
        assert_eq!(s.mem.read_word(l.exit_code_addr), EXIT_UNSET);
        // Jump-table entry for "write" points inside the FFI region.
        let entry = s.mem.read_word(l.ffi_entry_addr(0));
        assert!(entry > l.ffi_base && entry < l.ffi_base + l.ffi_size);
        // Code region begins with the compiled `_start`.
        assert_eq!(
            s.mem.read_bytes(l.code_base, compiled.code.len().min(16) as u32),
            compiled.code[..compiled.code.len().min(16)]
        );
        assert_eq!(s.io_window, l.io_window());
    }

    #[test]
    fn oversized_stdin_rejected() {
        let compiled = demo();
        let big = vec![0u8; compiled.layout.stdin_size as usize + 1];
        assert!(matches!(
            build_image(&compiled, &[], &big),
            Err(ImageError::StdinTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_command_line_rejected() {
        let compiled = demo();
        let long_arg = "x".repeat(compiled.layout.cl_size as usize);
        assert!(matches!(
            build_image(&compiled, &[&long_arg], b""),
            Err(ImageError::CommandLineTooLarge { .. })
        ));
    }
}
