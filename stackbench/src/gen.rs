//! Seeded input generation. Every input is a pure function of
//! `(seed, stream, op index)`, so a run can regenerate any op's input
//! when it checks outputs instead of keeping it in memory, and the same
//! seed always gives the same inputs.

use testkit::{Rng, SplitMix64, TestRng};

/// An independent generator for op `i` of input stream `stream`.
#[must_use]
pub fn op_rng(seed: u64, stream: u64, i: u64) -> TestRng {
    let mut sm = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    let base = sm.next_u64();
    TestRng::seed_from_u64(base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The `k`-th point of a low-discrepancy sequence over `lo..=hi`:
/// any run of consecutive `k` covers the range evenly, so sizes drawn
/// this way average the same in every run.
#[must_use]
pub fn spread(k: usize, lo: usize, hi: usize) -> usize {
    const PHI_FRAC: f64 = 0.618_033_988_749_895;
    let x = (k as f64 * PHI_FRAC).fract();
    lo + (x * (hi - lo + 1) as f64) as usize
}

/// A uniform draw from `lo..=hi`.
fn range(rng: &mut TestRng, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
}

fn word(rng: &mut TestRng) -> String {
    let len = range(rng, 2, 8);
    (0..len)
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
        .collect()
}

/// `n` lines of 1–6 lowercase words.
#[must_use]
fn text_lines(rng: &mut TestRng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let words = range(rng, 1, 6);
            (0..words).map(|_| word(rng)).collect::<Vec<_>>().join(" ")
        })
        .collect()
}

/// Joins lines with a trailing newline after each.
#[must_use]
fn join(lines: &[String]) -> Vec<u8> {
    let mut out = String::new();
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out.into_bytes()
}

/// A literal two-letter pattern taken from one of `lines`, so `grep`
/// usually finds matches.
#[must_use]
fn grep_pattern(rng: &mut TestRng, lines: &[String]) -> String {
    let line = &lines[range(rng, 0, lines.len() - 1)];
    let bytes = line.as_bytes();
    let at = range(rng, 0, bytes.len().saturating_sub(2));
    String::from_utf8_lossy(&bytes[at..(at + 2).min(bytes.len())]).into_owned()
}

fn formula(rng: &mut TestRng, depth: usize) -> String {
    if depth == 0 || rng.next_u64().is_multiple_of(3) {
        char::from(b'a' + (rng.next_u64() % 5) as u8).to_string()
    } else {
        format!("i{}{}", formula(rng, depth - 1), formula(rng, depth - 1))
    }
}

/// `n` proof steps for the proof checker: `K` and `S` axiom instances,
/// which are always valid.
#[must_use]
fn proof_lines(rng: &mut TestRng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            if rng.next_u64().is_multiple_of(2) {
                format!("K {} {}", formula(rng, 2), formula(rng, 2))
            } else {
                format!(
                    "S {} {} {}",
                    formula(rng, 2),
                    formula(rng, 2),
                    formula(rng, 2)
                )
            }
        })
        .collect()
}

/// An arithmetic expression of `terms` terms for the mini compiler,
/// split over `lines` lines. Every term is a small literal, a product
/// of two small literals or a parenthesised difference, so the value
/// stays far inside the machine's integer range.
#[must_use]
pub fn expression(rng: &mut TestRng, terms: usize, lines: usize) -> Vec<u8> {
    let mut parts = Vec::with_capacity(terms);
    for _ in 0..terms {
        let a = rng.next_u64() % 100;
        let b = rng.next_u64() % 100;
        parts.push(match rng.next_u64() % 3 {
            0 => a.to_string(),
            1 => format!("{a} * {b}"),
            _ => format!("({a} - {b})"),
        });
    }
    let mut out = String::new();
    let per_line = terms.div_ceil(lines.max(1));
    for (k, p) in parts.iter().enumerate() {
        if k > 0 {
            out.push_str(if rng.next_u64().is_multiple_of(2) {
                " + "
            } else {
                " - "
            });
            if k % per_line == 0 {
                out.push('\n');
            }
        }
        out.push_str(p);
    }
    out.push('\n');
    out.into_bytes()
}

/// Command line and stdin for corpus app `name` with `lines` lines of
/// input (for the mini compiler, an expression of one term per line).
#[must_use]
pub fn app_input(rng: &mut TestRng, name: &str, lines: usize) -> (Vec<String>, Vec<u8>) {
    match name {
        "grep" => {
            let text = text_lines(rng, lines);
            let pat = grep_pattern(rng, &text);
            (vec!["grep".into(), pat], join(&text))
        }
        "proof_checker" => (vec![name.into()], join(&proof_lines(rng, lines))),
        "mini_compiler" => (vec![name.into()], expression(rng, lines, lines)),
        _ => (vec![name.into()], join(&text_lines(rng, lines))),
    }
}

/// A well-typed program fragment that prints one line whose value
/// depends on `id`, so every `id` gives a distinct source. It is put in
/// front of a corpus app, whose names it does not shadow. `template`
/// picks one of four shapes (taken modulo 4); the rest is drawn.
#[must_use]
pub fn tail(rng: &mut TestRng, id: u64, template: usize) -> String {
    let k1 = 2 + rng.next_u64() % 90;
    let k2 = rng.next_u64() % 10_000;
    let n = 1 + rng.next_u64() % 40;
    let body = match template % 4 {
        0 => format!(
            "fun bench_f n acc = if n = 0 then acc else bench_f (n - 1) ((acc * {k1} + {k2}) mod 10007);\n\
             val bench_v = bench_f {n} (bench_id mod 10007);\n"
        ),
        1 => {
            let xs: Vec<String> = (0..n % 12 + 1).map(|_| (rng.next_u64() % 1000).to_string()).collect();
            format!(
                "val bench_xs = [{}];\n\
                 val bench_v = foldl (fn acc => fn x => acc + x * {k1}) bench_id (filter (fn x => x mod {m} = 0) bench_xs);\n",
                xs.join(", "),
                m = 1 + k1 % 4
            )
        }
        2 => format!(
            "datatype bench_t = BenchLeaf of int | BenchPair of bench_t * bench_t;\n\
             fun bench_build d = if d = 0 then BenchLeaf {k2} else BenchPair (bench_build (d - 1), BenchLeaf d);\n\
             fun bench_sum t = case t of BenchLeaf x => x | BenchPair (a, b) => (bench_sum a + bench_sum b) mod 100003;\n\
             val bench_v = bench_sum (bench_build {n}) + bench_id;\n"
        ),
        _ => format!(
            "val bench_s = concat_strings (map int_to_string (rev [{k1}, {k2}, {n}, bench_id]));\n\
             val bench_v = String.size bench_s * {k1} + bench_id;\n"
        ),
    };
    format!("val bench_id = {id};\n{body}val _ = print (\"tail \" ^ int_to_string bench_id ^ \" \" ^ int_to_string bench_v ^ \"\\n\");\n")
}
