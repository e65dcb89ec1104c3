//! Corrupt-input hardening: truncated, bit-flipped, wrong-version,
//! wrong-magic and per-section-damaged snapshots must come back as
//! *typed* [`SnapshotError`]s, never panics. One test per format
//! section; damaged payloads are re-sealed with the public
//! [`checksum64`] so they reach the inner section decoders instead of
//! dying at the checksum gate.

use ag32::asm::Assembler;
use ag32::{Func, Instr, Reg, Ri, State};
use silver::snapshot::{checksum64, Snapshot, SnapshotError};

/// A snapshot with at least two memory pages and one I/O event, so
/// each corruption has a target.
fn full_snapshot_bytes() -> Vec<u8> {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0xAB);
    a.li(r(2), 0x2000);
    a.instr(Instr::StoreMem { a: Ri::Reg(r(1)), b: Ri::Reg(r(2)) });
    a.instr(Instr::Out { func: Func::Snd, w: r(1), a: Ri::Imm(0), b: Ri::Reg(r(1)) });
    a.instr(Instr::Interrupt);
    a.halt(r(3));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().expect("assembles"));
    s.io_window = (0x2000, 8);
    s.run(100);
    assert!(s.is_halted());
    assert!(!s.io_events.is_empty(), "need an I/O event to corrupt");
    Snapshot::capture(&s).to_bytes()
}

/// Byte position of the table entry for the section tagged `tag`.
fn entry(bytes: &[u8], tag: &[u8; 4]) -> usize {
    let count = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| 24 + i * 20)
        .find(|&e| &bytes[e..e + 4] == tag)
        .unwrap_or_else(|| panic!("section {:?} not found", String::from_utf8_lossy(tag)))
}

/// Finds `(offset, len)` of the section tagged `tag` in the table.
fn section(bytes: &[u8], tag: &[u8; 4]) -> (usize, usize) {
    let e = entry(bytes, tag);
    let off = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
    (off, len)
}

/// Recomputes the body checksum after a deliberate corruption, so the
/// damage reaches the decoder it targets.
fn reseal(bytes: &mut [u8]) {
    let sum = checksum64(&bytes[20..]);
    bytes[12..20].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = full_snapshot_bytes();
    bytes[0] = b'X';
    assert!(matches!(Snapshot::from_bytes(&bytes), Err(SnapshotError::BadMagic)));
    // Short input with bad magic is still BadMagic, not a panic.
    assert!(matches!(Snapshot::from_bytes(b"NOTASNAP"), Err(SnapshotError::BadMagic)));
}

#[test]
fn wrong_version_is_rejected() {
    // Version 1 carried an engine byte and an optional `FS  ` section.
    for version in [1u32, 99] {
        let mut bytes = full_snapshot_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::BadVersion { found }) if found == version => {}
            other => panic!("expected BadVersion {{ found: {version} }}, got {other:?}"),
        }
    }
}

#[test]
fn every_truncation_is_an_error_not_a_panic() {
    let bytes = full_snapshot_bytes();
    for n in 0..bytes.len() {
        assert!(
            Snapshot::from_bytes(&bytes[..n]).is_err(),
            "truncation to {n} of {} bytes must fail",
            bytes.len()
        );
    }
}

#[test]
fn unsealed_bit_flips_hit_the_checksum() {
    let bytes = full_snapshot_bytes();
    for pos in 20..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        assert!(
            matches!(Snapshot::from_bytes(&bad), Err(SnapshotError::Checksum { .. })),
            "flip at {pos} must fail the checksum"
        );
    }
}

#[test]
fn unknown_section_tag_is_rejected() {
    // `FS  ` (format v1's optional filesystem section) is unknown in v2.
    for tag in [b"ZZZ ", b"FS  "] {
        let mut bytes = full_snapshot_bytes();
        bytes[24..28].copy_from_slice(tag);
        reseal(&mut bytes);
        assert!(matches!(Snapshot::from_bytes(&bytes), Err(SnapshotError::Table { .. })));
    }
}

#[test]
fn corrupt_cpu_section_is_typed() {
    let mut bytes = full_snapshot_bytes();
    let (off, _) = section(&bytes, b"CPU ");
    // Byte 20 of the payload is the flags byte; set undefined bits.
    bytes[off + 20] = 0xFC;
    reseal(&mut bytes);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Corrupt { section: "CPU", .. }) => {}
        other => panic!("expected Corrupt CPU, got {other:?}"),
    }
}

#[test]
fn corrupt_mem_section_is_typed() {
    let mut bytes = full_snapshot_bytes();
    let (off, _) = section(&bytes, b"MEM ");
    let count = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    assert!(count >= 2, "need two pages to break the ordering");
    // Make the second page id equal the first: not strictly ascending.
    let first = bytes[off + 4..off + 8].to_vec();
    let second_at = off + 4 + 4 + ag32::Memory::PAGE_SIZE;
    bytes[second_at..second_at + 4].copy_from_slice(&first);
    reseal(&mut bytes);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Corrupt { section: "MEM", .. }) => {}
        other => panic!("expected Corrupt MEM, got {other:?}"),
    }
}

#[test]
fn corrupt_ioev_section_is_typed() {
    let mut bytes = full_snapshot_bytes();
    let (off, _) = section(&bytes, b"IOEV");
    // First event's window length, inflated past the section's end.
    bytes[off + 8..off + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Truncated { section: "IOEV" }) => {}
        other => panic!("expected Truncated IOEV, got {other:?}"),
    }
}

#[test]
fn corrupt_run_section_is_typed() {
    let mut bytes = full_snapshot_bytes();
    // `RUN ` is the bare u64 retire count: one byte more (the start of
    // the next section) is a trailing byte, not a v1 engine byte.
    let len_at = entry(&bytes, b"RUN ") + 12;
    bytes[len_at..len_at + 8].copy_from_slice(&9u64.to_le_bytes());
    reseal(&mut bytes);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Corrupt { section: "RUN", .. }) => {}
        other => panic!("expected Corrupt RUN, got {other:?}"),
    }
}

#[test]
fn corrupt_stat_section_is_typed() {
    let mut bytes = full_snapshot_bytes();
    let (off, _) = section(&bytes, b"STAT");
    bytes[off..off + 4].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut bytes);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::Corrupt { section: "STAT", .. }) => {}
        other => panic!("expected Corrupt STAT, got {other:?}"),
    }
}

#[test]
fn missing_mandatory_section_is_typed() {
    // Rebuild the file from its own sections, with STAT dropped.
    let bytes = full_snapshot_bytes();
    let kept: [&[u8; 4]; 4] = [b"CPU ", b"MEM ", b"IOEV", b"RUN "];
    let payloads: Vec<&[u8]> = kept
        .iter()
        .map(|tag| {
            let (off, len) = section(&bytes, tag);
            &bytes[off..off + len]
        })
        .collect();
    let mut out = bytes[..12].to_vec(); // magic + version
    out.extend_from_slice(&[0u8; 8]); // checksum, resealed below
    out.extend_from_slice(&(kept.len() as u32).to_le_bytes());
    let mut off = (24 + kept.len() * 20) as u64;
    for (tag, payload) in kept.iter().zip(&payloads) {
        out.extend_from_slice(*tag);
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        off += payload.len() as u64;
    }
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    reseal(&mut out);
    match Snapshot::from_bytes(&out) {
        Err(SnapshotError::MissingSection { tag: "STAT" }) => {}
        other => panic!("expected MissingSection STAT, got {other:?}"),
    }
}
