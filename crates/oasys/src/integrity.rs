//! Per-line data integrity for durable JSONL/TSV artifacts.
//!
//! Torn-tail salvage (PR 5) only defends against the damage an
//! append-and-flush crash can inflict: a missing newline at the end of
//! the file. Silent mid-file corruption — bit rot, a bad sector, a
//! buggy copy — previously either crashed resume (`Corrupt` checkpoint)
//! or, worse, was trusted. This module adds the third durability leg:
//! every line a sink writes is *sealed* with a 16-hex-digit FNV-1a 64
//! checksum of its payload, separated by a single tab:
//!
//! ```text
//! <payload>\t<fnv1a64(payload) as %016x>\n
//! ```
//!
//! Readers [`open_line`] each line: a line whose seal verifies is
//! trusted, and a line whose seal fails — or that carries no seal at
//! all — is **corrupt**: the reader quarantines it (the record or job
//! simply re-runs) instead of trusting it or discarding the whole file.
//!
//! The seal detects *any* single- or multi-byte damage to the line,
//! including damage to the checksum itself, because the checksum is
//! recomputed over the payload on every open. A flipped byte cannot
//! produce a verifying line without also forging the 64-bit FNV image
//! of the payload.

use oasys_faults::primitives::fnv1a64;

/// Seals one payload line (no trailing newline) with its checksum
/// suffix: `"{payload}\t{fnv1a64:016x}"`.
#[must_use]
pub fn seal_line(payload: &str) -> String {
    format!("{payload}\t{:016x}", fnv1a64(payload.as_bytes()))
}

/// The verdict on one durable line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineIntegrity<'a> {
    /// The line carries a seal and it verifies; the payload (seal
    /// stripped) is safe to parse.
    Sealed(&'a str),
    /// The line carries a seal that does not verify, a mangled seal,
    /// or no seal at all. The payload must not be trusted; quarantine
    /// and re-run.
    Corrupt,
}

/// Classifies one line (trailing newline tolerated and ignored).
///
/// The seal is the text after the *last* tab, so sealed payloads may
/// themselves contain tabs (batch checkpoint lines do).
#[must_use]
pub fn open_line(line: &str) -> LineIntegrity<'_> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let Some(tab) = line.rfind('\t') else {
        return LineIntegrity::Corrupt;
    };
    let (payload, seal) = (&line[..tab], &line[tab + 1..]);
    if seal.len() != 16 || !seal.bytes().all(|b| b.is_ascii_hexdigit()) {
        return LineIntegrity::Corrupt;
    }
    match u64::from_str_radix(seal, 16) {
        Ok(expected) if fnv1a64(payload.as_bytes()) == expected => LineIntegrity::Sealed(payload),
        _ => LineIntegrity::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_lines_round_trip() {
        for payload in ["{\"id\":7}", "", "tabs\tinside\tpayload", "unicode µ"] {
            let sealed = seal_line(payload);
            assert_eq!(
                open_line(&sealed),
                LineIntegrity::Sealed(payload),
                "{payload:?}"
            );
            let with_newline = format!("{sealed}\n");
            assert_eq!(open_line(&with_newline), LineIntegrity::Sealed(payload));
        }
    }

    #[test]
    fn no_flipped_byte_yields_a_sealed_line() {
        let sealed = seal_line("{\"id\":42,\"outcome\":\"ok\"}");
        for i in 0..sealed.len() {
            let mut bytes = sealed.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(line) = String::from_utf8(bytes) else {
                continue;
            };
            // Damage to payload, seal, or the separator tab: never
            // Sealed.
            assert!(
                !matches!(open_line(&line), LineIntegrity::Sealed(_)),
                "flipping byte {i} went undetected: {line:?}"
            );
        }
    }

    #[test]
    fn mangled_or_missing_seals_are_corrupt() {
        for line in [
            "{\"id\":1}\tdeadbeef",
            "{\"id\":1}\tzzzzzzzzzzzzzzzz",
            "payload\t",
            "{\"id\":3}",
            "",
        ] {
            assert_eq!(open_line(line), LineIntegrity::Corrupt, "{line:?}");
        }
    }
}
