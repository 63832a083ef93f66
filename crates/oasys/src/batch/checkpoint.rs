//! Resumable batch checkpoints.
//!
//! The checkpoint file is an append-only text log: a header line, then
//! one tab-separated record per finished job. The batch runner appends
//! (and flushes) a record the moment a job finishes, so a killed run
//! loses at most the jobs that were still in flight. On resume, jobs
//! whose fingerprints appear with a *completed* outcome (`ok` or
//! `infeasible`) are skipped; `failed` entries are kept for diagnosis
//! but re-run, since a panic or timeout may have been environmental.
//!
//! Every record is sealed with a per-line FNV-1a checksum
//! ([`crate::integrity`]), appended as a 7th tab-separated field:
//!
//! ```text
//! oasys-batch-checkpoint v2
//! 8f3a…\tok\ttwo-stage\t<area f64 bits, hex>\tspec-b.txt\tgeneric-5um.tech\t<fnv1a64, hex>
//! 77c1…\tinfeasible\t-\t-\tspec-c.txt\tgeneric-1.2um.tech\t<fnv1a64, hex>
//! ```
//!
//! The completed record carries the *outcome* (style and bit-exact
//! area), not just the fingerprint — that is what lets a resumed run
//! reconstruct the same aggregate report as an uninterrupted one
//! without redoing the work.
//!
//! Crash and corruption tolerance, by damage class:
//!
//! - **Torn final line** (kill mid-append): the unterminated tail is
//!   dropped, the file is truncated back to its durable prefix, and
//!   [`Checkpoint::recovered`] reports the repair.
//! - **Corrupt interior line** (bit rot, bad sector): any line whose
//!   checksum fails to verify is *quarantined* — dropped
//!   from the completed set so its job re-runs, counted by
//!   [`Checkpoint::quarantined`], and healed out of the file by an
//!   atomic rewrite of the surviving lines. Resume never trusts a
//!   damaged record and never discards the healthy remainder.
//! - **Structural damage a crash or bit rot cannot explain** (an
//!   unknown header, or a record whose checksum *verifies* but whose
//!   fields are malformed) is reported as [`CheckpointError::Corrupt`];
//!   the runner's policy ([`super::Batch::with_checkpoint`]) is to
//!   discard such a file and restart the batch cleanly rather than
//!   trust it.
//!
//! The header names the format; any header other than
//! [`CHECKPOINT_HEADER`] — including the unsealed `v1` format — is
//! refused.

use crate::integrity::{self, LineIntegrity};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First line of every checkpoint file; the version suffix gates
/// format evolution.
pub const CHECKPOINT_HEADER: &str = "oasys-batch-checkpoint v2";

/// How a checkpointed job ended.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointOutcome {
    /// A style was selected; the record stores which and its area.
    Ok {
        /// Winning style name.
        style: String,
        /// Estimated area, µm², preserved bit-exactly.
        area_um2: f64,
    },
    /// Every style was rejected — a definitive answer, so the job is
    /// complete and is skipped on resume.
    Infeasible,
    /// The job failed (panic, timeout, or a hard error). Recorded for
    /// diagnosis; *not* treated as complete, so resume re-runs it.
    Failed,
}

impl CheckpointOutcome {
    /// `true` when the job produced a definitive synthesis answer and
    /// must not be re-run on resume.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        !matches!(self, CheckpointOutcome::Failed)
    }
}

/// One parsed checkpoint record.
#[derive(Clone, Debug)]
pub struct CheckpointEntry {
    /// The job's content fingerprint.
    pub fingerprint: u64,
    /// How the job ended.
    pub outcome: CheckpointOutcome,
    /// The job's spec label at the time it ran (display only).
    pub spec_label: String,
    /// The job's tech label at the time it ran (display only).
    pub tech_label: String,
}

/// Why a checkpoint file was rejected.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file exists but fails a structural check — wrong header or a
    /// malformed (fully terminated, checksum-verified where sealed)
    /// record — that neither an append-and-flush crash nor bit rot can
    /// explain.
    Corrupt {
        /// The offending path.
        path: PathBuf,
        /// Which check failed.
        detail: String,
    },
    /// The file could not be read or written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            CheckpointError::Io { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The completed-job set loaded from (and appended to) a checkpoint
/// file.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    completed: HashMap<u64, CheckpointEntry>,
    writer: Option<File>,
    recovered: bool,
    /// Checksum-failed lines quarantined (and healed away) on open.
    quarantined: usize,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path` and loads its
    /// completed-job set.
    ///
    /// A torn (unterminated) final line — the signature of a kill
    /// mid-append — is treated as absent: the durable prefix is kept,
    /// the file is truncated back to it so later appends stay
    /// well-formed, and [`Checkpoint::recovered`] reports the repair.
    /// Interior lines whose checksum fails are quarantined (see [`Checkpoint::quarantined`]) and the file is
    /// atomically rewritten without them; the damaged jobs re-run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when an existing file fails a
    /// structural check neither a crash nor bit rot can explain (the
    /// caller decides whether to [`Checkpoint::start_fresh`]);
    /// [`CheckpointError::Io`] on filesystem errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref().to_path_buf();
        let mut recovered = false;
        let mut quarantined = 0usize;
        let completed = match std::fs::read_to_string(&path) {
            Ok(text) => {
                // Every durable line ends in a newline, so a missing one
                // means the final line was torn mid-write. Drop it and
                // parse only the durable prefix.
                let durable = match text.rfind('\n') {
                    Some(last) if last + 1 < text.len() => {
                        recovered = true;
                        &text[..=last]
                    }
                    None if !text.is_empty() => {
                        recovered = true;
                        ""
                    }
                    _ => text.as_str(),
                };
                // A file with no durable content (empty, or its only
                // line torn away) parses as fresh, not corrupt —
                // nothing durable was ever written, so nothing is lost.
                let completed = if durable.is_empty() {
                    if recovered {
                        truncate_to(&path, 0)?;
                    }
                    HashMap::new()
                } else {
                    let parsed = parse(&path, durable)?;
                    quarantined = parsed.quarantined;
                    if quarantined > 0 {
                        // Heal: rewrite the file with only the lines
                        // that verified, atomically. The quarantined
                        // jobs re-run and re-append fresh records.
                        let mut healed = format!("{CHECKPOINT_HEADER}\n");
                        for line in &parsed.good_lines {
                            healed.push_str(line);
                            healed.push('\n');
                        }
                        rewrite_atomic(&path, &healed)?;
                    } else if recovered {
                        truncate_to(&path, durable.len() as u64)?;
                    }
                    parsed.completed
                };
                completed
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashMap::new(),
            Err(error) => return Err(CheckpointError::Io { path, error }),
        };
        Ok(Self {
            path,
            completed,
            writer: None,
            recovered,
            quarantined,
        })
    }

    /// Discards any existing file at `path` and starts an empty
    /// checkpoint — the recovery path for a corrupt file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the stale file cannot be removed.
    pub fn start_fresh(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref().to_path_buf();
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => return Err(CheckpointError::Io { path, error }),
        }
        Ok(Self {
            path,
            completed: HashMap::new(),
            writer: None,
            recovered: false,
            quarantined: 0,
        })
    }

    /// The checkpoint file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `true` when [`Checkpoint::open`] found and repaired a torn final
    /// line (the dropped record's job simply re-runs on resume).
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Number of checksum-failed lines quarantined on open. Each was
    /// dropped from the completed set (its job re-runs) and healed out
    /// of the file; the healthy lines all survived.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// The completed (skippable) entry for `fingerprint`, if any.
    #[must_use]
    pub fn completed(&self, fingerprint: u64) -> Option<&CheckpointEntry> {
        self.completed.get(&fingerprint)
    }

    /// Number of completed jobs on record.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Appends one finished job and flushes, creating the file (with its
    /// header) on first write. Completed outcomes also join the in-memory
    /// skip set, so duplicate fingerprints later in the same run are
    /// served from the checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the record cannot be written durably.
    pub fn record(
        &mut self,
        fingerprint: u64,
        outcome: &CheckpointOutcome,
        spec_label: &str,
        tech_label: &str,
    ) -> Result<(), CheckpointError> {
        let io_err = |error: std::io::Error, path: &Path| CheckpointError::Io {
            path: path.to_path_buf(),
            error,
        };
        let file = match &mut self.writer {
            Some(file) => file,
            None => {
                let mut file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .map_err(|e| io_err(e, &self.path))?;
                let len = file.metadata().map_err(|e| io_err(e, &self.path))?.len();
                if len == 0 {
                    writeln!(file, "{CHECKPOINT_HEADER}").map_err(|e| io_err(e, &self.path))?;
                }
                self.writer.insert(file)
            }
        };
        let (style, area) = match outcome {
            CheckpointOutcome::Ok { style, area_um2 } => {
                (style.clone(), format!("{:016x}", area_um2.to_bits()))
            }
            _ => ("-".to_owned(), "-".to_owned()),
        };
        let word = match outcome {
            CheckpointOutcome::Ok { .. } => "ok",
            CheckpointOutcome::Infeasible => "infeasible",
            CheckpointOutcome::Failed => "failed",
        };
        let payload =
            format!("{fingerprint:016x}\t{word}\t{style}\t{area}\t{spec_label}\t{tech_label}");
        let line = format!("{}\n", integrity::seal_line(&payload));
        // Fault site: simulate the process dying partway through this
        // very write — half the record's bytes land, no newline, and the
        // "crashed" writer reports the failure upstream.
        if oasys_faults::armed() && oasys_faults::fired("batch.checkpoint.record") {
            let torn = &line[..line.len() / 2];
            file.write_all(torn.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| io_err(e, &self.path))?;
            return Err(io_err(
                std::io::Error::other("fault injected: torn checkpoint write"),
                &self.path,
            ));
        }
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(e, &self.path))?;
        if outcome.is_complete() {
            self.completed.insert(
                fingerprint,
                CheckpointEntry {
                    fingerprint,
                    outcome: outcome.clone(),
                    spec_label: spec_label.to_owned(),
                    tech_label: tech_label.to_owned(),
                },
            );
        }
        Ok(())
    }
}

/// Truncates the file at `path` back to `len` bytes — the repair for a
/// torn final line, so later appends land on a well-formed prefix.
fn truncate_to(path: &Path, len: u64) -> Result<(), CheckpointError> {
    let io_err = |error: std::io::Error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    };
    let file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
    file.set_len(len).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    Ok(())
}

/// Replaces the file at `path` atomically (temp file, fsync, rename) —
/// the repair that heals quarantined lines out of a checkpoint.
fn rewrite_atomic(path: &Path, text: &str) -> Result<(), CheckpointError> {
    let io_err = |error: std::io::Error| CheckpointError::Io {
        path: path.to_path_buf(),
        error,
    };
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut file = File::create(&tmp).map_err(io_err)?;
        file.write_all(text.as_bytes()).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)
}

/// The result of parsing a checkpoint body.
struct Parsed<'a> {
    completed: HashMap<u64, CheckpointEntry>,
    /// Every line that verified, verbatim and in file order.
    good_lines: Vec<&'a str>,
    /// Checksum-failed lines dropped from the completed set.
    quarantined: usize,
}

/// Parses a checkpoint file body into its completed-job set, applying
/// every structural check the format promises.
fn parse<'a>(path: &Path, text: &'a str) -> Result<Parsed<'a>, CheckpointError> {
    let corrupt = |detail: String| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let mut lines = text.lines();
    match lines.next() {
        Some(CHECKPOINT_HEADER) => {}
        Some(other) => {
            return Err(corrupt(format!(
                "unsupported format `{other}` (expected `{CHECKPOINT_HEADER}`)"
            )))
        }
        None => return Err(corrupt("empty file".to_owned())),
    }
    // A kill can truncate the final record mid-line; every durable line
    // (including the last) ends in a newline, so a missing one means the
    // last record cannot be trusted.
    if !text.ends_with('\n') {
        return Err(corrupt("truncated final line (missing newline)".to_owned()));
    }
    let mut completed = HashMap::new();
    let mut good_lines = Vec::new();
    let mut quarantined = 0usize;
    for (idx, line) in lines.enumerate() {
        let lineno = idx + 2;
        let payload = match integrity::open_line(line) {
            LineIntegrity::Sealed(payload) => payload,
            // A line that does not verify is bit rot, not a format
            // violation: quarantine it (the job re-runs) instead of
            // condemning the whole file.
            LineIntegrity::Corrupt => {
                quarantined += 1;
                continue;
            }
        };
        let fields: Vec<&str> = payload.split('\t').collect();
        let [fp, word, style, area, spec_label, tech_label] = fields.as_slice() else {
            return Err(corrupt(format!(
                "line {lineno}: expected 6 tab-separated fields, got {}",
                fields.len()
            )));
        };
        let parse_hex = |s: &str, what: &str| {
            if s.len() == 16 {
                u64::from_str_radix(s, 16).ok()
            } else {
                None
            }
            .ok_or_else(|| corrupt(format!("line {lineno}: bad {what} `{s}`")))
        };
        let fingerprint = parse_hex(fp, "fingerprint")?;
        let outcome = match *word {
            "ok" => CheckpointOutcome::Ok {
                style: (*style).to_owned(),
                area_um2: f64::from_bits(parse_hex(area, "area")?),
            },
            "infeasible" => CheckpointOutcome::Infeasible,
            "failed" => CheckpointOutcome::Failed,
            other => return Err(corrupt(format!("line {lineno}: unknown outcome `{other}`"))),
        };
        good_lines.push(line);
        if outcome.is_complete() {
            completed.insert(
                fingerprint,
                CheckpointEntry {
                    fingerprint,
                    outcome,
                    spec_label: (*spec_label).to_owned(),
                    tech_label: (*tech_label).to_owned(),
                },
            );
        }
    }
    Ok(Parsed {
        completed,
        good_lines,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("oasys-batch-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut cp = Checkpoint::open(&path).unwrap();
            cp.record(
                0xdead_beef,
                &CheckpointOutcome::Ok {
                    style: "two-stage".into(),
                    area_um2: 1234.5678,
                },
                "b.txt",
                "p.tech",
            )
            .unwrap();
            cp.record(7, &CheckpointOutcome::Infeasible, "c.txt", "q.tech")
                .unwrap();
            cp.record(9, &CheckpointOutcome::Failed, "d.txt", "q.tech")
                .unwrap();
        }
        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.completed_count(), 2, "failed entries are not complete");
        assert_eq!(cp.quarantined(), 0);
        let entry = cp.completed(0xdead_beef).unwrap();
        match &entry.outcome {
            CheckpointOutcome::Ok { style, area_um2 } => {
                assert_eq!(style, "two-stage");
                assert_eq!(area_um2.to_bits(), 1234.5678_f64.to_bits());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(cp.completed(9).is_none(), "failed jobs re-run on resume");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn new_checkpoints_write_sealed_v2_lines() {
        let path = tmp("sealed");
        let _ = std::fs::remove_file(&path);
        let mut cp = Checkpoint::open(&path).unwrap();
        cp.record(1, &CheckpointOutcome::Infeasible, "a", "b")
            .unwrap();
        drop(cp);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(CHECKPOINT_HEADER));
        let record = lines.next().unwrap();
        match crate::integrity::open_line(record) {
            LineIntegrity::Sealed(payload) => {
                assert!(
                    payload.starts_with("0000000000000001\tinfeasible"),
                    "{payload}"
                );
            }
            other => panic!("record line is not sealed: {other:?} ({record})"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_fresh_checkpoint() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.completed_count(), 0);
    }

    #[test]
    fn torn_final_line_is_dropped_and_repaired() {
        let path = tmp("truncated");
        let durable = format!(
            "{CHECKPOINT_HEADER}\n{}\n",
            integrity::seal_line("0000000000000007\tinfeasible\t-\t-\ta\tb")
        );
        std::fs::write(&path, format!("{durable}00000000000000ff\tok\ttwo-")).unwrap();
        let mut cp = Checkpoint::open(&path).unwrap();
        assert!(cp.recovered(), "torn tail must be reported");
        assert_eq!(cp.completed_count(), 1, "durable prefix survives");
        assert!(cp.completed(0xff).is_none(), "the torn record is absent");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            durable,
            "file truncated back to its durable prefix"
        );
        // Appends after the repair keep the file well-formed.
        cp.record(0xff, &CheckpointOutcome::Infeasible, "a", "b")
            .unwrap();
        drop(cp);
        let cp = Checkpoint::open(&path).unwrap();
        assert!(!cp.recovered());
        assert_eq!(cp.completed_count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_byte_is_quarantined_and_healed_not_fatal() {
        let path = tmp("bitrot");
        let _ = std::fs::remove_file(&path);
        {
            let mut cp = Checkpoint::open(&path).unwrap();
            for fp in [1u64, 2, 3] {
                cp.record(fp, &CheckpointOutcome::Infeasible, "a", "b")
                    .unwrap();
            }
        }
        // Flip one byte in the middle record (line 3 of the file).
        let mut bytes = std::fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        bytes[line_starts[2] + 4] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.quarantined(), 1, "exactly the damaged line is dropped");
        assert_eq!(cp.completed_count(), 2, "healthy records survive");
        assert!(cp.completed(2).is_none(), "the damaged job re-runs");
        assert!(cp.completed(1).is_some() && cp.completed(3).is_some());
        drop(cp);
        // The heal is durable: a second open sees a clean file.
        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.quarantined(), 0, "quarantined line healed away");
        assert_eq!(cp.completed_count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_and_empty_file_open_fresh() {
        let path = tmp("torn-header");
        std::fs::write(&path, "oasys-batch-ch").unwrap();
        let cp = Checkpoint::open(&path).unwrap();
        assert!(cp.recovered(), "a torn header is a torn final line");
        assert_eq!(cp.completed_count(), 0);
        let cp = Checkpoint::open(&path).unwrap();
        assert!(!cp.recovered(), "repair left an (empty) well-formed file");
        assert_eq!(cp.completed_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_fault_leaves_a_recoverable_file() {
        let path = tmp("torn-fault");
        let _ = std::fs::remove_file(&path);
        let mut cp = Checkpoint::open(&path).unwrap();
        cp.record(1, &CheckpointOutcome::Infeasible, "a", "b")
            .unwrap();
        oasys_faults::set("batch.checkpoint.record", oasys_faults::FaultSpec::FailOnce);
        let err = cp
            .record(2, &CheckpointOutcome::Infeasible, "c", "d")
            .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        oasys_faults::remove("batch.checkpoint.record");
        drop(cp);
        assert!(
            !std::fs::read_to_string(&path).unwrap().ends_with('\n'),
            "the fault really tore the final line"
        );
        let cp = Checkpoint::open(&path).unwrap();
        assert!(cp.recovered());
        assert_eq!(
            cp.completed_count(),
            1,
            "record 1 survives, record 2 re-runs"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_header_and_malformed_records_are_corrupt() {
        let path = tmp("corrupt");
        // Unknown headers, including the retired unsealed v1 format,
        // are refused with the offending format named.
        for header in ["not a checkpoint", "oasys-batch-checkpoint v1"] {
            std::fs::write(&path, format!("{header}\n")).unwrap();
            let err = Checkpoint::open(&path).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(header), "{err}");
        }
        // A line whose checksum *verifies* but whose payload is
        // malformed was written wrong, not damaged: still corrupt.
        for (payload, expect) in [
            ("not-a-record", "6 tab-separated"),
            ("zz\tok\ts\t0000000000000000\ta\tb", "bad fingerprint"),
        ] {
            std::fs::write(
                &path,
                format!("{CHECKPOINT_HEADER}\n{}\n", integrity::seal_line(payload)),
            )
            .unwrap();
            let err = Checkpoint::open(&path).unwrap_err();
            assert!(err.to_string().contains(expect), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn start_fresh_discards_a_corrupt_file() {
        let path = tmp("fresh");
        std::fs::write(&path, "garbage").unwrap();
        let cp = Checkpoint::start_fresh(&path).unwrap();
        assert_eq!(cp.completed_count(), 0);
        assert!(!path.exists(), "stale file removed");
    }
}
