//! The streaming shard record sink.
//!
//! A shard streams every finished record to an append-only *partial*
//! file (`shard-<i>-of-<N>.jsonl.partial`), one JSON line at a time
//! through a bounded buffer, flushed per record — the same durability
//! discipline as batch checkpoints, and the shard's *only* checkpoint:
//! on restart the partial's durable prefix is salvaged and only
//! unrecorded points re-run.
//!
//! Every line is *sealed* with a per-line FNV-1a checksum suffix
//! ([`crate::integrity`]) — the `oasys-dataset/2` line format:
//! `<record json>\t<fnv1a64 hex>\n`. Salvage classifies damage per
//! line: a torn final line (no newline — the one kind of damage an
//! append-and-flush crash can inflict) is truncated away; an interior
//! line whose seal fails to verify (bit rot) is *quarantined* — left in
//! place but dropped from the resume index, so exactly that point
//! re-runs and its fresh line supersedes the damaged one. An unsealed
//! line counts as corrupt.
//!
//! When every point has a line, [`ShardSink::finalize`] publishes the
//! shard atomically: records are re-read from the partial *by offset*
//! in global-id order (the full record set is never resident in
//! memory), written to a temp file, fsynced, then renamed to
//! `shard-<i>-of-<N>.jsonl` alongside an equally atomic
//! `shard-<i>-of-<N>.summary.json`. A crash before the rename leaves
//! the partial to resume from; after it, the shard is complete — and
//! [`heal_published`] re-verifies the published lines on later runs,
//! demoting a silently-corrupted shard back to a partial of its healthy
//! lines so the damaged points re-run instead of being trusted.
//!
//! Fault sites: `dataset.sink.record` tears a record write in half
//! (bytes land, no newline, error reported); `sink.record.corrupt`
//! flips one byte mid-line and *reports success* — silent bit rot,
//! detectable only by the checksum.

use crate::integrity::{self, LineIntegrity};
use oasys_telemetry::json;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Write-buffer capacity: bounds sink memory however large the records
/// get (netlists included); every record is flushed through it anyway.
const BUFFER_BYTES: usize = 64 * 1024;

/// File-name stem for one shard of `shards`.
#[must_use]
pub fn shard_stem(shard_index: usize, shards: usize) -> String {
    format!("shard-{shard_index}-of-{shards}")
}

/// Path of a shard's published record file.
#[must_use]
pub fn shard_records_path(dir: &Path, shard_index: usize, shards: usize) -> PathBuf {
    dir.join(format!("{}.jsonl", shard_stem(shard_index, shards)))
}

/// Path of a shard's published summary file.
#[must_use]
pub fn shard_summary_path(dir: &Path, shard_index: usize, shards: usize) -> PathBuf {
    dir.join(format!("{}.summary.json", shard_stem(shard_index, shards)))
}

/// Path of a shard's in-progress partial file.
#[must_use]
pub fn shard_partial_path(dir: &Path, shard_index: usize, shards: usize) -> PathBuf {
    dir.join(format!("{}.jsonl.partial", shard_stem(shard_index, shards)))
}

/// The streaming record sink for one shard.
pub struct ShardSink {
    partial_path: PathBuf,
    records_path: PathBuf,
    summary_path: PathBuf,
    writer: BufWriter<File>,
    /// Global id → (offset, length) of its line in the partial file.
    index: BTreeMap<usize, (u64, u64)>,
    offset: u64,
    quarantined: usize,
}

impl ShardSink {
    /// `true` when this shard has already been published (records +
    /// summary exist) — a re-run may skip it entirely *after*
    /// [`heal_published`] re-verifies the lines.
    #[must_use]
    pub fn is_complete(dir: &Path, shard_index: usize, shards: usize) -> bool {
        shard_records_path(dir, shard_index, shards).is_file()
            && shard_summary_path(dir, shard_index, shards).is_file()
    }

    /// Opens (or resumes) the shard's partial file. An existing partial
    /// is salvaged line by line: each verified record line joins the
    /// resume index; a torn final line is truncated away; a corrupt
    /// interior line is quarantined ([`ShardSink::quarantined_count`])
    /// and its point re-runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating, reading, or repairing the
    /// partial file.
    pub fn open(dir: &Path, shard_index: usize, shards: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let partial_path = shard_partial_path(dir, shard_index, shards);
        let mut index = BTreeMap::new();
        let mut quarantined = 0usize;
        let mut durable = 0u64;
        if partial_path.is_file() {
            // Bytes, not a String: corruption can produce invalid
            // UTF-8, which must quarantine a line, not fail the open.
            let bytes = std::fs::read(&partial_path)?;
            let mut cursor = 0usize;
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                if !line.ends_with(b"\n") {
                    break; // torn tail: no newline made it to disk
                }
                match std::str::from_utf8(line).ok().and_then(parse_record_id) {
                    Some(id) => {
                        index.insert(id, (cursor as u64, line.len() as u64));
                    }
                    // Corrupt interior line: quarantine it. The bytes
                    // stay (append-only discipline) but the point is
                    // not on record, so it re-runs and its fresh line
                    // wins at finalize.
                    None => quarantined += 1,
                }
                cursor += line.len();
                durable = cursor as u64;
            }
            if durable < bytes.len() as u64 {
                let file = OpenOptions::new().write(true).open(&partial_path)?;
                file.set_len(durable)?;
                file.sync_all()?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&partial_path)?;
        Ok(Self {
            partial_path,
            records_path: shard_records_path(dir, shard_index, shards),
            summary_path: shard_summary_path(dir, shard_index, shards),
            writer: BufWriter::with_capacity(BUFFER_BYTES, file),
            index,
            offset: durable,
            quarantined,
        })
    }

    /// Global ids already on durable record (salvaged or written this
    /// run).
    #[must_use]
    pub fn recorded_ids(&self) -> Vec<usize> {
        self.index.keys().copied().collect()
    }

    /// Number of records on durable record.
    #[must_use]
    pub fn recorded_count(&self) -> usize {
        self.index.len()
    }

    /// Corrupt lines quarantined while salvaging the partial on open.
    /// Each quarantined point re-runs this run.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.quarantined
    }

    /// Appends one sealed record line (`line` carries no seal and no
    /// trailing newline) and flushes it to the OS — a crash after
    /// `record` returns cannot lose this record.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the injected `dataset.sink.record`
    /// fault lands half the bytes and then fails, exactly like a
    /// mid-write crash. The `sink.record.corrupt` fault flips one byte
    /// and *succeeds* — silent bit rot for the chaos tests.
    pub fn record(&mut self, id: usize, line: &str) -> std::io::Result<()> {
        let sealed = integrity::seal_line(line);
        if oasys_faults::armed() && oasys_faults::fired("dataset.sink.record") {
            let torn = &sealed[..sealed.len() / 2];
            self.writer.write_all(torn.as_bytes())?;
            self.writer.flush()?;
            return Err(std::io::Error::other("fault injected: torn record write"));
        }
        let mut bytes = sealed.into_bytes();
        if oasys_faults::armed() && oasys_faults::fired("sink.record.corrupt") {
            // Silent corruption: one flipped byte, success reported.
            // XOR 0x01 never fabricates a newline from printable text.
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
        }
        self.writer.write_all(&bytes)?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.index.insert(id, (self.offset, bytes.len() as u64 + 1));
        self.offset += bytes.len() as u64 + 1;
        Ok(())
    }

    /// Publishes the shard: records stream from the partial file in
    /// global-id order into `<stem>.jsonl` (temp file → fsync →
    /// rename), `summary_json` lands as `<stem>.summary.json` the same
    /// way, and the partial is removed. Only one record is in memory at
    /// a time.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the partial file survives, so
    /// the shard resumes rather than restarts.
    pub fn finalize(mut self, summary_json: &str) -> std::io::Result<()> {
        self.writer.flush()?;
        let mut partial = File::open(&self.partial_path)?;
        let tmp = self
            .records_path
            .with_extension(format!("jsonl.tmp.{}", std::process::id()));
        {
            let mut out = BufWriter::with_capacity(BUFFER_BYTES, File::create(&tmp)?);
            let mut line = Vec::new();
            for &(start, len) in self.index.values() {
                partial.seek(SeekFrom::Start(start))?;
                line.resize(len as usize, 0);
                partial.read_exact(&mut line)?;
                if !line.ends_with(b"\n") {
                    line.push(b'\n');
                }
                out.write_all(&line)?;
            }
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, &self.records_path)?;
        write_atomic(&self.summary_path, summary_json)?;
        std::fs::remove_file(&self.partial_path)?;
        Ok(())
    }
}

/// Re-verifies a *published* shard's record lines. Clean shards return
/// `0` untouched. A shard with corrupt lines is demoted: its healthy
/// lines become a fresh partial (atomic write), then the published
/// records and summary are removed, so the caller resumes the shard and
/// re-runs exactly the damaged points. Returns the number of lines
/// quarantined.
///
/// Crash-safe at every step: the partial lands before the published
/// files go away, and the demotion is idempotent if interrupted.
///
/// # Errors
///
/// Propagates I/O failures reading or rewriting the shard files.
pub fn heal_published(dir: &Path, shard_index: usize, shards: usize) -> std::io::Result<usize> {
    let records_path = shard_records_path(dir, shard_index, shards);
    let bytes = std::fs::read(&records_path)?;
    let mut corrupt = 0usize;
    let mut healthy = Vec::with_capacity(bytes.len());
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if std::str::from_utf8(line)
            .ok()
            .and_then(parse_record_id)
            .is_some()
        {
            healthy.extend_from_slice(line);
            if !line.ends_with(b"\n") {
                healthy.push(b'\n');
            }
        } else {
            corrupt += 1;
        }
    }
    if corrupt == 0 {
        return Ok(0);
    }
    write_atomic_bytes(&shard_partial_path(dir, shard_index, shards), &healthy)?;
    std::fs::remove_file(shard_summary_path(dir, shard_index, shards))?;
    std::fs::remove_file(&records_path)?;
    Ok(corrupt)
}

/// Writes a whole file atomically: temp file, fsync, rename.
///
/// # Errors
///
/// Propagates I/O failures; a crash mid-write leaves only the temp
/// file, never a half-written target.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    write_atomic_bytes(path, text.as_bytes())
}

/// Byte-level [`write_atomic`] (salvaged record lines are already
/// newline-terminated bytes).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Extracts the `"id"` of a record line, verifying its checksum seal
/// and that the payload is parseable JSON — the salvage gate. A torn
/// line, a missing seal, a seal that fails to verify, or unparseable
/// JSON all fail here.
#[must_use]
pub fn parse_record_id(line: &str) -> Option<usize> {
    let payload = open_record_line(line)?;
    let value = json::parse(payload.trim_end()).ok()?;
    let id = value.get("id")?.as_num()?;
    if id.fract() != 0.0 || id < 0.0 {
        return None;
    }
    Some(id as usize)
}

/// Strips a line's checksum seal (when valid), returning the record
/// payload ready for `json::parse`. Corrupt lines return `None`.
#[must_use]
pub fn open_record_line(line: &str) -> Option<&str> {
    match integrity::open_line(line) {
        LineIntegrity::Sealed(payload) => Some(payload),
        LineIntegrity::Corrupt => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(id: usize) -> String {
        format!("{{\"id\":{id},\"outcome\":\"ok\"}}")
    }

    fn sealed(id: usize) -> String {
        integrity::seal_line(&line(id))
    }

    #[test]
    fn records_stream_and_salvage_survives_reopen() {
        let dir = crate::dataset::test_dir("sink_salvage");
        {
            let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
            sink.record(2, &line(2)).unwrap();
            sink.record(0, &line(0)).unwrap();
            // No finalize: simulate a crash between records.
        }
        let sink = ShardSink::open(&dir, 0, 1).unwrap();
        assert_eq!(sink.recorded_ids(), vec![0, 2]);
        assert_eq!(sink.quarantined_count(), 0);
    }

    #[test]
    fn partial_lines_are_sealed_on_disk() {
        let dir = crate::dataset::test_dir("sink_sealed");
        let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
        sink.record(0, &line(0)).unwrap();
        drop(sink);
        let text = std::fs::read_to_string(shard_partial_path(&dir, 0, 1)).unwrap();
        assert_eq!(text, format!("{}\n", sealed(0)));
    }

    #[test]
    fn torn_tail_is_truncated_and_rerun() {
        let dir = crate::dataset::test_dir("sink_torn");
        {
            let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
            sink.record(0, &line(0)).unwrap();
            oasys_faults::set("dataset.sink.record", oasys_faults::FaultSpec::FailOnce);
            let err = sink.record(1, &line(1)).unwrap_err();
            assert!(err.to_string().contains("torn"), "{err}");
            oasys_faults::remove("dataset.sink.record");
        }
        let sink = ShardSink::open(&dir, 0, 1).unwrap();
        assert_eq!(sink.recorded_ids(), vec![0], "torn record must re-run");
    }

    #[test]
    fn corrupt_interior_line_is_quarantined_not_contagious() {
        let dir = crate::dataset::test_dir("sink_bitrot");
        {
            let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
            sink.record(0, &line(0)).unwrap();
            oasys_faults::set("sink.record.corrupt", oasys_faults::FaultSpec::FailOnce);
            sink.record(1, &line(1)).unwrap(); // silently corrupted
            oasys_faults::remove("sink.record.corrupt");
            sink.record(2, &line(2)).unwrap();
        }
        let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
        assert_eq!(
            sink.recorded_ids(),
            vec![0, 2],
            "the corrupt line is dropped from the index, neighbors survive"
        );
        assert_eq!(sink.quarantined_count(), 1);
        // The point re-runs; its fresh line wins at finalize.
        sink.record(1, &line(1)).unwrap();
        sink.finalize("{}").unwrap();
        let published = std::fs::read_to_string(shard_records_path(&dir, 0, 1)).unwrap();
        assert_eq!(
            published,
            format!("{}\n{}\n{}\n", sealed(0), sealed(1), sealed(2))
        );
    }

    #[test]
    fn heal_published_demotes_a_corrupted_shard() {
        let dir = crate::dataset::test_dir("sink_heal");
        let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
        for id in 0..3 {
            sink.record(id, &line(id)).unwrap();
        }
        sink.finalize("{\"records\":3}").unwrap();
        assert_eq!(heal_published(&dir, 0, 1).unwrap(), 0, "clean shard");
        assert!(ShardSink::is_complete(&dir, 0, 1));

        // Flip a byte in the middle record of the published file.
        let path = shard_records_path(&dir, 0, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second_line + 3] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(heal_published(&dir, 0, 1).unwrap(), 1);
        assert!(!ShardSink::is_complete(&dir, 0, 1), "shard demoted");
        let sink = ShardSink::open(&dir, 0, 1).unwrap();
        assert_eq!(
            sink.recorded_ids(),
            vec![0, 2],
            "healthy lines resumed; the damaged point re-runs"
        );
    }

    #[test]
    fn finalize_publishes_sorted_records_atomically() {
        let dir = crate::dataset::test_dir("sink_finalize");
        let mut sink = ShardSink::open(&dir, 1, 2).unwrap();
        for id in [5, 1, 3] {
            sink.record(id, &line(id)).unwrap();
        }
        sink.finalize("{\"records\":3}").unwrap();
        let published = std::fs::read_to_string(shard_records_path(&dir, 1, 2)).unwrap();
        assert_eq!(
            published,
            format!("{}\n{}\n{}\n", sealed(1), sealed(3), sealed(5))
        );
        let summary = std::fs::read_to_string(shard_summary_path(&dir, 1, 2)).unwrap();
        assert_eq!(summary, "{\"records\":3}");
        assert!(ShardSink::is_complete(&dir, 1, 2));
        assert!(!dir.join("shard-1-of-2.jsonl.partial").exists());
    }

    #[test]
    fn rewritten_record_takes_the_latest_line() {
        let dir = crate::dataset::test_dir("sink_rewrite");
        let mut sink = ShardSink::open(&dir, 0, 1).unwrap();
        sink.record(0, "{\"id\":0,\"outcome\":\"failed\"}").unwrap();
        sink.record(0, &line(0)).unwrap();
        sink.finalize("{}").unwrap();
        let published = std::fs::read_to_string(shard_records_path(&dir, 0, 1)).unwrap();
        assert_eq!(published, format!("{}\n", sealed(0)));
    }
}
