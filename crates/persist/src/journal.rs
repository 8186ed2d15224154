//! The journal: a WAL plus point-in-time checkpoints under one data
//! directory, with crash-consistent recovery.
//!
//! File layout under the configured directory:
//!
//! ```text
//! <dir>/wal-000000.log    append-only segments (see [`crate::wal`])
//! <dir>/wal-000001.log
//! <dir>/ckpt-00000000000000000042.ck   one framed CHECKPOINT record;
//!                                      42 = highest WAL seq it covers
//! ```
//!
//! A checkpoint supersedes the WAL: writing one deletes the segments, and
//! appends continue with the next sequence number. Recovery loads the
//! newest checkpoint whose record validates (corrupt ones are skipped, not
//! panicked on) and replays whatever WAL tail follows it.

use crate::record::{self, kind, Decoded, Record};
use crate::wal::{replay_dir, ReplayStats, Wal};
use athena_telemetry::{Counter, Histogram, Telemetry};
use athena_types::{AthenaError, Result, SimTime};
use std::fs;
use std::path::{Path, PathBuf};

/// Where and how a journal stores its files.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Data directory (created on open).
    pub dir: PathBuf,
    /// WAL segment rollover threshold in bytes.
    pub segment_max_bytes: u64,
}

impl PersistConfig {
    /// Config with the default 1 MiB segment size.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
        }
    }
}

/// A validated checkpoint loaded during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Highest WAL sequence number the snapshot covers.
    pub seq: u64,
    /// Virtual time at which it was taken.
    pub time: SimTime,
    /// The snapshot payload.
    pub payload: Vec<u8>,
}

/// Everything recovered when a journal is opened.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Newest valid checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
    /// WAL records after the checkpoint, in sequence order.
    pub tail: Vec<Record>,
    /// WAL replay statistics.
    pub stats: ReplayStats,
    /// Checkpoint files that failed validation and were skipped.
    pub corrupt_checkpoints_skipped: u64,
}

#[derive(Debug, Default)]
struct JournalTelemetry {
    append_ns: Option<Histogram>,
    checkpoint_bytes: Option<Histogram>,
    wal_records: Counter,
    wal_bytes: Counter,
    checkpoints_written: Counter,
    records_replayed: Counter,
    tails_truncated: Counter,
}

/// An open journal: append WAL records, take checkpoints.
#[derive(Debug)]
pub struct Journal {
    config: PersistConfig,
    wal: Wal,
    next_seq: u64,
    tel: JournalTelemetry,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> AthenaError {
    AthenaError::Persist(format!("{what} {}: {e}", path.display()))
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:020}.ck"))
}

fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("read dir", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Reads and validates a checkpoint file: exactly one CHECKPOINT record.
fn load_checkpoint(path: &Path) -> Option<Checkpoint> {
    let bytes = fs::read(path).ok()?;
    match record::decode(&bytes) {
        Decoded::Record(rec, consumed)
            if rec.kind == kind::CHECKPOINT && consumed == bytes.len() =>
        {
            Some(Checkpoint {
                seq: rec.seq,
                time: rec.time,
                payload: rec.payload,
            })
        }
        _ => None,
    }
}

impl Journal {
    /// Opens (or creates) the journal, running recovery first. Returns the
    /// journal positioned after the last valid record, plus everything a
    /// caller needs to rebuild state.
    pub fn open(config: PersistConfig) -> Result<(Journal, Recovery)> {
        fs::create_dir_all(&config.dir).map_err(|e| io_err("create dir", &config.dir, e))?;
        let mut recovery = Recovery::default();
        for (_, path) in list_checkpoints(&config.dir)?.iter().rev() {
            match load_checkpoint(path) {
                Some(ck) => {
                    recovery.checkpoint = Some(ck);
                    break;
                }
                None => recovery.corrupt_checkpoints_skipped += 1,
            }
        }
        let after_seq = recovery.checkpoint.as_ref().map_or(0, |c| c.seq);
        let replay = replay_dir(&config.dir, after_seq)?;
        recovery.stats = replay.stats;
        let last_seq = replay.records.last().map_or(after_seq, |r| r.seq);
        recovery.tail = replay.records;
        let wal = Wal::open(&config.dir, config.segment_max_bytes)?;
        Ok((
            Journal {
                config,
                wal,
                next_seq: last_seq + 1,
                tel: JournalTelemetry::default(),
            },
            recovery,
        ))
    }

    /// Opens the journal and routes `persist/<subsystem>_*` metrics into
    /// `tel`, including the recovery counters from this open.
    pub fn open_with_telemetry(
        config: PersistConfig,
        tel: &Telemetry,
        subsystem: &str,
    ) -> Result<(Journal, Recovery)> {
        let (mut journal, recovery) = Journal::open(config)?;
        journal.bind_telemetry(tel, subsystem);
        journal.tel.records_replayed.add(recovery.stats.replayed);
        journal
            .tel
            .tails_truncated
            .add(recovery.stats.tails_truncated + recovery.corrupt_checkpoints_skipped);
        Ok((journal, recovery))
    }

    /// Routes this journal's metrics into `tel` under the `persist`
    /// subsystem, tagged with `name` (e.g. `store`, `controller`).
    pub fn bind_telemetry(&mut self, tel: &Telemetry, name: &str) {
        use athena_telemetry::names::persist as p;
        let m = tel.metrics();
        let hist = |suffix: &str| m.histogram(p::SUBSYSTEM, &format!("{name}{suffix}"));
        let ctr = |suffix: &str| m.counter(p::SUBSYSTEM, &format!("{name}{suffix}"));
        self.tel.append_ns = Some(hist(p::APPEND_NS_SUFFIX));
        self.tel.checkpoint_bytes = Some(hist(p::CHECKPOINT_BYTES_SUFFIX));
        self.tel.wal_records = ctr(p::WAL_RECORDS_SUFFIX);
        self.tel.wal_bytes = ctr(p::WAL_BYTES_SUFFIX);
        self.tel.checkpoints_written = ctr(p::CHECKPOINTS_SUFFIX);
        self.tel.records_replayed = ctr(p::RECORDS_REPLAYED_SUFFIX);
        self.tel.tails_truncated = ctr(p::TAILS_TRUNCATED_SUFFIX);
    }

    /// Appends one record to the WAL, returning its sequence number.
    pub fn append(&mut self, kind: u8, payload: &[u8], now: SimTime) -> Result<u64> {
        let timer = self.tel.append_ns.as_ref().map(Histogram::start_timer);
        let seq = self.next_seq;
        let len = self.wal.append(kind, seq, now, payload)?;
        self.next_seq += 1;
        self.tel.wal_records.inc();
        self.tel.wal_bytes.add(len as u64);
        if let (Some(t), Some(h)) = (timer, self.tel.append_ns.as_ref()) {
            t.observe(h);
        }
        Ok(seq)
    }

    /// Writes a checkpoint covering every record appended so far, then
    /// deletes the superseded WAL segments.
    pub fn checkpoint(&mut self, payload: &[u8], now: SimTime) -> Result<u64> {
        let covered = self.next_seq - 1;
        let bytes = record::encode(kind::CHECKPOINT, covered, now, payload);
        let path = checkpoint_path(&self.config.dir, covered);
        fs::write(&path, &bytes).map_err(|e| io_err("write", &path, e))?;
        self.wal.reset()?;
        self.tel.checkpoints_written.inc();
        if let Some(h) = &self.tel.checkpoint_bytes {
            h.record(bytes.len() as u64);
        }
        Ok(covered)
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

/// Writes a standalone single-record snapshot file (used for trained-model
/// persistence): the same framing as the journal, one record, seq 0.
pub fn write_snapshot_file(path: &Path, kind: u8, payload: &[u8], now: SimTime) -> Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| io_err("create dir", parent, e))?;
    }
    let bytes = record::encode(kind, 0, now, payload);
    fs::write(path, &bytes).map_err(|e| io_err("write", path, e))
}

/// Reads a standalone snapshot file back, validating framing, CRC, and the
/// expected record kind. Corruption is an error, never a panic.
pub fn read_snapshot_file(path: &Path, expected_kind: u8) -> Result<(SimTime, Vec<u8>)> {
    let bytes = fs::read(path).map_err(|e| io_err("read", path, e))?;
    match record::decode(&bytes) {
        Decoded::Record(rec, consumed) if consumed == bytes.len() => {
            if rec.kind != expected_kind {
                return Err(AthenaError::Persist(format!(
                    "snapshot {}: kind {} where {} expected",
                    path.display(),
                    rec.kind,
                    expected_kind
                )));
            }
            Ok((rec.time, rec.payload))
        }
        Decoded::Record(..) => Err(AthenaError::Persist(format!(
            "snapshot {}: trailing bytes after record",
            path.display()
        ))),
        Decoded::Incomplete => Err(AthenaError::Persist(format!(
            "snapshot {}: torn record",
            path.display()
        ))),
        Decoded::Corrupt => Err(AthenaError::Persist(format!(
            "snapshot {}: corrupt record",
            path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "athena-journal-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn fresh_journal_recovers_nothing() {
        let dir = test_dir();
        let (journal, recovery) = Journal::open(PersistConfig::new(&dir)).unwrap();
        assert!(recovery.checkpoint.is_none());
        assert!(recovery.tail.is_empty());
        assert_eq!(journal.next_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_checkpoint_append_recovers_in_order() {
        let dir = test_dir();
        {
            let (mut j, _) = Journal::open(PersistConfig::new(&dir)).unwrap();
            j.append(kind::STORE_OP, b"a", SimTime::from_secs(1))
                .unwrap();
            j.append(kind::STORE_OP, b"b", SimTime::from_secs(2))
                .unwrap();
            j.checkpoint(b"snapshot-at-2", SimTime::from_secs(2))
                .unwrap();
            j.append(kind::STORE_OP, b"c", SimTime::from_secs(3))
                .unwrap();
        }
        let (j, rec) = Journal::open(PersistConfig::new(&dir)).unwrap();
        let ck = rec.checkpoint.expect("checkpoint");
        assert_eq!(ck.payload, b"snapshot-at-2");
        assert_eq!(ck.seq, 2);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].payload, b"c");
        assert_eq!(j.next_seq(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_one() {
        let dir = test_dir();
        {
            let (mut j, _) = Journal::open(PersistConfig::new(&dir)).unwrap();
            j.append(kind::STORE_OP, b"a", SimTime::from_secs(1))
                .unwrap();
            j.checkpoint(b"first", SimTime::from_secs(1)).unwrap();
            j.append(kind::STORE_OP, b"b", SimTime::from_secs(2))
                .unwrap();
            j.checkpoint(b"second", SimTime::from_secs(2)).unwrap();
        }
        // Flip a payload bit in the newest checkpoint.
        let newest = checkpoint_path(&dir, 2);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (_, rec) = Journal::open(PersistConfig::new(&dir)).unwrap();
        let ck = rec.checkpoint.expect("older checkpoint");
        assert_eq!(ck.payload, b"first");
        assert_eq!(rec.corrupt_checkpoints_skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_counters_track_appends_and_recovery() {
        let dir = test_dir();
        let tel = Telemetry::new();
        {
            let (mut j, _) =
                Journal::open_with_telemetry(PersistConfig::new(&dir), &tel, "store").unwrap();
            j.append(kind::STORE_OP, b"x", SimTime::from_secs(1))
                .unwrap();
            j.append(kind::STORE_OP, b"y", SimTime::from_secs(1))
                .unwrap();
            j.checkpoint(b"snap", SimTime::from_secs(1)).unwrap();
        }
        let m = tel.metrics();
        assert_eq!(m.counter("persist", "store_wal_records").get(), 2);
        assert_eq!(m.counter("persist", "store_checkpoints").get(), 1);
        assert!(m.counter("persist", "store_wal_bytes").get() > 0);
        let tel2 = Telemetry::new();
        {
            let (mut j, _) =
                Journal::open_with_telemetry(PersistConfig::new(&dir), &tel2, "store").unwrap();
            j.append(kind::STORE_OP, b"z", SimTime::from_secs(2))
                .unwrap();
        }
        let (_, rec) =
            Journal::open_with_telemetry(PersistConfig::new(&dir), &tel2, "store").unwrap();
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(
            tel2.metrics()
                .counter("persist", "store_records_replayed")
                .get(),
            1
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_files_round_trip_and_reject_corruption() {
        let dir = test_dir();
        let path = dir.join("model.snap");
        write_snapshot_file(&path, kind::MODEL, b"model-json", SimTime::from_secs(9)).unwrap();
        let (time, payload) = read_snapshot_file(&path, kind::MODEL).unwrap();
        assert_eq!(time, SimTime::from_secs(9));
        assert_eq!(payload, b"model-json");
        assert!(read_snapshot_file(&path, kind::STORE_OP).is_err());
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot_file(&path, kind::MODEL).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
