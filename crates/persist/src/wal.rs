//! The append-only, segmented write-ahead log.
//!
//! Segments are named `wal-NNNNNN.log` (zero-padded, so lexicographic order
//! is append order) under the journal's data directory. Appends go to the
//! highest segment and roll over once it would exceed the configured
//! segment size. Nothing is fsynced — durability in this deterministic
//! reproduction means "what made it to the file system", mirroring how the
//! paper leans on MongoDB's journal without managing disks itself.
//!
//! Replay walks segments in order and decodes records front-to-back:
//!
//! - a torn or corrupt record ends the log — the tail is *physically
//!   truncated* from the segment, later segments are ignored (their records
//!   would leave a gap), and the event is counted, never panicked on;
//! - a record whose sequence number is `<=` the last accepted one is a
//!   duplicate (e.g. a copied segment) and is skipped;
//! - a forward jump in sequence numbers means records were lost between
//!   segments; replay stops there rather than apply post-gap state.

use crate::record::{self, Decoded, Record};
use athena_types::{AthenaError, Result, SimTime};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Statistics from one replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Valid records accepted.
    pub replayed: u64,
    /// Torn or corrupt tails truncated (at most one per replay — the log
    /// ends at the first).
    pub tails_truncated: u64,
    /// Records skipped because their sequence number was already seen.
    pub duplicates_skipped: u64,
    /// Replay stopped early at a forward sequence gap.
    pub stopped_at_gap: bool,
}

/// Result of replaying a WAL directory.
#[derive(Debug, Default)]
pub struct Replay {
    /// Accepted records, in sequence order.
    pub records: Vec<Record>,
    /// What happened along the way.
    pub stats: ReplayStats,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> AthenaError {
    AthenaError::Persist(format!("{what} {}: {e}", path.display()))
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

/// Lists WAL segment files in `dir`, sorted by segment index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segs),
        Err(e) => return Err(io_err("read dir", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segs.push((idx, entry.path()));
        }
    }
    segs.sort();
    Ok(segs)
}

/// Replays every segment under `dir`, truncating the first torn/corrupt
/// tail in place and skipping duplicate sequence numbers. `after_seq`
/// filters out records already covered by a checkpoint.
pub fn replay_dir(dir: &Path, after_seq: u64) -> Result<Replay> {
    let mut out = Replay::default();
    let mut last_seq = after_seq;
    for (_, path) in list_segments(dir)? {
        let bytes = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let mut offset = 0;
        while offset < bytes.len() {
            match record::decode(&bytes[offset..]) {
                Decoded::Record(rec, consumed) => {
                    offset += consumed;
                    if rec.seq <= last_seq {
                        out.stats.duplicates_skipped += 1;
                        continue;
                    }
                    if rec.seq > last_seq + 1 {
                        // A forward gap: records between last_seq and
                        // rec.seq are missing. Applying later state would
                        // be silently wrong — stop here.
                        out.stats.stopped_at_gap = true;
                        return Ok(out);
                    }
                    last_seq = rec.seq;
                    out.stats.replayed += 1;
                    out.records.push(rec);
                }
                Decoded::Incomplete | Decoded::Corrupt => {
                    // Torn or corrupt tail: cut it off and end the log here.
                    let f = fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| io_err("open", &path, e))?;
                    f.set_len(offset as u64)
                        .map_err(|e| io_err("truncate", &path, e))?;
                    out.stats.tails_truncated += 1;
                    return Ok(out);
                }
            }
        }
    }
    Ok(out)
}

/// The writer half: appends framed records to the current segment.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    segment_max_bytes: u64,
    seg_index: u64,
    seg_bytes: u64,
}

impl Wal {
    /// Opens the WAL under `dir` for appending, continuing the highest
    /// existing segment.
    pub fn open(dir: &Path, segment_max_bytes: u64) -> Result<Self> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        let (seg_index, seg_bytes) = match list_segments(dir)?.last() {
            Some((idx, path)) => {
                let len = fs::metadata(path)
                    .map_err(|e| io_err("stat", path, e))?
                    .len();
                (*idx, len)
            }
            None => (0, 0),
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            segment_max_bytes,
            seg_index,
            seg_bytes,
        })
    }

    /// Appends one framed record, rolling to a new segment when the current
    /// one is full. Returns the encoded length in bytes.
    pub fn append(&mut self, kind: u8, seq: u64, time: SimTime, payload: &[u8]) -> Result<usize> {
        let bytes = record::encode(kind, seq, time, payload);
        if self.seg_bytes > 0 && self.seg_bytes + bytes.len() as u64 > self.segment_max_bytes {
            self.seg_index += 1;
            self.seg_bytes = 0;
        }
        let path = segment_path(&self.dir, self.seg_index);
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        f.write_all(&bytes)
            .map_err(|e| io_err("append", &path, e))?;
        self.seg_bytes += bytes.len() as u64;
        Ok(bytes.len())
    }

    /// Deletes every segment and resets to segment 0 — called after a
    /// checkpoint supersedes the log.
    pub fn reset(&mut self) -> Result<()> {
        for (_, path) in list_segments(&self.dir)? {
            fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
        }
        self.seg_index = 0;
        self.seg_bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::kind;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "athena-wal-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn fill(wal: &mut Wal, n: u64) {
        for seq in 1..=n {
            wal.append(
                kind::STORE_OP,
                seq,
                SimTime::from_micros(seq),
                format!("payload {seq}").as_bytes(),
            )
            .unwrap();
        }
    }

    #[test]
    fn append_replay_round_trips() {
        let dir = test_dir();
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        fill(&mut wal, 10);
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.stats.replayed, 10);
        assert_eq!(replay.stats.tails_truncated, 0);
        assert_eq!(replay.records.len(), 10);
        assert_eq!(replay.records[4].payload, b"payload 5");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolls_segments_and_replays_across_them() {
        let dir = test_dir();
        let mut wal = Wal::open(&dir, 128).unwrap();
        fill(&mut wal, 20);
        assert!(wal.seg_index > 0, "expected rollover");
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.stats.replayed, 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = test_dir();
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        fill(&mut wal, 5);
        let path = segment_path(&dir, 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.stats.replayed, 4);
        assert_eq!(replay.stats.tails_truncated, 1);
        // The truncated log now replays cleanly.
        let again = replay_dir(&dir, 0).unwrap();
        assert_eq!(again.stats.replayed, 4);
        assert_eq!(again.stats.tails_truncated, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicated_segment_is_skipped() {
        let dir = test_dir();
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        fill(&mut wal, 6);
        fs::copy(segment_path(&dir, 0), segment_path(&dir, 1)).unwrap();
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.stats.replayed, 6);
        assert_eq!(replay.stats.duplicates_skipped, 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_continues_the_sequence() {
        let dir = test_dir();
        let mut wal = Wal::open(&dir, 256).unwrap();
        fill(&mut wal, 8);
        drop(wal);
        let mut wal = Wal::open(&dir, 256).unwrap();
        for seq in 9..=12 {
            wal.append(kind::STORE_OP, seq, SimTime::from_micros(seq), b"more")
                .unwrap();
        }
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.stats.replayed, 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn after_seq_filters_checkpoint_covered_records() {
        let dir = test_dir();
        let mut wal = Wal::open(&dir, 1 << 20).unwrap();
        fill(&mut wal, 10);
        let replay = replay_dir(&dir, 7).unwrap();
        assert_eq!(replay.stats.replayed, 3);
        assert_eq!(replay.records[0].seq, 8);
        fs::remove_dir_all(&dir).unwrap();
    }
}
