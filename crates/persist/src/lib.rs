//! Write-ahead logging and checkpoint/restore for the Athena reproduction.
//!
//! The Athena paper (Lee et al., DSN 2017) delegates durability to its
//! backing services: MongoDB journals the feature database, and Spark
//! recomputes lost partitions. This reproduction's store, controllers, and
//! trained models are in-process, so this crate supplies the equivalent
//! guarantee from scratch:
//!
//! - [`record`] — versioned record framing with CRC32 checksums, shared by
//!   WAL segments, checkpoint files, and standalone model snapshots,
//! - [`crc`] — the checksum itself (IEEE, const-table, allocation-free),
//! - [`wal`] — an append-only segmented log that truncates torn or corrupt
//!   tails on replay instead of panicking,
//! - [`journal`] — WAL + point-in-time checkpoints under one data
//!   directory; recovery = newest valid checkpoint + WAL tail replay.
//!
//! Everything is deterministic: records are stamped with virtual time
//! ([`athena_types::SimTime`]), file names are derived from sequence
//! numbers, and nothing is fsynced — the crate models crash-consistent
//! recovery for the simulation, not disk physics.
//!
//! # Examples
//!
//! ```
//! use athena_persist::{Journal, PersistConfig, record::kind};
//! use athena_types::SimTime;
//!
//! let dir = std::env::temp_dir().join(format!("athena-persist-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let (mut journal, recovery) = Journal::open(PersistConfig::new(&dir))?;
//! assert!(recovery.checkpoint.is_none());
//! journal.append(kind::STORE_OP, b"insert {..}", SimTime::from_secs(1))?;
//! journal.checkpoint(b"full snapshot", SimTime::from_secs(2))?;
//!
//! // A later open recovers the checkpoint (and any WAL tail after it).
//! let (_journal, recovery) = Journal::open(PersistConfig::new(&dir))?;
//! assert_eq!(recovery.checkpoint.unwrap().payload, b"full snapshot");
//! std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), athena_types::AthenaError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod crc;
pub mod journal;
pub mod record;
pub mod wal;

pub use journal::{
    read_snapshot_file, write_snapshot_file, Checkpoint, Journal, PersistConfig, Recovery,
};
pub use record::{Decoded, Record};
pub use wal::{Replay, ReplayStats, Wal};
