//! Write-ahead run journal: driver checkpoints persisted through the
//! DFS.
//!
//! The paper's drivers keep almost no state between jobs — a center
//! set, an iteration cursor and some counters — which is exactly what
//! makes a multi-hour G-means run checkpointable at job boundaries.
//! This module provides the durability layer: a [`RunJournal`] stores
//! one serialized driver snapshot per sequence number and recovers the
//! newest valid one after a driver crash.
//!
//! # Commit protocol
//!
//! A checkpoint is committed in two steps, mirroring the HDFS
//! write-then-rename idiom every Hadoop committer uses:
//!
//! 1. the snapshot is encoded into a staging file
//!    `<dir>/ckpt-<seq>.tmp` (a header line carrying the sequence
//!    number, payload length and [`block_crc`] checksum, followed by the
//!    payload hex-dumped 64 bytes per line);
//! 2. the staging file is atomically [renamed](crate::dfs::Dfs::rename)
//!    to its final name `<dir>/ckpt-<seq>`.
//!
//! A crash between the steps leaves only a `.tmp` file, which replay
//! ignores; a torn or bit-flipped final file fails its length/checksum
//! validation and is skipped. [`RunJournal::latest`] therefore returns
//! the newest checkpoint that was *durably and completely* committed.

use std::sync::Arc;

use crate::dfs::{block_crc, Dfs};
use crate::error::{Error, Result};

/// Magic tag on every checkpoint header; bump on format changes.
const MAGIC: &str = "GMRCKPT1";
/// Payload bytes hex-dumped per line.
const BYTES_PER_LINE: usize = 64;

/// One recovered checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sequence number (monotone within a run; higher is newer).
    pub seq: u64,
    /// The serialized driver snapshot.
    pub payload: Vec<u8>,
    /// Bytes the checkpoint occupies in the DFS (text encoding), the
    /// quantity charged to the simulated clock and the
    /// `checkpoint_bytes` counter.
    pub stored_bytes: u64,
}

/// A DFS-backed checkpoint journal for one driver run.
#[derive(Clone, Debug)]
pub struct RunJournal {
    dfs: Arc<Dfs>,
    dir: String,
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("infallible");
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

impl RunJournal {
    /// Opens (or designates) a journal rooted at `dir` in the DFS.
    pub fn new(dfs: Arc<Dfs>, dir: impl Into<String>) -> Self {
        Self {
            dfs,
            dir: dir.into(),
        }
    }

    /// The journal's DFS directory prefix.
    pub fn dir(&self) -> &str {
        &self.dir
    }

    fn final_path(&self, seq: u64) -> String {
        format!("{}/ckpt-{seq:08}", self.dir)
    }

    fn staging_path(&self, seq: u64) -> String {
        format!("{}.tmp", self.final_path(seq))
    }

    /// Deletes every checkpoint (and staging file) in the journal. A
    /// fresh run calls this so stale snapshots from a previous run at
    /// the same path cannot win a later recovery.
    pub fn reset(&self) {
        let prefix = format!("{}/ckpt-", self.dir);
        for path in self.dfs.list() {
            if path.starts_with(&prefix) {
                self.dfs.remove(&path);
            }
        }
    }

    /// Durably commits one snapshot under sequence number `seq`,
    /// replacing any previous checkpoint with the same number. Returns
    /// the stored (text-encoded) size in bytes for cost accounting.
    pub fn commit(&self, seq: u64, payload: &[u8]) -> Result<u64> {
        let staging = self.staging_path(seq);
        let mut w = self.dfs.create(&staging, true)?;
        w.write_line(&format!(
            "{MAGIC} seq={seq} len={} crc={:016x}",
            payload.len(),
            block_crc(payload)
        ));
        for chunk in payload.chunks(BYTES_PER_LINE) {
            w.write_line(&hex_encode(chunk));
        }
        w.close();
        self.dfs.rename(&staging, &self.final_path(seq))?;
        self.dfs.len(&self.final_path(seq))
    }

    /// Sequence numbers of committed checkpoints, ascending. Staging
    /// files and files with unparsable names are ignored.
    pub fn committed_seqs(&self) -> Vec<u64> {
        let prefix = format!("{}/ckpt-", self.dir);
        self.dfs
            .list()
            .into_iter()
            .filter(|p| p.starts_with(&prefix) && !p.ends_with(".tmp"))
            .filter_map(|p| p[prefix.len()..].parse::<u64>().ok())
            .collect()
    }

    /// Recovers the newest valid checkpoint, or `None` when the journal
    /// holds no (valid) checkpoint. Torn or corrupt entries — checksum
    /// mismatch, truncated payload, malformed header — are skipped in
    /// favour of the next-newest, exactly like replaying a write-ahead
    /// log up to its last complete record.
    pub fn latest(&self) -> Result<Option<Checkpoint>> {
        for seq in self.committed_seqs().into_iter().rev() {
            if let Some(ckpt) = self.load(seq)? {
                return Ok(Some(ckpt));
            }
        }
        Ok(None)
    }

    /// Loads and validates one checkpoint by sequence number; `None`
    /// when the entry is missing, torn or corrupt.
    pub fn load(&self, seq: u64) -> Result<Option<Checkpoint>> {
        let path = self.final_path(seq);
        if !self.dfs.exists(&path) {
            return Ok(None);
        }
        let stored_bytes = self.dfs.len(&path)?;
        // Journal replay is driver-side recovery I/O, not a dataset
        // scan: read the raw splits without charging the read counters
        // that §4's "dataset reads" are measured from.
        let mut lines = Vec::new();
        for split in self.dfs.splits(&path)? {
            lines.extend(split.lines().map(|(_, l)| l.to_string()));
        }
        Ok(Self::decode(seq, stored_bytes, &lines))
    }

    fn decode(seq: u64, stored_bytes: u64, lines: &[String]) -> Option<Checkpoint> {
        let header = lines.first()?;
        let mut fields = header.split(' ');
        if fields.next() != Some(MAGIC) {
            return None;
        }
        let field = |prefix: &str, s: Option<&str>| s?.strip_prefix(prefix).map(str::to_string);
        let hdr_seq: u64 = field("seq=", fields.next())?.parse().ok()?;
        let len: usize = field("len=", fields.next())?.parse().ok()?;
        let crc = u64::from_str_radix(&field("crc=", fields.next())?, 16).ok()?;
        if hdr_seq != seq {
            return None;
        }
        let mut payload = Vec::with_capacity(len.min(1 << 20));
        for line in &lines[1..] {
            payload.extend(hex_decode(line)?);
        }
        if payload.len() != len || block_crc(&payload) != crc {
            return None;
        }
        Some(Checkpoint {
            seq,
            payload,
            stored_bytes,
        })
    }
}

/// Convenience: a `Config` error for drivers asked to resume without a
/// checkpoint journal configured.
pub fn no_journal_error(driver: &str) -> Error {
    Error::Config(format!(
        "{driver}::resume requires a checkpoint directory; \
         enable checkpointing with with_checkpoints(dir)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> RunJournal {
        RunJournal::new(Arc::new(Dfs::new(256)), "ckpt/test")
    }

    #[test]
    fn round_trips_binary_payloads() {
        let j = journal();
        let payload: Vec<u8> = (0..=255).collect();
        let stored = j.commit(0, &payload).unwrap();
        assert!(stored > payload.len() as u64, "hex encoding expands");
        let ckpt = j.latest().unwrap().expect("checkpoint present");
        assert_eq!(ckpt.seq, 0);
        assert_eq!(ckpt.payload, payload);
        assert_eq!(ckpt.stored_bytes, stored);
    }

    #[test]
    fn every_bit_flip_and_length_change_of_a_frame_is_skipped() {
        let j = journal();
        let payload: Vec<u8> = (0u8..24).map(|b| b.wrapping_mul(37)).collect();
        j.commit(0, b"older, intact").unwrap();
        j.commit(1, &payload).unwrap();
        let crc = block_crc(&payload);
        let path = j.final_path(1);
        // Rewrites checkpoint 1 with `body` under a header that keeps
        // the committed checksum but states `body`'s own length, so
        // only the checksum can tell; recovery must fall back to 0.
        let recover_with = |body: &[u8]| {
            j.dfs.remove(&path);
            let mut lines = vec![format!("{MAGIC} seq=1 len={} crc={crc:016x}", body.len())];
            lines.extend(body.chunks(BYTES_PER_LINE).map(hex_encode));
            j.dfs.put_lines(&path, lines).unwrap();
            j.latest().unwrap().expect("a valid checkpoint").seq
        };
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(recover_with(&flipped), 0, "bit {bit}");
        }
        let mut longer = payload.clone();
        longer.push(0);
        assert_eq!(recover_with(&longer), 0);
        assert_eq!(recover_with(&payload[..payload.len() - 1]), 0);
        assert_eq!(recover_with(&payload), 1, "the untampered frame recovers");
    }

    #[test]
    fn latest_prefers_highest_sequence() {
        let j = journal();
        j.commit(0, b"zero").unwrap();
        j.commit(2, b"two").unwrap();
        j.commit(1, b"one").unwrap();
        let ckpt = j.latest().unwrap().unwrap();
        assert_eq!(ckpt.seq, 2);
        assert_eq!(ckpt.payload, b"two");
        assert_eq!(j.committed_seqs(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_journal_recovers_nothing() {
        let j = journal();
        assert_eq!(j.latest().unwrap(), None);
        assert!(j.committed_seqs().is_empty());
    }

    #[test]
    fn staging_files_are_invisible_to_replay() {
        let j = journal();
        j.commit(0, b"durable").unwrap();
        // A crash after writing but before the rename leaves a .tmp.
        j.dfs
            .put_lines("ckpt/test/ckpt-00000001.tmp", ["half-written"])
            .unwrap();
        let ckpt = j.latest().unwrap().unwrap();
        assert_eq!(ckpt.seq, 0);
    }

    #[test]
    fn torn_checkpoint_is_skipped_for_older_valid_one() {
        let j = journal();
        j.commit(0, b"good old state").unwrap();
        j.commit(1, b"newest state").unwrap();
        // Tear the newest checkpoint: keep the header, drop payload
        // lines, as a mid-write crash on a real FS would.
        let lines = j.dfs.read_lines("ckpt/test/ckpt-00000001").unwrap();
        let mut w = j.dfs.create("ckpt/test/ckpt-00000001", true).unwrap();
        w.write_line(&lines[0]);
        w.close();
        let ckpt = j.latest().unwrap().unwrap();
        assert_eq!(ckpt.seq, 0);
        assert_eq!(ckpt.payload, b"good old state");
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let j = journal();
        j.commit(3, b"precious bytes").unwrap();
        let mut lines = j.dfs.read_lines("ckpt/test/ckpt-00000003").unwrap();
        let flipped = if lines[1].as_bytes()[0] == b'a' {
            "b"
        } else {
            "a"
        };
        lines[1].replace_range(0..1, flipped);
        let mut w = j.dfs.create("ckpt/test/ckpt-00000003", true).unwrap();
        for l in &lines {
            w.write_line(l);
        }
        w.close();
        assert_eq!(j.latest().unwrap(), None);
    }

    #[test]
    fn garbage_file_is_skipped() {
        let j = journal();
        j.commit(0, b"valid").unwrap();
        j.dfs
            .put_lines("ckpt/test/ckpt-00000009", ["not a checkpoint at all"])
            .unwrap();
        assert_eq!(j.latest().unwrap().unwrap().seq, 0);
    }

    #[test]
    fn reset_clears_all_entries() {
        let j = journal();
        j.commit(0, b"a").unwrap();
        j.commit(1, b"b").unwrap();
        j.dfs.put_lines("unrelated.txt", ["keep me"]).unwrap();
        j.reset();
        assert_eq!(j.latest().unwrap(), None);
        assert!(j.dfs.exists("unrelated.txt"));
    }

    #[test]
    fn recommit_same_seq_replaces() {
        let j = journal();
        j.commit(0, b"first attempt").unwrap();
        j.commit(0, b"second attempt").unwrap();
        assert_eq!(j.latest().unwrap().unwrap().payload, b"second attempt");
        assert_eq!(j.committed_seqs(), vec![0]);
    }

    #[test]
    fn replay_does_not_charge_dataset_reads() {
        let j = journal();
        j.commit(0, b"state").unwrap();
        let before = j.dfs.stats();
        j.latest().unwrap().unwrap();
        let after = j.dfs.stats();
        assert_eq!(before.dataset_reads, after.dataset_reads);
        assert_eq!(before.bytes_read, after.bytes_read);
    }

    #[test]
    fn hex_codec_round_trips() {
        for payload in [&[] as &[u8], b"a", b"\x00\xff\x7f", b"hello world"] {
            assert_eq!(hex_decode(&hex_encode(payload)).unwrap(), payload);
        }
        assert_eq!(hex_decode("xyz"), None);
        assert_eq!(hex_decode("0"), None);
    }
}
