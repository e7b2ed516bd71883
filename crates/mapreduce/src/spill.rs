//! Disk-backed spill runs for the out-of-core shuffle.
//!
//! When a map task's sort buffer fills (or its heap ledger refuses a
//! charge), the runtime sorts each partition's buffered pairs and
//! writes them here as a **run**: an append-only file of checksummed,
//! optionally compressed blocks, cut at record boundaries. The reduce
//! side (and the map-side final merge) reads runs back through
//! [`RunCursor`], which verifies every block before decoding — a torn
//! or truncated spill file surfaces as [`Error::Corrupt`] and the
//! attempt is retried through the runtime's existing bounded-retry
//! path.
//!
//! This mirrors Hadoop's `MapOutputBuffer` discipline (sort buffer →
//! sorted spills → on-disk merge): the paper's 4-node cluster ran its
//! 10⁸-point jobs exactly this way, with `io.sort.mb`-sized buffers
//! and compressed map output. Spilled runs are **raw** (uncombined)
//! sorted record streams; combining happens once, streaming over the
//! final merge — see DESIGN.md §18 for why that makes spilling
//! bit-identical to the buffer-everything mode.
//!
//! On-disk layout: one file per run, a concatenation of blocks of
//! compressed (or stored) bytes. Block framing (offsets, raw/stored
//! lengths, [`block_crc`] checksums) lives in the in-memory [`SpillRun`]
//! metadata — runs never outlive the process, so the file needs no
//! self-describing header, but every read is still checksum-verified
//! against the metadata recorded at write time.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::compress;
use crate::dfs::block_crc;
use crate::error::{Error, Result};
use crate::writable::Writable;

/// Process-wide sequence so concurrent runners get distinct spill dirs.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Task(format!("spill {what}: {e}"))
}

/// A process-unique scratch directory holding one runner's spill runs.
///
/// Created lazily when a runner is configured with spilling enabled;
/// removed (best-effort) on drop. Individual runs also delete their
/// own files as they are dropped, so steady-state disk usage tracks
/// live runs, not job history.
#[derive(Debug)]
pub struct SpillDir {
    root: PathBuf,
    next_file: AtomicU64,
}

impl SpillDir {
    /// Creates a fresh spill directory under the system temp dir.
    pub fn create() -> Result<Self> {
        let root = std::env::temp_dir().join(format!(
            "gmr-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&root).map_err(|e| io_err("dir create", e))?;
        Ok(Self {
            root,
            next_file: AtomicU64::new(0),
        })
    }

    fn next_path(&self) -> PathBuf {
        let n = self.next_file.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("run-{n}.spill"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Byte-level I/O accounting for one spill write or read, fed into the
/// `CostModel`'s spill/compression rates and the `bytes_compressed` /
/// `bytes_decompressed` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillIo {
    /// Serialized record bytes written to runs (pre-compression).
    pub raw_written: u64,
    /// Bytes actually written to disk (post-compression).
    pub stored_written: u64,
    /// Raw bytes fed through the compressor.
    pub compressed_raw: u64,
    /// Bytes read from disk (pre-decompression).
    pub stored_read: u64,
    /// Raw bytes produced by the decompressor.
    pub decompressed_raw: u64,
}

impl SpillIo {
    /// Accumulates another accounting record into this one.
    pub fn absorb(&mut self, other: &SpillIo) {
        self.raw_written += other.raw_written;
        self.stored_written += other.stored_written;
        self.compressed_raw += other.compressed_raw;
        self.stored_read += other.stored_read;
        self.decompressed_raw += other.decompressed_raw;
    }

    /// Total disk traffic (written plus read stored bytes).
    pub fn disk_bytes(&self) -> u64 {
        self.stored_written + self.stored_read
    }
}

/// Frame metadata for one block of a run, recorded at write time.
#[derive(Clone, Copy, Debug)]
struct BlockMeta {
    offset: u64,
    stored_len: u32,
    raw_len: u32,
    crc: u64,
}

/// One sorted, immutable on-disk run of serialized `(key, value)`
/// records. Created by [`RunWriter::finish`]; read back (possibly by
/// several concurrent cursors) via [`RunCursor::open`]. The backing
/// file is deleted when the last reference drops.
#[derive(Debug)]
pub struct SpillRun {
    path: PathBuf,
    blocks: Vec<BlockMeta>,
    compressed: bool,
    records: u64,
    raw_len: u64,
    stored_len: u64,
    max_block_raw: usize,
}

impl SpillRun {
    /// Number of records in the run.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Serialized (pre-compression) length of the run in bytes — the
    /// same quantity an in-memory [`crate::shuffle::Segment`] reports
    /// as its `len()`.
    pub fn raw_len(&self) -> u64 {
        self.raw_len
    }

    /// On-disk length of the run in bytes.
    pub fn stored_len(&self) -> u64 {
        self.stored_len
    }

    /// Largest decompressed block in the run — the read-side buffer a
    /// cursor over this run needs, charged to the heap ledger before a
    /// merge starts.
    pub fn max_block_raw(&self) -> usize {
        self.max_block_raw
    }

    /// Truncates the backing file by a few bytes, simulating a torn
    /// write (node died mid-spill, disk lied about a flush). The next
    /// cursor to read the damaged block gets [`Error::Corrupt`] and
    /// the attempt is retried. Used by deterministic fault injection.
    pub fn tear(&self) -> Result<()> {
        let f = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("tear open", e))?;
        f.set_len(self.stored_len.saturating_sub(7))
            .map_err(|e| io_err("tear truncate", e))?;
        Ok(())
    }
}

impl Drop for SpillRun {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Writes one sorted run: push records in key order, then
/// [`finish`](RunWriter::finish) to seal the file and collect the
/// [`SpillRun`] handle plus its I/O accounting.
pub struct RunWriter {
    path: PathBuf,
    file: File,
    compress: bool,
    block_bytes: usize,
    buf: Vec<u8>,
    blocks: Vec<BlockMeta>,
    records: u64,
    raw_len: u64,
    offset: u64,
    max_block_raw: usize,
    io: SpillIo,
}

impl RunWriter {
    /// Opens a fresh run file in `dir`. Blocks are cut at the first
    /// record boundary at or past `block_bytes`; `compress` selects
    /// block compression (stored-mode fallback keeps incompressible
    /// blocks from growing).
    pub fn create(dir: &SpillDir, compress: bool, block_bytes: usize) -> Result<Self> {
        let path = dir.next_path();
        let file = File::create(&path).map_err(|e| io_err("create", e))?;
        Ok(Self {
            path,
            file,
            compress,
            block_bytes: block_bytes.max(1),
            buf: Vec::with_capacity(block_bytes.max(1)),
            blocks: Vec::new(),
            records: 0,
            raw_len: 0,
            offset: 0,
            max_block_raw: 0,
            io: SpillIo::default(),
        })
    }

    /// Appends one record. Records never straddle blocks: the block is
    /// flushed after the record that crosses the block-size threshold.
    pub fn push<K: Writable, V: Writable>(&mut self, key: &K, value: &V) -> Result<()> {
        key.write(&mut self.buf);
        value.write(&mut self.buf);
        self.records += 1;
        if self.buf.len() >= self.block_bytes {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let packed;
        let stored: &[u8] = if self.compress {
            packed = compress::compress(&self.buf);
            self.io.compressed_raw += self.buf.len() as u64;
            &packed
        } else {
            &self.buf
        };
        self.file
            .write_all(stored)
            .map_err(|e| io_err("write", e))?;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            stored_len: stored.len() as u32,
            raw_len: self.buf.len() as u32,
            crc: block_crc(stored),
        });
        self.offset += stored.len() as u64;
        self.raw_len += self.buf.len() as u64;
        self.io.raw_written += self.buf.len() as u64;
        self.io.stored_written += stored.len() as u64;
        self.max_block_raw = self.max_block_raw.max(self.buf.len());
        self.buf.clear();
        Ok(())
    }

    /// Flushes the tail block and seals the run.
    pub fn finish(mut self) -> Result<(SpillRun, SpillIo)> {
        self.flush_block()?;
        self.file.flush().map_err(|e| io_err("flush", e))?;
        let run = SpillRun {
            path: std::mem::take(&mut self.path),
            blocks: std::mem::take(&mut self.blocks),
            compressed: self.compress,
            records: self.records,
            raw_len: self.raw_len,
            stored_len: self.offset,
            max_block_raw: self.max_block_raw,
        };
        Ok((run, self.io))
    }
}

/// A verifying streaming reader over one [`SpillRun`].
///
/// Each cursor opens its own file handle, so any number of concurrent
/// reduce tasks can merge the same map output. Blocks are read,
/// checksum-verified and decompressed one at a time — the resident
/// footprint is one decompressed block, never the run.
pub struct RunCursor {
    run: Arc<SpillRun>,
    file: File,
    next_block: usize,
    buf: Vec<u8>,
    pos: usize,
    io: SpillIo,
}

impl RunCursor {
    /// Opens a cursor at the start of `run`.
    pub fn open(run: Arc<SpillRun>) -> Result<Self> {
        let file = File::open(&run.path).map_err(|e| io_err("open", e))?;
        Ok(Self {
            run,
            file,
            next_block: 0,
            buf: Vec::new(),
            pos: 0,
            io: SpillIo::default(),
        })
    }

    /// I/O performed so far (stored bytes read, raw bytes produced).
    pub fn io(&self) -> SpillIo {
        self.io
    }

    /// Loads the next block into `buf`; returns false at end of run.
    fn load_block(&mut self) -> Result<bool> {
        let Some(meta) = self.run.blocks.get(self.next_block).copied() else {
            return Ok(false);
        };
        self.next_block += 1;
        self.file
            .seek(SeekFrom::Start(meta.offset))
            .map_err(|e| io_err("seek", e))?;
        let mut stored = vec![0u8; meta.stored_len as usize];
        self.file.read_exact(&mut stored).map_err(|_| {
            Error::Corrupt(format!(
                "spill run truncated: block {} of {} unreadable",
                self.next_block - 1,
                self.run.blocks.len()
            ))
        })?;
        if block_crc(&stored) != meta.crc {
            return Err(Error::Corrupt(format!(
                "spill block {} checksum mismatch",
                self.next_block - 1
            )));
        }
        self.io.stored_read += stored.len() as u64;
        self.buf = if self.run.compressed {
            let raw = compress::decompress(&stored)?;
            self.io.decompressed_raw += raw.len() as u64;
            raw
        } else {
            stored
        };
        if self.buf.len() != meta.raw_len as usize {
            return Err(Error::Corrupt(format!(
                "spill block {} decompressed to {} bytes, expected {}",
                self.next_block - 1,
                self.buf.len(),
                meta.raw_len
            )));
        }
        self.pos = 0;
        Ok(true)
    }

    /// Decodes the next record, or `None` at end of run.
    pub fn next_record<K: Writable, V: Writable>(&mut self) -> Result<Option<(K, V)>> {
        while self.pos >= self.buf.len() {
            if !self.load_block()? {
                return Ok(None);
            }
        }
        let mut slice = &self.buf[self.pos..];
        let before = slice.len();
        let key = K::read(&mut slice)?;
        let value = V::read(&mut slice)?;
        self.pos += before - slice.len();
        Ok(Some((key, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn write_run(
        dir: &SpillDir,
        compress: bool,
        block_bytes: usize,
        records: &[(i64, String)],
    ) -> (SpillRun, SpillIo) {
        let mut w = RunWriter::create(dir, compress, block_bytes).unwrap();
        for (k, v) in records {
            w.push(k, v).unwrap();
        }
        w.finish().unwrap()
    }

    fn read_all(run: Arc<SpillRun>) -> Result<Vec<(i64, String)>> {
        let mut cursor = RunCursor::open(run)?;
        let mut out = Vec::new();
        while let Some(kv) = cursor.next_record::<i64, String>()? {
            out.push(kv);
        }
        Ok(out)
    }

    fn sample_records(n: usize) -> Vec<(i64, String)> {
        let mut records: Vec<(i64, String)> = (0..n)
            .map(|i| ((i % 17) as i64, format!("value-{i} payload payload")))
            .collect();
        records.sort_by_key(|(k, _)| *k);
        records
    }

    #[test]
    fn round_trip_in_exact_order() {
        let dir = SpillDir::create().unwrap();
        for compress in [false, true] {
            let records = sample_records(500);
            let (run, io) = write_run(&dir, compress, 512, &records);
            assert_eq!(run.records(), 500);
            assert!(run.blocks.len() > 1, "small blocks force several frames");
            assert_eq!(io.raw_written, run.raw_len());
            assert_eq!(read_all(Arc::new(run)).unwrap(), records);
        }
    }

    #[test]
    fn compression_shrinks_repetitive_runs() {
        let dir = SpillDir::create().unwrap();
        let records = sample_records(2000);
        let (plain, _) = write_run(&dir, false, 4096, &records);
        let (packed, io) = write_run(&dir, true, 4096, &records);
        assert_eq!(plain.raw_len(), packed.raw_len());
        assert!(packed.stored_len() < plain.stored_len() / 2);
        assert_eq!(io.compressed_raw, packed.raw_len());
        assert_eq!(read_all(Arc::new(packed)).unwrap(), records);
    }

    #[test]
    fn empty_run_yields_nothing() {
        let dir = SpillDir::create().unwrap();
        let (run, io) = write_run(&dir, true, 512, &[]);
        assert_eq!(run.records(), 0);
        assert_eq!(run.stored_len(), 0);
        assert_eq!(io, SpillIo::default());
        assert!(read_all(Arc::new(run)).unwrap().is_empty());
    }

    #[test]
    fn torn_run_is_corrupt() {
        let dir = SpillDir::create().unwrap();
        for compress in [false, true] {
            let (run, _) = write_run(&dir, compress, 512, &sample_records(300));
            run.tear().unwrap();
            let err = read_all(Arc::new(run)).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn bit_flip_is_corrupt() {
        let dir = SpillDir::create().unwrap();
        let (run, _) = write_run(&dir, true, 512, &sample_records(300));
        // Flip one byte in the middle of the file.
        let mut bytes = fs::read(&run.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&run.path, bytes).unwrap();
        let err = read_all(Arc::new(run)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn every_bit_flip_and_length_change_is_corrupt() {
        let dir = SpillDir::create().unwrap();
        let (run, _) = write_run(&dir, false, 4096, &sample_records(3));
        assert_eq!(run.blocks.len(), 1);
        let run = Arc::new(run);
        let bytes = fs::read(&run.path).unwrap();
        let read_with = |data: &[u8]| {
            fs::write(&run.path, data).unwrap();
            read_all(Arc::clone(&run))
        };
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = read_with(&flipped).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "bit {bit}: {err:?}");
        }
        // A cursor reads each block at its recorded offset and length,
        // so a byte appended past the last block is never read; one
        // inserted in front shifts the whole block instead.
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(&bytes);
        for tampered in [&shifted[..], &bytes[..bytes.len() - 1]] {
            let err = read_with(tampered).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        }
        assert_eq!(read_with(&bytes).unwrap(), sample_records(3));
    }

    #[test]
    fn files_are_deleted_on_drop() {
        let dir = SpillDir::create().unwrap();
        let (run, _) = write_run(&dir, false, 512, &sample_records(10));
        let path = run.path.clone();
        assert!(path.exists());
        drop(run);
        assert!(!path.exists());
    }

    #[test]
    fn concurrent_cursors_see_the_same_records() {
        let dir = SpillDir::create().unwrap();
        let records = sample_records(400);
        let (run, _) = write_run(&dir, true, 256, &records);
        let run = Arc::new(run);
        let a = read_all(Arc::clone(&run)).unwrap();
        let b = read_all(run).unwrap();
        assert_eq!(a, records);
        assert_eq!(b, records);
    }

    proptest! {
        #[test]
        fn prop_round_trip_preserves_order(
            mut records in proptest::collection::vec((i64::MIN..=i64::MAX, ".*"), 0..100),
            compress: bool,
            block_bytes in 16usize..2048,
        ) {
            records.sort_by_key(|a| a.0);
            let dir = SpillDir::create().unwrap();
            let (run, _) = write_run(&dir, compress, block_bytes, &records);
            prop_assert_eq!(read_all(Arc::new(run)).unwrap(), records);
        }

        #[test]
        fn prop_torn_tail_never_round_trips_silently(
            records in proptest::collection::vec((i64::MIN..=i64::MAX, ".+"), 5..60),
            compress: bool,
        ) {
            let dir = SpillDir::create().unwrap();
            let (run, _) = write_run(&dir, compress, 128, &records);
            run.tear().unwrap();
            prop_assert!(read_all(Arc::new(run)).is_err());
        }
    }
}
