//! Append-only segment files, the FNV index, recovery, and compaction.
//!
//! A store is a directory of `seg-<id>.atds` files. Each starts with an
//! 8-byte segment magic and continues as a plain concatenation of
//! records (see [`crate::record`]). Writes only ever append to the
//! highest-id (active) segment; once the active segment passes the
//! rotation threshold it is sealed and a fresh one opened. The in-memory
//! index maps the FNV-1a key digest to the newest record for that
//! digest, and is rebuilt by scanning every segment in id order at open
//! — later records win, which is also what makes the compaction swap
//! crash-safe: the compacted segment takes an id *above* every segment
//! it replaces, so a crash between the rename and the old-segment
//! cleanup leaves a store that recovers to the identical index.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::{RecordError, StoreError};
use crate::{fnv1a64, record};

/// The eight bytes every segment file starts with.
pub const SEGMENT_MAGIC: [u8; 8] = *b"ATDSTOR1";

/// Bytes of segment-file overhead before the first record.
pub const SEGMENT_HEADER_BYTES: u64 = 8;

/// Default rotation threshold: seal the active segment once it passes
/// 1 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Default bound on total disk use before eviction + compaction.
pub const DEFAULT_MAX_BYTES: u64 = 64 << 20;

/// Smallest accepted rotation threshold; lower settings are clamped up
/// so a degenerate knob cannot produce a segment per record.
pub const MIN_SEGMENT_BYTES: u64 = 4096;

/// Segment read handles a store keeps open at most: the most recently
/// read segments. The bound keeps descriptor use fixed however many
/// segments accumulate before the disk bound compacts them.
const READ_HANDLES: usize = 8;

/// Scratch name a compaction writes into before the atomic rename; a
/// leftover (crash mid-compaction) is deleted at open, never read.
const COMPACT_TMP: &str = "compact.tmp";

/// Where and how large.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Directory holding the segment files; created if absent.
    pub dir: PathBuf,
    /// Rotation threshold per segment file.
    pub segment_bytes: u64,
    /// Total disk bound; exceeding it evicts oldest-written records and
    /// compacts.
    pub max_bytes: u64,
}

impl StoreConfig {
    /// A config over `dir` with the default thresholds.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            max_bytes: DEFAULT_MAX_BYTES,
        }
    }

    /// Sets the rotation threshold, clamped to [`MIN_SEGMENT_BYTES`].
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(MIN_SEGMENT_BYTES);
        self
    }

    /// Sets the total disk bound, clamped to the rotation threshold.
    #[must_use]
    pub fn max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = bytes.max(self.segment_bytes);
        self
    }
}

/// A snapshot of the store's counters and footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (indexed) records.
    pub records: u64,
    /// Bytes of live records.
    pub live_bytes: u64,
    /// Bytes on disk across all segments, dead records included.
    pub disk_bytes: u64,
    /// Segment files, active included.
    pub segments: u64,
    /// Records recovered into the index when the store opened.
    pub recovered_records: u64,
    /// Torn/corrupt tail bytes truncated when the store opened.
    pub reclaimed_bytes: u64,
    /// Lookups served.
    pub hits: u64,
    /// Lookups that found nothing (or a digest collision).
    pub misses: u64,
    /// Records appended.
    pub inserts: u64,
    /// Appends that superseded an older record for the same digest.
    pub replaced: u64,
    /// Records evicted (oldest-written first) to respect the disk bound.
    pub evicted: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// Where a live record sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordLoc {
    segment: u64,
    offset: u64,
    len: u64,
    /// Logical write sequence — recency without a clock. Eviction is
    /// lowest-sequence first; compaction preserves sequence order.
    seq: u64,
}

/// The persistent content-addressed store.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    segment_bytes: u64,
    max_bytes: u64,
    /// Segment id → file length, active segment included.
    segments: BTreeMap<u64, u64>,
    active: u64,
    active_file: File,
    /// Read handles of the most recently read segments, most recent
    /// last, at most [`READ_HANDLES`] of them; all are dropped before a
    /// compaction deletes their segments.
    readers: Vec<(u64, File)>,
    index: BTreeMap<u64, RecordLoc>,
    next_seq: u64,
    live_bytes: u64,
    recovered_records: u64,
    reclaimed_bytes: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    replaced: u64,
    evicted: u64,
    compactions: u64,
}

fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08x}.atds")
}

/// Parses `seg-<hex>.atds` back to its id; `None` for anything else.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".atds")?;
    u64::from_str_radix(hex, 16).ok()
}

fn saturating_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

impl Store {
    /// Opens (or creates) the store at `config.dir`, rebuilding the
    /// index by scanning every segment in id order. A torn or corrupt
    /// tail — in any segment — is truncated and counted in
    /// [`StoreStats::reclaimed_bytes`]; every record before it is
    /// served. A leftover compaction scratch file is deleted unread.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory or a segment cannot be
    /// created, read, or truncated.
    pub fn open(config: StoreConfig) -> Result<Self, StoreError> {
        let dir = config.dir;
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io("create store dir", &dir, &e))?;
        let tmp = dir.join(COMPACT_TMP);
        if tmp.exists() {
            // An interrupted compaction never renamed, so the old
            // segments are intact and the scratch is garbage.
            std::fs::remove_file(&tmp).map_err(|e| StoreError::io("remove scratch", &tmp, &e))?;
        }

        let mut ids: Vec<u64> = Vec::new();
        let entries =
            std::fs::read_dir(&dir).map_err(|e| StoreError::io("list store dir", &dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("list store dir", &dir, &e))?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        // The active append handle can be opened before recovery runs:
        // O_APPEND writes land at the file's end *at write time*, so a
        // recovery truncation through a separate handle stays coherent.
        let fresh = ids.is_empty();
        let active = ids.last().copied().unwrap_or(0);
        let active_path = dir.join(segment_file_name(active));
        let mut active_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)
            .map_err(|e| StoreError::io("open active segment", &active_path, &e))?;
        if fresh {
            active_file
                .write_all(&SEGMENT_MAGIC)
                .map_err(|e| StoreError::io("write segment header", &active_path, &e))?;
        }

        let mut store = Store {
            dir,
            segment_bytes: config.segment_bytes.max(MIN_SEGMENT_BYTES),
            max_bytes: config.max_bytes.max(config.segment_bytes).max(MIN_SEGMENT_BYTES),
            segments: BTreeMap::new(),
            active,
            active_file,
            readers: Vec::new(),
            index: BTreeMap::new(),
            next_seq: 0,
            live_bytes: 0,
            recovered_records: 0,
            reclaimed_bytes: 0,
            hits: 0,
            misses: 0,
            inserts: 0,
            replaced: 0,
            evicted: 0,
            compactions: 0,
        };

        if fresh {
            store.segments.insert(active, SEGMENT_HEADER_BYTES);
        } else {
            for id in ids {
                store.recover_segment(id)?;
            }
        }
        store.recovered_records = saturating_u64(store.index.len());
        Ok(store)
    }

    /// The directory the segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// A snapshot of the counters and footprint.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: saturating_u64(self.index.len()),
            live_bytes: self.live_bytes,
            disk_bytes: self.disk_bytes(),
            segments: saturating_u64(self.segments.len()),
            recovered_records: self.recovered_records,
            reclaimed_bytes: self.reclaimed_bytes,
            hits: self.hits,
            misses: self.misses,
            inserts: self.inserts,
            replaced: self.replaced,
            evicted: self.evicted,
            compactions: self.compactions,
        }
    }

    /// Looks up the payload stored for `key`. The full key bytes are
    /// compared, so a digest collision is a miss, never a wrong payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the segment cannot be read, or
    /// [`StoreError::Record`] when a record the index vouched for no
    /// longer verifies — the segment changed underneath the store.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let digest = fnv1a64(key);
        let Some(loc) = self.index.get(&digest).copied() else {
            self.misses += 1;
            return Ok(None);
        };
        let bytes = self.read_record_bytes(loc)?;
        let (found, _) = record::decode(&bytes).map_err(StoreError::Record)?;
        if found.key != key {
            self.misses += 1;
            return Ok(None);
        }
        self.hits += 1;
        Ok(Some(found.payload.to_vec()))
    }

    /// Appends a record for `key`, superseding any older record with the
    /// same digest, rotating the active segment past the threshold and
    /// enforcing the disk bound afterwards.
    ///
    /// # Errors
    ///
    /// [`StoreError::Oversized`] for inputs past the ceilings (nothing
    /// is written), or [`StoreError::Io`] when the append fails.
    pub fn put(&mut self, key: &[u8], payload: &[u8]) -> Result<(), StoreError> {
        let bytes = record::encode(key, payload).map_err(|e| match e {
            RecordError::Oversized { what, len, max } => StoreError::Oversized { what, len, max },
            other => StoreError::Record(other),
        })?;
        let len = saturating_u64(bytes.len());
        self.rotate_if_needed(len)?;
        let offset = self.segments.get(&self.active).copied().unwrap_or(SEGMENT_HEADER_BYTES);
        let path = self.segment_path(self.active);
        self.active_file
            .write_all(&bytes)
            .map_err(|e| StoreError::io("append record", &path, &e))?;
        self.segments.insert(self.active, offset.saturating_add(len));
        let loc = RecordLoc { segment: self.active, offset, len, seq: self.next_seq };
        self.next_seq += 1;
        if let Some(old) = self.index.insert(fnv1a64(key), loc) {
            self.live_bytes = self.live_bytes.saturating_sub(old.len);
            self.replaced += 1;
        }
        self.live_bytes = self.live_bytes.saturating_add(len);
        self.inserts += 1;
        if self.disk_bytes() > self.max_bytes {
            self.enforce_bound()?;
        }
        Ok(())
    }

    /// Rewrites the live records — in write-sequence order — into a
    /// fresh segment and swaps it in atomically: write to a scratch
    /// file, fsync, rename to a segment id above every existing one,
    /// then delete the superseded segments and open a fresh active
    /// segment. Record bytes are copied verbatim, so every
    /// [`Store::get`] answers byte-identically before and after. A crash
    /// at any point recovers to the same index: before the rename the
    /// scratch is deleted unread; after it, the compacted segment's
    /// higher id wins the last-record-wins scan over any old segment the
    /// cleanup did not reach.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the scratch cannot be written, synced, or
    /// renamed.
    fn compact(&mut self) -> Result<(), StoreError> {
        let mut live: Vec<(u64, RecordLoc)> =
            self.index.iter().map(|(digest, loc)| (*digest, *loc)).collect();
        live.sort_unstable_by_key(|(_, loc)| loc.seq);

        let tmp = self.dir.join(COMPACT_TMP);
        let mut out = File::create(&tmp)
            .map_err(|e| StoreError::io("create compaction scratch", &tmp, &e))?;
        out.write_all(&SEGMENT_MAGIC)
            .map_err(|e| StoreError::io("write compaction scratch", &tmp, &e))?;
        let mut rebuilt: BTreeMap<u64, RecordLoc> = BTreeMap::new();
        let mut offset = SEGMENT_HEADER_BYTES;
        let compacted = self.segments.keys().next_back().map_or(1, |id| id.saturating_add(1));
        for (digest, loc) in &live {
            let bytes = self.read_record_bytes(*loc)?;
            out.write_all(&bytes)
                .map_err(|e| StoreError::io("write compaction scratch", &tmp, &e))?;
            rebuilt.insert(
                *digest,
                RecordLoc { segment: compacted, offset, len: loc.len, seq: loc.seq },
            );
            offset = offset.saturating_add(loc.len);
        }
        out.sync_all().map_err(|e| StoreError::io("sync compaction scratch", &tmp, &e))?;
        drop(out);
        let compacted_path = self.segment_path(compacted);
        std::fs::rename(&tmp, &compacted_path)
            .map_err(|e| StoreError::io("swap compacted segment", &compacted_path, &e))?;
        // Make the rename itself durable. Best-effort: not every
        // platform lets a directory be opened and synced, and a lost
        // rename only costs the compaction, never a record.
        let _ = File::open(&self.dir).and_then(|d| d.sync_all());
        // Dead segments: removal failures are tolerable because the
        // compacted segment's higher id supersedes them at recovery.
        // Their read handles close first.
        self.readers.clear();
        let superseded: Vec<u64> = self.segments.keys().copied().collect();
        for id in superseded {
            let _ = std::fs::remove_file(self.segment_path(id));
        }
        self.segments = BTreeMap::from([(compacted, offset)]);
        self.index = rebuilt;
        self.create_segment(compacted.saturating_add(1))?;
        self.compactions += 1;
        Ok(())
    }

    /// Total bytes on disk across all segments, dead records included.
    fn disk_bytes(&self) -> u64 {
        self.segments.values().fold(0u64, |sum, len| sum.saturating_add(*len))
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(segment_file_name(id))
    }

    /// Creates an empty segment `id` and makes it the active one.
    fn create_segment(&mut self, id: u64) -> Result<(), StoreError> {
        let path = self.segment_path(id);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io("create segment", &path, &e))?;
        file.write_all(&SEGMENT_MAGIC)
            .map_err(|e| StoreError::io("write segment header", &path, &e))?;
        self.segments.insert(id, SEGMENT_HEADER_BYTES);
        self.active = id;
        self.active_file = file;
        Ok(())
    }

    /// Seals the active segment and opens the next id when the incoming
    /// record would push it past the rotation threshold.
    fn rotate_if_needed(&mut self, incoming: u64) -> Result<(), StoreError> {
        let current = self.segments.get(&self.active).copied().unwrap_or(SEGMENT_HEADER_BYTES);
        if current > SEGMENT_HEADER_BYTES && current.saturating_add(incoming) > self.segment_bytes {
            self.create_segment(self.active.saturating_add(1))?;
        }
        Ok(())
    }

    /// Reads one record's raw bytes back off its segment, through the
    /// segment's read handle: a kept one if the segment was read
    /// recently, else a fresh one that displaces the least recently read.
    fn read_record_bytes(&mut self, loc: RecordLoc) -> Result<Vec<u8>, StoreError> {
        let path = || self.dir.join(segment_file_name(loc.segment));
        let kept = self.readers.iter().position(|(id, _)| *id == loc.segment);
        let mut file = match kept {
            Some(at) => self.readers.remove(at).1,
            None => File::open(path()).map_err(|e| StoreError::io("open segment", &path(), &e))?,
        };
        file.seek(SeekFrom::Start(loc.offset))
            .map_err(|e| StoreError::io("seek record", &path(), &e))?;
        let len = usize::try_from(loc.len).unwrap_or(0);
        let mut bytes = vec![0u8; len];
        file.read_exact(&mut bytes).map_err(|e| StoreError::io("read record", &path(), &e))?;
        if self.readers.len() >= READ_HANDLES {
            self.readers.remove(0);
        }
        self.readers.push((loc.segment, file));
        Ok(bytes)
    }

    /// Scans segment `id` into the index. The scan stops at the first
    /// byte that fails to verify — a short header, a bad magic, an
    /// over-ceiling length, a checksum mismatch — and truncates the file
    /// there: the torn tail is reclaimed, never served. Within and
    /// across segments, the newest record for a digest wins.
    fn recover_segment(&mut self, id: u64) -> Result<(), StoreError> {
        let path = self.segment_path(id);
        let bytes = std::fs::read(&path).map_err(|e| StoreError::io("read segment", &path, &e))?;
        let file_len = saturating_u64(bytes.len());
        let mut valid = if bytes.get(..SEGMENT_MAGIC.len()) == Some(&SEGMENT_MAGIC[..]) {
            SEGMENT_HEADER_BYTES
        } else {
            // Even the segment header is torn (or foreign): nothing in
            // this file is trustworthy.
            0
        };
        if valid > 0 {
            loop {
                let offset = usize::try_from(valid).unwrap_or(usize::MAX);
                let Some(rest) = bytes.get(offset..) else { break };
                if rest.is_empty() {
                    break;
                }
                let Ok((found, used)) = record::decode(rest) else { break };
                let loc = RecordLoc {
                    segment: id,
                    offset: valid,
                    len: saturating_u64(used),
                    seq: self.next_seq,
                };
                self.next_seq += 1;
                if let Some(old) = self.index.insert(found.key_digest, loc) {
                    self.live_bytes = self.live_bytes.saturating_sub(old.len);
                }
                self.live_bytes = self.live_bytes.saturating_add(loc.len);
                valid = valid.saturating_add(loc.len);
            }
        }
        if valid < file_len {
            self.reclaimed_bytes = self.reclaimed_bytes.saturating_add(file_len - valid);
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| StoreError::io("open segment for truncation", &path, &e))?;
            file.set_len(valid).map_err(|e| StoreError::io("truncate torn tail", &path, &e))?;
        }
        if valid == 0 {
            // The whole file was reclaimed; rewrite it as a valid empty
            // segment so the append path can continue into it.
            let mut file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| StoreError::io("reset segment", &path, &e))?;
            file.write_all(&SEGMENT_MAGIC)
                .map_err(|e| StoreError::io("rewrite segment header", &path, &e))?;
            valid = SEGMENT_HEADER_BYTES;
        }
        self.segments.insert(id, valid);
        Ok(())
    }

    /// Evicts oldest-written records until the live set fits the disk
    /// bound, then compacts so the dead bytes actually leave the disk.
    fn enforce_bound(&mut self) -> Result<(), StoreError> {
        let budget = self.max_bytes.saturating_sub(2 * SEGMENT_HEADER_BYTES);
        while self.live_bytes > budget {
            let Some(oldest) =
                self.index.iter().min_by_key(|(_, loc)| loc.seq).map(|(digest, _)| *digest)
            else {
                break;
            };
            if let Some(old) = self.index.remove(&oldest) {
                self.live_bytes = self.live_bytes.saturating_sub(old.len);
                self.evicted += 1;
            }
        }
        self.compact()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gigatest-store-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_survive_reopen() {
        let dir = scratch_dir("reopen");
        let mut store = Store::open(StoreConfig::new(&dir)).expect("open");
        store.put(b"alpha", b"payload-a").expect("put");
        store.put(b"beta", b"payload-b").expect("put");
        assert_eq!(store.get(b"alpha").expect("get"), Some(b"payload-a".to_vec()));
        assert_eq!(store.get(b"gamma").expect("get"), None);
        drop(store);

        let mut reopened = Store::open(StoreConfig::new(&dir)).expect("reopen");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.stats().recovered_records, 2);
        assert_eq!(reopened.stats().reclaimed_bytes, 0);
        assert_eq!(reopened.get(b"beta").expect("get"), Some(b"payload-b".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_record_wins_for_a_key() {
        let dir = scratch_dir("newest");
        let mut store = Store::open(StoreConfig::new(&dir)).expect("open");
        store.put(b"key", b"v1").expect("put");
        store.put(b"key", b"v2").expect("put");
        assert_eq!(store.get(b"key").expect("get"), Some(b"v2".to_vec()));
        assert_eq!(store.stats().replaced, 1);
        drop(store);
        let mut reopened = Store::open(StoreConfig::new(&dir)).expect("reopen");
        assert_eq!(reopened.get(b"key").expect("get"), Some(b"v2".to_vec()));
        assert_eq!(reopened.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_at_the_threshold() {
        let dir = scratch_dir("rotate");
        let config = StoreConfig::new(&dir).segment_bytes(MIN_SEGMENT_BYTES);
        let mut store = Store::open(config).expect("open");
        let payload = vec![0xA5u8; 1500];
        for i in 0..8u32 {
            store.put(&i.to_be_bytes(), &payload).expect("put");
        }
        assert!(store.stats().segments > 1, "1500-byte records must rotate a 4 KiB segment");
        for i in 0..8u32 {
            assert_eq!(store.get(&i.to_be_bytes()).expect("get"), Some(payload.clone()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_is_byte_identical_and_drops_dead_records() {
        let dir = scratch_dir("compact");
        let mut store = Store::open(StoreConfig::new(&dir)).expect("open");
        for round in 0..3u32 {
            for key in 0..10u32 {
                let payload = format!("round-{round}-key-{key}");
                store.put(&key.to_be_bytes(), payload.as_bytes()).expect("put");
            }
        }
        let before: Vec<Option<Vec<u8>>> =
            (0..10u32).map(|key| store.get(&key.to_be_bytes()).expect("get")).collect();
        let bytes_before = store.stats().disk_bytes;
        store.compact().expect("compact");
        let stats = store.stats();
        assert_eq!((stats.records, stats.compactions), (10, 1));
        assert!(
            stats.disk_bytes < bytes_before,
            "two dead generations must be reclaimed ({bytes_before} -> {})",
            stats.disk_bytes
        );
        let after: Vec<Option<Vec<u8>>> =
            (0..10u32).map(|key| store.get(&key.to_be_bytes()).expect("get")).collect();
        assert_eq!(before, after, "compaction must not change a single served byte");
        drop(store);
        let mut reopened = Store::open(StoreConfig::new(&dir)).expect("reopen");
        let recovered: Vec<Option<Vec<u8>>> =
            (0..10u32).map(|key| reopened.get(&key.to_be_bytes()).expect("get")).collect();
        assert_eq!(before, recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reads go through cached segment handles; rotation seals segments
    /// under them and compaction deletes them. Every `get` still returns
    /// exactly the bytes that were `put`.
    #[test]
    fn gets_across_rotation_and_compaction_return_the_put_bytes() {
        let dir = scratch_dir("handles");
        let config = StoreConfig::new(&dir).segment_bytes(MIN_SEGMENT_BYTES);
        let mut store = Store::open(config).expect("open");
        let payload = |i: u32| -> Vec<u8> { (0..1200 + i).map(|b| (b ^ i) as u8).collect() };
        let check = |store: &mut Store, keys: std::ops::Range<u32>| {
            for i in keys {
                assert_eq!(store.get(&i.to_be_bytes()).expect("get"), Some(payload(i)), "key {i}");
            }
        };
        for i in 0..6u32 {
            store.put(&i.to_be_bytes(), &payload(i)).expect("put");
            check(&mut store, 0..i + 1);
        }
        assert!(store.stats().segments > 1, "the puts must rotate");
        store.compact().expect("compact");
        check(&mut store, 0..6);
        for i in 6..12u32 {
            store.put(&i.to_be_bytes(), &payload(i)).expect("put");
        }
        check(&mut store, 0..12);
        store.compact().expect("compact again");
        check(&mut store, 0..12);
        assert_eq!(store.stats().segments, 2, "one compacted segment plus the fresh active one");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// However many segments pile up before the disk bound compacts
    /// them, reads keep at most `READ_HANDLES` segment files open.
    #[test]
    fn open_read_handles_stay_bounded() {
        let dir = scratch_dir("bounded-handles");
        let config = StoreConfig::new(&dir).segment_bytes(MIN_SEGMENT_BYTES);
        let mut store = Store::open(config).expect("open");
        let payload = |i: u32| -> Vec<u8> { (0..1500).map(|b: u32| (b ^ i) as u8).collect() };
        let keys = 0..80u32;
        for i in keys.clone() {
            store.put(&i.to_be_bytes(), &payload(i)).expect("put");
        }
        let segments = usize::try_from(store.stats().segments).expect("segments");
        assert!(segments >= 4 * READ_HANDLES, "only {segments} segments");
        // Forward, backward, and striding across segments.
        let order = keys.clone().chain(keys.clone().rev()).chain(keys.map(|i| (i * 37) % 80));
        for i in order {
            assert_eq!(store.get(&i.to_be_bytes()).expect("get"), Some(payload(i)), "key {i}");
            assert!(store.readers.len() <= READ_HANDLES, "{} handles", store.readers.len());
        }
        assert_eq!(store.readers.len(), READ_HANDLES);
        store.compact().expect("compact");
        assert!(store.readers.is_empty(), "compaction closes every read handle");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_disk_bound_evicts_oldest_written_first() {
        let dir = scratch_dir("bound");
        let config = StoreConfig::new(&dir).segment_bytes(MIN_SEGMENT_BYTES).max_bytes(8192);
        let mut store = Store::open(config).expect("open");
        let payload = vec![0x5Au8; 1024];
        for i in 0..20u32 {
            store.put(&i.to_be_bytes(), &payload).expect("put");
        }
        let stats = store.stats();
        assert!(stats.evicted > 0, "20 KiB into an 8 KiB bound must evict");
        assert!(stats.disk_bytes <= 8192, "disk stays bounded, got {}", stats.disk_bytes);
        // The newest key always survives; the oldest is gone.
        assert!(store.get(&19u32.to_be_bytes()).expect("get").is_some());
        assert_eq!(store.get(&0u32.to_be_bytes()).expect("get"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_leftover_compaction_scratch_is_deleted_unread() {
        let dir = scratch_dir("scratch");
        let mut store = Store::open(StoreConfig::new(&dir)).expect("open");
        store.put(b"key", b"value").expect("put");
        drop(store);
        std::fs::write(dir.join(COMPACT_TMP), b"half-written garbage").expect("plant scratch");
        let mut reopened = Store::open(StoreConfig::new(&dir)).expect("reopen");
        assert!(!dir.join(COMPACT_TMP).exists(), "scratch must be gone");
        assert_eq!(reopened.get(b"key").expect("get"), Some(b"value".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_foreign_file_in_the_dir_is_ignored() {
        let dir = scratch_dir("foreign");
        let mut store = Store::open(StoreConfig::new(&dir)).expect("open");
        store.put(b"key", b"value").expect("put");
        drop(store);
        std::fs::write(dir.join("README.txt"), b"not a segment").expect("plant file");
        let mut reopened = Store::open(StoreConfig::new(&dir)).expect("reopen");
        assert_eq!(reopened.get(b"key").expect("get"), Some(b"value".to_vec()));
        assert!(dir.join("README.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
