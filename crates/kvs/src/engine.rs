//! The log-structured KV engine.
//!
//! Values live in an append-only log (the SSD file); the index mapping keys
//! to `(value_offset, value_len)` lives in the processing device's local
//! memory — on the smart NIC in the CPU-less deployment, in kernel memory
//! on the baseline. KV-Direct uses the same split. Deletes are tombstones;
//! the index is rebuilt by scanning the log at startup.
//!
//! Record layout (little endian):
//!
//! ```text
//! [klen: u16][vlen: u32][key bytes][value bytes]
//! ```
//!
//! A tombstone is `vlen == u32::MAX` with no value bytes.

use lastcpu_sim::DetHashMap;

/// Tombstone marker.
const TOMBSTONE: u32 = u32::MAX;
/// Record header size.
pub const HEADER: u64 = 6;

/// Maximum key length (fits the u16 header field; also a sanity bound).
pub const MAX_KEY: usize = 1024;
/// Maximum value length (bounded so one record fits queue buffer slots).
pub const MAX_VALUE: usize = 2048;

/// Errors from engine operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Key exceeds [`MAX_KEY`].
    KeyTooLong,
    /// Value exceeds [`MAX_VALUE`].
    ValueTooLong,
    /// A scanned record was malformed (corrupt log).
    Corrupt,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineError::KeyTooLong => "key too long",
            EngineError::ValueTooLong => "value too long",
            EngineError::Corrupt => "corrupt log record",
        };
        f.write_str(s)
    }
}

impl std::error::Error for EngineError {}

/// Where a key's current value lives in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef {
    /// Byte offset of the value within the log file.
    pub offset: u64,
    /// Value length in bytes.
    pub len: u32,
}

/// Engine statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Keys currently live.
    pub live_keys: u64,
    /// Log bytes appended over the engine's lifetime.
    pub log_bytes: u64,
    /// Bytes in the log belonging to superseded records (garbage).
    pub dead_bytes: u64,
}

/// The index + log-head state of the store.
pub struct KvEngine {
    index: DetHashMap<Vec<u8>, ValueRef>,
    /// Next append offset in the log file.
    cursor: u64,
    stats: EngineStats,
}

impl KvEngine {
    /// An empty engine with the log head at zero.
    pub fn new() -> Self {
        KvEngine {
            index: DetHashMap::default(),
            cursor: 0,
            stats: EngineStats::default(),
        }
    }

    /// Current log-head offset.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            live_keys: self.index.len() as u64,
            ..self.stats
        }
    }

    /// Looks up where a key's value lives.
    pub fn get(&self, key: &[u8]) -> Option<ValueRef> {
        let _prof = lastcpu_sim::profile::span("kvs.engine.get");
        self.index.get(key).copied()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Prepares a PUT: encodes the record, advances the log head, updates
    /// the index. Returns `(append_offset, record_bytes)`; the caller
    /// writes the bytes at the offset (through whatever storage path its
    /// deployment uses).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(u64, Vec<u8>), EngineError> {
        let mut rec = Vec::new();
        let offset = self.put_into(key, value, &mut rec)?;
        Ok((offset, rec))
    }

    /// [`KvEngine::put`] with the record encoded into `rec` (cleared first),
    /// so a server appending record after record reuses one buffer. Returns
    /// the append offset.
    pub fn put_into(
        &mut self,
        key: &[u8],
        value: &[u8],
        rec: &mut Vec<u8>,
    ) -> Result<u64, EngineError> {
        let _prof = lastcpu_sim::profile::span("kvs.engine.put");
        if key.len() > MAX_KEY {
            return Err(EngineError::KeyTooLong);
        }
        if value.len() > MAX_VALUE {
            return Err(EngineError::ValueTooLong);
        }
        let offset = self.cursor;
        rec.clear();
        rec.reserve_exact(HEADER as usize + key.len() + value.len());
        rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        rec.extend_from_slice(value);
        self.cursor += rec.len() as u64;
        self.stats.log_bytes += rec.len() as u64;
        let value_off = offset + HEADER + key.len() as u64;
        let vref = ValueRef {
            offset: value_off,
            len: value.len() as u32,
        };
        // Overwrites update in place through a borrowed-key lookup; the key
        // is copied into the index only when it is genuinely new, so a
        // steady-state overwrite workload allocates nothing here.
        match self.index.get_mut(key) {
            Some(old) => {
                self.stats.dead_bytes += HEADER + key.len() as u64 + old.len as u64;
                *old = vref;
            }
            None => {
                self.index.insert(key.to_vec(), vref);
            }
        }
        Ok(offset)
    }

    /// Fraction of the log occupied by superseded records and tombstones.
    pub fn garbage_ratio(&self) -> f64 {
        if self.stats.log_bytes == 0 {
            0.0
        } else {
            self.stats.dead_bytes as f64 / self.stats.log_bytes as f64
        }
    }

    /// Compacts the log: re-encodes every live record densely, in key
    /// order, fetching value bytes through `fetch` (which reads them from
    /// wherever the log lives — flash, in the real deployment).
    ///
    /// Returns the replacement log bytes and the engine state that indexes
    /// them. The caller writes the new log to a fresh file and swaps; this
    /// is the offline half of compaction — the online swap is a service
    /// re-open, orchestrated by the application.
    pub fn compact<F>(&self, mut fetch: F) -> Result<(Vec<u8>, KvEngine), EngineError>
    where
        F: FnMut(ValueRef) -> Vec<u8>,
    {
        let mut keys: Vec<&Vec<u8>> = self.index.keys().collect();
        keys.sort();
        let mut log = Vec::new();
        let mut fresh = KvEngine::new();
        for key in keys {
            let vref = self.index[key];
            let value = fetch(vref);
            if value.len() != vref.len as usize {
                return Err(EngineError::Corrupt);
            }
            let (off, rec) = fresh.put(key, &value)?;
            debug_assert_eq!(off as usize, log.len());
            log.extend_from_slice(&rec);
        }
        Ok((log, fresh))
    }

    /// Prepares a DELETE (tombstone). Returns `(append_offset,
    /// record_bytes)`, or `None` if the key does not exist.
    pub fn delete(&mut self, key: &[u8]) -> Result<Option<(u64, Vec<u8>)>, EngineError> {
        let mut rec = Vec::new();
        Ok(self.delete_into(key, &mut rec)?.map(|offset| (offset, rec)))
    }

    /// [`KvEngine::delete`] with the tombstone encoded into `rec` (cleared
    /// first). Returns the append offset, or `None` if the key does not
    /// exist.
    pub fn delete_into(
        &mut self,
        key: &[u8],
        rec: &mut Vec<u8>,
    ) -> Result<Option<u64>, EngineError> {
        if key.len() > MAX_KEY {
            return Err(EngineError::KeyTooLong);
        }
        let Some(old) = self.index.remove(key) else {
            return Ok(None);
        };
        self.stats.dead_bytes += HEADER + key.len() as u64 + old.len as u64;
        let offset = self.cursor;
        rec.clear();
        rec.reserve_exact(HEADER as usize + key.len());
        rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
        rec.extend_from_slice(&TOMBSTONE.to_le_bytes());
        rec.extend_from_slice(key);
        self.cursor += rec.len() as u64;
        self.stats.log_bytes += rec.len() as u64;
        self.stats.dead_bytes += rec.len() as u64; // tombstones are garbage too
        Ok(Some(offset))
    }
}

impl Default for KvEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for KvEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KvEngine(keys={}, log={}B, garbage={:.2})",
            self.index.len(),
            self.cursor,
            self.garbage_ratio()
        )
    }
}

/// Incremental log scanner for index rebuild.
///
/// Feed it file chunks in order; it parses records across chunk boundaries
/// and replays them into an engine.
pub struct LogScanner {
    carry: Vec<u8>,
    /// File offset of `carry[0]`.
    base: u64,
}

impl LogScanner {
    /// A scanner positioned at the start of the log.
    pub fn new() -> Self {
        LogScanner {
            carry: Vec::new(),
            base: 0,
        }
    }

    /// Feeds the next chunk (must be contiguous with the previous one).
    /// Replays complete records into `engine`.
    pub fn feed(&mut self, engine: &mut KvEngine, chunk: &[u8]) -> Result<(), EngineError> {
        self.carry.extend_from_slice(chunk);
        let mut pos = 0usize;
        loop {
            let rest = &self.carry[pos..];
            if rest.len() < HEADER as usize {
                break;
            }
            let klen = u16::from_le_bytes(rest[0..2].try_into().expect("len 2")) as usize;
            let vlen_raw = u32::from_le_bytes(rest[2..6].try_into().expect("len 4"));
            if klen > MAX_KEY {
                return Err(EngineError::Corrupt);
            }
            let vlen = if vlen_raw == TOMBSTONE {
                0
            } else {
                vlen_raw as usize
            };
            if vlen > MAX_VALUE {
                return Err(EngineError::Corrupt);
            }
            let total = HEADER as usize + klen + vlen;
            if rest.len() < total {
                break;
            }
            let key = &rest[HEADER as usize..HEADER as usize + klen];
            let record_off = self.base + pos as u64;
            if vlen_raw == TOMBSTONE {
                // Replay the delete without re-encoding a tombstone.
                let existed = engine.index.remove(key).is_some();
                let _ = existed;
            } else {
                let value_off = record_off + HEADER + klen as u64;
                engine.index.insert(
                    key.to_vec(),
                    ValueRef {
                        offset: value_off,
                        len: vlen as u32,
                    },
                );
            }
            pos += total;
            engine.cursor = engine.cursor.max(record_off + total as u64);
            engine.stats.log_bytes = engine.cursor;
        }
        self.carry.drain(..pos);
        self.base += pos as u64;
        Ok(())
    }

    /// Bytes held waiting for the rest of a record.
    pub fn pending(&self) -> usize {
        self.carry.len()
    }
}

impl Default for LogScanner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum KvOp {
        Put(u8, Vec<u8>),
        Delete(u8),
    }

    fn op_strategy() -> impl Strategy<Value = KvOp> {
        prop_oneof![
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(k, v)| KvOp::Put(k, v)),
            any::<u8>().prop_map(KvOp::Delete),
        ]
    }

    proptest! {
        /// Any op sequence: the engine's index agrees with a model map, and
        /// a scanner replaying the log (in odd-sized chunks) rebuilds the
        /// exact same index.
        #[test]
        fn prop_log_replay_rebuilds_index(
            ops in proptest::collection::vec(op_strategy(), 1..150),
            chunk in 1usize..97,
        ) {
            let mut engine = KvEngine::new();
            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            let mut log: Vec<u8> = Vec::new();
            for op in ops {
                match op {
                    KvOp::Put(k, v) => {
                        let key = vec![b'k', k];
                        let (off, rec) = engine.put(&key, &v).unwrap();
                        prop_assert_eq!(off as usize, log.len(), "appends are dense");
                        log.extend_from_slice(&rec);
                        model.insert(key, v);
                    }
                    KvOp::Delete(k) => {
                        let key = vec![b'k', k];
                        let r = engine.delete(&key).unwrap();
                        match model.remove(&key) {
                            Some(_) => {
                                let (off, rec) = r.unwrap();
                                prop_assert_eq!(off as usize, log.len());
                                log.extend_from_slice(&rec);
                            }
                            None => prop_assert!(r.is_none()),
                        }
                    }
                }
            }
            prop_assert_eq!(engine.len(), model.len());
            // Index entries point at the right bytes in the log.
            for (key, value) in &model {
                let vref = engine.get(key).unwrap();
                prop_assert_eq!(vref.len as usize, value.len());
                let got = &log[vref.offset as usize..vref.offset as usize + value.len()];
                prop_assert_eq!(got, &value[..]);
            }
            // Replay through the scanner in awkward chunks.
            let mut rebuilt = KvEngine::new();
            let mut scanner = LogScanner::new();
            for c in log.chunks(chunk) {
                scanner.feed(&mut rebuilt, c).unwrap();
            }
            prop_assert_eq!(scanner.pending(), 0);
            prop_assert_eq!(rebuilt.len(), engine.len());
            prop_assert_eq!(rebuilt.cursor(), engine.cursor());
            for key in model.keys() {
                prop_assert_eq!(rebuilt.get(key), engine.get(key));
            }
        }
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;

    /// Builds an engine plus its raw log from a list of operations.
    fn build(ops: &[(&str, Option<&str>)]) -> (KvEngine, Vec<u8>) {
        let mut e = KvEngine::new();
        let mut log = Vec::new();
        for (k, v) in ops {
            match v {
                Some(v) => {
                    let (_, rec) = e.put(k.as_bytes(), v.as_bytes()).unwrap();
                    log.extend_from_slice(&rec);
                }
                None => {
                    if let Some((_, rec)) = e.delete(k.as_bytes()).unwrap() {
                        log.extend_from_slice(&rec);
                    }
                }
            }
        }
        (e, log)
    }

    #[test]
    fn compaction_drops_garbage_and_preserves_live_data() {
        let (e, log) = build(&[
            ("a", Some("v1")),
            ("b", Some("v2")),
            ("a", Some("v1-new")), // supersedes
            ("c", Some("v3")),
            ("b", None), // tombstone
        ]);
        assert!(e.garbage_ratio() > 0.3, "ratio {}", e.garbage_ratio());
        let (new_log, fresh) = e
            .compact(|vref| {
                log[vref.offset as usize..vref.offset as usize + vref.len as usize].to_vec()
            })
            .unwrap();
        assert!(new_log.len() < log.len());
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh.garbage_ratio(), 0.0);
        // The fresh index points into the new log correctly.
        for key in [b"a".as_slice(), b"c"] {
            let vref = fresh.get(key).unwrap();
            let got = &new_log[vref.offset as usize..vref.offset as usize + vref.len as usize];
            let want = e.get(key).unwrap();
            let old = &log[want.offset as usize..want.offset as usize + want.len as usize];
            assert_eq!(got, old);
        }
        assert!(fresh.get(b"b").is_none());
        // A scanner over the new log rebuilds the same state.
        let mut rebuilt = KvEngine::new();
        let mut s = LogScanner::new();
        s.feed(&mut rebuilt, &new_log).unwrap();
        assert_eq!(rebuilt.len(), fresh.len());
        assert_eq!(rebuilt.get(b"a"), fresh.get(b"a"));
    }

    #[test]
    fn compacting_empty_engine_is_empty() {
        let e = KvEngine::new();
        let (log, fresh) = e.compact(|_| unreachable!("no live records")).unwrap();
        assert!(log.is_empty());
        assert!(fresh.is_empty());
    }

    #[test]
    fn compaction_detects_length_mismatch() {
        let (e, _log) = build(&[("a", Some("v1"))]);
        let r = e.compact(|_| vec![1, 2, 3, 4, 5, 6, 7]); // wrong length
        assert_eq!(r.unwrap_err(), EngineError::Corrupt);
    }
}

impl lastcpu_snap::Snapshot for KvEngine {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.cursor);
        w.put_u64(self.stats.log_bytes);
        w.put_u64(self.stats.dead_bytes);
        // Sorted by key: DetHashMap iteration order depends on insertion
        // history, which a restore does not reproduce.
        let mut keys: Vec<&Vec<u8>> = self.index.keys().collect();
        keys.sort_unstable();
        w.put_len(keys.len());
        for k in keys {
            let v = self.index[k];
            w.put_bytes(k);
            w.put_u64(v.offset);
            w.put_u32(v.len);
        }
    }
}

impl lastcpu_snap::Restore for KvEngine {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.cursor = r.u64()?;
        self.stats.log_bytes = r.u64()?;
        self.stats.dead_bytes = r.u64()?;
        let n = r.len()?;
        self.index = DetHashMap::default();
        for _ in 0..n {
            let k = r.bytes()?;
            let offset = r.u64()?;
            let len = r.u32()?;
            self.index.insert(k, ValueRef { offset, len });
        }
        self.stats.live_keys = self.index.len() as u64;
        Ok(())
    }
}

impl lastcpu_snap::Snapshot for LogScanner {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_bytes(&self.carry);
        w.put_u64(self.base);
    }
}

impl lastcpu_snap::Restore for LogScanner {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.carry = r.bytes()?;
        self.base = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut e = KvEngine::new();
        let (off, rec) = e.put(b"k1", b"hello").unwrap();
        assert_eq!(off, 0);
        assert_eq!(rec.len(), 6 + 2 + 5);
        let v = e.get(b"k1").unwrap();
        assert_eq!(v.offset, 6 + 2);
        assert_eq!(v.len, 5);
        assert_eq!(e.cursor(), rec.len() as u64);
    }

    #[test]
    fn overwrite_tracks_garbage() {
        let mut e = KvEngine::new();
        e.put(b"k", b"v1").unwrap();
        let before = e.stats().dead_bytes;
        e.put(b"k", b"longer-value").unwrap();
        assert!(e.stats().dead_bytes > before);
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(b"k").unwrap().len, 12);
    }

    #[test]
    fn delete_appends_tombstone() {
        let mut e = KvEngine::new();
        e.put(b"k", b"v").unwrap();
        let (off, rec) = e.delete(b"k").unwrap().unwrap();
        assert!(off > 0);
        assert_eq!(rec.len(), 6 + 1);
        assert!(e.get(b"k").is_none());
        // Deleting a missing key appends nothing.
        assert_eq!(e.delete(b"nope").unwrap(), None);
    }

    #[test]
    fn size_limits_enforced() {
        let mut e = KvEngine::new();
        assert_eq!(
            e.put(&vec![0u8; MAX_KEY + 1], b"v"),
            Err(EngineError::KeyTooLong)
        );
        assert_eq!(
            e.put(b"k", &vec![0u8; MAX_VALUE + 1]),
            Err(EngineError::ValueTooLong)
        );
    }

    #[test]
    fn scanner_rebuilds_index() {
        let mut writer = KvEngine::new();
        let mut log = Vec::new();
        for i in 0..50u32 {
            let (_, rec) = writer
                .put(format!("key{i}").as_bytes(), format!("value{i}").as_bytes())
                .unwrap();
            log.extend_from_slice(&rec);
        }
        let (_, rec) = writer.delete(b"key7").unwrap().unwrap();
        log.extend_from_slice(&rec);
        let (_, rec) = writer.put(b"key3", b"updated").unwrap();
        log.extend_from_slice(&rec);

        // Rebuild with awkward chunk sizes to cross record boundaries.
        let mut rebuilt = KvEngine::new();
        let mut scanner = LogScanner::new();
        for chunk in log.chunks(7) {
            scanner.feed(&mut rebuilt, chunk).unwrap();
        }
        assert_eq!(scanner.pending(), 0);
        assert_eq!(rebuilt.len(), writer.len());
        assert!(rebuilt.get(b"key7").is_none());
        assert_eq!(rebuilt.get(b"key3"), writer.get(b"key3"));
        assert_eq!(rebuilt.cursor(), writer.cursor());
        for i in 0..50u32 {
            if i == 7 {
                continue;
            }
            let k = format!("key{i}");
            assert_eq!(rebuilt.get(k.as_bytes()), writer.get(k.as_bytes()), "{k}");
        }
    }

    #[test]
    fn scanner_rejects_corrupt_records() {
        let mut log = Vec::new();
        log.extend_from_slice(&(2000u16).to_le_bytes()); // klen > MAX_KEY
        log.extend_from_slice(&5u32.to_le_bytes());
        log.extend_from_slice(&[0u8; 64]);
        let mut e = KvEngine::new();
        let mut s = LogScanner::new();
        assert_eq!(s.feed(&mut e, &log), Err(EngineError::Corrupt));
    }

    #[test]
    fn scanner_handles_partial_header_at_boundary() {
        let mut writer = KvEngine::new();
        let (_, rec) = writer.put(b"abc", b"defgh").unwrap();
        let mut e = KvEngine::new();
        let mut s = LogScanner::new();
        s.feed(&mut e, &rec[..3]).unwrap(); // mid-header
        assert_eq!(e.len(), 0);
        assert_eq!(s.pending(), 3);
        s.feed(&mut e, &rec[3..]).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.get(b"abc").unwrap().len, 5);
    }
}
