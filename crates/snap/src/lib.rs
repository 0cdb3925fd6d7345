//! Versioned, deterministic snapshot/restore framing (DESIGN.md §14).
//!
//! Everything stateful in the simulator serializes into a [`Checkpoint`]: a
//! manifest (schema version, seed, virtual time, event cursor) plus named
//! per-component *sections*, each an independently checksummed byte string
//! with stable little-endian framing. The format is deliberately dumb —
//! fixed-width LE integers, length-prefixed byte strings, no compression
//! except an RLE helper for sparse memory — because the property that
//! matters is not density but *stability*: the same component state must
//! encode to the same bytes on every host, every run, every thread count.
//!
//! Two traits split the work:
//!
//! - [`Snapshot`] — serialize your state into a [`SnapWriter`]. Every
//!   stateful component implements this; it needs only `&self`.
//! - [`Restore`] — load state back *in place* from a [`SnapReader`].
//!   Implemented where in-place loading is tractable (RNGs, queues, pools,
//!   metrics); higher layers (`System`, `Fabric`) restore by deterministic
//!   re-execution to the manifest's event cursor and then *verify* every
//!   section byte-for-byte against a fresh snapshot (see DESIGN.md §14 for
//!   why re-execution + verification is equivalent to in-place loading in a
//!   deterministic simulator, and strictly harder to get silently wrong).
//!
//! Corruption never loads partially: [`Checkpoint::decode`] verifies every
//! section checksum before any component sees any bytes, and readers
//! bounds-check every primitive.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// Bumped whenever the framing or any section layout changes shape.
/// v2: the fabric section serializes per-topology-link queue cursors and
/// traffic counters instead of per-machine uplink/downlink busy times.
pub const SCHEMA_VERSION: u32 = 2;

/// File magic: identifies a lastcpu checkpoint, revision 1 of the framing.
pub const MAGIC: &[u8; 8] = b"LCSNAP1\0";

/// FNV-1a offset basis (also the seed callers use for rolling digests).
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds more bytes into a rolling FNV-1a digest.
pub fn fnv1a_fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Interns a string with `'static` lifetime.
///
/// Checkpointed enums carry a few `&'static str` fields (trace stage names,
/// delivery kinds); restore rebuilds them through this table. Each distinct
/// string leaks exactly once per process — the sets involved are tiny and
/// fixed (protocol milestone names), so this is bounded.
pub fn intern_static(s: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<std::collections::BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()));
    let mut t = table.lock().expect("intern table poisoned");
    if let Some(&hit) = t.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    t.insert(leaked);
    leaked
}

/// Why a checkpoint could not be produced or loaded.
#[derive(Debug)]
pub enum SnapError {
    /// The byte stream is structurally invalid (truncated, bad magic,
    /// trailing garbage, out-of-range length).
    Corrupt { section: String, detail: String },
    /// A section's stored checksum does not match its body. Restore refuses
    /// to load *any* state from a checkpoint with a bad section.
    ChecksumMismatch {
        section: String,
        want: u64,
        got: u64,
    },
    /// The checkpoint was written by an incompatible schema revision.
    VersionMismatch { want: u32, got: u32 },
    /// A component the restore path needs is absent from the checkpoint.
    MissingSection(String),
    /// The component does not support snapshot (default trait impls fail
    /// loudly rather than silently skipping state).
    Unsupported(String),
    /// Re-executed state diverged from the checkpointed section bytes.
    VerifyMismatch { section: String, detail: String },
    /// Filesystem error reading or writing a checkpoint file.
    Io(std::io::Error),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Corrupt { section, detail } => {
                write!(f, "corrupt section {section:?}: {detail}")
            }
            SnapError::ChecksumMismatch { section, want, got } => write!(
                f,
                "checksum mismatch in section {section:?}: stored {want:#018x}, body hashes to {got:#018x}"
            ),
            SnapError::VersionMismatch { want, got } => {
                write!(f, "schema version mismatch: this build reads v{want}, checkpoint is v{got}")
            }
            SnapError::MissingSection(s) => write!(f, "checkpoint has no section {s:?}"),
            SnapError::Unsupported(what) => {
                write!(f, "component {what:?} does not support snapshot/restore")
            }
            SnapError::VerifyMismatch { section, detail } => {
                write!(f, "restored state diverged in section {section:?}: {detail}")
            }
            SnapError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, SnapError>;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder for one section body.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        // Bit pattern, not value: NaN payloads and -0.0 must round-trip so
        // snapshot→restore→snapshot is byte-identical.
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A collection length (u64 on the wire so usize width cannot matter).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// What [`put_str`](Self::put_str) writes for `v.to_string()`, rendered
    /// straight into the section body: no intermediate `String`.
    pub fn put_display(&mut self, v: &dyn fmt::Display) {
        struct Utf8<'a>(&'a mut Vec<u8>);
        impl fmt::Write for Utf8<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.extend_from_slice(s.as_bytes());
                Ok(())
            }
        }
        use fmt::Write as _;
        let len_pos = self.buf.len();
        self.put_u64(0); // patched below
        write!(Utf8(&mut self.buf), "{v}").expect("writing to a Vec cannot fail");
        let len = (self.buf.len() - len_pos - 8) as u64;
        self.buf[len_pos..len_pos + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// `Some`/`None` tagged value.
    pub fn put_opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.put_u8(0),
            Some(t) => {
                self.put_u8(1);
                f(self, t);
            }
        }
    }

    /// Byte run-length encoding for sparse memory images: pairs of
    /// (run_len u64, byte u8). Typical DRAM images are almost all zero.
    pub fn put_bytes_rle(&mut self, b: &[u8]) {
        self.put_len(b.len());
        let mut i = 0;
        let mut runs = 0u64;
        let runs_pos = self.buf.len();
        self.put_u64(0); // patched below
        while i < b.len() {
            let byte = b[i];
            let mut j = i + 1;
            while j < b.len() && b[j] == byte {
                j += 1;
            }
            self.put_u64((j - i) as u64);
            self.put_u8(byte);
            runs += 1;
            i = j;
        }
        self.buf[runs_pos..runs_pos + 8].copy_from_slice(&runs.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian decoder over one section body.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: String,
}

impl<'a> SnapReader<'a> {
    pub fn new(section: &str, buf: &'a [u8]) -> Self {
        SnapReader {
            buf,
            pos: 0,
            section: section.to_string(),
        }
    }

    /// Builds a [`SnapError::Corrupt`] naming this reader's section, for
    /// component decoders that detect semantic invariant violations.
    pub fn corrupt(&self, detail: impl Into<String>) -> SnapError {
        SnapError::Corrupt {
            section: self.section.clone(),
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Restore must consume sections exactly; leftover bytes mean the
    /// decoder and encoder disagree about the layout.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("bad bool byte {v}"))),
        }
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection length, sanity-capped against the bytes actually left so
    /// a corrupted length cannot trigger an absurd allocation.
    ///
    /// This *decodes* a length field — it is not the reader's own size, so
    /// the `len`/`is_empty` pairing convention does not apply.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        if n > (1u64 << 40) {
            return Err(self.corrupt(format!("implausible length {n}")));
        }
        Ok(n as usize)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|e| self.corrupt(format!("invalid utf-8: {e}")))
    }

    pub fn opt<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            v => Err(self.corrupt(format!("bad option tag {v}"))),
        }
    }

    /// Inverse of [`SnapWriter::put_bytes_rle`].
    pub fn bytes_rle(&mut self) -> Result<Vec<u8>> {
        let total = self.len()?;
        let runs = self.u64()?;
        let mut out = Vec::with_capacity(total);
        for _ in 0..runs {
            let n = self.len()?;
            let byte = self.u8()?;
            if out.len() + n > total {
                return Err(self.corrupt("rle runs exceed declared length"));
            }
            out.resize(out.len() + n, byte);
        }
        if out.len() != total {
            return Err(self.corrupt(format!(
                "rle runs cover {} of {total} declared bytes",
                out.len()
            )));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------------

/// Serialize complete component state, deterministically.
///
/// The contract: two components in the same logical state write identical
/// bytes, regardless of how they reached that state (insertion order, thread
/// count, process lifetime). Anything violating that breaks checkpoint
/// verification, so implementations must iterate maps in sorted order and
/// never serialize addresses, capacities, or wall-clock values.
pub trait Snapshot {
    fn snapshot(&self, w: &mut SnapWriter);

    /// The component's section bytes, freshly encoded.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.snapshot(&mut w);
        w.into_bytes()
    }
}

/// Load serialized state back in place.
///
/// After `restore`, a fresh [`Snapshot::snapshot_bytes`] must equal the bytes
/// that were restored from (the round-trip property the proptests pin).
pub trait Restore {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<()>;

    /// Restore from a full section body, requiring exact consumption.
    fn restore_bytes(&mut self, section: &str, bytes: &[u8]) -> Result<()> {
        let mut r = SnapReader::new(section, bytes);
        self.restore(&mut r)?;
        r.finish()
    }
}

// ---------------------------------------------------------------------------
// Manifest + checkpoint container
// ---------------------------------------------------------------------------

/// Checkpoint-wide metadata, written before any section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Framing + section-layout revision ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Root seed of the checkpointed run.
    pub seed: u64,
    /// Virtual time at the checkpoint, nanoseconds.
    pub virtual_ns: u64,
    /// Events processed so far — the re-execution cursor for restore.
    pub events: u64,
    /// Fingerprint of the builder configuration; restore refuses to verify
    /// against a system built from a different recipe.
    pub config_fp: u64,
    /// Free-form producer tag (bench name, machine id, ...).
    pub label: String,
}

impl Manifest {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u32(self.schema_version);
        w.put_u64(self.seed);
        w.put_u64(self.virtual_ns);
        w.put_u64(self.events);
        w.put_u64(self.config_fp);
        w.put_str(&self.label);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Manifest> {
        Ok(Manifest {
            schema_version: r.u32()?,
            seed: r.u64()?,
            virtual_ns: r.u64()?,
            events: r.u64()?,
            config_fp: r.u64()?,
            label: r.str()?,
        })
    }
}

/// A manifest plus named, checksummed sections; the unit that hits disk.
///
/// Section order is insertion order and is part of the byte format, so
/// producers emit components in a fixed order and `encode` → `decode` →
/// `encode` is byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    pub manifest: Manifest,
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    pub fn new(manifest: Manifest) -> Self {
        Checkpoint {
            manifest,
            sections: Vec::new(),
        }
    }

    /// Adds a section; duplicate tags are a producer bug.
    pub fn add_section(&mut self, tag: &str, body: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(t, _)| t != tag),
            "duplicate checkpoint section {tag:?}"
        );
        self.sections.push((tag.to_string(), body));
    }

    /// Serializes a component straight into a section.
    pub fn put(&mut self, tag: &str, c: &impl Snapshot) {
        self.add_section(tag, c.snapshot_bytes());
    }

    pub fn section(&self, tag: &str) -> Result<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| t == tag)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| SnapError::MissingSection(tag.to_string()))
    }

    /// A reader over one section's body.
    pub fn reader(&self, tag: &str) -> Result<SnapReader<'_>> {
        Ok(SnapReader::new(tag, self.section(tag)?))
    }

    pub fn section_tags(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(t, _)| t.as_str())
    }

    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Full binary encoding: magic, manifest, then each section as
    /// `tag, body, fnv1a(body)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(MAGIC);
        self.manifest.encode(&mut w);
        w.put_len(self.sections.len());
        for (tag, body) in &self.sections {
            w.put_str(tag);
            w.put_bytes(body);
            w.put_u64(fnv1a(body));
        }
        w.into_bytes()
    }

    /// Decodes and *fully verifies* a checkpoint: magic, schema version, and
    /// every section checksum — before any component state is handed out.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
        let mut r = SnapReader::new("checkpoint", bytes);
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(r.corrupt("bad magic: not a lastcpu checkpoint"));
        }
        let manifest = Manifest::decode(&mut r)?;
        if manifest.schema_version != SCHEMA_VERSION {
            return Err(SnapError::VersionMismatch {
                want: SCHEMA_VERSION,
                got: manifest.schema_version,
            });
        }
        let n = r.len()?;
        let mut ck = Checkpoint::new(manifest);
        for _ in 0..n {
            let tag = r.str()?;
            let body = r.bytes()?;
            let want = r.u64()?;
            let got = fnv1a(&body);
            if want != got {
                return Err(SnapError::ChecksumMismatch {
                    section: tag,
                    want,
                    got,
                });
            }
            ck.sections.push((tag, body));
        }
        r.finish()?;
        Ok(ck)
    }

    pub fn write_file(&self, path: &str) -> Result<()> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    pub fn read_file(path: &str) -> Result<Checkpoint> {
        Checkpoint::decode(&std::fs::read(path)?)
    }

    /// First divergence between two checkpoints, as a human-readable report
    /// (`None` when identical). Drives the loud restore-verification error.
    pub fn diff(&self, other: &Checkpoint) -> Option<String> {
        if self.manifest != other.manifest {
            return Some(format!(
                "manifest differs: {:?} vs {:?}",
                self.manifest, other.manifest
            ));
        }
        for (i, ((ta, ba), (tb, bb))) in self.sections.iter().zip(&other.sections).enumerate() {
            if ta != tb {
                return Some(format!("section {i} tag differs: {ta:?} vs {tb:?}"));
            }
            if ba != bb {
                let off = ba.iter().zip(bb.iter()).position(|(x, y)| x != y);
                return Some(format!(
                    "section {ta:?} differs: {} vs {} bytes, first divergence at {}",
                    ba.len(),
                    bb.len(),
                    off.map_or_else(|| "end".to_string(), |o| format!("offset {o}")),
                ));
            }
        }
        if self.sections.len() != other.sections.len() {
            return Some(format!(
                "section count differs: {} vs {}",
                self.sections.len(),
                other.sections.len()
            ));
        }
        None
    }

    /// One digest over the entire encoded checkpoint.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }
}

// ---------------------------------------------------------------------------
// Blanket impls for common shapes
// ---------------------------------------------------------------------------

impl Snapshot for u64 {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
}

impl Restore for u64 {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<()> {
        *self = r.u64()?;
        Ok(())
    }
}

impl Snapshot for Vec<u8> {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_bytes(self);
    }
}

impl Restore for Vec<u8> {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<()> {
        *self = r.bytes()?;
        Ok(())
    }
}

impl Snapshot for BTreeMap<String, u64> {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            w.put_str(k);
            w.put_u64(*v);
        }
    }
}

impl Restore for BTreeMap<String, u64> {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<()> {
        self.clear();
        let n = r.len()?;
        for _ in 0..n {
            let k = r.str()?;
            let v = r.u64()?;
            self.insert(k, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint::new(Manifest {
            schema_version: SCHEMA_VERSION,
            seed: 0xBEEF,
            virtual_ns: 123_456_789,
            events: 42,
            config_fp: 7,
            label: "test".into(),
        });
        let mut w = SnapWriter::new();
        w.put_u64(99);
        w.put_str("hello");
        w.put_f64(-0.0);
        ck.add_section("alpha", w.into_bytes());
        ck.add_section("beta", vec![1, 2, 3]);
        ck
    }

    #[test]
    fn encode_decode_round_trip_is_byte_identical() {
        let ck = sample();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).expect("decodes");
        assert_eq!(ck, back);
        assert_eq!(bytes, back.encode());
        assert_eq!(back.diff(&ck), None);
    }

    #[test]
    fn corrupted_section_fails_loudly() {
        let ck = sample();
        let mut bytes = ck.encode();
        // Flip one byte inside section "beta"'s body (the [1,2,3] run near
        // the end, before its checksum).
        let idx = bytes
            .windows(3)
            .rposition(|w| w == [1, 2, 3])
            .expect("body present");
        bytes[idx] ^= 0xFF;
        match Checkpoint::decode(&bytes) {
            Err(SnapError::ChecksumMismatch { section, .. }) => assert_eq!(section, "beta"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_fails_loudly() {
        let bytes = sample().encode();
        for cut in [0, 4, MAGIC.len(), bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut ck = sample();
        ck.manifest.schema_version = SCHEMA_VERSION + 1;
        match Checkpoint::decode(&ck.encode()) {
            Err(SnapError::VersionMismatch { got, .. }) => {
                assert_eq!(got, SCHEMA_VERSION + 1)
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rle_round_trip() {
        let mut img = vec![0u8; 4096];
        img[100] = 7;
        img[2000..2100].fill(0xAB);
        let mut w = SnapWriter::new();
        w.put_bytes_rle(&img);
        let enc = w.into_bytes();
        assert!(enc.len() < img.len() / 4, "rle should compress sparse data");
        let mut r = SnapReader::new("rle", &enc);
        assert_eq!(r.bytes_rle().unwrap(), img);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let b = w.into_bytes();
        let mut r = SnapReader::new("t", &b);
        assert_eq!(r.u64().unwrap(), 1);
        assert!(r.finish().is_err());
        assert_eq!(r.u64().unwrap(), 2);
        r.finish().unwrap();
    }
}
