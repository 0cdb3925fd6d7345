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
//! Two traits split the work, and neither is written by hand:
//!
//! - [`Snapshot`] — serialize your state into a [`SnapWriter`]; it needs
//!   only `&self`.
//! - [`Restore`] — load state back *in place* from a [`SnapReader`].
//!
//! A component declares its layout once, as an ordered field list
//! ([`fields!`]), and both impls are derived from it through the field
//! codecs of [`Field`], [`Codec`] and [`Span`]. Higher layers (`System`,
//! `Fabric`) restore by loading every section through its reader and then
//! *verify* every section byte-for-byte against a fresh snapshot
//! (DESIGN.md §14.2), so a reader that loads less than it reads fails the
//! restore instead of passing silently.
//!
//! Corruption is refused before anything loads: [`Checkpoint::decode`] and
//! [`Encoded::read`] verify every section checksum before any component
//! sees any bytes, and readers bounds-check every primitive.

#![forbid(unsafe_code)]

use std::fmt;

mod fields;
pub use fields::{
    ascending, take_sorted, Codec, Count, Derived, Each, Field, Keyed, Max, Sorted, Span,
};

/// Bumped whenever the framing or any section layout changes shape.
/// v2: the fabric section serializes per-topology-link queue cursors and
/// traffic counters instead of per-machine uplink/downlink busy times.
/// v3: sections hold state only: the pending events themselves instead of
/// their count and digest, no pinned constants, no id lists that restate
/// `1..=n`, a trace tag per record variant, and a word-at-a-time checksum.
/// v4: the KVS client section holds no `timeout`; it holds each outstanding
/// request's `Sent` kind and the instant its one wake-up is armed at
/// (`wake_at`).
pub const SCHEMA_VERSION: u32 = 4;

/// File magic: identifies a lastcpu checkpoint, revision 1 of the framing.
pub const MAGIC: &[u8; 8] = b"LCSNAP1\0";

/// FNV-1a offset basis (also the seed callers use for rolling digests, and
/// the checkpoint checksum's).
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

/// The checkpoint checksum: section checksums, [`Checkpoint::digest`] and
/// a [`Diff`]'s claims. It folds its input eight bytes per multiply (the
/// last word zero-padded), then the length, then mixes. Every step is a
/// bijection of the running state, so two inputs of one length that differ
/// in one byte never share a checksum. It is streamed: the pieces of a walk
/// sum to what their concatenation sums to.
struct Sum {
    h: u64,
    /// Input not yet folded: fewer than eight bytes.
    tail: [u8; 8],
    fill: usize,
    len: u64,
}

impl Sum {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        Sum {
            h: FNV_OFFSET,
            tail: [0; 8],
            fill: 0,
            len: 0,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(Self::MUL).rotate_left(29);
    }

    fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.fill > 0 {
            let n = (8 - self.fill).min(bytes.len());
            self.tail[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            self.fill += n;
            bytes = &bytes[n..];
            if self.fill < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.tail));
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    fn finish(mut self) -> u64 {
        if self.fill > 0 {
            self.tail[self.fill..].fill(0);
            self.word(u64::from_le_bytes(self.tail));
        }
        // The length, then murmur3's 64-bit finalizer.
        let mut h = self.h ^ self.len;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// [`Sum`] of one byte string.
fn checksum(bytes: &[u8]) -> u64 {
    let mut s = Sum::new();
    s.write(bytes);
    s.finish()
}

/// Interns a string with `'static` lifetime, or refuses it.
///
/// Checkpointed enums carry a few `&'static str` fields (trace stage names,
/// delivery kinds); restore rebuilds them through this table. Each distinct
/// string leaks once per process, and a checkpoint chooses the strings, so
/// the table refuses a new one (`None`) once it holds `bound`: however many
/// distinct names doctored checkpoints carry, the leak stays bounded.
pub fn intern_static(s: &str, bound: usize) -> Option<&'static str> {
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<std::collections::BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()));
    let mut t = table.lock().expect("intern table poisoned");
    if let Some(&hit) = t.get(s) {
        return Some(hit);
    }
    if t.len() >= bound {
        return None;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    t.insert(leaked);
    Some(leaked)
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

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        // Bit pattern, not value: NaN payloads and -0.0 must round-trip so
        // snapshot→restore→snapshot is byte-identical.
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A collection length (u64 on the wire so usize width cannot matter).
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Length-prefixed raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_len(b.len());
        self.put_raw(b);
    }

    /// Raw bytes, no length: the reader knows how many.
    #[inline]
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
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
    /// (run_len u64, byte u8), each run as long as it goes, so no run is
    /// empty and no two neighbours repeat a byte. Typical DRAM images are
    /// almost all zero.
    pub fn put_bytes_rle(&mut self, b: &[u8]) {
        self.put_bytes_rle_padded(b, b.len());
    }

    /// What [`put_bytes_rle`](Self::put_bytes_rle) writes for `b` followed
    /// by zeros up to `len` bytes, without building the padded copy: the
    /// zeros join `b`'s last run when it is a run of zeros and are one run
    /// of their own otherwise.
    pub fn put_bytes_rle_padded(&mut self, b: &[u8], len: usize) {
        assert!(b.len() <= len, "{} bytes padded to {len}", b.len());
        self.put_len(len);
        let mut runs = 0u64;
        let runs_pos = self.buf.len();
        self.put_u64(0); // patched below
        let mut rest = b;
        // Where the last run's length sits, if that run is of zeros.
        let mut zero_run = None;
        while let Some(&byte) = rest.first() {
            let n = run_len(rest, byte);
            zero_run = (byte == 0).then_some(self.buf.len());
            self.put_u64(n as u64);
            self.put_u8(byte);
            runs += 1;
            rest = &rest[n..];
        }
        let pad = (len - b.len()) as u64;
        if pad > 0 {
            match zero_run {
                Some(at) => {
                    let n = u64::from_le_bytes(self.buf[at..at + 8].try_into().expect("8 bytes"));
                    self.buf[at..at + 8].copy_from_slice(&(n + pad).to_le_bytes());
                }
                None => {
                    self.put_u64(pad);
                    self.put_u8(0);
                    runs += 1;
                }
            }
        }
        self.buf[runs_pos..runs_pos + 8].copy_from_slice(&runs.to_le_bytes());
    }
}

/// How many bytes `rest` starts with that are `byte`, found eight at a
/// time: a word of them xored with the next eight bytes is zero until the
/// run ends, and its lowest set byte is where it ends.
#[inline]
fn run_len(rest: &[u8], byte: u8) -> usize {
    let pattern = u64::from_le_bytes([byte; 8]);
    let mut words = rest.chunks_exact(8);
    let mut n = 0;
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ pattern;
        if x != 0 {
            return n + (x.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    let tail = words.remainder();
    n + tail.iter().position(|&x| x != byte).unwrap_or(tail.len())
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

    /// The refusal of an enum tag no variant has.
    pub fn bad_tag(&self, what: &str, tag: u8) -> SnapError {
        self.corrupt(format!("bad {what} tag {tag}"))
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.truncated(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[cold]
    fn truncated(&self, n: usize) -> SnapError {
        self.corrupt(format!(
            "truncated: need {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len() - self.pos
        ))
    }

    #[inline]
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

    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("bad bool byte {v}"))),
        }
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length field, refused above 2^40. That bounds a loop, not an
    /// allocation: a length that sizes a reservation is read with
    /// [`count`](Self::count), which also checks the bytes left.
    ///
    /// This *decodes* a length field — it is not the reader's own size, so
    /// the `len`/`is_empty` pairing convention does not apply.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        self.length(n)
    }

    /// The length field `n`, already read, refused as [`len`](Self::len)
    /// refuses it.
    #[inline]
    fn length(&self, n: u64) -> Result<usize> {
        if n > (1u64 << 40) {
            return Err(self.corrupt(format!("implausible length {n}")));
        }
        Ok(n as usize)
    }

    /// The length of a collection whose elements take at least one byte
    /// each on the wire, refused when the bytes left could not hold that
    /// many. Reserve with this, never with [`len`](Self::len): a hostile
    /// length then fails as [`SnapError::Corrupt`] instead of asking the
    /// allocator for terabytes.
    #[inline]
    pub fn count(&mut self) -> Result<usize> {
        let n = self.len()?;
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "{n} elements cannot fit in the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.slice()?.to_vec())
    }

    /// A length-prefixed byte string, borrowed from the body.
    #[inline]
    pub fn slice(&mut self) -> Result<&'a [u8]> {
        let n = self.u64()?;
        self.slice_of(n)
    }

    /// The byte string whose length field `n` was already read, borrowed
    /// from the body.
    #[inline]
    pub fn slice_of(&mut self, n: u64) -> Result<&'a [u8]> {
        let n = self.length(n)?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the body.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let b = self.slice()?;
        self.utf8(b)
    }

    /// `b`, a byte string this reader handed out, as the UTF-8 string
    /// [`str`](Self::str) would have read: for a reader that looks the
    /// bytes up before it checks them.
    pub fn utf8(&self, b: &'a [u8]) -> Result<&'a str> {
        std::str::from_utf8(b).map_err(|e| self.corrupt(format!("invalid utf-8: {e}")))
    }

    pub fn opt<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            v => Err(self.corrupt(format!("bad option tag {v}"))),
        }
    }

    /// Inverse of [`SnapWriter::put_bytes_rle`]. The runs are checked
    /// first and the output allocated once, at the declared total, only
    /// when they cover it: a declared total that the runs do not cover fails
    /// before it is allocated. Only the runs the writer makes are read: an
    /// empty run, or one repeating the byte of the run before it, would
    /// restore state whose next snapshot differs.
    pub fn bytes_rle(&mut self) -> Result<Vec<u8>> {
        let total = self.len()?;
        let runs = self.u64()?;
        let start = self.pos;
        let (mut covered, mut last) = (0, None);
        for _ in 0..runs {
            let n = self.len()?;
            let byte = self.u8()?;
            if n == 0 {
                return Err(self.corrupt("empty rle run"));
            }
            if last.replace(byte) == Some(byte) {
                return Err(self.corrupt(format!("rle run repeats byte {byte:#04x}")));
            }
            if covered + n > total {
                return Err(self.corrupt("rle runs exceed declared length"));
            }
            covered += n;
        }
        if covered != total {
            return Err(self.corrupt(format!(
                "rle runs cover {covered} of {total} declared bytes"
            )));
        }
        let mut out = Vec::with_capacity(total);
        for run in self.buf[start..self.pos].chunks_exact(9) {
            let n = u64::from_le_bytes(run[..8].try_into().expect("8 bytes"));
            out.resize(out.len() + n as usize, run[8]);
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

    /// A section that is this component's fields followed by what `hook`
    /// writes: the fallible `snapshot_state` of a device or host it carries.
    fn snapshot_then(&self, hook: impl FnOnce(&mut SnapWriter) -> Result<()>) -> Result<Vec<u8>>
    where
        Self: Sized,
    {
        let mut w = SnapWriter::new();
        self.snapshot(&mut w);
        hook(&mut w)?;
        Ok(w.into_bytes())
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
    /// Events processed so far: the progress cursor a restore carries on from.
    pub events: u64,
    /// Fingerprint of the builder configuration; restore refuses to verify
    /// against a system built from a different recipe.
    pub config_fp: u64,
    /// Free-form producer tag (bench name, machine id, ...).
    pub label: String,
}

impl Manifest {
    /// Whether a checkpoint with this manifest may be restored into
    /// `this` (`"machine"`, `"rack"`): one of this build's schema, the
    /// producer's `seed` when it checks one, and its recipe `config_fp`.
    /// A rack passes no seed; its seed is part of its recipe, and a
    /// manifest doctored to another one fails the comparison after loading.
    pub fn admit(&self, this: &str, seed: Option<u64>, config_fp: u64) -> Result<()> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(SnapError::VersionMismatch {
                want: SCHEMA_VERSION,
                got: self.schema_version,
            });
        }
        let refuse = |detail| {
            Err(SnapError::VerifyMismatch {
                section: "manifest".into(),
                detail,
            })
        };
        if let Some(seed) = seed.filter(|&s| s != self.seed) {
            return refuse(format!(
                "seed mismatch: checkpoint {}, this {this} {seed}",
                self.seed
            ));
        }
        if self.config_fp != config_fp {
            return refuse(format!(
                "config fingerprint mismatch: checkpoint {:#018x}, this {this} {config_fp:#018x}",
                self.config_fp
            ));
        }
        Ok(())
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Manifest> {
        Ok(Manifest {
            schema_version: r.u32()?,
            seed: r.u64()?,
            virtual_ns: r.u64()?,
            events: r.u64()?,
            config_fp: r.u64()?,
            label: r.str()?.into(),
        })
    }
}

/// Where an encoding goes, piece by piece.
///
/// A closure `FnMut(&[u8])` is one: it takes every piece, a section's
/// checksum included. A sink that can settle a checksum without hashing
/// overrides [`sum_of`](Self::sum_of) — a [`Diff`] that has matched the
/// body against a stored one needs only the stored checksum to be the
/// stored body's.
pub trait Emit {
    /// The next bytes of the encoding.
    fn piece(&mut self, bytes: &[u8]);

    /// The next eight bytes are `body`'s checksum, and `body` is what the
    /// last pieces handed over.
    fn sum_of(&mut self, body: &[u8]) {
        self.piece(&checksum(body).to_le_bytes());
    }
}

impl<F: FnMut(&[u8])> Emit for F {
    fn piece(&mut self, bytes: &[u8]) {
        self(bytes)
    }
}

/// Counts the bytes of an encoding; a checksum is eight of them, unhashed.
struct Len(usize);

impl Emit for Len {
    fn piece(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn sum_of(&mut self, _: &[u8]) {
        self.0 += 8;
    }
}

/// Hands `emit` the framing in front of a checkpoint's sections, piece by
/// piece: magic, manifest, section count.
fn walk_head(m: &Manifest, sections: usize, emit: &mut dyn Emit) {
    emit.piece(MAGIC);
    emit.piece(&m.schema_version.to_le_bytes());
    for v in [m.seed, m.virtual_ns, m.events, m.config_fp] {
        emit.piece(&v.to_le_bytes());
    }
    emit.piece(&(m.label.len() as u64).to_le_bytes());
    emit.piece(m.label.as_bytes());
    emit.piece(&(sections as u64).to_le_bytes());
}

/// Hands `emit` one section, piece by piece: its tag and body, each
/// length-prefixed, then the body's checksum.
fn walk_section(tag: &str, body: &[u8], emit: &mut dyn Emit) {
    emit.piece(&(tag.len() as u64).to_le_bytes());
    emit.piece(tag.as_bytes());
    emit.piece(&(body.len() as u64).to_le_bytes());
    emit.piece(body);
    emit.sum_of(body);
}

/// Where a producer's sections go, in order: collected into a
/// [`Checkpoint`], streamed out by an [`Encoder`], or compared against a
/// stored checkpoint by a [`Diff`].
pub trait SectionSink {
    /// The next section.
    fn section(&mut self, tag: &str, body: Vec<u8>);

    /// The next section, its body handed over in pieces by `write` (a
    /// machine's whole encoding, inside a rack). By default the pieces are
    /// collected and passed to [`section`](Self::section).
    fn streamed(
        &mut self,
        tag: &str,
        write: &mut dyn FnMut(&mut dyn Emit) -> Result<()>,
    ) -> Result<()> {
        let mut body = Vec::new();
        write(&mut |piece: &[u8]| body.extend_from_slice(piece))?;
        self.section(tag, body);
        Ok(())
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

    /// Every section's tag and body, in order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|(t, b)| (t.as_str(), b.as_slice()))
    }

    /// The one walk over exactly the bytes [`encode`](Self::encode) writes:
    /// magic, manifest, section count, then per section its tag, body and
    /// checksum. Encoding and digest consume it; neither copies a body.
    fn walk(&self, emit: &mut dyn Emit) {
        walk_head(&self.manifest, self.sections.len(), emit);
        for (tag, body) in &self.sections {
            walk_section(tag, body, emit);
        }
    }

    /// Full binary encoding: magic, manifest, then each section as
    /// `tag, body, checksum(body)`, in one buffer allocated at its exact length.
    pub fn encode(&self) -> Vec<u8> {
        let mut len = Len(0);
        self.walk(&mut len);
        let mut out = Vec::with_capacity(len.0);
        self.walk(&mut |piece: &[u8]| out.extend_from_slice(piece));
        out
    }

    /// Decodes and *fully verifies* a checkpoint: magic, schema version, and
    /// every section checksum — before any component state is handed out.
    /// The report is [`Encoded::read`]'s.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
        let Encoded { manifest, sections } = Encoded::read(bytes)?;
        let sections = sections
            .into_iter()
            .map(|(tag, body)| (tag.to_string(), body.to_vec()))
            .collect();
        Ok(Checkpoint { manifest, sections })
    }

    pub fn write_file(&self, path: &str) -> Result<()> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    pub fn read_file(path: &str) -> Result<Checkpoint> {
        Checkpoint::decode(&std::fs::read(path)?)
    }

    /// One digest over the entire encoded checkpoint, folded as the encoding
    /// is walked: the checksum of [`encode`](Self::encode)'s bytes without
    /// the encoding.
    pub fn digest(&self) -> u64 {
        let mut s = Sum::new();
        self.walk(&mut |piece: &[u8]| s.write(piece));
        s.finish()
    }
}

/// A checkpoint read in place from its encoding: the manifest decoded and
/// each section's tag and body borrowed, every checksum checked as
/// [`Checkpoint::decode`] checks it, no body copied.
pub struct Encoded<'a> {
    pub manifest: Manifest,
    pub sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> Encoded<'a> {
    /// Reads magic, manifest and sections. The report is the first failure
    /// in the encoding: a checksum that does not match, else the section
    /// the bytes ran out in, else trailing bytes.
    pub fn read(bytes: &'a [u8]) -> Result<Self> {
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
        let mut sections = Vec::new();
        for _ in 0..n {
            let tag = r.str()?;
            let body = r.slice()?;
            let (want, got) = (r.u64()?, checksum(body));
            if want != got {
                return Err(SnapError::ChecksumMismatch {
                    section: tag.to_string(),
                    want,
                    got,
                });
            }
            sections.push((tag, body));
        }
        r.finish()?;
        Ok(Encoded { manifest, sections })
    }
}

impl SectionSink for Checkpoint {
    fn section(&mut self, tag: &str, body: Vec<u8>) {
        self.add_section(tag, body);
    }
}

/// A checkpoint's encoding, streamed as its sections are produced: `emit`
/// receives the bytes [`Checkpoint::encode`] would write for the same
/// manifest and sections, and no section outlives its turn.
pub struct Encoder<'e> {
    emit: &'e mut dyn Emit,
    /// Sections still to come.
    left: usize,
}

impl<'e> Encoder<'e> {
    /// Starts the encoding of `sections` sections under `manifest`.
    pub fn new(manifest: &Manifest, sections: usize, emit: &'e mut dyn Emit) -> Self {
        walk_head(manifest, sections, emit);
        Encoder {
            emit,
            left: sections,
        }
    }

    /// Ends the encoding. The section count is written first, so a producer
    /// that yields fewer sections than it declared is a bug.
    pub fn finish(self) {
        assert_eq!(
            self.left, 0,
            "checkpoint sections declared but not produced"
        );
    }
}

impl SectionSink for Encoder<'_> {
    fn section(&mut self, tag: &str, body: Vec<u8>) {
        self.left = self
            .left
            .checked_sub(1)
            .expect("more checkpoint sections than declared");
        walk_section(tag, &body, self.emit);
    }
}

/// The comparator of a verify: a stored checkpoint against one produced a
/// section at a time. Each section is compared as it arrives and dropped
/// after; [`finish`](Self::finish) reports the first divergence.
///
/// A streamed body that carries checksums of its own (a machine's encoding
/// inside a rack) is not hashed as it streams. While the body has matched
/// the stored one byte for byte, the checksum that follows it can only be
/// the checksum of the stored body, so the `Diff` takes the stored checksum
/// as a claim to that effect and `finish` checks the claims in stream
/// order. A claim that fails is reported as the divergence it stands for:
/// its first wrong byte, in its section. A `Diff` made by
/// [`after_load`](Self::after_load) takes none: its claims were checked by
/// the load that read the stored bodies.
pub struct Diff<'a> {
    want: &'a Checkpoint,
    /// Whether every stored section a claim could fall in was read through
    /// [`Encoded::read`] just before, which checked each checksum in it.
    loaded: bool,
    /// Sections produced so far.
    seen: usize,
    /// The first divergence found by comparing bytes, and the index of the
    /// section it is in.
    first: Option<(usize, String)>,
    /// The checksums taken as matching, in the order they were produced.
    claims: Vec<Claim>,
}

/// A stored checksum a [`Diff`] took as matching: the eight bytes at `sum`
/// of stored section `section` are the checksum of the bytes `body..sum`
/// before them.
struct Claim {
    section: usize,
    body: usize,
    sum: usize,
    /// How long the produced section turned out to be.
    produced: usize,
}

/// One produced body against the stored body at its index: its length so
/// far and the first offset where the two differ.
struct BodyDiff<'a> {
    /// The stored section, `None` once the checkpoints are known to differ.
    want: Option<(&'a str, &'a [u8])>,
    /// The section's index.
    index: usize,
    len: usize,
    diverged: Option<usize>,
    /// The `Diff`'s claims, lent for the section's turn.
    claims: Vec<Claim>,
    /// The `Diff`'s [`loaded`](Diff::loaded).
    loaded: bool,
}

impl BodyDiff<'_> {
    fn feed(&mut self, piece: &[u8]) {
        if let (Some((_, want)), None) = (self.want, self.diverged) {
            let rest = want.get(self.len..).unwrap_or_default();
            let n = rest.len().min(piece.len());
            if rest[..n] != piece[..n] {
                let off = rest.iter().zip(piece).position(|(a, b)| a != b);
                self.diverged = off.map(|o| self.len + o);
            }
        }
        self.len += piece.len();
    }
}

impl Emit for BodyDiff<'_> {
    fn piece(&mut self, bytes: &[u8]) {
        self.feed(bytes);
    }

    /// A claim while the body has matched so far and the stored section has
    /// eight more bytes (none after a load, which checked it); otherwise
    /// the real checksum, compared as bytes.
    fn sum_of(&mut self, body: &[u8]) {
        match self.want {
            Some((_, want)) if self.diverged.is_none() && want.len() >= self.len + 8 => {
                if !self.loaded {
                    self.claims.push(Claim {
                        section: self.index,
                        body: self.len - body.len(),
                        sum: self.len,
                        produced: 0,
                    });
                }
                self.len += 8;
            }
            _ => self.feed(&checksum(body).to_le_bytes()),
        }
    }
}

/// The report of a section whose bytes differ.
fn differs(tag: &str, want: usize, got: usize, diverged: Option<usize>) -> String {
    format!(
        "section {tag:?} differs: {want} vs {got} bytes, first divergence at {}",
        diverged.map_or_else(|| "end".to_string(), |o| format!("offset {o}")),
    )
}

impl<'a> Diff<'a> {
    /// Compares against `want` a checkpoint whose manifest is `got`.
    pub fn new(want: &'a Checkpoint, got: &Manifest) -> Self {
        let first = (want.manifest != *got).then(|| {
            (
                0,
                format!("manifest differs: {:?} vs {got:?}", want.manifest),
            )
        });
        Diff {
            want,
            loaded: false,
            seen: 0,
            first,
            claims: Vec::new(),
        }
    }

    /// [`new`](Self::new) for the verify that follows a load of `want`
    /// which read each stored section a streamed body is compared against
    /// through [`Encoded::read`]. A claim would be that a stored checksum
    /// is its stored body's, at offsets the read parsed from the same bytes,
    /// and the read checked exactly that; so this `Diff` takes the stored
    /// checksum without hashing the body again. Any other verify must use
    /// [`new`](Self::new): only a load proves the claims.
    pub fn after_load(want: &'a Checkpoint, got: &Manifest) -> Self {
        Diff {
            loaded: true,
            ..Self::new(want, got)
        }
    }

    /// Opens the next produced section, `tag`.
    fn begin(&mut self, tag: &str) -> BodyDiff<'a> {
        let i = self.seen;
        self.seen += 1;
        let mut want = None;
        if let (None, Some((t, b))) = (&self.first, self.want.sections.get(i)) {
            if t == tag {
                want = Some((t.as_str(), b.as_slice()));
            } else {
                self.first = Some((i, format!("section {i} tag differs: {t:?} vs {tag:?}")));
            }
        }
        BodyDiff {
            want,
            index: i,
            len: 0,
            diverged: None,
            claims: std::mem::take(&mut self.claims),
            loaded: self.loaded,
        }
    }

    fn end(&mut self, mut body: BodyDiff<'_>) {
        let index = body.index;
        for c in body
            .claims
            .iter_mut()
            .rev()
            .take_while(|c| c.section == index)
        {
            c.produced = body.len;
        }
        self.claims = body.claims;
        if let Some((tag, want)) = body.want {
            if body.len != want.len() || body.diverged.is_some() {
                let report = differs(tag, want.len(), body.len, body.diverged);
                self.first = Some((index, report));
            }
        }
    }

    fn compare(&mut self, tag: &str, body: &[u8]) {
        let mut d = self.begin(tag);
        d.feed(body);
        self.end(d);
    }

    /// The first claim that fails, as the report of its section: every claim
    /// precedes any divergence in its section, so its first wrong byte is
    /// the section's first divergence.
    fn broken_claim(&self) -> Option<(usize, String)> {
        self.claims.iter().find_map(|c| {
            let (tag, body) = &self.want.sections[c.section];
            let got = checksum(&body[c.body..c.sum]);
            let off = body[c.sum..c.sum + 8]
                .iter()
                .zip(got.to_le_bytes())
                .position(|(a, b)| *a != b)?;
            let report = differs(tag, body.len(), c.produced, Some(c.sum + off));
            Some((c.section, report))
        })
    }

    /// The first divergence (`None` when the produced checkpoint is the
    /// stored one): the manifest first, then the first section whose tag
    /// or bytes differ, with its offset, then the section count.
    pub fn finish(self) -> Option<String> {
        // The earlier section's report; in one section, the claim's byte
        // comes first.
        let first = [self.broken_claim(), self.first]
            .into_iter()
            .flatten()
            .min_by_key(|&(section, _)| section);
        let (want, seen) = (self.want.sections.len(), self.seen);
        first
            .map(|(_, report)| report)
            .or_else(|| (want != seen).then(|| format!("section count differs: {want} vs {seen}")))
    }
}

impl SectionSink for Diff<'_> {
    fn section(&mut self, tag: &str, body: Vec<u8>) {
        self.compare(tag, &body);
    }

    fn streamed(
        &mut self,
        tag: &str,
        write: &mut dyn FnMut(&mut dyn Emit) -> Result<()>,
    ) -> Result<()> {
        let mut body = self.begin(tag);
        let written = write(&mut body);
        self.end(body);
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First divergence of `got` from `want`, as a verify reports it.
    fn diff(want: &Checkpoint, got: &Checkpoint) -> Option<String> {
        let mut d = Diff::new(want, &got.manifest);
        for (tag, body) in &got.sections {
            d.compare(tag, body);
        }
        d.finish()
    }

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
        assert_eq!(diff(&back, &ck), None);
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

    /// A checkpoint written under an older schema neither decodes nor has
    /// its manifest admitted: both refuse it as a version mismatch.
    fn refused_as(version: u32) -> [SnapError; 2] {
        let mut ck = sample();
        ck.manifest.schema_version = version;
        [
            Checkpoint::decode(&ck.encode()).expect_err("an old encoding"),
            ck.manifest
                .admit("machine", None, 7)
                .expect_err("an old manifest"),
        ]
    }

    #[test]
    fn a_version_2_checkpoint_is_refused() {
        for err in refused_as(2) {
            assert!(
                matches!(err, SnapError::VersionMismatch { want: 4, got: 2 }),
                "{err:?}"
            );
        }
    }

    /// Schema 4 reshaped the KVS client's section, so a version-3
    /// checkpoint is refused for its version, not read as a section that
    /// happens to be cut short.
    #[test]
    fn a_version_3_checkpoint_is_refused() {
        for err in refused_as(3) {
            assert!(
                matches!(err, SnapError::VersionMismatch { want: 4, got: 3 }),
                "{err:?}"
            );
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

    /// `put_bytes_rle` before it took a padded length, kept as the oracle.
    fn rle_oracle(b: &[u8]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_len(b.len());
        let mut i = 0;
        let mut runs = 0u64;
        let runs_pos = w.buf.len();
        w.put_u64(0); // patched below
        while i < b.len() {
            let byte = b[i];
            let mut j = i + 1;
            while j < b.len() && b[j] == byte {
                j += 1;
            }
            w.put_u64((j - i) as u64);
            w.put_u8(byte);
            runs += 1;
            i = j;
        }
        w.buf[runs_pos..runs_pos + 8].copy_from_slice(&runs.to_le_bytes());
        w.into_bytes()
    }

    /// Pages for the RLE proptest: runs of one byte (zero, `0xff` or
    /// drawn), each 1 to 40 bytes so that runs start and end anywhere in an
    /// eight-byte word, then a tail of zeros or of one other byte.
    fn page(runs: &[(usize, u8, u8)], tail: (usize, bool)) -> Vec<u8> {
        let mut page = Vec::new();
        for &(n, pick, drawn) in runs {
            let byte = [0, 0xff, drawn, drawn ^ 1][usize::from(pick % 4)];
            page.resize(page.len() + n, byte);
        }
        let (n, zeros) = tail;
        page.resize(page.len() + n, if zeros { 0 } else { 0x5a });
        page
    }

    proptest::proptest! {
        /// The word-at-a-time writer writes what the byte loop
        /// (`rle_oracle`, over the zero-padded copy) writes, for pages of
        /// runs that cross word boundaries, of every length mod 8, with
        /// zero and non-zero tails, padded or not; and the run scan finds
        /// every run's end where a byte-by-byte scan does.
        fn the_word_scan_writes_what_the_byte_loop_wrote(
            runs in proptest::collection::vec((1usize..40, 0u8..4, proptest::arbitrary::any::<u8>()), 0..24),
            tail in (0usize..20, proptest::arbitrary::any::<bool>()),
            pad in 0usize..30,
            padded in proptest::arbitrary::any::<bool>(),
        ) {
            let page = page(&runs, tail);
            let len = page.len() + if padded { pad } else { 0 };
            let mut whole = page.clone();
            whole.resize(len, 0);
            let mut w = SnapWriter::new();
            w.put_bytes_rle_padded(&page, len);
            proptest::prop_assert_eq!(w.into_bytes(), rle_oracle(&whole));
            for at in 0..page.len() {
                let rest = &page[at..];
                let bytewise = rest.iter().position(|&x| x != rest[0]).unwrap_or(rest.len());
                proptest::prop_assert_eq!(run_len(rest, rest[0]), bytewise);
            }
        }

        /// Zero-padding inside the writer writes what the old writer wrote
        /// for the padded copy: bytes from a three-letter alphabet with zero
        /// in it, so runs form and the padding sometimes extends a run of
        /// zeros.
        fn a_padded_rle_is_the_rle_of_the_padded_bytes(
            bytes in proptest::collection::vec(0u8..3, 0..40),
            pad in 0usize..20,
        ) {
            let mut padded = bytes.clone();
            padded.resize(bytes.len() + pad, 0);
            let want = rle_oracle(&padded);
            let mut w = SnapWriter::new();
            w.put_bytes_rle_padded(&bytes, padded.len());
            proptest::prop_assert_eq!(w.into_bytes(), want.clone());
            let mut w = SnapWriter::new();
            w.put_bytes_rle(&padded);
            proptest::prop_assert_eq!(w.into_bytes(), want.clone());
            proptest::prop_assert_eq!(SnapReader::new("rle", &want).bytes_rle().unwrap(), padded);
        }

        /// A section's checksum changes when any one byte of its body does,
        /// for bodies of one byte to five words, and to whatever value the
        /// byte changes.
        fn a_changed_body_byte_changes_the_checksum(
            len in 1usize..40,
            seed in proptest::arbitrary::any::<u64>(),
            at in proptest::arbitrary::any::<usize>(),
            flip in 1u8..=255,
        ) {
            let body: Vec<u8> = (0..len as u64).map(|i| (i.wrapping_mul(seed | 1) >> 5) as u8).collect();
            let mut changed = body.clone();
            changed[at % len] ^= flip;
            proptest::prop_assert!(checksum(&body) != checksum(&changed));
        }

        /// The checksum streams: bytes handed over in any pieces sum to the
        /// checksum of the whole, whatever the pieces' lengths against the
        /// eight-byte words.
        fn pieces_sum_to_the_checksum_of_the_whole(
            len in 0usize..100,
            seed in proptest::arbitrary::any::<u64>(),
            cuts in proptest::collection::vec(0usize..100, 0..6),
        ) {
            let bytes: Vec<u8> = (0..len as u64).map(|i| (i.wrapping_mul(seed | 1) >> 3) as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut sum = Sum::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                sum.write(&bytes[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(sum.finish(), checksum(&bytes));
        }
    }

    /// Runs the writer never makes are refused as `Corrupt`: an empty run,
    /// and a run of the byte the run before it had. Both restored `Ok`
    /// before, into state whose next snapshot is not the bytes it came from.
    #[test]
    fn rle_refuses_runs_the_writer_never_makes() {
        let runs = |runs: &[(u64, u8)]| {
            let mut w = SnapWriter::new();
            w.put_len(4);
            w.put_u64(runs.len() as u64);
            for &(n, byte) in runs {
                w.put_u64(n);
                w.put_u8(byte);
            }
            w.into_bytes()
        };
        assert_eq!(rle_oracle(&[7, 7, 0, 0]), runs(&[(2, 7), (2, 0)]));
        for bad in [
            runs(&[(2, 7), (0, 9), (2, 0)]),
            runs(&[(1, 7), (1, 7), (2, 0)]),
            runs(&[(2, 7), (2, 0), (0, 0)]),
        ] {
            match SnapReader::new("rle", &bad).bytes_rle() {
                Err(SnapError::Corrupt { .. }) => {}
                other => panic!("expected corrupt, got {other:?}"),
            }
        }
    }

    /// A section body: empty, one MiB, or a few hundred bytes, filled from
    /// `seed`.
    fn body(kind: u8, seed: u64) -> Vec<u8> {
        let len = match kind {
            0 => 0,
            1 => 1 << 20,
            _ => (seed % 500) as usize,
        };
        (0..len as u64)
            .map(|i| (i.wrapping_mul(seed | 1) >> 7) as u8)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The digest streams the checksum over the walk's pieces, so it is
        /// the checksum of the encoding.
        fn digest_is_the_checksum_of_the_encoding(
            label in proptest::arbitrary::any::<String>(),
            repeat in 0usize..64,
            tags in proptest::collection::vec(proptest::arbitrary::any::<String>(), 0..9),
            bodies in proptest::collection::vec((0u8..3, proptest::arbitrary::any::<u64>()), 8..9),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let mut ck = Checkpoint::new(Manifest {
                schema_version: SCHEMA_VERSION,
                seed,
                virtual_ns: seed >> 3,
                events: seed >> 9,
                config_fp: !seed,
                label: label.repeat(repeat),
            });
            for (i, (tag, &(kind, seed))) in tags.iter().zip(&bodies).enumerate() {
                ck.add_section(&format!("{i}{tag}"), body(kind, seed));
            }
            let bytes = ck.encode();
            proptest::prop_assert_eq!(bytes.len(), bytes.capacity());
            proptest::prop_assert_eq!(ck.digest(), checksum(&bytes));
            proptest::prop_assert_eq!(Checkpoint::decode(&bytes).expect("decodes"), ck);
        }
    }

    /// The one-shot comparator before it became [`Diff`], kept as the oracle.
    fn diff_oracle(a: &Checkpoint, b: &Checkpoint) -> Option<String> {
        if a.manifest != b.manifest {
            return Some(format!(
                "manifest differs: {:?} vs {:?}",
                a.manifest, b.manifest
            ));
        }
        for (i, ((ta, ba), (tb, bb))) in a.sections.iter().zip(&b.sections).enumerate() {
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
        if a.sections.len() != b.sections.len() {
            return Some(format!(
                "section count differs: {} vs {}",
                a.sections.len(),
                b.sections.len()
            ));
        }
        None
    }

    /// The streamed [`Diff`] before it took checksums as claims, kept as the
    /// oracle: it compares every byte, a checksum hashed as it streams.
    struct OracleDiff<'a> {
        want: &'a Checkpoint,
        seen: usize,
        first: Option<String>,
    }

    struct OracleBody<'a> {
        want: Option<(&'a str, &'a [u8])>,
        len: usize,
        diverged: Option<usize>,
    }

    impl OracleBody<'_> {
        fn feed(&mut self, piece: &[u8]) {
            if let (Some((_, want)), None) = (self.want, self.diverged) {
                let rest = want.get(self.len..).unwrap_or_default();
                let n = rest.len().min(piece.len());
                if rest[..n] != piece[..n] {
                    let off = rest.iter().zip(piece).position(|(a, b)| a != b);
                    self.diverged = off.map(|o| self.len + o);
                }
            }
            self.len += piece.len();
        }
    }

    impl<'a> OracleDiff<'a> {
        fn new(want: &'a Checkpoint, got: &Manifest) -> Self {
            let first = (want.manifest != *got)
                .then(|| format!("manifest differs: {:?} vs {got:?}", want.manifest));
            OracleDiff {
                want,
                seen: 0,
                first,
            }
        }

        fn begin(&mut self, tag: &str) -> OracleBody<'a> {
            let i = self.seen;
            self.seen += 1;
            let mut want = None;
            if let (None, Some((t, b))) = (&self.first, self.want.sections.get(i)) {
                if t == tag {
                    want = Some((t.as_str(), b.as_slice()));
                } else {
                    self.first = Some(format!("section {i} tag differs: {t:?} vs {tag:?}"));
                }
            }
            OracleBody {
                want,
                len: 0,
                diverged: None,
            }
        }

        fn end(&mut self, body: OracleBody<'_>) {
            if let Some((tag, want)) = body.want {
                if body.len != want.len() || body.diverged.is_some() {
                    self.first = Some(format!(
                        "section {tag:?} differs: {} vs {} bytes, first divergence at {}",
                        want.len(),
                        body.len,
                        body.diverged
                            .map_or_else(|| "end".to_string(), |o| format!("offset {o}")),
                    ));
                }
            }
        }

        fn finish(self) -> Option<String> {
            let (want, seen) = (self.want.sections.len(), self.seen);
            self.first.or_else(|| {
                (want != seen).then(|| format!("section count differs: {want} vs {seen}"))
            })
        }
    }

    impl SectionSink for OracleDiff<'_> {
        fn section(&mut self, tag: &str, body: Vec<u8>) {
            let mut d = self.begin(tag);
            d.feed(&body);
            self.end(d);
        }

        fn streamed(
            &mut self,
            tag: &str,
            write: &mut dyn FnMut(&mut dyn Emit) -> Result<()>,
        ) -> Result<()> {
            let mut body = self.begin(tag);
            write(&mut |piece: &[u8]| body.feed(piece))?;
            self.end(body);
            Ok(())
        }
    }

    /// Each section of an encoding: where its body length, its body and
    /// its checksum start.
    fn framing(enc: &[u8]) -> Vec<(usize, usize, usize)> {
        let mut r = SnapReader::new("framing", enc);
        r.take(MAGIC.len()).unwrap();
        Manifest::decode(&mut r).unwrap();
        let n = r.len().unwrap();
        (0..n)
            .map(|_| {
                r.str().unwrap();
                let len = r.pos;
                let body = r.len().unwrap();
                r.take(body).unwrap();
                let sum = r.pos;
                r.u64().unwrap();
                (len, len + 8, sum)
            })
            .collect()
    }

    /// The nested half of `a_streamed_diff_reports_what_diff_did`, the shape
    /// of a rack: every stored section is an encoded checkpoint (`inner`
    /// gives the body kinds of each), doctored by `edits` in a byte
    /// anywhere, an inner checksum, an inner body, an inner length field, a
    /// cut anywhere, a cut inside an inner checksum or every inner checksum
    /// of every section (so that several claims fail). The produced sections
    /// stream through an [`Encoder`], so a [`Diff`] takes their checksums as
    /// claims; it must report what the oracles do.
    fn nested_case(inner: &[Vec<u8>], edits: &[(u8, u64)], seed: u64) {
        let inners: Vec<Checkpoint> = inner
            .iter()
            .enumerate()
            .map(|(i, kinds)| {
                let mut ck = Checkpoint::new(Manifest {
                    label: format!("m{i}"),
                    ..sample().manifest
                });
                for (j, &kind) in kinds.iter().enumerate() {
                    ck.add_section(
                        &format!("t{j}"),
                        body(kind % 2 * 2, seed ^ (i * 8 + j) as u64),
                    );
                }
                ck
            })
            .collect();
        let mut got = Checkpoint::new(sample().manifest);
        for (i, ck) in inners.iter().enumerate() {
            got.add_section(&format!("m{i}"), ck.encode());
        }
        let mut want = got.clone();
        for &(kind, at) in edits {
            if kind == 6 {
                for ((_, stored), (_, produced)) in want.sections.iter_mut().zip(&got.sections) {
                    for (_, _, sum) in framing(produced) {
                        if let Some(b) = stored.get_mut(sum + (at >> 16) as usize % 8) {
                            *b ^= 1;
                        }
                    }
                }
                continue;
            }
            let i = at as usize % want.sections.len();
            let frame = framing(&got.sections[i].1);
            let bytes = &mut want.sections[i].1;
            let pick = frame.get((at >> 8) as usize % frame.len().max(1));
            let flip = match (kind, pick) {
                (0, _) => Some((at >> 16) as usize % bytes.len().max(1)),
                (1, Some(&(_, _, sum))) => Some(sum + (at >> 16) as usize % 8),
                (2, Some(&(_, start, sum))) if sum > start => {
                    Some(start + (at >> 16) as usize % (sum - start))
                }
                (3, Some(&(len, _, _))) => Some(len + (at >> 16) as usize % 2),
                (4, _) => {
                    bytes.truncate((at >> 16) as usize % (bytes.len() + 1));
                    None
                }
                (5, Some(&(_, _, sum))) => {
                    bytes.truncate(sum + 1 + (at >> 16) as usize % 7);
                    None
                }
                _ => None,
            };
            if let Some(b) = flip.and_then(|at| bytes.get_mut(at)) {
                *b ^= 1 << (seed % 8);
            }
        }
        let produce = |sink: &mut dyn SectionSink| {
            for (i, ck) in inners.iter().enumerate() {
                sink.streamed(&format!("m{i}"), &mut |emit| {
                    let mut enc = Encoder::new(&ck.manifest, ck.section_count(), emit);
                    for (tag, body) in &ck.sections {
                        enc.section(tag, body.clone());
                    }
                    enc.finish();
                    Ok(())
                })
                .expect("nothing fails to write");
            }
        };
        let oracle = diff_oracle(&want, &got);
        assert_eq!(diff(&want, &got), oracle);
        let mut parent = OracleDiff::new(&want, &got.manifest);
        produce(&mut parent);
        assert_eq!(parent.finish(), oracle);
        let mut streamed = Diff::new(&want, &got.manifest);
        produce(&mut streamed);
        assert_eq!(streamed.finish(), oracle);
        // Where a load would have read every stored section, the verify
        // after it, which takes the checked checksums as checked, reports
        // the same; where one fails to read, the load refuses first.
        if want.sections().all(|(_, b)| Encoded::read(b).is_ok()) {
            let mut loaded = Diff::after_load(&want, &got.manifest);
            produce(&mut loaded);
            assert_eq!(loaded.finish(), oracle);
        }
    }

    /// What a `Diff` after a load does not do: hash a stored checksum again.
    /// A nested checksum flipped in the stored checkpoint is reported by
    /// [`Diff::new`] and passes [`Diff::after_load`]; that is why only the
    /// verify of a load that read the section through [`Encoded::read`],
    /// which refuses it, may use the latter.
    #[test]
    fn after_a_load_a_matched_checksum_is_not_hashed_again() {
        let mut inner = Checkpoint::new(sample().manifest);
        inner.add_section("t0", body(2, 5));
        let mut want = Checkpoint::new(sample().manifest);
        want.add_section("m0", inner.encode());
        let (_, _, sum) = framing(&want.sections[0].1)[0];
        want.sections[0].1[sum] ^= 1;
        assert!(matches!(
            Encoded::read(&want.sections[0].1),
            Err(SnapError::ChecksumMismatch { .. })
        ));
        let produce = |sink: &mut dyn SectionSink| {
            sink.streamed("m0", &mut |emit| {
                let mut enc = Encoder::new(&inner.manifest, 1, emit);
                enc.section("t0", inner.sections[0].1.clone());
                enc.finish();
                Ok(())
            })
            .expect("nothing fails to write");
        };
        let mut hashed = Diff::new(&want, &want.manifest);
        produce(&mut hashed);
        let report = hashed.finish().expect("the claim fails");
        assert!(
            report.contains(&format!("first divergence at offset {sum}")),
            "{report}"
        );
        let mut loaded = Diff::after_load(&want, &want.manifest);
        produce(&mut loaded);
        assert_eq!(loaded.finish(), None);
    }

    proptest::proptest! {
        /// One edit to a checkpoint, found by `diff`, by a [`Diff`] fed each
        /// body in arbitrary pieces, by the streamed oracle and by the
        /// oracle in the same words; an [`Encoder`] fed the edited sections
        /// writes its `encode`. Then the same for nested checkpoints
        /// ([`nested_case`]).
        fn a_streamed_diff_reports_what_diff_did(
            edit in 0u8..8,
            at in proptest::arbitrary::any::<u64>(),
            cuts in proptest::collection::vec(0usize..600, 0..4),
            kinds in proptest::collection::vec(0u8..3, 1..6),
            inner in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..4), 1..5),
            edits in proptest::collection::vec((0u8..7, proptest::arbitrary::any::<u64>()), 0..4),
        ) {
            let mut want = sample();
            for (i, &kind) in kinds.iter().enumerate() {
                want.add_section(&format!("s{i}"), body(kind % 2 * 2, at ^ i as u64));
            }
            let mut got = want.clone();
            let n = got.sections.len();
            let (tag, bytes) = &mut got.sections[at as usize % n];
            match edit {
                1 => got.manifest.events += 1,
                2 => tag.push('x'),
                3 if !bytes.is_empty() => {
                    let i = (at >> 8) as usize % bytes.len();
                    bytes[i] ^= 1;
                }
                4 => bytes.truncate(bytes.len() / 2),
                5 => bytes.push(0),
                6 => drop(got.sections.remove(at as usize % n)),
                7 => got.add_section("extra", vec![7]),
                _ => {}
            }
            let oracle = diff_oracle(&want, &got);
            proptest::prop_assert_eq!(diff(&want, &got), oracle.clone());

            let mut streamed = Diff::new(&want, &got.manifest);
            let mut parent = OracleDiff::new(&want, &got.manifest);
            let mut bytes = Vec::new();
            let mut out = |p: &[u8]| bytes.extend_from_slice(p);
            let mut enc = Encoder::new(&got.manifest, got.section_count(), &mut out);
            for (tag, body) in &got.sections {
                let mut write = |emit: &mut dyn Emit| {
                    let mut rest = &body[..];
                    for &cut in &cuts {
                        let (piece, tail) = rest.split_at(cut.min(rest.len()));
                        emit.piece(piece);
                        rest = tail;
                    }
                    emit.piece(rest);
                    Ok(())
                };
                streamed.streamed(tag, &mut write).expect("nothing fails to write");
                parent.streamed(tag, &mut write).expect("nothing fails to write");
                enc.section(tag, body.clone());
            }
            enc.finish();
            proptest::prop_assert_eq!(streamed.finish(), oracle.clone());
            proptest::prop_assert_eq!(parent.finish(), oracle);
            proptest::prop_assert_eq!(bytes, got.encode());
            nested_case(&inner, &edits, at);
        }
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
