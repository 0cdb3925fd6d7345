//! Structured protocol tracing.
//!
//! The paper's Figure 2 is a message-sequence chart; to "reproduce the
//! figure" the emulator records every protocol-level step into a
//! [`TraceSink`] which the F2 experiment replays as a table. Records are
//! typed (see [`crate::record`]): a timestamp, a subsystem tag, a causal
//! [`CorrId`] and a [`TraceData`] payload, kept in a bounded ring so long
//! runs cannot exhaust memory.
//!
//! The ring is one byte buffer of packed records, about 14 bytes each on
//! the benchmark's workloads (DESIGN.md §7). A record's names are [`Name`]s
//! into the sink's table, interned once by whoever emits them (a machine
//! interns each device's names when the device is attached); its
//! `&'static str` fields are indices into the sink's table of the static
//! strings it has been handed; and the few variants that carry free text
//! leave it with the sink. Emitting a record packs it after the newest one,
//! after evicting the oldest once the ring is full, which reads only that
//! record's length byte. Records are read through the sink, as
//! [`TraceView`]s decoded one after another from the oldest.

use std::collections::VecDeque;
use std::fmt;

use crate::dethash::DetHashMap;
use crate::record::{CorrId, TraceData};
use crate::time::SimTime;

/// The largest retention bound a checkpoint may declare: 16 Mi records,
/// 16 times what E12 raises a machine's sink to. A sink raised past it
/// runs, but its checkpoint does not restore.
pub const MAX_RESTORED_CAPACITY: usize = 1 << 24;

/// The number of names past which a sink stops interning the names it does
/// not choose: a discovery pattern, a registry name a device picked, a name
/// read back from a checkpoint. A new one then rides its record as text
/// ([`TraceSink::name_or_text`]), so a hostile device cannot grow the table.
/// It also bounds the static strings a process reads back from checkpoints
/// ([`lastcpu_snap::intern_static`]), and with them a sink's static table.
pub const MAX_NAMES: usize = 4096;

/// Names of one record that may ride it as text: its source and its two
/// name fields at most.
const TEXT_SLOTS: u32 = 3;

/// The first [`Name`] that stands for a text of its record.
const TEXT_BASE: u32 = u32::MAX - (TEXT_SLOTS - 1);

/// Ring bytes reserved per record of capacity. A record packs in about 14
/// on the benchmark's workloads; a ring whose records average more grows.
const BYTES_PER_RECORD: usize = 16;

/// The bytes packing one record may touch: the widest record (67 bytes, an
/// `IommuMap` or a `LinkHop` with every field at its widest) and the rest of
/// the 8-byte word its last varint is written with. The writer wants this
/// much room before it packs.
const MAX_PACKED: usize = 80;

/// The fewest bytes a record takes in a checkpoint section: its time, its
/// source's length, its correlation id and its tag.
const MIN_ENCODED: usize = 25;

/// The room for `records` records of [`BYTES_PER_RECORD`] bytes, with the
/// writer's margin.
fn room_for(records: usize) -> usize {
    records
        .checked_mul(BYTES_PER_RECORD)
        .and_then(|b| b.checked_add(4 * MAX_PACKED))
        .expect("trace ring larger than the address space")
}

/// A name in a [`TraceSink`]'s table: a device, a bus destination, a
/// discovery pattern, a subsystem. Made by [`TraceSink::name`] and read back
/// through the record that holds it ([`TraceView::name`]); a handle is only
/// meaningful to the sink that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(u32);

impl Name {
    /// The name that stands for the `k`-th text of its record.
    fn text(k: usize) -> Name {
        Name(TEXT_BASE + k as u32)
    }

    /// Which text of its record this name stands for, if it is not in the
    /// table.
    fn text_index(self) -> Option<usize> {
        (self.0 >= TEXT_BASE).then(|| (self.0 - TEXT_BASE) as usize)
    }
}

/// The table behind [`Name`]: each distinct string once, by index.
#[derive(Default)]
struct Names {
    index: DetHashMap<Box<str>, Name>,
    strs: Vec<Box<str>>,
}

impl Names {
    fn get(&self, s: &str) -> Option<Name> {
        self.index.get(s).copied()
    }

    fn intern(&mut self, s: &str) -> Name {
        if let Some(n) = self.get(s) {
            return n;
        }
        assert!(
            self.strs.len() < TEXT_BASE as usize,
            "trace name table full"
        );
        let n = Name(self.strs.len() as u32);
        self.strs.push(s.into());
        self.index.insert(s.into(), n);
        n
    }

    fn str(&self, n: Name) -> &str {
        &self.strs[n.0 as usize]
    }

    fn len(&self) -> usize {
        self.strs.len()
    }
}

/// The static strings a sink keeps inline, all of them hashed; more spill
/// to the heap and are found by a scan.
const STATIC_INLINE: usize = 64;

/// The `&'static str`s a sink's records have carried, each under the index
/// a packed record holds. Emitters hand over literals, and a restore strings
/// from [`lastcpu_snap::intern_static`], which holds at most [`MAX_NAMES`],
/// so the table stays small: a machine's holds a few dozen. A string is
/// found by its address, so two copies of one text take two indices.
struct Statics {
    /// The first [`STATIC_INLINE`] strings, in the sink itself so that a
    /// sink allocates nothing for them.
    inline: [&'static str; STATIC_INLINE],
    /// The strings after them.
    spill: Vec<&'static str>,
    len: usize,
    /// The inline strings open-addressed on their addresses, each with its
    /// index. At most half full.
    slots: [(Option<&'static str>, u32); 2 * STATIC_INLINE],
}

impl Statics {
    fn new() -> Self {
        Statics {
            inline: [""; STATIC_INLINE],
            spill: Vec::new(),
            len: 0,
            slots: [(None, 0); 2 * STATIC_INLINE],
        }
    }

    /// The index of `s`, taking the next one on first sight.
    #[inline]
    fn index(&mut self, s: &'static str) -> u64 {
        let mut i = Self::slot(s);
        loop {
            match self.slots[i] {
                (None, _) => return self.index_cold(s),
                (Some(t), k) if std::ptr::eq(t, s) => return k.into(),
                _ => i = (i + 1) % self.slots.len(),
            }
        }
    }

    #[cold]
    fn index_cold(&mut self, s: &'static str) -> u64 {
        if let Some(k) = self.spill.iter().position(|&t| std::ptr::eq(t, s)) {
            return (STATIC_INLINE + k) as u64;
        }
        let k = self.len;
        self.len += 1;
        if k < STATIC_INLINE {
            self.inline[k] = s;
            let mut i = Self::slot(s);
            while self.slots[i].0.is_some() {
                i = (i + 1) % self.slots.len();
            }
            self.slots[i] = (Some(s), k as u32);
        } else {
            self.spill.push(s);
        }
        k as u64
    }

    /// The string at index `k`.
    #[inline]
    fn get(&self, k: usize) -> &'static str {
        match k.checked_sub(STATIC_INLINE) {
            None => self.inline[k],
            Some(k) => self.spill[k],
        }
    }

    /// The first slot to probe for `s`: its address, mixed.
    fn slot(s: &str) -> usize {
        ((s.as_ptr() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize
            % (2 * STATIC_INLINE)
    }
}

/// `d`, a difference taken modulo 2^64, folded so that a small step either
/// way is a small number.
fn zigzag(d: u64) -> u64 {
    let d = d as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The bytes of a varint, by the leading zeros of its value.
const VARINT_BYTES: [u8; 65] = {
    let mut bytes = [0; 65];
    let mut zeros = 0;
    while zeros <= 64 {
        let bits = 64 - zeros;
        bytes[zeros] = if bits == 0 { 1 } else { bits.div_ceil(7) as u8 };
        zeros += 1;
    }
    bytes
};

/// A record being packed into a window of [`MAX_PACKED`] ring bytes: byte 0
/// is its length, byte 1 its variant, and varints follow from byte 2.
struct Pack<'a> {
    buf: &'a mut [u8; MAX_PACKED],
    pos: usize,
    statics: &'a mut Statics,
}

impl Pack<'_> {
    /// Writes `v` as a prefix varint: the trailing one bits of its first
    /// byte count the bytes after it, so a number below 2^(7n) takes n bytes
    /// for n up to 8, and any other nine. Its length is looked up, not
    /// branched on, so a run of numbers of mixed widths is not a run of
    /// mispredicted branches; only the nine-byte form branches.
    #[inline(always)]
    fn varint(&mut self, v: u64) {
        let at = self.pos;
        let n = usize::from(VARINT_BYTES[v.leading_zeros() as usize]);
        if n <= 8 {
            let word = ((v << 1 | 1) << (n - 1)) - 1;
            self.buf[at..at + 8].copy_from_slice(&word.to_le_bytes());
            self.pos = at + n;
        } else {
            self.buf[at] = 0xff;
            self.buf[at + 1..at + 9].copy_from_slice(&v.to_le_bytes());
            self.pos = at + 9;
        }
    }

    /// A record's time and correlation id deltas: most often a byte each,
    /// written as one pair.
    #[inline(always)]
    fn deltas(&mut self, at: u64, corr: u64) {
        if (at | corr) < 1 << 7 {
            let pair = (at << 1 | corr << 9) as u16;
            self.buf[self.pos..self.pos + 2].copy_from_slice(&pair.to_le_bytes());
            self.pos += 2;
        } else {
            self.varint(at);
            self.varint(corr);
        }
    }

    /// [`Pack::varint`] for a number that is nearly always below 128: a
    /// name, a static string's index, the source.
    #[inline(always)]
    fn small(&mut self, v: u64) {
        if v < 1 << 7 {
            self.buf[self.pos] = (v as u8) << 1;
            self.pos += 1;
        } else {
            self.varint(v);
        }
    }

    fn variant(&mut self, v: Variant) {
        self.buf[1] = v as u8;
    }
}

/// A packed record being read, a varint at a time.
struct Unpack<'a> {
    buf: &'a [u8],
    pos: usize,
    statics: &'a Statics,
}

impl Unpack<'_> {
    /// Reads a varint [`Pack::varint`] wrote.
    #[inline(always)]
    fn varint(&mut self) -> u64 {
        let at = self.pos;
        let first = self.buf[at];
        if first & 1 == 0 {
            self.pos = at + 1;
            return (first >> 1).into();
        }
        let word = u64::from_le_bytes(self.buf[at..at + 8].try_into().expect("a word"));
        let n = first.trailing_ones() as usize + 1;
        if n <= 8 {
            self.pos = at + n;
            (word << (64 - 8 * n)) >> (64 - 7 * n)
        } else {
            self.pos = at + 9;
            u64::from_le_bytes(self.buf[at + 1..at + 9].try_into().expect("a word"))
        }
    }
}

/// The retained records, packed back to back in one buffer, oldest at
/// `head`. They run from `head` to `end` and, once the writer has wrapped
/// to the front (`tail < head`), from the front to `tail`; unwrapped, `end`
/// is `tail`. No record straddles the end of the buffer.
///
/// A record is a length byte, a variant byte, its time and correlation id
/// as zigzag varint deltas from the record before, its source, then its
/// fields in `record_layout!` order, each a varint.
struct Packed {
    /// Reserved at `room` bytes, and initialised [`MAX_PACKED`] bytes
    /// past the furthest record the writer has reached, so a page is
    /// touched when records reach it.
    buf: Vec<u8>,
    room: usize,
    head: usize,
    end: usize,
    tail: usize,
    len: usize,
    /// The time and correlation id of the newest record.
    last: (u64, u64),
    statics: Statics,
}

impl Packed {
    /// An empty ring with `room` bytes reserved.
    fn with_room(room: usize) -> Self {
        Packed {
            buf: Vec::with_capacity(room),
            room,
            head: 0,
            end: 0,
            tail: 0,
            len: 0,
            last: (0, 0),
            statics: Statics::new(),
        }
    }

    /// Bytes the retained records take.
    fn used(&self) -> usize {
        if self.tail < self.head {
            self.end - self.head + self.tail
        } else {
            self.tail - self.head
        }
    }

    /// Packs a record after the newest one.
    #[inline]
    fn push(&mut self, at: u64, corr: u64, source: Name, data: TraceData) {
        let start = self.slot();
        if self.buf.len() < start + MAX_PACKED {
            self.buf.resize(start + MAX_PACKED, 0);
        }
        let window = &mut self.buf[start..start + MAX_PACKED];
        let mut p = Pack {
            buf: window.try_into().expect("a record's room"),
            pos: 2,
            statics: &mut self.statics,
        };
        p.deltas(
            zigzag(at.wrapping_sub(self.last.0)),
            zigzag(corr.wrapping_sub(self.last.1)),
        );
        p.small(source.0.into());
        data.pack(&mut p);
        let n = p.pos;
        debug_assert!(n + 8 <= MAX_PACKED, "a record of {n} bytes");
        p.buf[0] = n as u8;
        self.last = (at, corr);
        self.len += 1;
        let wrapped = start < self.head;
        self.tail = start + n;
        if !wrapped {
            self.end = self.tail;
        }
    }

    /// Where the next record goes: after the newest if [`MAX_PACKED`] bytes
    /// are free there, else at the front, else after the newest once the
    /// records have moved into a buffer twice the size.
    fn slot(&mut self) -> usize {
        if self.tail < self.head {
            if self.head - self.tail >= MAX_PACKED {
                return self.tail;
            }
        } else if self.room - self.tail >= MAX_PACKED {
            return self.tail;
        } else if self.head >= MAX_PACKED {
            self.tail = 0;
            return 0;
        }
        self.relocate(2 * self.room);
        self.tail
    }

    /// Drops the oldest record, reading only its length.
    #[inline]
    fn evict(&mut self) {
        self.head += usize::from(self.buf[self.head]);
        self.len -= 1;
        if self.len == 0 {
            self.clear();
        } else if self.head == self.end {
            (self.head, self.end) = (0, self.tail);
        }
    }

    /// The time and correlation id the oldest record's deltas count from:
    /// the newest record's, less every retained record's deltas. Eviction
    /// leaves them to the reader, since a record is emitted far more often
    /// than it is read.
    fn base(&self) -> (u64, u64) {
        let (mut at, mut corr) = self.last;
        let mut pos = self.head;
        for _ in 0..self.len {
            if pos == self.end {
                pos = 0;
            }
            let mut u = Unpack {
                buf: &self.buf,
                pos: pos + 2,
                statics: &self.statics,
            };
            at = at.wrapping_sub(unzigzag(u.varint()));
            corr = corr.wrapping_sub(unzigzag(u.varint()));
            pos += usize::from(self.buf[pos]);
        }
        (at, corr)
    }

    /// Drops every record; the buffer stays.
    fn clear(&mut self) {
        (self.head, self.end, self.tail, self.len) = (0, 0, 0, 0);
    }

    /// Moves the records to the front of a fresh buffer of `room` bytes, or
    /// of what they take and the writer's margin if that is more.
    fn relocate(&mut self, room: usize) {
        self.room = room.max(self.used() + 4 * MAX_PACKED);
        let mut buf = Vec::with_capacity(self.room);
        if self.tail < self.head {
            buf.extend_from_slice(&self.buf[self.head..self.end]);
            buf.extend_from_slice(&self.buf[..self.tail]);
        } else {
            buf.extend_from_slice(&self.buf[self.head..self.tail]);
        }
        let n = buf.len();
        buf.resize(n + MAX_PACKED, 0);
        self.buf = buf;
        (self.head, self.end, self.tail) = (0, n, n);
    }

    /// Empties the ring for `records` records to come, keeping the buffer
    /// if it has the room for them.
    fn reset(&mut self, records: usize) {
        let room = room_for(records);
        if self.room < room {
            (self.buf, self.room) = (Vec::with_capacity(room), room);
        }
        self.clear();
    }
}

/// The retained records, oldest first, each decoded from the deltas of the
/// one before.
struct Records<'a> {
    sink: &'a TraceSink,
    pos: usize,
    left: usize,
    at: u64,
    corr: u64,
    seq: u64,
}

impl<'a> Iterator for Records<'a> {
    type Item = TraceView<'a>;

    #[inline]
    fn next(&mut self) -> Option<TraceView<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let ring = &self.sink.ring;
        if self.pos == ring.end {
            self.pos = 0;
        }
        let start = self.pos;
        let mut u = Unpack {
            buf: &ring.buf,
            pos: start + 2,
            statics: &ring.statics,
        };
        self.at = self.at.wrapping_add(unzigzag(u.varint()));
        self.corr = self.corr.wrapping_add(unzigzag(u.varint()));
        let source = Name(u.varint() as u32);
        let data = TraceData::unpack(ring.buf[start + 1], &mut u);
        self.pos = start + usize::from(ring.buf[start]);
        self.seq += 1;
        Some(TraceView {
            at: SimTime::from_nanos(self.at),
            corr: CorrId(self.corr),
            data,
            source,
            seq: self.seq - 1,
            sink: self.sink,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// A bounded in-memory trace collector.
///
/// When `enabled` is false, an emit is a no-op so hot paths pay only a
/// branch.
///
/// # Examples
///
/// ```
/// use lastcpu_sim::{CorrId, SimTime, TraceData, TraceSink};
///
/// let mut t = TraceSink::bounded(2);
/// let (bus, nic) = (t.name("bus"), t.name("nic0"));
/// t.emit_text(SimTime::from_nanos(1), bus, CorrId::NONE, TraceData::Text, "nic0 registered");
/// let hit = TraceData::Deliver { to: nic, kind: "QueryHit" };
/// t.emit_data(SimTime::from_nanos(2), bus, CorrId(1), hit);
/// t.emit_text(SimTime::from_nanos(3), bus, CorrId::NONE, TraceData::Text, "discovery query");
/// assert_eq!(t.len(), 2); // oldest evicted
/// let first = t.events().next().unwrap();
/// assert_eq!((first.source(), first.what()), ("bus", "-> nic0: QueryHit".into()));
/// ```
pub struct TraceSink {
    /// The retained records, packed: at most `capacity` of them.
    ring: Packed,
    capacity: usize,
    enabled: bool,
    emitted: u64,
    /// The sequence number the next record takes. It orders `texts` and is
    /// never written out.
    next_seq: u64,
    names: Names,
    /// The texts of retained records, oldest first, each beside its
    /// record's sequence number: the names that ride a record as text, then
    /// its own text. A record's texts go when it is evicted.
    texts: VecDeque<(u64, String)>,
    /// The texts of the next record, as [`TraceSink::name_or_text`] and the
    /// emitters stage them.
    staged: Vec<String>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::bounded(65_536)
    }
}

impl TraceSink {
    /// A sink keeping at most `capacity` most-recent records.
    ///
    /// The ring is reserved up front at 16 bytes a record, so steady-state
    /// emission never allocates while records average no more than that;
    /// its pages stay untouched until records reach them.
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            ring: Packed::with_room(room_for(capacity)),
            capacity,
            enabled: true,
            emitted: 0,
            next_seq: 0,
            names: Names::default(),
            texts: VecDeque::new(),
            staged: Vec::new(),
        }
    }

    /// A sink that drops everything (for performance runs).
    pub fn disabled() -> Self {
        let mut s = Self::bounded(1);
        s.enabled = false;
        s
    }

    /// Turns collection on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Grows (or shrinks) the retention bound. Existing records beyond the
    /// new bound are evicted oldest-first; the ring is re-reserved at the
    /// new bound so steady-state emission stays allocation-free. Offline
    /// analyses that need every record of a long run (e.g. critical-path
    /// extraction over a whole E12 rack phase) raise this before the run.
    pub fn set_capacity(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        if capacity == self.capacity {
            return;
        }
        while self.ring.len > capacity {
            self.ring.evict();
        }
        self.drop_texts_before(self.next_seq - self.ring.len as u64);
        self.ring.relocate(room_for(capacity));
        self.capacity = capacity;
    }

    /// Whether the sink is collecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The handle of `s` in this sink's table, interning it on first use.
    /// For the names the emitter chooses — its devices, hosts and
    /// subsystems, which it interns once and passes with every record.
    pub fn name(&mut self, s: &str) -> Name {
        self.names.intern(s)
    }

    /// `s` as a name of the next record emitted: its handle if the table
    /// holds it or has room below [`MAX_NAMES`], otherwise the next record
    /// carries `s` as text. For names the emitter does not choose.
    pub fn name_or_text(&mut self, s: &str) -> Name {
        match self.names.get(s) {
            Some(n) => n,
            None if self.names.len() < MAX_NAMES => self.names.intern(s),
            None => self.text_name(s.to_owned()),
        }
    }

    /// `s` as a name the next record emitted carries as text and the table
    /// never holds: a machine renders an id the bus never handed out from
    /// its integer this way.
    pub fn text_name(&mut self, s: String) -> Name {
        let k = self.staged.len();
        assert!(k < TEXT_SLOTS as usize, "a record has at most three names");
        self.staged.push(s);
        Name::text(k)
    }

    /// Records a typed event (no-op when disabled). A variant with a text
    /// of its own ([`TraceData::has_text`]) gets an empty one; give it one
    /// with [`TraceSink::emit_text`].
    pub fn emit_data(&mut self, at: SimTime, source: Name, corr: CorrId, data: TraceData) {
        if !self.enabled {
            self.staged.clear();
            return;
        }
        if data.has_text() {
            self.staged.push(String::new());
        }
        self.push(at, source, corr, data);
    }

    /// Records a typed event whose variant carries a text of its own
    /// (`BusRegister`, `MapFailure`, `DeviceFault`, `SecurityDenial`,
    /// `Text`). The sink keeps `text` until the record is evicted.
    pub fn emit_text(
        &mut self,
        at: SimTime,
        source: Name,
        corr: CorrId,
        data: TraceData,
        text: impl Into<String>,
    ) {
        if !self.enabled {
            self.staged.clear();
            return;
        }
        debug_assert!(data.has_text(), "{data:?} has no text");
        if data.has_text() {
            self.staged.push(text.into());
        }
        self.push(at, source, corr, data);
    }

    /// Packs a record, with the staged texts, after evicting the oldest
    /// once the ring is full. The evicted record's texts, if it had any,
    /// lead the text FIFO.
    fn push(&mut self, at: SimTime, source: Name, corr: CorrId, data: TraceData) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.emitted += 1;
        if self.ring.len == self.capacity {
            self.ring.evict();
            if !self.texts.is_empty() {
                self.drop_texts_before(seq + 1 - self.capacity as u64);
            }
        }
        self.ring.push(at.as_nanos(), corr.0, source, data);
        if !self.staged.is_empty() {
            self.texts.extend(self.staged.drain(..).map(|t| (seq, t)));
        }
    }

    /// Drops the texts of records older than sequence number `seq`.
    fn drop_texts_before(&mut self, seq: u64) {
        while self.texts.front().is_some_and(|&(s, _)| s < seq) {
            self.texts.pop_front();
        }
    }

    /// The retained records, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = TraceView<'_>> {
        let (at, corr) = self.ring.base();
        Records {
            sink: self,
            pos: self.ring.head,
            left: self.ring.len,
            at,
            corr,
            seq: self.next_seq - self.ring.len as u64,
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Bytes the retained records take packed: about 14 a record on the
    /// benchmark's workloads.
    pub fn packed_bytes(&self) -> usize {
        self.ring.used()
    }

    /// Total records emitted over the sink's lifetime (including evicted).
    pub fn total_emitted(&self) -> u64 {
        self.emitted
    }

    /// Records whose description contains `needle`, oldest first.
    pub fn containing<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = TraceView<'a>> {
        self.events().filter(move |e| e.what().contains(needle))
    }

    /// One sink holding every record of `parts` in time order, ties by part
    /// order. A part with a label has its sources renamed
    /// `"{label}/{source}"`; each `(part, name)` pair is interned once.
    pub fn merged(parts: &[(&TraceSink, Option<&str>)]) -> TraceSink {
        // Each part decoded once, in its own order.
        let views: Vec<Vec<TraceView<'_>>> =
            parts.iter().map(|(s, _)| s.events().collect()).collect();
        let total = views.iter().map(Vec::len).sum();
        let mut order: Vec<(SimTime, u32, u32)> = Vec::with_capacity(total);
        for (p, part) in views.iter().enumerate() {
            order.extend((0u32..).zip(part).map(|(i, e)| (e.at, p as u32, i)));
        }
        order.sort_unstable();
        let mut out = TraceSink::bounded(total);
        // Per part, what each of its table names became in `out`: as a
        // source (relabelled) and as a name field (as it is).
        let mut sources: Vec<Vec<Option<Name>>> = parts
            .iter()
            .map(|(s, _)| vec![None; s.names.len()])
            .collect();
        let mut names = sources.clone();
        for (_, p, i) in order {
            let (sink, label) = parts[p as usize];
            let view = views[p as usize][i as usize];
            // Texts keep their order, so a name standing for one keeps its
            // index.
            for (k, t) in view.texts().enumerate() {
                out.staged.push(match label {
                    Some(l) if view.source.text_index() == Some(k) => format!("{l}/{t}"),
                    _ => t.to_owned(),
                });
            }
            let mut rename = |n: &mut Name, slot: &mut Option<Name>, label: Option<&str>| {
                *n = *slot.get_or_insert_with(|| match label {
                    Some(l) => out.names.intern(&format!("{l}/{}", sink.names.str(*n))),
                    None => out.names.intern(sink.names.str(*n)),
                });
            };
            let mut source = view.source;
            if source.text_index().is_none() {
                let slot = &mut sources[p as usize][source.0 as usize];
                rename(&mut source, slot, label);
            }
            let mut data = view.data;
            data.for_each_name(|n| {
                if n.text_index().is_none() {
                    let slot = &mut names[p as usize][n.0 as usize];
                    rename(n, slot, None);
                }
            });
            out.push(view.at, source, view.corr, data);
        }
        out
    }
}

/// A retained record read through its sink: the record's time, correlation
/// id and payload, with its names and texts resolved on request.
#[derive(Clone, Copy)]
pub struct TraceView<'a> {
    /// Virtual time at which the event occurred.
    pub at: SimTime,
    /// Causal correlation id ([`CorrId::NONE`] when untracked).
    pub corr: CorrId,
    /// The typed payload; resolve its names with [`TraceView::name`].
    pub data: TraceData,
    source: Name,
    seq: u64,
    sink: &'a TraceSink,
}

impl<'a> TraceView<'a> {
    /// Subsystem tag, e.g. `"bus"`, `"nic0"`, `"iommu.ssd0"`.
    pub fn source(&self) -> &'a str {
        self.name(self.source)
    }

    /// The text of `n`, a name of this record.
    pub fn name(&self, n: Name) -> &'a str {
        match n.text_index() {
            Some(k) => self.texts().nth(k).unwrap_or(""),
            None => self.sink.names.str(n),
        }
    }

    /// The record's own text ([`TraceData::has_text`]); empty for a variant
    /// without one.
    pub fn text(&self) -> &'a str {
        if self.data.has_text() {
            self.texts().last().unwrap_or("")
        } else {
            ""
        }
    }

    /// This record's texts, in the order they were staged.
    fn texts(&self) -> impl Iterator<Item = &'a str> {
        let (sink, seq): (&'a TraceSink, u64) = (self.sink, self.seq);
        let from = sink.texts.partition_point(|&(s, _)| s < seq);
        sink.texts
            .range(from..)
            .take_while(move |&&(s, _)| s == seq)
            .map(|(_, t)| t.as_str())
    }

    /// Human-readable description (the legacy string form).
    pub fn what(&self) -> String {
        What(self).to_string()
    }
}

/// The line of one record, `[time] corr source what`.
impl fmt::Display for TraceView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:>6} {:<12} {}",
            self.at.to_string(),
            self.corr.to_string(),
            self.source(),
            What(self)
        )
    }
}

impl fmt::Debug for TraceView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The description of one record ([`TraceView::what`]).
struct What<'v, 'a>(&'v TraceView<'a>);

impl fmt::Display for What<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        match v.data {
            TraceData::BusSend { what, dst } => write!(f, "sends {what} to {}", v.name(dst)),
            TraceData::Discovery { pattern, dst } => {
                write!(f, "sends Query({}) to {}", v.name(pattern), v.name(dst))
            }
            TraceData::Deliver { to, kind } => write!(f, "-> {}: {kind}", v.name(to)),
            TraceData::BusRegister => write!(f, "device {} registered", v.text()),
            TraceData::IommuMap {
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
            } => write!(
                f,
                "programmed IOMMU of {}: pasid {pasid} va {va:#x} -> pa {pa:#x} ({pages} pages, {})",
                v.name(device),
                v.name(perms)
            ),
            TraceData::IommuUnmap {
                device,
                pasid,
                va,
                pages,
            } => write!(
                f,
                "revoked {pages} pages from {} (pasid {pasid}, va {va:#x})",
                v.name(device)
            ),
            TraceData::MapFailure => write!(f, "map failed: {}", v.text()),
            TraceData::DmaGrant {
                to,
                pages,
                writable,
            } => write!(
                f,
                "granted {pages} pages to {} (writable={writable})",
                v.name(to)
            ),
            TraceData::QueueDoorbell { to, value } => {
                write!(f, "doorbell -> {}: value {value:#x}", v.name(to))
            }
            TraceData::DeviceFault { .. } | TraceData::Text => f.write_str(v.text()),
            TraceData::SecurityDenial { device, check } => {
                write!(f, "denied [{check}] {}: {}", v.name(device), v.text())
            }
            TraceData::Stage { stage, id, aux } => {
                write!(f, "stage {stage} id={id} aux={aux}")
            }
            TraceData::LinkHop {
                src_machine,
                dst_machine,
                bytes,
                uplink_ns,
                spine_ns,
                downlink_ns,
            } => write!(
                f,
                "link hop m{src_machine} -> m{dst_machine} ({bytes} B, uplink {uplink_ns}ns, spine {spine_ns}ns, downlink {downlink_ns}ns)"
            ),
            TraceData::LinkEnter { port, bytes } => {
                write!(f, "frame enters from fabric link for port {port} ({bytes} B)")
            }
            TraceData::LinkExit { port, bytes } => {
                write!(f, "frame exits to fabric link via port {port} ({bytes} B)")
            }
            TraceData::QueueAttached { conn, base, size } => {
                write!(f, "conn:{conn}: queue attached at {base:#x} size {size}")
            }
        }
    }
}

lastcpu_snap::fields! { TraceSink |self| { ..Ring } }

/// Every record variant, one row each: its checkpoint tag, its export
/// [`kind`](TraceData::kind), its fields in order and, marked `text`, its own
/// text after them. The ring packs the same fields in the same order
/// ([`Packed`]), its variant byte the row's position. In a checkpoint a name
/// is written out as its string and read back through
/// [`TraceSink::name_or_text`]; a `&'static str` comes back through the
/// process-wide intern table.
macro_rules! record_layout {
    ($($v:ident = $tag:literal $kind:literal { $($f:ident),* } $($text:ident)?),* $(,)?) => {
        impl TraceData {
            /// A short machine-readable tag for exporters (`"iommu_map"`, …).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceData::$v { .. } => $kind,)*
                }
            }

            /// Whether the record carries a free text of its own, kept by its
            /// sink and read with [`TraceView::text`].
            pub fn has_text(&self) -> bool {
                match self {
                    $(TraceData::$v { .. } => record_layout!(@has $($text)?),)*
                }
            }

            /// Calls `f` on every name field, in declaration order.
            pub(crate) fn for_each_name(&mut self, mut f: impl FnMut(&mut Name)) {
                match self {
                    $(TraceData::$v { $($f),* } => { $(Part::names($f, &mut f);)* })*
                }
            }

            /// Writes the variant byte and the fields of a packed record.
            #[inline]
            fn pack(self, p: &mut Pack<'_>) {
                match self {
                    $(TraceData::$v { $($f),* } => { p.variant(Variant::$v); $($f.pack(p);)* })*
                }
            }

            /// Reads the fields of a packed record of `variant` back.
            #[inline]
            fn unpack(variant: u8, u: &mut Unpack<'_>) -> TraceData {
                match VARIANTS[usize::from(variant)] {
                    $(Variant::$v => TraceData::$v { $($f: Packs::unpack(u)),* },)*
                }
            }
        }

        /// A packed record's variant byte: its row's position.
        #[derive(Clone, Copy)]
        enum Variant { $($v,)* }

        const VARIANTS: &[Variant] = &[$(Variant::$v,)*];

        impl TraceView<'_> {
            fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
                (self.at, self.source, self.corr).put(self, w);
                match self.data {
                    $(TraceData::$v { $($f),* } => {
                        w.put_u8($tag);
                        $($f.put(self, w);)*
                        record_layout!(@put_text self w $($text)?);
                    })*
                }
            }
        }

        impl<'a> Loading<'_, 'a> {
            /// Reads one record in the [`TraceView::encode`] layout and
            /// appends it.
            fn restore_record(&mut self, r: &mut lastcpu_snap::SnapReader<'a>) -> lastcpu_snap::Result<()> {
                let (at, source, corr) = Part::take(self, r)?;
                let (data, text) = match r.u8()? {
                    $($tag => (
                        TraceData::$v { $($f: Part::take(self, r)?),* },
                        record_layout!(@text r $($text)?),
                    ),)*
                    tag => return Err(r.bad_tag("TraceData", tag)),
                };
                self.sink.staged.extend(text);
                self.sink.push(at, source, corr, data);
                Ok(())
            }
        }
    };
    (@has) => { false };
    (@has text) => { true };
    (@put_text $v:ident $w:ident) => {};
    (@put_text $v:ident $w:ident text) => { $w.put_str($v.text()) };
    (@text $r:ident) => { None };
    (@text $r:ident text) => { Some($r.str()?.to_string()) };
}

record_layout! {
    BusSend = 0 "bus_send" { what, dst },
    Discovery = 1 "discovery" { pattern, dst },
    Deliver = 2 "deliver" { to, kind },
    BusRegister = 3 "bus_register" {} text,
    IommuMap = 4 "iommu_map" { device, pasid, va, pa, pages, perms },
    IommuUnmap = 5 "iommu_unmap" { device, pasid, va, pages },
    MapFailure = 6 "map_failure" {} text,
    DmaGrant = 7 "dma_grant" { to, pages, writable },
    QueueDoorbell = 8 "queue_doorbell" { to, value },
    DeviceFault = 9 "device_fault" { device } text,
    SecurityDenial = 10 "security_denial" { device, check } text,
    Stage = 11 "stage" { stage, id, aux },
    LinkHop = 12 "link_hop" { src_machine, dst_machine, bytes, uplink_ns, spine_ns, downlink_ns },
    Text = 13 "text" {} text,
    LinkEnter = 14 "text" { port, bytes },
    LinkExit = 15 "text" { port, bytes },
    QueueAttached = 16 "text" { conn, base, size },
}

/// One field of a record in a checkpoint.
trait Part: Sized {
    fn put(self, v: &TraceView<'_>, w: &mut lastcpu_snap::SnapWriter);
    fn take<'a>(
        l: &mut Loading<'_, 'a>,
        r: &mut lastcpu_snap::SnapReader<'a>,
    ) -> lastcpu_snap::Result<Self>;

    /// Calls `f` on the field if it is a [`Name`].
    fn names(&mut self, _f: &mut impl FnMut(&mut Name)) {}
}

macro_rules! plain_parts {
    ($($t:ty),*) => {$(
        impl Part for $t {
            fn put(self, _: &TraceView<'_>, w: &mut lastcpu_snap::SnapWriter) {
                lastcpu_snap::Field::put(&self, w);
            }
            fn take(_: &mut Loading<'_, '_>, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
                lastcpu_snap::Field::take(r)
            }
        }
    )*};
}

plain_parts!(u32, u64, bool, SimTime, CorrId);

impl Part for Name {
    fn put(self, v: &TraceView<'_>, w: &mut lastcpu_snap::SnapWriter) {
        w.put_str(v.name(self));
    }
    /// A name read before in this restore is its stored bytes' handle
    /// again; any other is checked and looked up as
    /// [`TraceSink::name_or_text`] does, and remembered if the table holds
    /// it. A name that rides as text is read afresh each time.
    fn take<'a>(
        l: &mut Loading<'_, 'a>,
        r: &mut lastcpu_snap::SnapReader<'a>,
    ) -> lastcpu_snap::Result<Self> {
        let b = r.slice()?;
        if let Some(n) = l.names.get(b) {
            return Ok(n);
        }
        let n = l.sink.name_or_text(r.utf8(b)?);
        if n.text_index().is_none() {
            l.names.put(b, n);
        }
        Ok(n)
    }
    fn names(&mut self, f: &mut impl FnMut(&mut Name)) {
        f(self);
    }
}

impl Part for &'static str {
    fn put(self, _: &TraceView<'_>, w: &mut lastcpu_snap::SnapWriter) {
        w.put_str(self);
    }
    /// Interned through the process-wide table once per distinct string
    /// of the restore, then found by its stored bytes.
    fn take<'a>(
        l: &mut Loading<'_, 'a>,
        r: &mut lastcpu_snap::SnapReader<'a>,
    ) -> lastcpu_snap::Result<Self> {
        let b = r.slice()?;
        if let Some(s) = l.statics.get(b) {
            return Ok(s);
        }
        let s = r.utf8(b)?;
        let s = lastcpu_snap::intern_static(s, MAX_NAMES).ok_or_else(|| {
            r.corrupt(format!(
                "static name {s:?}: the process holds the {MAX_NAMES} a restore may intern"
            ))
        })?;
        l.statics.put(b, s);
        Ok(s)
    }
}

/// A machine index or a queue size, a `u64` on the wire.
impl Part for u16 {
    fn put(self, _: &TraceView<'_>, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.into());
    }
    fn take(
        _: &mut Loading<'_, '_>,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<Self> {
        let m = r.u64()?;
        u16::try_from(m).map_err(|_| r.corrupt(format!("{m} does not fit a u16")))
    }
}

impl<A: Part, B: Part, C: Part> Part for (A, B, C) {
    fn put(self, v: &TraceView<'_>, w: &mut lastcpu_snap::SnapWriter) {
        self.0.put(v, w);
        self.1.put(v, w);
        self.2.put(v, w);
    }
    fn take<'a>(
        l: &mut Loading<'_, 'a>,
        r: &mut lastcpu_snap::SnapReader<'a>,
    ) -> lastcpu_snap::Result<Self> {
        Ok((A::take(l, r)?, B::take(l, r)?, C::take(l, r)?))
    }
}

/// One field of a record in the ring: a varint, a `&'static str` by its
/// index in the sink's [`Statics`].
trait Packs: Sized {
    fn pack(self, p: &mut Pack<'_>);
    fn unpack(u: &mut Unpack<'_>) -> Self;
}

macro_rules! packed_ints {
    ($($t:ty),*) => {$(
        impl Packs for $t {
            #[inline(always)]
            fn pack(self, p: &mut Pack<'_>) {
                p.varint(self.into());
            }
            #[inline(always)]
            fn unpack(u: &mut Unpack<'_>) -> Self {
                u.varint() as $t
            }
        }
    )*};
}

packed_ints!(u16, u32, u64);

impl Packs for bool {
    #[inline(always)]
    fn pack(self, p: &mut Pack<'_>) {
        p.small(self.into());
    }
    #[inline(always)]
    fn unpack(u: &mut Unpack<'_>) -> Self {
        u.varint() != 0
    }
}

impl Packs for Name {
    #[inline(always)]
    fn pack(self, p: &mut Pack<'_>) {
        p.small(self.0.into());
    }
    #[inline(always)]
    fn unpack(u: &mut Unpack<'_>) -> Self {
        Name(u.varint() as u32)
    }
}

impl Packs for &'static str {
    #[inline(always)]
    fn pack(self, p: &mut Pack<'_>) {
        let k = p.statics.index(self);
        p.small(k);
    }
    #[inline(always)]
    fn unpack(u: &mut Unpack<'_>) -> Self {
        u.statics.get(u.varint() as usize)
    }
}

/// The slots of a [`Memo`]: the next power of two above twice the most
/// distinct names a measured sink's section carried. A machine's names are
/// its own devices, so they do not grow with the rack: 9 to 16 names and 10
/// to 25 statics on every sink of `rack_restore`'s 16-machine rack and of
/// the same rack at 128 machines, 105 names and 17 statics on E9's one
/// machine. At this size the memo answered 98.5% of name and 99.6% of
/// static lookups on the 128-machine rack and 97.1% and 96.0% on E9; most
/// misses are two names that share a slot and evict each other.
const MEMO_SLOTS: usize = 256;

/// What the names of one restore were read back as, keyed by the bytes the
/// section stores them as, so that a name that recurs is checked as UTF-8,
/// hashed and looked up once, not once per record. Each slot holds the last
/// name whose bytes map to it. It borrows its keys from the section and
/// lives for one restore of one sink, so it allocates nothing and no sink
/// sees another's answers.
struct Memo<'a, T> {
    slots: [Option<(&'a [u8], T)>; MEMO_SLOTS],
}

impl<'a, T: Copy> Memo<'a, T> {
    fn new() -> Self {
        Memo {
            slots: [None; MEMO_SLOTS],
        }
    }

    /// The slot of `b`: its length and its first and last eight bytes,
    /// mixed.
    #[inline]
    fn slot(b: &[u8]) -> usize {
        let word = |b: &[u8]| {
            let mut w = [0; 8];
            w[..b.len()].copy_from_slice(b);
            u64::from_le_bytes(w)
        };
        let n = b.len();
        let (first, last) = match n.checked_sub(8) {
            Some(k) => (word(&b[..8]), word(&b[k..])),
            None => (word(b), 0),
        };
        let h = (first ^ last.rotate_left(32) ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    #[inline]
    fn get(&self, b: &[u8]) -> Option<T> {
        match self.slots[Self::slot(b)] {
            Some((k, v)) if k == b => Some(v),
            _ => None,
        }
    }

    fn put(&mut self, b: &'a [u8], v: T) {
        self.slots[Self::slot(b)] = Some((b, v));
    }
}

/// One sink's restore in progress: the sink, and what the section's names
/// have been read back as so far.
struct Loading<'s, 'a> {
    sink: &'s mut TraceSink,
    names: Memo<'a, Name>,
    statics: Memo<'a, &'static str>,
}

/// The full sink: configuration, lifetime counter, and every retained
/// record in the `record_layout!` layout, names and texts written out, so
/// a restored sink renders byte-identical trace output.
struct Ring;

impl lastcpu_snap::Span<TraceSink> for Ring {
    fn put(&self, t: &TraceSink, w: &mut lastcpu_snap::SnapWriter) {
        w.put_len(t.capacity);
        w.put_bool(t.enabled);
        w.put_u64(t.emitted);
        w.put_len(t.len());
        for rec in t.events() {
            rec.encode(w);
        }
    }

    fn take(
        &self,
        t: &mut TraceSink,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<()> {
        let (capacity, enabled, emitted, n): (usize, bool, u64, usize) =
            lastcpu_snap::Field::take(r)?;
        if n > capacity {
            return Err(r.corrupt(format!("{n} retained records exceed capacity {capacity}")));
        }
        // A capacity is refused above a fixed bound, so what a restored
        // sink may grow to does not depend on the host. The ring reserves
        // for the records the section can hold, not for its capacity.
        if capacity > MAX_RESTORED_CAPACITY {
            return Err(r.corrupt(format!(
                "trace capacity {capacity} exceeds the {MAX_RESTORED_CAPACITY} a restore may reserve"
            )));
        }
        t.ring.reset(n.min(r.remaining() / MIN_ENCODED));
        t.capacity = capacity.max(1);
        t.texts.clear();
        t.staged.clear();
        t.enabled = enabled;
        t.emitted = 0;
        let mut l = Loading {
            sink: t,
            names: Memo::new(),
            statics: Memo::new(),
        };
        for _ in 0..n {
            if let Err(e) = l.restore_record(r) {
                l.sink.staged.clear();
                return Err(e);
            }
        }
        t.emitted = emitted;
        Ok(())
    }
}

/// Free-form lines from a named source, as the tests below and
/// `export`'s write them.
#[cfg(test)]
impl TraceSink {
    pub(crate) fn emit(&mut self, at: SimTime, source: &str, what: impl Into<String>) {
        self.emit_corr(at, source, CorrId::NONE, what);
    }

    pub(crate) fn emit_corr(
        &mut self,
        at: SimTime,
        source: &str,
        corr: CorrId,
        what: impl Into<String>,
    ) {
        let source = self.name(source);
        self.emit_text(at, source, corr, TraceData::Text, what);
    }

    fn reserved_bytes(&self) -> usize {
        self.ring.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_snap::{Restore, SnapError, SnapReader, Snapshot};

    #[test]
    fn records_in_order() {
        let mut t = TraceSink::bounded(16);
        t.emit(SimTime::from_nanos(1), "a", "x");
        t.emit(SimTime::from_nanos(2), "b", "y");
        let v: Vec<_> = t.events().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].source(), "a");
        assert_eq!(v[1].what(), "y");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TraceSink::bounded(3);
        for i in 0..10u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        let v: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(v, vec!["7", "8", "9"]);
        assert_eq!(t.total_emitted(), 10);
    }

    /// A sink reserves 16 bytes a record up front, and records that
    /// average no more wrap it five times without growing it.
    #[test]
    fn a_ring_of_records_averaging_sixteen_bytes_never_grows() {
        let mut t = TraceSink::bounded(4096);
        let reserved = t.reserved_bytes();
        assert!(
            (16 * 4096..16 * 4096 + 1024).contains(&reserved),
            "{reserved}"
        );
        assert!(t.is_empty() && t.packed_bytes() == 0);
        let source = t.name("c0");
        // An 8-byte stage and a 24-byte link hop in turn: 16 on average.
        let record = |i: u64| match i % 2 {
            0 => TraceData::Stage {
                stage: "client.issue",
                id: i % 128,
                aux: 0,
            },
            _ => TraceData::LinkHop {
                src_machine: 1,
                dst_machine: 2,
                bytes: u64::MAX,
                uplink_ns: 1 << 20,
                spine_ns: 1 << 20,
                downlink_ns: 1 << 13,
            },
        };
        for i in 0..5 * 4096u64 {
            let before = t.packed_bytes();
            t.emit_data(SimTime::from_nanos(i), source, CorrId(i), record(i));
            if i < 2 {
                assert_eq!(t.packed_bytes() - before, [8, 24][i as usize]);
            }
            assert_eq!(t.reserved_bytes(), reserved, "grew at record {i}");
        }
        assert_eq!(t.packed_bytes(), 16 * 4096);
        let first = 4 * 4096;
        assert!(t
            .events()
            .zip(first..)
            .all(|(e, i)| (e.at.as_nanos(), e.corr, e.data) == (i, CorrId(i), record(i))));
    }

    /// Past the static strings a sink keeps inline, more are kept on the
    /// heap; each comes back as the string it was handed, the same copy.
    #[test]
    fn static_strings_past_the_inline_table_spill() {
        let stages: Vec<&'static str> = (0..3 * STATIC_INLINE)
            .map(|i| &*Box::leak(format!("stage.{i}").into_boxed_str()))
            .collect();
        let mut t = TraceSink::bounded(2 * stages.len());
        let source = t.name("c0");
        for round in 0..3u64 {
            for (i, &stage) in stages.iter().enumerate() {
                let data = TraceData::Stage {
                    stage,
                    id: round,
                    aux: i as u64,
                };
                t.emit_data(SimTime::from_nanos(round), source, CorrId::NONE, data);
            }
        }
        assert_eq!(t.ring.statics.len, stages.len());
        assert_eq!(t.ring.statics.spill.len(), stages.len() - STATIC_INLINE);
        for (e, i) in t.events().zip(stages.len()..) {
            let i = i % stages.len();
            let TraceData::Stage { stage, aux, .. } = e.data else {
                panic!("{e}");
            };
            assert!(std::ptr::eq(stage, stages[i]) && aux == i as u64, "{e}");
        }
    }

    /// Records that outgrow the reservation move into a larger buffer, in
    /// order, wrapped or not.
    #[test]
    fn a_ring_of_wide_records_grows_and_keeps_them() {
        let mut t = TraceSink::bounded(64);
        let reserved = t.reserved_bytes();
        let source = t.name("m0");
        let hop = |i: u64| TraceData::LinkHop {
            src_machine: u16::MAX,
            dst_machine: i as u16,
            bytes: u64::MAX - i,
            uplink_ns: u64::MAX,
            spine_ns: 1 << 60,
            downlink_ns: i,
        };
        for i in 0..1000u64 {
            t.emit_data(SimTime::from_nanos(i << 40), source, CorrId(!i), hop(i));
            let want: Vec<_> = (i.saturating_sub(63)..=i).map(hop).collect();
            let got: Vec<_> = t.events().map(|e| e.data).collect();
            assert_eq!(got, want, "after {i}");
        }
        assert!(t.reserved_bytes() > reserved);
        let last = t.events().last().expect("a record");
        assert_eq!((last.at.as_nanos(), last.corr), (999 << 40, CorrId(!999)));
    }

    /// A record's texts leave with it: the FIFO holds the texts of retained
    /// records only, however often the ring wraps.
    #[test]
    fn texts_leave_with_their_records() {
        let mut t = TraceSink::bounded(3);
        let src = t.name("s");
        for i in 0..100u64 {
            if i % 2 == 0 {
                t.emit(SimTime::from_nanos(i), "s", format!("line {i}"));
            } else {
                t.emit_data(
                    SimTime::from_nanos(i),
                    src,
                    CorrId(i),
                    TraceData::Stage {
                        stage: "client.issue",
                        id: i,
                        aux: 0,
                    },
                );
            }
            let texts = t.events().filter(|e| e.data.has_text()).count();
            assert_eq!(t.texts.len(), texts, "after {i}");
        }
        let v: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(
            v,
            [
                "stage client.issue id=97 aux=0",
                "line 98",
                "stage client.issue id=99 aux=0"
            ]
        );
        t.set_capacity(1);
        assert_eq!(t.texts.len(), 0);
        t.emit(SimTime::from_nanos(100), "s", "last");
        assert_eq!(t.texts.len(), 1);
    }

    #[test]
    fn set_capacity_evicts_oldest_and_rebounds() {
        let mut t = TraceSink::bounded(8);
        for i in 0..8u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        t.set_capacity(3);
        let v: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(v, vec!["5", "6", "7"]);
        t.set_capacity(16);
        for i in 8..20u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        assert_eq!(t.len(), 15); // 3 survivors + 12 new, under the new bound
        assert_eq!(t.total_emitted(), 20);
    }

    #[test]
    fn len_tracks_retained_records() {
        let mut t = TraceSink::bounded(2);
        assert!(t.is_empty());
        t.emit(SimTime::ZERO, "s", "a");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.emit(SimTime::ZERO, "s", "b");
        t.emit(SimTime::ZERO, "s", "c");
        assert_eq!(t.len(), 2); // bounded
    }

    #[test]
    fn disabled_sink_drops() {
        let mut t = TraceSink::disabled();
        t.emit(SimTime::ZERO, "s", "x");
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.total_emitted(), 0);
        t.set_enabled(true);
        t.emit(SimTime::ZERO, "s", "x");
        assert_eq!(t.events().count(), 1);
    }

    #[test]
    fn filters_work() {
        let mut t = TraceSink::bounded(16);
        t.emit(SimTime::ZERO, "bus", "register nic0");
        t.emit(SimTime::ZERO, "nic0", "self-test ok");
        t.emit(SimTime::ZERO, "bus", "register ssd0");
        assert_eq!(t.containing("nic0").count(), 1);
    }

    #[test]
    fn data_renders_legacy_strings() {
        let mut t = TraceSink::bounded(4);
        let (s, to, device, perms) = (
            t.name("bus"),
            t.name("nic0"),
            t.name("dev:3"),
            t.name("rw-"),
        );
        let hit = TraceData::Deliver {
            to,
            kind: "QueryHit",
        };
        t.emit_data(SimTime::ZERO, s, CorrId::NONE, hit);
        let map = TraceData::IommuMap {
            device,
            pasid: 1,
            va: 0x1000,
            pa: 0x8000,
            pages: 4,
            perms,
        };
        t.emit_data(SimTime::ZERO, s, CorrId::NONE, map);
        let v: Vec<_> = t.events().collect();
        assert_eq!(v[0].what(), "-> nic0: QueryHit");
        assert!(v[1]
            .what()
            .starts_with("programmed IOMMU of dev:3: pasid 1"));
        assert_eq!(v[1].data.kind(), "iommu_map");
        assert_eq!((v[1].name(device), v[1].name(perms)), ("dev:3", "rw-"));
    }

    /// The records that are rendered on demand, over port and byte values
    /// one, three and five digits wide, with the line each one used to be
    /// formatted into when it was emitted.
    fn rendered_on_demand() -> Vec<(TraceData, String)> {
        let mut out = Vec::new();
        for (port, bytes) in [
            (7u32, 9u64),
            (7, 12_345),
            (104, 512),
            (65_001, 4),
            (65_001, 98_765),
        ] {
            out.push((
                TraceData::LinkEnter { port, bytes },
                format!("frame enters from fabric link for port {port} ({bytes} B)"),
            ));
            out.push((
                TraceData::LinkExit { port, bytes },
                format!("frame exits to fabric link via port {port} ({bytes} B)"),
            ));
        }
        for (conn, base, size) in [
            (3u64, 0x1000u64, 2u16),
            (412, 0x7fff_f000, 256),
            (70_000, 0, 32_768),
        ] {
            out.push((
                TraceData::QueueAttached { conn, base, size },
                format!("conn:{conn}: queue attached at {base:#x} size {size}"),
            ));
        }
        out
    }

    /// A record rendered on demand exports as the line it used to be
    /// formatted into, and a checkpoint holds it under its own tag, so it
    /// restores as itself.
    #[test]
    fn a_record_rendered_on_demand_restores_as_itself() {
        for (typed, line) in rendered_on_demand() {
            assert_eq!(typed.kind(), "text");
            let mut t = TraceSink::bounded(4);
            let s = t.name("net");
            t.emit_data(SimTime::from_nanos(0xFEED), s, CorrId(3), typed);
            assert_eq!(t.events().next().unwrap().what(), line);
            let bytes = t.snapshot_bytes();
            let mut back = TraceSink::disabled();
            let mut r = SnapReader::new("trace", &bytes);
            back.restore(&mut r).unwrap();
            r.finish().unwrap();
            let rec = back.events().next().unwrap();
            assert_eq!((rec.data, rec.what()), (typed, line));
            assert_eq!(back.snapshot_bytes(), bytes);
        }
    }

    /// The `trace` section the commit before `BusSend::dst`,
    /// `Discovery::{pattern, dst}`, `IommuMap::perms` and
    /// `SecurityDenial::check` became handles wrote for the fourteen
    /// records of `snapshot_round_trips_every_record_variant`.
    const PARENT_SECTION_HEX: &str = concat!(
        "2000000000000000010e000000000000000e0000000000000000000000000000",
        "0004000000000000006e6963300000000000000000000b000000000000004f70",
        "656e526571756573740d00000000000000446576696365286465763a32290a00",
        "00000000000004000000000000006e6963300100000000000000010500000000",
        "0000007373642f2a090000000000000042726f61646361737414000000000000",
        "0004000000000000006e69633002000000000000000204000000000000007373",
        "6430080000000000000051756572794869741e00000000000000040000000000",
        "00006e69633003000000000000000310000000000000006e6963302028736d61",
        "72742d6e696329280000000000000004000000000000006e6963300400000000",
        "0000000405000000000000006465763a33070000000020000000000000009000",
        "0000000000040000000000000002000000000000005257320000000000000004",
        "000000000000006e69633005000000000000000505000000000000006465763a",
        "3307000000002000000000000004000000000000003c00000000000000040000",
        "00000000006e6963300600000000000000060900000000000000756e616c6967",
        "6e6564460000000000000004000000000000006e696330070000000000000007",
        "05000000000000006465763a3304000000000000000150000000000000000400",
        "0000000000006e69633008000000000000000805000000000000006465763a32",
        "efbe0000000000005a0000000000000004000000000000006e69633009000000",
        "000000000905000000000000006465763a3216000000000000006465763a3220",
        "68616c7465643a20776561722d6f757464000000000000000400000000000000",
        "6e6963300a000000000000000a0600000000000000726f677565300300000000",
        "000000646d611f00000000000000706173696420312076612030783020577269",
        "74653a204e6f744d61707065646e0000000000000004000000000000006e6963",
        "300b000000000000000b0c00000000000000636c69656e742e69737375656300",
        "0000000000000100000000000000780000000000000004000000000000006e69",
        "63300c000000000000000c00000000000000000300000000000000c000000000",
        "0000002800000000000000f4010000000000002d000000000000008200000000",
        "00000004000000000000006e6963300d000000000000000d0900000000000000",
        "667265652d666f726d",
    );

    #[test]
    fn snapshot_round_trips_every_record_variant() {
        let mut t = TraceSink::bounded(32);
        let mut n = |s: &str| t.name(s);
        let (dev2, dev3) = (n("dev:2"), n("dev:3"));
        let variants = [
            (
                TraceData::BusSend {
                    what: "OpenRequest",
                    dst: n("Device(dev:2)"),
                },
                "",
            ),
            (
                TraceData::Discovery {
                    pattern: n("ssd/*"),
                    dst: n("Broadcast"),
                },
                "",
            ),
            (
                TraceData::Deliver {
                    to: n("ssd0"),
                    kind: "QueryHit",
                },
                "",
            ),
            (TraceData::BusRegister, "nic0 (smart-nic)"),
            (
                TraceData::IommuMap {
                    device: dev3,
                    pasid: 7,
                    va: 0x2000,
                    pa: 0x9000,
                    pages: 4,
                    perms: n("RW"),
                },
                "",
            ),
            (
                TraceData::IommuUnmap {
                    device: dev3,
                    pasid: 7,
                    va: 0x2000,
                    pages: 4,
                },
                "",
            ),
            (TraceData::MapFailure, "unaligned"),
            (
                TraceData::DmaGrant {
                    to: dev3,
                    pages: 4,
                    writable: true,
                },
                "",
            ),
            (
                TraceData::QueueDoorbell {
                    to: dev2,
                    value: 0xBEEF,
                },
                "",
            ),
            (
                TraceData::DeviceFault { device: dev2 },
                "dev:2 halted: wear-out",
            ),
            (
                TraceData::SecurityDenial {
                    device: n("rogue0"),
                    check: "dma",
                },
                "pasid 1 va 0x0 Write: NotMapped",
            ),
            (
                TraceData::Stage {
                    stage: "client.issue",
                    id: 99,
                    aux: 1,
                },
                "",
            ),
            (
                TraceData::LinkHop {
                    src_machine: 0,
                    dst_machine: 3,
                    bytes: 192,
                    uplink_ns: 40,
                    spine_ns: 500,
                    downlink_ns: 45,
                },
                "",
            ),
            (TraceData::Text, "free-form"),
        ];
        let mut kinds: Vec<_> = variants.iter().map(|(d, _)| d.kind()).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), 14, "one record per variant");

        let shared = t.name("nic0");
        for (i, (data, text)) in variants.into_iter().enumerate() {
            let (at, corr) = (SimTime::from_nanos(i as u64 * 10), CorrId(i as u64));
            if data.has_text() {
                t.emit_text(at, shared, corr, data, text);
            } else {
                t.emit_data(at, shared, corr, data);
            }
        }
        let bytes = t.snapshot_bytes();
        // Names and texts encode the bytes the owned fields did, so the
        // decode below is also a decode of a parent-written section.
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PARENT_SECTION_HEX);
        let mut back = TraceSink::disabled();
        let mut r = SnapReader::new("trace", &bytes);
        back.restore(&mut r).expect("well-formed");
        r.finish().expect("no trailing bytes");
        let lines = |t: &TraceSink| t.events().map(|e| e.to_string()).collect::<Vec<_>>();
        assert_eq!(lines(&back), lines(&t), "records decode to equal records");
        assert_eq!(back.total_emitted(), t.total_emitted());
        assert!(back.is_enabled());
        assert_eq!(back.snapshot_bytes(), bytes);
    }

    #[test]
    fn a_hostile_capacity_fails_restore_as_corrupt() {
        let mut t = TraceSink::bounded(4);
        t.emit(SimTime::from_nanos(1), "s", "a");
        let mut bytes = t.snapshot_bytes();
        let mut back = TraceSink::disabled();
        // Refused by the bound, not by the allocator: the outcome does not
        // depend on how much the host would let the ring reserve.
        for capacity in [1u64 << 40, MAX_RESTORED_CAPACITY as u64 + 1] {
            bytes[..8].copy_from_slice(&capacity.to_le_bytes());
            let err = back.restore(&mut SnapReader::new("trace", &bytes));
            assert!(matches!(err, Err(SnapError::Corrupt { .. })), "{err:?}");
            assert!(!back.is_enabled(), "a refused restore changes nothing");
        }
        bytes[..8].copy_from_slice(&4u64.to_le_bytes());
        back.restore(&mut SnapReader::new("trace", &bytes))
            .expect("well-formed");
        assert_eq!(back.snapshot_bytes(), t.snapshot_bytes());
    }

    #[test]
    fn a_hostile_machine_index_fails_restore_as_corrupt() {
        let mut t = TraceSink::bounded(4);
        let fabric = t.name("fabric");
        let hop = TraceData::LinkHop {
            src_machine: 0xABCD,
            dst_machine: 1,
            bytes: 2,
            uplink_ns: 3,
            spine_ns: 4,
            downlink_ns: 5,
        };
        t.emit_data(SimTime::ZERO, fabric, CorrId::NONE, hop);
        let mut bytes = t.snapshot_bytes();
        let at = bytes
            .windows(8)
            .position(|w| w == 0xABCDu64.to_le_bytes())
            .expect("the source machine is on the wire");
        bytes[at + 2] = 1; // 0x1_ABCD fits no u16
        let err = TraceSink::disabled().restore(&mut SnapReader::new("trace", &bytes));
        assert!(matches!(err, Err(SnapError::Corrupt { .. })), "{err:?}");
    }

    /// Past [`MAX_NAMES`], a name the sink does not choose rides its record
    /// as text; a name it already holds keeps its handle; and what a reader
    /// sees does not depend on which of the two a name became.
    #[test]
    fn names_past_the_bound_ride_as_text() {
        let mut t = TraceSink::bounded(8);
        let (bus, dst) = (t.name("bus"), t.name("Bus"));
        let query = |t: &mut TraceSink, pattern: &str| {
            let pattern = t.name_or_text(pattern);
            t.emit_data(
                SimTime::ZERO,
                bus,
                CorrId::NONE,
                TraceData::Discovery { pattern, dst },
            );
            pattern
        };
        for i in 0..MAX_NAMES {
            query(&mut t, &format!("file:/p{i}"));
        }
        assert_eq!(t.names.len(), MAX_NAMES);
        let late = query(&mut t, "file:/late");
        assert_eq!(late, Name::text(0));
        assert_eq!(
            query(&mut t, "file:/p7"),
            Name(9),
            "an interned name keeps its handle"
        );
        assert_eq!(t.names.len(), MAX_NAMES);
        let whats: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(whats[6], "sends Query(file:/late) to Bus");
        assert_eq!(whats[7], "sends Query(file:/p7) to Bus");
        // Trusted names are interned past the bound.
        assert_eq!(t.name("fabric"), Name(MAX_NAMES as u32));
    }

    /// A forged id is rendered from its integer and never interned: as a
    /// source and as a field of one record, with the record's own text.
    #[test]
    fn forged_ids_ride_their_record() {
        let mut t = TraceSink::bounded(2);
        let source = t.text_name("dev:9999".into());
        let device = t.text_name("Device(dev:9999)".into());
        let deny = TraceData::SecurityDenial {
            device,
            check: "map_instruction",
        };
        t.emit_text(SimTime::ZERO, source, CorrId(5), deny, "NotController");
        assert_eq!(t.names.len(), 0);
        let line = t.events().next().unwrap().to_string();
        assert!(
            line.ends_with(
                "c5 dev:9999     denied [map_instruction] Device(dev:9999): NotController"
            ),
            "{line}"
        );
    }

    /// Merging relabels each part's sources, texts included, and keeps
    /// every name of every record.
    #[test]
    fn merged_relabels_sources_and_keeps_names() {
        let mut m0 = TraceSink::bounded(4);
        let (bus, to) = (m0.name("bus"), m0.name("nic0"));
        m0.emit_data(
            SimTime::from_nanos(5),
            bus,
            CorrId(1),
            TraceData::Deliver { to, kind: "Hello" },
        );
        let forged = m0.text_name("dev:77".into());
        m0.emit_text(
            SimTime::from_nanos(9),
            forged,
            CorrId(2),
            TraceData::Text,
            "odd",
        );
        let mut link = TraceSink::bounded(4);
        let fabric = link.name("fabric");
        let hop = TraceData::LinkHop {
            src_machine: 0,
            dst_machine: 1,
            bytes: 1,
            uplink_ns: 1,
            spine_ns: 1,
            downlink_ns: 1,
        };
        link.emit_data(SimTime::from_nanos(5), fabric, CorrId(1), hop);
        let merged = TraceSink::merged(&[(&m0, Some("m0")), (&link, None)]);
        let got: Vec<_> = merged
            .events()
            .map(|e| (e.source().to_owned(), e.what()))
            .collect();
        assert_eq!(
            got,
            [
                ("m0/bus".into(), "-> nic0: Hello".into()),
                ("fabric".into(), hop_line()),
                ("m0/dev:77".into(), "odd".into()),
            ]
        );
        fn hop_line() -> String {
            "link hop m0 -> m1 (1 B, uplink 1ns, spine 1ns, downlink 1ns)".into()
        }
        assert_eq!(merged.total_emitted(), 3);
    }

    #[test]
    fn display_is_stable() {
        let mut t = TraceSink::bounded(1);
        t.emit_corr(SimTime::from_nanos(1500), "bus", CorrId(3), "hello");
        let s = t.events().next().unwrap().to_string();
        assert!(s.contains("bus"));
        assert!(s.contains("hello"));
        assert!(s.contains("1.500us"));
        assert!(s.contains("c3"));
    }
}

/// The sink before a record became plain data: a `VecDeque` of records
/// whose names are `Arc<str>` handles and whose texts are `String`s, each
/// record owning them. Kept as the reference the plain sink is held to,
/// snapshot byte for byte and rendered line for line.
#[cfg(test)]
mod oracle {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::MAX_RESTORED_CAPACITY;
    use crate::record::CorrId;
    use crate::rng::DetRng;
    use crate::time::SimTime;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TraceData {
        BusSend {
            what: &'static str,
            dst: Arc<str>,
        },
        Discovery {
            pattern: Arc<str>,
            dst: Arc<str>,
        },
        Deliver {
            to: Arc<str>,
            kind: &'static str,
        },
        BusRegister {
            device: String,
        },
        IommuMap {
            device: Arc<str>,
            pasid: u32,
            va: u64,
            pa: u64,
            pages: u64,
            perms: &'static str,
        },
        IommuUnmap {
            device: Arc<str>,
            pasid: u32,
            va: u64,
            pages: u64,
        },
        MapFailure {
            error: String,
        },
        DmaGrant {
            to: Arc<str>,
            pages: u64,
            writable: bool,
        },
        QueueDoorbell {
            to: Arc<str>,
            value: u64,
        },
        DeviceFault {
            device: Arc<str>,
            detail: String,
        },
        SecurityDenial {
            device: Arc<str>,
            check: &'static str,
            detail: String,
        },
        Stage {
            stage: &'static str,
            id: u64,
            aux: u64,
        },
        LinkHop {
            src_machine: usize,
            dst_machine: usize,
            bytes: u64,
            uplink_ns: u64,
            spine_ns: u64,
            downlink_ns: u64,
        },
        LinkEnter {
            port: u32,
            bytes: u64,
        },
        LinkExit {
            port: u32,
            bytes: u64,
        },
        QueueAttached {
            conn: u64,
            base: u64,
            size: u16,
        },
        Text(String),
    }

    impl fmt::Display for TraceData {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TraceData::BusSend { what, dst } => write!(f, "sends {what} to {dst}"),
                TraceData::Discovery { pattern, dst } => {
                    write!(f, "sends Query({pattern}) to {dst}")
                }
                TraceData::Deliver { to, kind } => write!(f, "-> {to}: {kind}"),
                TraceData::BusRegister { device } => write!(f, "device {device} registered"),
                TraceData::IommuMap {
                    device,
                    pasid,
                    va,
                    pa,
                    pages,
                    perms,
                } => write!(
                    f,
                    "programmed IOMMU of {device}: pasid {pasid} va {va:#x} -> pa {pa:#x} ({pages} pages, {perms})"
                ),
                TraceData::IommuUnmap {
                    device,
                    pasid,
                    va,
                    pages,
                } => write!(f, "revoked {pages} pages from {device} (pasid {pasid}, va {va:#x})"),
                TraceData::MapFailure { error } => write!(f, "map failed: {error}"),
                TraceData::DmaGrant {
                    to,
                    pages,
                    writable,
                } => write!(f, "granted {pages} pages to {to} (writable={writable})"),
                TraceData::QueueDoorbell { to, value } => {
                    write!(f, "doorbell -> {to}: value {value:#x}")
                }
                TraceData::DeviceFault { device: _, detail } => write!(f, "{detail}"),
                TraceData::SecurityDenial {
                    device,
                    check,
                    detail,
                } => write!(f, "denied [{check}] {device}: {detail}"),
                TraceData::Stage { stage, id, aux } => {
                    write!(f, "stage {stage} id={id} aux={aux}")
                }
                TraceData::LinkHop {
                    src_machine,
                    dst_machine,
                    bytes,
                    uplink_ns,
                    spine_ns,
                    downlink_ns,
                } => write!(
                    f,
                    "link hop m{src_machine} -> m{dst_machine} ({bytes} B, uplink {uplink_ns}ns, spine {spine_ns}ns, downlink {downlink_ns}ns)"
                ),
                TraceData::LinkEnter { port, bytes } => {
                    write!(f, "frame enters from fabric link for port {port} ({bytes} B)")
                }
                TraceData::LinkExit { port, bytes } => {
                    write!(f, "frame exits to fabric link via port {port} ({bytes} B)")
                }
                TraceData::QueueAttached { conn, base, size } => {
                    write!(f, "conn:{conn}: queue attached at {base:#x} size {size}")
                }
                TraceData::Text(s) => write!(f, "{s}"),
            }
        }
    }

    impl TraceData {
        pub fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
            match self {
                TraceData::BusSend { what, dst } => {
                    w.put_u8(0);
                    w.put_str(what);
                    w.put_str(dst);
                }
                TraceData::Discovery { pattern, dst } => {
                    w.put_u8(1);
                    w.put_str(pattern);
                    w.put_str(dst);
                }
                TraceData::Deliver { to, kind } => {
                    w.put_u8(2);
                    w.put_str(to);
                    w.put_str(kind);
                }
                TraceData::BusRegister { device } => {
                    w.put_u8(3);
                    w.put_str(device);
                }
                TraceData::IommuMap {
                    device,
                    pasid,
                    va,
                    pa,
                    pages,
                    perms,
                } => {
                    w.put_u8(4);
                    w.put_str(device);
                    w.put_u32(*pasid);
                    w.put_u64(*va);
                    w.put_u64(*pa);
                    w.put_u64(*pages);
                    w.put_str(perms);
                }
                TraceData::IommuUnmap {
                    device,
                    pasid,
                    va,
                    pages,
                } => {
                    w.put_u8(5);
                    w.put_str(device);
                    w.put_u32(*pasid);
                    w.put_u64(*va);
                    w.put_u64(*pages);
                }
                TraceData::MapFailure { error } => {
                    w.put_u8(6);
                    w.put_str(error);
                }
                TraceData::DmaGrant {
                    to,
                    pages,
                    writable,
                } => {
                    w.put_u8(7);
                    w.put_str(to);
                    w.put_u64(*pages);
                    w.put_bool(*writable);
                }
                TraceData::QueueDoorbell { to, value } => {
                    w.put_u8(8);
                    w.put_str(to);
                    w.put_u64(*value);
                }
                TraceData::DeviceFault { device, detail } => {
                    w.put_u8(9);
                    w.put_str(device);
                    w.put_str(detail);
                }
                TraceData::SecurityDenial {
                    device,
                    check,
                    detail,
                } => {
                    w.put_u8(10);
                    w.put_str(device);
                    w.put_str(check);
                    w.put_str(detail);
                }
                TraceData::Stage { stage, id, aux } => {
                    w.put_u8(11);
                    w.put_str(stage);
                    w.put_u64(*id);
                    w.put_u64(*aux);
                }
                TraceData::LinkHop {
                    src_machine,
                    dst_machine,
                    bytes,
                    uplink_ns,
                    spine_ns,
                    downlink_ns,
                } => {
                    w.put_u8(12);
                    w.put_u64(*src_machine as u64);
                    w.put_u64(*dst_machine as u64);
                    w.put_u64(*bytes);
                    w.put_u64(*uplink_ns);
                    w.put_u64(*spine_ns);
                    w.put_u64(*downlink_ns);
                }
                TraceData::LinkEnter { port, bytes } => {
                    w.put_u8(14);
                    w.put_u32(*port);
                    w.put_u64(*bytes);
                }
                TraceData::LinkExit { port, bytes } => {
                    w.put_u8(15);
                    w.put_u32(*port);
                    w.put_u64(*bytes);
                }
                TraceData::QueueAttached { conn, base, size } => {
                    w.put_u8(16);
                    w.put_u64(*conn);
                    w.put_u64(*base);
                    w.put_u64((*size).into());
                }
                TraceData::Text(s) => {
                    w.put_u8(13);
                    w.put_str(s);
                }
            }
        }

        pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<TraceData> {
            // The old sink interned without a bound.
            let intern_static =
                |s: &str| lastcpu_snap::intern_static(s, usize::MAX).expect("unbounded");
            Ok(match r.u8()? {
                0 => TraceData::BusSend {
                    what: intern_static(r.str()?),
                    dst: r.str()?.into(),
                },
                1 => TraceData::Discovery {
                    pattern: r.str()?.into(),
                    dst: r.str()?.into(),
                },
                2 => TraceData::Deliver {
                    to: r.str()?.into(),
                    kind: intern_static(r.str()?),
                },
                3 => TraceData::BusRegister {
                    device: r.str()?.into(),
                },
                4 => TraceData::IommuMap {
                    device: r.str()?.into(),
                    pasid: r.u32()?,
                    va: r.u64()?,
                    pa: r.u64()?,
                    pages: r.u64()?,
                    perms: intern_static(r.str()?),
                },
                5 => TraceData::IommuUnmap {
                    device: r.str()?.into(),
                    pasid: r.u32()?,
                    va: r.u64()?,
                    pages: r.u64()?,
                },
                6 => TraceData::MapFailure {
                    error: r.str()?.into(),
                },
                7 => TraceData::DmaGrant {
                    to: r.str()?.into(),
                    pages: r.u64()?,
                    writable: r.bool()?,
                },
                8 => TraceData::QueueDoorbell {
                    to: r.str()?.into(),
                    value: r.u64()?,
                },
                9 => TraceData::DeviceFault {
                    device: r.str()?.into(),
                    detail: r.str()?.into(),
                },
                10 => TraceData::SecurityDenial {
                    device: r.str()?.into(),
                    check: intern_static(r.str()?),
                    detail: r.str()?.into(),
                },
                11 => TraceData::Stage {
                    stage: intern_static(r.str()?),
                    id: r.u64()?,
                    aux: r.u64()?,
                },
                12 => TraceData::LinkHop {
                    src_machine: r.u64()? as usize,
                    dst_machine: r.u64()? as usize,
                    bytes: r.u64()?,
                    uplink_ns: r.u64()?,
                    spine_ns: r.u64()?,
                    downlink_ns: r.u64()?,
                },
                13 => TraceData::Text(r.str()?.into()),
                14 => TraceData::LinkEnter {
                    port: r.u32()?,
                    bytes: r.u64()?,
                },
                15 => TraceData::LinkExit {
                    port: r.u32()?,
                    bytes: r.u64()?,
                },
                16 => TraceData::QueueAttached {
                    conn: r.u64()?,
                    base: r.u64()?,
                    size: r.u64()? as u16,
                },
                tag => return Err(r.corrupt(format!("unknown TraceData tag {tag}"))),
            })
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceRecord {
        pub at: SimTime,
        pub source: Arc<str>,
        pub corr: CorrId,
        pub data: TraceData,
    }

    impl TraceRecord {
        pub fn what(&self) -> String {
            self.data.to_string()
        }

        fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
            w.put_u64(self.at.as_nanos());
            w.put_str(&self.source);
            w.put_u64(self.corr.0);
            self.data.encode(w);
        }

        fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<TraceRecord> {
            Ok(TraceRecord {
                at: SimTime::from_nanos(r.u64()?),
                source: r.str()?.into(),
                corr: CorrId(r.u64()?),
                data: TraceData::decode(r)?,
            })
        }
    }

    impl fmt::Display for TraceRecord {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "[{:>12}] {:>6} {:<12} {}",
                self.at.to_string(),
                self.corr.to_string(),
                self.source,
                self.data
            )
        }
    }

    pub struct TraceSink {
        ring: VecDeque<TraceRecord>,
        capacity: usize,
        enabled: bool,
        emitted: u64,
    }

    impl TraceSink {
        pub fn bounded(capacity: usize) -> Self {
            let capacity = capacity.max(1);
            TraceSink {
                ring: VecDeque::with_capacity(capacity),
                capacity,
                enabled: true,
                emitted: 0,
            }
        }

        pub fn disabled() -> Self {
            let mut s = Self::bounded(1);
            s.enabled = false;
            s
        }

        pub fn set_capacity(&mut self, capacity: usize) {
            let capacity = capacity.max(1);
            while self.ring.len() > capacity {
                self.ring.pop_front();
            }
            self.ring.reserve(capacity.saturating_sub(self.ring.len()));
            self.capacity = capacity;
        }

        pub fn emit_data(&mut self, at: SimTime, source: Arc<str>, corr: CorrId, data: TraceData) {
            if !self.enabled {
                return;
            }
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(TraceRecord {
                at,
                source,
                corr,
                data,
            });
            self.emitted += 1;
        }

        pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
            self.ring.iter()
        }

        pub fn len(&self) -> usize {
            self.ring.len()
        }

        pub fn total_emitted(&self) -> u64 {
            self.emitted
        }

        pub fn containing<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
            self.ring.iter().filter(move |e| e.what().contains(needle))
        }

        pub fn clear(&mut self) {
            self.ring.clear();
        }
    }

    impl lastcpu_snap::Snapshot for TraceSink {
        fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
            w.put_len(self.capacity);
            w.put_bool(self.enabled);
            w.put_u64(self.emitted);
            w.put_len(self.ring.len());
            for rec in &self.ring {
                rec.encode(w);
            }
        }
    }

    impl lastcpu_snap::Restore for TraceSink {
        fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
            let capacity = r.len()?;
            let enabled = r.bool()?;
            let emitted = r.u64()?;
            let n = r.len()?;
            if n > capacity {
                return Err(r.corrupt(format!("{n} retained records exceed capacity {capacity}")));
            }
            if capacity > MAX_RESTORED_CAPACITY {
                return Err(r.corrupt(format!("trace capacity {capacity}")));
            }
            self.ring.clear();
            self.set_capacity(capacity);
            self.enabled = enabled;
            self.emitted = emitted;
            for _ in 0..n {
                self.ring.push_back(TraceRecord::decode(r)?);
            }
            Ok(())
        }
    }

    // --- the plain sink held to the oracle ----------------------------------

    use super::{Name, TraceSink as Plain, MAX_NAMES};
    use crate::record::TraceData as Data;
    use lastcpu_snap::{Restore, SnapReader, Snapshot};

    /// How the plain sink is handed one name of a generated record.
    #[derive(Clone, Copy)]
    enum How {
        /// Interned, as a machine interns its own devices.
        Table,
        /// Bounded, as a discovery pattern or a decoded name is.
        Bounded,
        /// Carried as text, as a forged id is.
        Text,
    }

    /// The names a generated record draws from: JSON-hostile, empty and
    /// multi-byte ones included.
    const POOL: [&str; 12] = [
        "bus",
        "nic0",
        "ssd0",
        "Bus",
        "Broadcast",
        "Device(dev:2)",
        "dev:3",
        "file:*",
        "m0/kvs.router",
        "",
        "quoted \"x\"\n",
        "üñï",
    ];

    const KINDS: [&str; 4] = ["Hello", "OpenRequest", "QueryHit", "MemAlloc"];
    const PERMS: [&str; 4] = ["R--", "RW-", "R-X", "RWX"];

    fn pick<T: Copy>(rng: &mut DetRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    /// A name from the pool, now and then a fresh one, with how the plain
    /// sink gets it.
    fn name(rng: &mut DetRng) -> (Arc<str>, How) {
        let s: Arc<str> = if rng.chance(0.2) {
            format!("fresh{}", rng.below(1_000)).into()
        } else {
            pick(rng, &POOL).into()
        };
        let how = pick(rng, &[How::Table, How::Table, How::Bounded, How::Text]);
        (s, how)
    }

    fn text(rng: &mut DetRng) -> String {
        match rng.below(3) {
            0 => String::new(),
            1 => pick(rng, &POOL).to_owned(),
            _ => format!("line {} with \"quotes\"\tand\ttabs", rng.below(100)),
        }
    }

    /// One record of any variant, and how each of its names (source first)
    /// reaches the plain sink. One in four is drawn at the edges of what the
    /// ring packs: each integer now and then 0 or the top of its range (a
    /// `LinkHop` machine index `u16::MAX`), every name as text (the source
    /// then at the top of the `u32` range), and the time going backwards, as
    /// a doctored restore order can make it, or leaping 2^32 ns or more.
    fn record(rng: &mut DetRng, at: &mut u64) -> (TraceRecord, Vec<How>) {
        let edge = rng.chance(0.25);
        let mut hows = Vec::new();
        let mut n = |rng: &mut DetRng| {
            let (s, how) = name(rng);
            hows.push(if edge { How::Text } else { how });
            s
        };
        // `typical`, or on an edge record 0 or `max` a third of the time each.
        let int = |typical: u64, max: u64, rng: &mut DetRng| match (edge, rng.below(3)) {
            (true, 0) => 0,
            (true, 1) => max,
            _ => typical,
        };
        *at = match (edge, rng.below(4)) {
            (true, 0) => at.wrapping_sub(rng.below(1 << 40)),
            (true, 1) => at.wrapping_add((1 << 32) + rng.below(1 << 40)),
            _ => at.wrapping_add(rng.below(3)),
        };
        let source = n(rng);
        let corr = CorrId(int(rng.below(4), u64::MAX, rng));
        const U16: u64 = u16::MAX as u64;
        const U32: u64 = u32::MAX as u64;
        let data = match rng.below(17) {
            0 => TraceData::BusSend {
                what: pick(rng, &KINDS),
                dst: n(rng),
            },
            1 => TraceData::Discovery {
                pattern: n(rng),
                dst: n(rng),
            },
            2 => TraceData::Deliver {
                to: n(rng),
                kind: pick(rng, &KINDS),
            },
            3 => TraceData::BusRegister { device: text(rng) },
            4 => TraceData::IommuMap {
                device: n(rng),
                pasid: int(rng.next_u64() & U32, U32, rng) as u32,
                va: int(rng.next_u64(), u64::MAX, rng),
                pa: int(rng.next_u64(), u64::MAX, rng),
                pages: int(rng.below(600), u64::MAX, rng),
                perms: pick(rng, &PERMS),
            },
            5 => TraceData::IommuUnmap {
                device: n(rng),
                pasid: int(rng.below(9), U32, rng) as u32,
                va: int(rng.next_u64(), u64::MAX, rng),
                pages: int(rng.below(600), u64::MAX, rng),
            },
            6 => TraceData::MapFailure { error: text(rng) },
            7 => TraceData::DmaGrant {
                to: n(rng),
                pages: int(rng.below(600), u64::MAX, rng),
                writable: rng.chance(0.5),
            },
            8 => TraceData::QueueDoorbell {
                to: n(rng),
                value: int(rng.next_u64(), u64::MAX, rng),
            },
            9 => TraceData::DeviceFault {
                device: n(rng),
                detail: text(rng),
            },
            10 => TraceData::SecurityDenial {
                device: n(rng),
                check: pick(rng, &["dma", "map_instruction", "announce"]),
                detail: text(rng),
            },
            11 => TraceData::Stage {
                stage: pick(rng, &["client.issue", "router.sub"]),
                id: int(rng.next_u64(), u64::MAX, rng),
                aux: int(rng.below(9), u64::MAX, rng),
            },
            12 => TraceData::LinkHop {
                src_machine: int(rng.below(1 << 16), U16, rng) as usize,
                dst_machine: int(rng.below(130), U16, rng) as usize,
                bytes: int(rng.below(10_000), u64::MAX, rng),
                uplink_ns: int(rng.below(10_000), u64::MAX, rng),
                spine_ns: int(rng.below(10_000), u64::MAX, rng),
                downlink_ns: int(rng.below(10_000), u64::MAX, rng),
            },
            13 => TraceData::LinkEnter {
                port: int(rng.next_u64() & U32, U32, rng) as u32,
                bytes: int(rng.below(100_000), u64::MAX, rng),
            },
            14 => TraceData::LinkExit {
                port: int(rng.below(70_000), U32, rng) as u32,
                bytes: int(rng.below(100_000), u64::MAX, rng),
            },
            15 => TraceData::QueueAttached {
                conn: int(rng.below(100_000), u64::MAX, rng),
                base: int(rng.next_u64(), u64::MAX, rng),
                size: int(rng.next_u64() & U16, U16, rng) as u16,
            },
            _ => TraceData::Text(text(rng)),
        };
        let rec = TraceRecord {
            at: SimTime::from_nanos(*at),
            source,
            corr,
            data,
        };
        (rec, hows)
    }

    /// Emits `rec` into the plain sink the way a machine would: each name
    /// as `hows` says, the record's own text beside it.
    fn emit(t: &mut Plain, rec: &TraceRecord, hows: &[How]) {
        let mut hows = hows.iter();
        let mut n = |t: &mut Plain, s: &str| match hows.next().expect("a how per name") {
            How::Table => t.name(s),
            How::Bounded => t.name_or_text(s),
            How::Text => t.text_name(s.to_owned()),
        };
        let source = n(t, &rec.source);
        let (data, text): (Data, Option<&str>) = match &rec.data {
            TraceData::BusSend { what, dst } => (
                Data::BusSend {
                    what,
                    dst: n(t, dst),
                },
                None,
            ),
            TraceData::Discovery { pattern, dst } => (
                Data::Discovery {
                    pattern: n(t, pattern),
                    dst: n(t, dst),
                },
                None,
            ),
            TraceData::Deliver { to, kind } => (Data::Deliver { to: n(t, to), kind }, None),
            TraceData::BusRegister { device } => (Data::BusRegister, Some(device)),
            TraceData::IommuMap {
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
            } => {
                let device = n(t, device);
                let perms = t.name(perms);
                (
                    Data::IommuMap {
                        device,
                        pasid: *pasid,
                        va: *va,
                        pa: *pa,
                        pages: *pages,
                        perms,
                    },
                    None,
                )
            }
            TraceData::IommuUnmap {
                device,
                pasid,
                va,
                pages,
            } => (
                Data::IommuUnmap {
                    device: n(t, device),
                    pasid: *pasid,
                    va: *va,
                    pages: *pages,
                },
                None,
            ),
            TraceData::MapFailure { error } => (Data::MapFailure, Some(error)),
            TraceData::DmaGrant {
                to,
                pages,
                writable,
            } => (
                Data::DmaGrant {
                    to: n(t, to),
                    pages: *pages,
                    writable: *writable,
                },
                None,
            ),
            TraceData::QueueDoorbell { to, value } => (
                Data::QueueDoorbell {
                    to: n(t, to),
                    value: *value,
                },
                None,
            ),
            TraceData::DeviceFault { device, detail } => (
                Data::DeviceFault {
                    device: n(t, device),
                },
                Some(detail),
            ),
            TraceData::SecurityDenial {
                device,
                check,
                detail,
            } => (
                Data::SecurityDenial {
                    device: n(t, device),
                    check,
                },
                Some(detail),
            ),
            TraceData::Stage { stage, id, aux } => (
                Data::Stage {
                    stage,
                    id: *id,
                    aux: *aux,
                },
                None,
            ),
            TraceData::LinkHop {
                src_machine,
                dst_machine,
                bytes,
                uplink_ns,
                spine_ns,
                downlink_ns,
            } => (
                Data::LinkHop {
                    src_machine: *src_machine as u16,
                    dst_machine: *dst_machine as u16,
                    bytes: *bytes,
                    uplink_ns: *uplink_ns,
                    spine_ns: *spine_ns,
                    downlink_ns: *downlink_ns,
                },
                None,
            ),
            TraceData::LinkEnter { port, bytes } => (
                Data::LinkEnter {
                    port: *port,
                    bytes: *bytes,
                },
                None,
            ),
            TraceData::LinkExit { port, bytes } => (
                Data::LinkExit {
                    port: *port,
                    bytes: *bytes,
                },
                None,
            ),
            TraceData::QueueAttached { conn, base, size } => (
                Data::QueueAttached {
                    conn: *conn,
                    base: *base,
                    size: *size,
                },
                None,
            ),
            TraceData::Text(s) => (Data::Text, Some(s)),
        };
        match text {
            Some(text) => t.emit_text(rec.at, source, rec.corr, data, text),
            None => t.emit_data(rec.at, source, rec.corr, data),
        }
    }

    /// Everything a reader of either sink sees, compared.
    fn same(plain: &Plain, oracle: &TraceSink) {
        assert_eq!(plain.snapshot_bytes(), oracle.snapshot_bytes());
        assert_eq!(plain.len(), oracle.len());
        assert_eq!(plain.total_emitted(), oracle.total_emitted());
        let lines = plain.events().map(|e| e.to_string());
        assert!(lines.eq(oracle.events().map(|e| e.to_string())));
        for needle in ["Query", "dev:3", "quoted", "line 1", "ü", " B)"] {
            let a = plain.containing(needle).map(|e| e.to_string());
            assert!(
                a.eq(oracle.containing(needle).map(|e| e.to_string())),
                "{needle}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random runs of emits over every variant, capacity changes both
        /// ways, clears and checkpoint round trips: after every step the
        /// plain sink reads and encodes as the old one does.
        fn plain_sink_matches_the_owned_sink(seeds in proptest::collection::vec(any::<u64>(), 1..160)) {
            let mut plain = Plain::bounded(8);
            let mut oracle = TraceSink::bounded(8);
            let mut at = 0;
            for seed in seeds {
                let mut rng = DetRng::new(seed);
                match rng.below(40) {
                    0..=2 => {
                        let capacity = rng.below(24) as usize;
                        plain.set_capacity(capacity);
                        oracle.set_capacity(capacity);
                    }
                    3 => {
                        plain.ring.clear();
                        plain.texts.clear();
                        oracle.clear();
                    }
                    4..=5 => {
                        let bytes = plain.snapshot_bytes();
                        let mut back = Plain::disabled();
                        back.restore(&mut SnapReader::new("trace", &bytes)).expect("restores");
                        plain = back;
                        let mut back = TraceSink::disabled();
                        back.restore(&mut SnapReader::new("trace", &bytes)).expect("restores");
                        oracle = back;
                    }
                    _ => {
                        let (rec, hows) = record(&mut rng, &mut at);
                        emit(&mut plain, &rec, &hows);
                        oracle.emit_data(rec.at, rec.source, rec.corr, rec.data);
                    }
                }
                same(&plain, &oracle);
            }
        }
    }

    /// 100,000 discovery queries with distinct patterns and 100,000 records
    /// naming forged ids leave the table at its bound and the FIFO at the
    /// ring's texts, and the section still reads as the old sink's.
    #[test]
    fn hostile_names_leave_the_table_bounded() {
        let mut plain = Plain::bounded(1024);
        let mut oracle = TraceSink::bounded(1024);
        let (bus, dst) = (plain.name("bus"), plain.name("Broadcast"));
        let (o_bus, o_dst): (Arc<str>, Arc<str>) = ("bus".into(), "Broadcast".into());
        for i in 0..100_000u64 {
            let at = SimTime::from_nanos(i);
            let pattern = format!("file:/hostile/{i}");
            let data = Data::Discovery {
                pattern: plain.name_or_text(&pattern),
                dst,
            };
            plain.emit_data(at, bus, CorrId(i), data);
            let data = TraceData::Discovery {
                pattern: pattern.into(),
                dst: o_dst.clone(),
            };
            oracle.emit_data(at, o_bus.clone(), CorrId(i), data);

            let forged = 1_000_000 + i;
            let source = plain.text_name(format!("dev:{forged}"));
            let data = Data::BusSend {
                what: "Heartbeat",
                dst: plain.text_name(format!("Device(dev:{forged})")),
            };
            plain.emit_data(at, source, CorrId(i), data);
            let data = TraceData::BusSend {
                what: "Heartbeat",
                dst: format!("Device(dev:{forged})").into(),
            };
            oracle.emit_data(at, format!("dev:{forged}").into(), CorrId(i), data);
            assert!(plain.names.len() <= MAX_NAMES);
        }
        assert_eq!(plain.names.len(), MAX_NAMES);
        assert!(plain.texts.len() <= 2 * 1024, "{}", plain.texts.len());
        assert!(plain.events().any(|e| e.data.kind() == "discovery"
            && matches!(e.data, Data::Discovery { pattern, .. } if pattern == Name::text(0))));
        assert_eq!(plain.snapshot_bytes(), oracle.snapshot_bytes());
        same(&plain, &oracle);
    }
}
