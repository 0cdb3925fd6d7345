//! Pooled payload buffers for the zero-alloc delivery path (DESIGN.md §13.1).
//!
//! The E12 profiler attributed ~92% of the system phase's residual
//! allocs/event to frame-delivery payload buffers: every request/response
//! hop materialized a fresh `Vec<u8>` (encode), cloned it through the switch
//! (route), and dropped it after decode. [`BufPool`] breaks that cycle with
//! a free-list of reusable byte buffers, and [`Bytes`] is the payload handle
//! that returns its storage to the pool on drop.
//!
//! Design rules that keep the simulator deterministic:
//!
//! - The free-list is LIFO (a stack), so buffer reuse order is a pure
//!   function of the take/return sequence — no address ordering, no
//!   timestamps.
//! - A pool is owned by one simulated machine and only touched from its
//!   (serialized) event execution, so the take/return sequence — and with
//!   it the *allocation count* observed by the E9 profiler — is identical
//!   across runs. A machine holds `Rc` metric handles and never leaves the
//!   thread that steps it, so the pool is `Rc` + `Cell` state and a
//!   [`Bytes`] is `!Send` with it.
//! - Unpooled `Bytes` (built from a plain `Vec<u8>`) behave identically on
//!   the wire: same bytes, same equality, same hashes. Pooling is a pure
//!   storage optimization — a differential test drives the same workload
//!   with pooling on and off and asserts byte-identical outputs.
//!
//! A pool counts its live buffers (taken and not yet returned) in every
//! build. It also counts every take: that count is the checkpointed
//! generation cursor.
//!
//! A checkpoint records which pool a payload's storage belongs to (its
//! owner: the machine's index in a rack, 0 alone), and a load hands each
//! such payload back to that pool ([`BufPool::loading`]), so a loaded
//! machine's pools return, recycle and count what they would have had the
//! run never stopped.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Default maximum number of idle buffers a pool retains.
const DEFAULT_MAX_FREE: usize = 1024;

/// Pool occupancy and traffic counters (observability only; never consulted
/// on the take/return path, so reading them cannot perturb determinism).
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolStats {
    /// Buffers handed out (pool hit or fresh allocation).
    pub taken: u64,
    /// Takes served from the free-list (no heap allocation).
    pub recycled: u64,
    /// Takes that had to allocate a fresh buffer.
    pub fresh: u64,
    /// Buffers returned to the free-list.
    pub returned: u64,
    /// Returns dropped on the floor because the free-list was full.
    pub shed: u64,
}

struct PoolCore {
    free: RefCell<Vec<Vec<u8>>>,
    /// Buffers taken and not yet returned.
    live: Cell<u64>,
    /// Which pool this is in a checkpoint: the owning machine's index in a
    /// rack, 0 for a machine alone.
    owner: Cell<u32>,
    max_free: usize,
    next_gen: Cell<u64>,
    stats: Cell<PoolStats>,
}

impl PoolCore {
    fn count(&self, f: impl FnOnce(&mut PoolStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn take(self: &Rc<Self>) -> Bytes {
        let buf = self.free.borrow_mut().pop();
        self.count(|s| {
            s.taken += 1;
            match buf {
                Some(_) => s.recycled += 1,
                None => s.fresh += 1,
            }
        });
        self.next_gen.set(self.next_gen.get() + 1);
        self.live.set(self.live.get() + 1);
        Bytes {
            buf: buf.unwrap_or_else(|| Vec::with_capacity(256)),
            origin: Some(Rc::clone(self)),
        }
    }

    /// A payload a load read whose storage belongs here: live until dropped,
    /// and no take.
    fn adopt(self: &Rc<Self>, buf: Vec<u8>) -> Bytes {
        self.live.set(self.live.get() + 1);
        Bytes {
            buf,
            origin: Some(Rc::clone(self)),
        }
    }

    fn put_back(&self, mut buf: Vec<u8>) {
        self.live.set(self.live.get() - 1);
        let mut free = self.free.borrow_mut();
        let keep = free.len() < self.max_free;
        if keep {
            buf.clear();
            free.push(buf);
        }
        self.count(|s| {
            s.returned += 1;
            s.shed += u64::from(!keep);
        });
    }
}

/// A free-list of reusable payload buffers.
///
/// Cloning the handle is cheap (`Rc`); all clones share one free-list.
#[derive(Clone)]
pub struct BufPool {
    core: Rc<PoolCore>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for BufPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BufPool(taken={}, recycled={}, fresh={}, idle={})",
            s.taken,
            s.recycled,
            s.fresh,
            self.idle()
        )
    }
}

impl BufPool {
    /// An empty pool retaining up to the default number of idle buffers.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAX_FREE)
    }

    /// An empty pool retaining up to `max_free` idle buffers.
    pub fn with_capacity(max_free: usize) -> Self {
        BufPool {
            core: Rc::new(PoolCore {
                free: RefCell::new(Vec::with_capacity(max_free.min(4096))),
                live: Cell::new(0),
                owner: Cell::new(0),
                max_free,
                next_gen: Cell::new(1),
                stats: Cell::default(),
            }),
        }
    }

    /// Takes an empty buffer (recycled when one is idle).
    pub fn take(&self) -> Bytes {
        self.core.take()
    }

    /// Takes a buffer filled with `len` copies of `byte`.
    pub fn take_filled(&self, byte: u8, len: usize) -> Bytes {
        let mut b = self.core.take();
        b.buf.resize(len, byte);
        b
    }

    /// Traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.core.stats.get()
    }

    /// Idle buffers currently on the free-list.
    pub fn idle(&self) -> usize {
        self.core.free.borrow().len()
    }

    /// One more than the takes over the pool's life (checkpoint cursor).
    pub fn next_generation(&self) -> u64 {
        self.core.next_gen.get()
    }

    /// Names this pool `owner` in checkpoints: a rack numbers each machine's
    /// pool by the machine's index.
    pub fn set_owner(&self, owner: u32) {
        self.core.owner.set(owner);
    }

    /// Runs `load` with `pools` as the pools a payload read from a checkpoint
    /// is handed back to, by owner. A payload whose owner none of them is
    /// gets a pool of its own with that owner, so it still snapshots as it
    /// was read.
    pub fn loading<T>(pools: &[BufPool], load: impl FnOnce() -> T) -> T {
        struct Installed(usize);
        impl Drop for Installed {
            fn drop(&mut self) {
                LOADING.with(|l| l.borrow_mut().truncate(self.0));
            }
        }
        let _installed = LOADING.with(|l| {
            let mut l = l.borrow_mut();
            let depth = l.len();
            l.extend(pools.iter().cloned());
            Installed(depth)
        });
        load()
    }

    /// Zeroes the traffic counters (sampled-measurement windows read deltas
    /// by resetting at window boundaries). The free-list, the live count
    /// and the generation cursor are untouched, so determinism is
    /// unaffected.
    pub fn reset_stats(&self) {
        self.core.stats.set(PoolStats::default());
    }
}

/// A payload byte buffer, possibly backed by a [`BufPool`].
///
/// Dereferences to `[u8]`; equality, ordering and hashing are by content, so
/// pooled and unpooled payloads are indistinguishable on the wire. Dropping
/// a pooled `Bytes` returns its storage to the owning pool.
pub struct Bytes {
    buf: Vec<u8>,
    origin: Option<Rc<PoolCore>>,
}

impl Bytes {
    /// The underlying `Vec`, for encoders that append in place.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Extracts the content as a `Vec<u8>`, allocating only if pooled (a
    /// pooled buffer cannot give up its storage without starving the pool).
    pub fn into_vec(mut self) -> Vec<u8> {
        if self.origin.is_some() {
            self.buf.clone()
        } else {
            std::mem::take(&mut self.buf)
        }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        if let Some(core) = self.origin.take() {
            core.put_back(std::mem::take(&mut self.buf));
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from(Vec::new())
    }
}

impl Clone for Bytes {
    /// Cloning a pooled buffer draws the copy's storage from the same pool
    /// (so broadcast fan-out recycles too); unpooled buffers clone plainly.
    fn clone(&self) -> Self {
        match &self.origin {
            Some(core) => {
                let mut b = core.take();
                b.buf.extend_from_slice(&self.buf);
                b
            }
            None => Bytes::from(self.buf.clone()),
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={}", self.buf.len())?;
        if self.origin.is_some() {
            write!(f, ", pooled")?;
        }
        write!(f, ")")
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(buf: Vec<u8>) -> Self {
        Bytes { buf, origin: None }
    }
}

thread_local! {
    /// The pools [`BufPool::loading`] installed on this thread.
    static LOADING: RefCell<Vec<BufPool>> = const { RefCell::new(Vec::new()) };
}

/// Marks a pooled payload: written before its owner and its bytes, where an
/// unpooled payload's length word is (a length is at most 2^40).
const POOLED: u64 = u64::MAX;

/// Length-prefixed, as `SnapWriter::put_bytes` writes it, after `u64::MAX`
/// and the owner when the storage is a pool's. A load hands a pooled
/// payload back to its pool (see [`BufPool::loading`]).
impl lastcpu_snap::Field for Bytes {
    fn put(&self, w: &mut lastcpu_snap::SnapWriter) {
        if let Some(core) = &self.origin {
            w.put_u64(POOLED);
            w.put_u32(core.owner.get());
        }
        w.put_bytes(self);
    }
    fn take(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        let word = r.u64()?;
        if word != POOLED {
            return Ok(Bytes::from(r.slice_of(word)?.to_vec()));
        }
        let owner = r.u32()?;
        let buf = r.slice()?.to_vec();
        let pool = LOADING.with(|l| {
            let l = l.borrow();
            l.iter().find(|p| p.core.owner.get() == owner).cloned()
        });
        let pool = pool.unwrap_or_else(|| {
            let own = BufPool::new();
            own.set_owner(owner);
            own
        });
        Ok(pool.core.adopt(buf))
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl Eq for Bytes {}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.buf.as_slice() == *other as &[u8]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.buf.as_slice() == other as &[u8]
    }
}

lastcpu_snap::record!(PoolStats {
    taken,
    recycled,
    fresh,
    returned,
    shed
});

lastcpu_snap::fields! { BufPool |self| { ..Counters } }

/// The counters, the free-list length and the generation cursor. Buffer
/// contents are deliberately excluded: recycled buffers are cleared on
/// return, so only the free-list *length* shapes future behavior (hit/miss
/// sequence) and the E9 allocation accounting.
struct Counters;

impl lastcpu_snap::Span<BufPool> for Counters {
    fn put(&self, pool: &BufPool, w: &mut lastcpu_snap::SnapWriter) {
        lastcpu_snap::Field::put(&(pool.stats(), pool.idle(), pool.next_generation()), w);
    }

    fn take(
        &self,
        pool: &mut BufPool,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<()> {
        let (stats, idle, next_gen): (PoolStats, usize, u64) = lastcpu_snap::Field::take(r)?;
        // The live count is not in the section: the payloads a load handed
        // back to this pool are its live buffers.
        let mut free = pool.core.free.borrow_mut();
        free.clear();
        free.resize_with(idle.min(pool.core.max_free), Vec::new);
        pool.core.stats.set(stats);
        pool.core.next_gen.set(next_gen);
        Ok(())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.buf.hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.buf.cmp(&other.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy(pool: &BufPool, src: &[u8]) -> Bytes {
        let mut b = pool.take();
        b.vec_mut().extend_from_slice(src);
        b
    }

    #[test]
    fn take_and_drop_recycles_storage() {
        let pool = BufPool::with_capacity(8);
        {
            let b = copy(&pool, b"hello");
            assert_eq!(&*b, b"hello");
            assert_eq!(pool.core.live.get(), 1);
        }
        assert_eq!(pool.idle(), 1);
        let b2 = pool.take();
        assert!(b2.is_empty(), "recycled buffer comes back cleared");
        let s = pool.stats();
        assert_eq!(s.taken, 2);
        assert_eq!(s.recycled, 1);
        assert_eq!(s.fresh, 1);
    }

    #[test]
    fn every_buffer_returns_exactly_once() {
        let pool = BufPool::with_capacity(64);
        let held: Vec<Bytes> = (0..32).map(|i| copy(&pool, &[i])).collect();
        assert_eq!(pool.core.live.get(), 32);
        drop(held);
        assert_eq!(pool.core.live.get(), 0);
        let s = pool.stats();
        assert_eq!(s.taken, 32);
        assert_eq!(s.returned, 32);
        assert_eq!(pool.idle(), 32);
        assert_eq!(pool.next_generation(), 33, "one step per take");
    }

    /// The live count is not a traffic counter: a window boundary between
    /// a take and its return does not move it.
    #[test]
    fn a_reset_between_take_and_return_keeps_the_live_count() {
        let pool = BufPool::new();
        let early = pool.take();
        pool.reset_stats();
        drop(early);
        assert_eq!(pool.core.live.get(), 0);
        assert_eq!(pool.stats().returned, 1);
        let late = pool.take();
        assert_eq!(pool.core.live.get(), 1);
        drop(late);
        assert_eq!(pool.core.live.get(), 0);
    }

    /// A payload read from a checkpoint goes back to the pool of its owner
    /// among those a load installed, or to a pool of its own with that
    /// owner; an unpooled one stays unpooled. Either way it snapshots as it
    /// was read, and the pool section's restore keeps the payloads a load
    /// handed back live.
    #[test]
    fn a_loaded_payload_goes_back_to_its_pool() {
        use lastcpu_snap::{Field, SnapReader, SnapWriter};
        let put = |b: &Bytes| {
            let mut w = SnapWriter::new();
            b.put(&mut w);
            w.into_bytes()
        };
        let take = |bytes: &[u8]| {
            let mut r = SnapReader::new("payload", bytes);
            let b = Bytes::take(&mut r).expect("reads");
            r.finish().expect("all of it");
            b
        };
        let origin = BufPool::new();
        origin.set_owner(3);
        let pooled = put(&copy(&origin, b"pooled"));
        let plain = put(&Bytes::from(b"plain".to_vec()));
        assert_eq!(
            plain.len(),
            8 + 5,
            "an unpooled payload is its length and bytes"
        );

        let (other, home) = (BufPool::new(), BufPool::new());
        home.set_owner(3);
        let section = lastcpu_snap::Span::bytes(&Counters, &home);
        let (loaded, unpooled) = BufPool::loading(&[other.clone(), home.clone()], || {
            (take(&pooled), take(&plain))
        });
        assert_eq!(&*loaded, b"pooled");
        assert_eq!((home.core.live.get(), other.core.live.get()), (1, 0));
        assert_eq!(home.stats().taken, 0, "handed back, not taken");
        let mut r = SnapReader::new("pool", &section);
        lastcpu_snap::Span::take(&Counters, &mut home.clone(), &mut r).expect("restores");
        assert_eq!(home.core.live.get(), 1, "the restore keeps it live");
        assert_eq!((put(&loaded), put(&unpooled)), (pooled.clone(), plain));
        drop(loaded);
        assert_eq!((home.stats().returned, home.idle()), (1, 1));

        let alone = take(&pooled);
        assert_eq!(put(&alone), pooled, "a pool of its own, with the owner");
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufPool::with_capacity(2);
        let bufs: Vec<Bytes> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().shed, 3);
    }

    #[test]
    fn clone_draws_from_the_same_pool() {
        let pool = BufPool::with_capacity(8);
        let b = copy(&pool, b"payload");
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(pool.core.live.get(), 2);
        assert_eq!(pool.stats().taken, 2);
        drop(b);
        drop(c);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pooled_and_unpooled_compare_equal() {
        let pool = BufPool::new();
        let pooled = copy(&pool, b"abc");
        let plain: Bytes = b"abc".to_vec().into();
        assert_eq!(pooled, plain);
        assert_eq!(pooled, b"abc");
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        pooled.hash(&mut h1);
        plain.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn into_vec_preserves_content() {
        let pool = BufPool::new();
        let pooled = copy(&pool, b"xyz");
        assert_eq!(pooled.into_vec(), b"xyz".to_vec());
        assert_eq!(pool.idle(), 1, "the storage went back");
        let plain: Bytes = b"xyz".to_vec().into();
        assert_eq!(plain.into_vec(), b"xyz".to_vec());
    }

    /// A filled take draws recycled storage and overwrites what it held.
    #[test]
    fn take_filled_reuses_a_recycled_buffer() {
        let pool = BufPool::new();
        drop(copy(&pool, b"old contents"));
        let b = pool.take_filled(7, 3);
        assert_eq!(&*b, [7, 7, 7]);
        let s = pool.stats();
        assert_eq!((s.taken, s.recycled, s.fresh), (2, 1, 1));
    }

    #[test]
    fn take_filled_matches_vec_macro() {
        let pool = BufPool::new();
        let b = pool.take_filled(0xCD, 16);
        assert_eq!(*b, *vec![0xCD; 16]);
    }
}
