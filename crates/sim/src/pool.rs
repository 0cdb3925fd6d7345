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
//! Generation tags: every take stamps the handle with a fresh generation id
//! and records it in the pool's live set; the return path asserts the id is
//! still live and retires it. A double return (the use-after-recycle bug
//! class this guards) panics in tests instead of silently corrupting a
//! buffer another owner now holds.

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
    /// Live generation ids, kept only when tracking is enabled (tests).
    live: Option<RefCell<Vec<u64>>>,
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
        let gen = self.next_gen.get();
        self.next_gen.set(gen + 1);
        if let Some(live) = &self.live {
            live.borrow_mut().push(gen);
        }
        Bytes {
            buf: buf.unwrap_or_else(|| Vec::with_capacity(256)),
            origin: Some(Rc::clone(self)),
            gen,
        }
    }

    fn put_back(&self, mut buf: Vec<u8>, gen: u64) {
        if let Some(live) = &self.live {
            let mut live = live.borrow_mut();
            match live.iter().position(|&g| g == gen) {
                Some(i) => {
                    live.swap_remove(i);
                }
                None => panic!("pool buffer generation {gen} returned twice (use-after-recycle)"),
            }
        }
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
        Self::build(max_free, None)
    }

    fn build(max_free: usize, live: Option<RefCell<Vec<u64>>>) -> Self {
        BufPool {
            core: Rc::new(PoolCore {
                free: RefCell::new(Vec::with_capacity(max_free.min(4096))),
                live,
                max_free,
                next_gen: Cell::new(1),
                stats: Cell::default(),
            }),
        }
    }

    /// A pool that additionally tracks live generation ids and panics on a
    /// double return. Test-only instrumentation: tracking costs a search per
    /// return, so production pools leave it off.
    pub fn with_tracking(max_free: usize) -> Self {
        Self::build(max_free, Some(RefCell::default()))
    }

    /// Takes an empty buffer (recycled when one is idle).
    pub fn take(&self) -> Bytes {
        self.core.take()
    }

    /// Takes a buffer pre-filled with a copy of `src`.
    pub fn take_copy(&self, src: &[u8]) -> Bytes {
        let mut b = self.core.take();
        b.buf.extend_from_slice(src);
        b
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

    /// The next generation tag a take would stamp (checkpoint cursor).
    pub fn next_generation(&self) -> u64 {
        self.core.next_gen.get()
    }

    /// Zeroes the traffic counters (sampled-measurement windows read deltas
    /// by resetting at window boundaries). The free-list, live set, and
    /// generation cursor are untouched, so determinism is unaffected.
    pub fn reset_stats(&self) {
        self.core.stats.set(PoolStats::default());
    }

    /// Restores checkpointed pool state: traffic counters, the generation
    /// cursor, and the free-list *length* (`idle` cleared buffers — contents
    /// and capacities are not semantic: a recycled buffer is always cleared
    /// before reuse, so only how many takes hit the free-list matters).
    ///
    /// # Panics
    ///
    /// Panics if buffers are still outstanding — restoring under live
    /// handles would corrupt the generation cursor.
    pub fn restore_state(&self, stats: PoolStats, idle: usize, next_gen: u64) {
        if let Some(live) = &self.core.live {
            assert!(
                live.borrow().is_empty(),
                "BufPool::restore_state with outstanding buffers"
            );
        }
        let mut free = self.core.free.borrow_mut();
        free.clear();
        free.resize_with(idle.min(self.core.max_free), Vec::new);
        self.core.stats.set(stats);
        self.core.next_gen.set(next_gen);
    }

    /// Buffers handed out and not yet returned.
    pub fn outstanding(&self) -> u64 {
        let s = self.stats();
        s.taken - s.returned
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
    gen: u64,
}

impl Bytes {
    /// An empty, unpooled buffer.
    pub fn new() -> Self {
        Bytes {
            buf: Vec::new(),
            origin: None,
            gen: 0,
        }
    }

    /// The underlying `Vec`, for encoders that append in place.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Copies the content into a plain `Vec<u8>` (the storage stays pooled).
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
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

    /// Whether this buffer came from a pool.
    pub fn is_pooled(&self) -> bool {
        self.origin.is_some()
    }

    /// The generation tag stamped at take time (0 for unpooled buffers).
    pub fn generation(&self) -> u64 {
        self.gen
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        if let Some(core) = self.origin.take() {
            core.put_back(std::mem::take(&mut self.buf), self.gen);
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
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
            None => Bytes {
                buf: self.buf.clone(),
                origin: None,
                gen: 0,
            },
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={}", self.buf.len())?;
        if self.origin.is_some() {
            write!(f, ", pooled gen={}", self.gen)?;
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

impl std::ops::DerefMut for Bytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(buf: Vec<u8>) -> Self {
        Bytes {
            buf,
            origin: None,
            gen: 0,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
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

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.buf.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.buf.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.buf == other
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self == &other.buf
    }
}

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

impl lastcpu_snap::Snapshot for BufPool {
    /// Serializes counters, the free-list length, and the generation cursor.
    /// Buffer contents are deliberately excluded: recycled buffers are
    /// cleared on return, so only the free-list *length* shapes future
    /// behavior (hit/miss sequence) and the E9 allocation accounting.
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        let s = self.stats();
        w.put_u64(s.taken);
        w.put_u64(s.recycled);
        w.put_u64(s.fresh);
        w.put_u64(s.returned);
        w.put_u64(s.shed);
        w.put_len(self.idle());
        w.put_u64(self.next_generation());
    }
}

impl lastcpu_snap::Restore for BufPool {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let stats = PoolStats {
            taken: r.u64()?,
            recycled: r.u64()?,
            fresh: r.u64()?,
            returned: r.u64()?,
            shed: r.u64()?,
        };
        let idle = r.len()?;
        let next_gen = r.u64()?;
        self.restore_state(stats, idle, next_gen);
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

    #[test]
    fn take_and_drop_recycles_storage() {
        let pool = BufPool::with_capacity(8);
        {
            let mut b = pool.take();
            b.vec_mut().extend_from_slice(b"hello");
            assert!(b.is_pooled());
            assert_eq!(&*b, b"hello");
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
        let pool = BufPool::with_tracking(64);
        let mut held = Vec::new();
        for i in 0..32 {
            let mut b = pool.take();
            b.vec_mut().push(i as u8);
            held.push(b);
        }
        assert_eq!(pool.outstanding(), 32);
        held.clear();
        assert_eq!(pool.outstanding(), 0);
        let s = pool.stats();
        assert_eq!(s.taken, 32);
        assert_eq!(s.returned, 32);
        assert_eq!(pool.idle(), 32);
    }

    #[test]
    fn generation_tags_are_unique_per_take() {
        let pool = BufPool::with_tracking(4);
        let a = pool.take();
        let ga = a.generation();
        drop(a);
        let b = pool.take();
        assert_ne!(ga, b.generation(), "recycled storage gets a fresh tag");
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
        let b = pool.take_copy(b"payload");
        let c = b.clone();
        assert!(c.is_pooled());
        assert_eq!(b, c);
        assert_ne!(b.generation(), c.generation());
        drop(b);
        drop(c);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pooled_and_unpooled_compare_equal() {
        let pool = BufPool::new();
        let pooled = pool.take_copy(b"abc");
        let plain: Bytes = b"abc".to_vec().into();
        assert_eq!(pooled, plain);
        assert_eq!(pooled, b"abc");
        assert_eq!(pooled, b"abc".to_vec());
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
        let pooled = pool.take_copy(b"xyz");
        assert_eq!(pooled.into_vec(), b"xyz".to_vec());
        let plain: Bytes = b"xyz".to_vec().into();
        assert_eq!(plain.into_vec(), b"xyz".to_vec());
    }

    #[test]
    fn take_filled_matches_vec_macro() {
        let pool = BufPool::new();
        let b = pool.take_filled(0xCD, 16);
        assert_eq!(*b, *vec![0xCD; 16]);
    }

    #[test]
    #[should_panic(expected = "returned twice")]
    fn double_return_panics_under_tracking() {
        let pool = BufPool::with_tracking(8);
        let b = pool.take();
        let gen = b.generation();
        drop(b);
        // Forge a second return of the same generation.
        pool.core.put_back(Vec::new(), gen);
    }
}
