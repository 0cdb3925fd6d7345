//! One declaration per format (DESIGN.md §14.1).
//!
//! A component declares its section layout once, as an ordered field list
//! ([`fields!`](crate::fields)); an enum declares a `Variant = tag { .. }`
//! table ([`tags!`](crate::tags), [`variants!`](crate::variants)). The
//! macros derive the writer and the reader from that one list, so the two
//! cannot drift apart. Each field is written by the [`Field`] impl of its
//! type or, where the layout is not the type's own, by a [`Codec`] named at
//! the field; a codec's `put` sits next to its `take`, and a bound a reader
//! holds a field to is declared there, once.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use crate::{Restore, Result, SnapReader, SnapWriter, Snapshot};

/// A value with one encoding: `take` reads back exactly what `put` wrote,
/// and refuses (as [`SnapError::Corrupt`](crate::SnapError::Corrupt)) bytes
/// `put` never writes.
pub trait Field: Sized {
    fn put(&self, w: &mut SnapWriter);
    fn take(r: &mut SnapReader<'_>) -> Result<Self>;

    /// Writes the items of a slice, in order (a byte string in one copy).
    fn put_all(items: &[Self], w: &mut SnapWriter) {
        for x in items {
            x.put(w);
        }
    }

    /// Reads `n` items; `n` is already held to the bytes left.
    fn take_all(n: usize, r: &mut SnapReader<'_>) -> Result<Vec<Self>> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::take(r)?);
        }
        Ok(v)
    }
}

/// A field's encoding where it is not its type's own [`Field`] encoding: a
/// bound, a compressed body, a layout only this field has.
pub trait Codec<T> {
    fn put(&self, v: &T, w: &mut SnapWriter);
    fn take(&self, r: &mut SnapReader<'_>) -> Result<T>;
}

/// A stretch of a section that is not one field's: a layout that
/// interleaves several fields, or state the recipe builds. Named in a
/// [`fields!`](crate::fields) list as `..span`; `take` loads it in place.
pub trait Span<S> {
    fn put(&self, s: &S, w: &mut SnapWriter);
    fn take(&self, s: &mut S, r: &mut SnapReader<'_>) -> Result<()>;

    /// What `put` writes for `s`, as a section of its own.
    fn bytes(&self, s: &S) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.put(s, &mut w);
        w.into_bytes()
    }
}

macro_rules! scalar {
    ($($t:ty: $put:ident $take:ident),* $(,)?) => {$(
        impl Field for $t {
            #[inline]
            fn put(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            #[inline]
            fn take(r: &mut SnapReader<'_>) -> Result<Self> {
                r.$take()
            }
        }
    )*};
}

scalar!(u16: put_u16 u16, u32: put_u32 u32, u64: put_u64 u64, u128: put_u128 u128,
    i64: put_i64 i64, f64: put_f64 f64, bool: put_bool bool);

impl Field for u8 {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    #[inline]
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        r.u8()
    }
    fn put_all(items: &[u8], w: &mut SnapWriter) {
        w.put_raw(items);
    }
    fn take_all(n: usize, r: &mut SnapReader<'_>) -> Result<Vec<u8>> {
        Ok(r.take(n)?.to_vec())
    }
}

/// A length or an index: a `u64` on the wire, refused above 2^40.
impl Field for usize {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        w.put_len(*self);
    }
    #[inline]
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        r.len()
    }
}

impl Field for String {
    fn put(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        r.str().map(String::from)
    }
}

impl Field for Arc<str> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        Ok(r.str()?.into())
    }
}

/// What the `Arc` points to.
impl<T: Field> Field for Arc<T> {
    fn put(&self, w: &mut SnapWriter) {
        T::put(self, w);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        T::take(r).map(Arc::new)
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_opt(self.as_ref(), |w, v| v.put(w));
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        r.opt(T::take)
    }
}

/// A count, then the items. The count reserves, so it is read with
/// [`SnapReader::count`].
impl<T: Field> Field for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        T::put_all(self, w);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        let n = r.count()?;
        T::take_all(n, r)
    }
}

impl<T: Field> Field for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        self.iter().for_each(|x| x.put(w));
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        Ok(Vec::take(r)?.into())
    }
}

/// The items, no count: the length is the type's.
impl<T: Field, const N: usize> Field for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        self.iter().for_each(|x| x.put(w));
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        let v = T::take_all(N, r)?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("{N} items read")))
    }
}

macro_rules! tuple {
    ($($n:tt $t:ident),*) => {
        impl<$($t: Field),*> Field for ($($t,)*) {
            fn put(&self, w: &mut SnapWriter) {
                $(self.$n.put(w);)*
            }
            fn take(r: &mut SnapReader<'_>) -> Result<Self> {
                Ok(($($t::take(r)?,)*))
            }
        }
    };
}

tuple!(0 A, 1 B);
tuple!(0 A, 1 B, 2 C);
tuple!(0 A, 1 B, 2 C, 3 D);

/// Refuses a key that does not follow the one before it. Maps and sets are
/// written in ascending key order, so a repeated or out-of-order key is a
/// layout no writer makes, and would restore into state whose next
/// snapshot differs.
pub fn ascending<K: Ord>(r: &SnapReader<'_>, last: Option<&K>, key: &K) -> Result<()> {
    match last {
        Some(last) if last >= key => Err(r.corrupt("keys not sorted: one repeats or goes back")),
        _ => Ok(()),
    }
}

/// Reads a count, then that many items, each held to [`ascending`] by its
/// key.
pub fn take_sorted<T, K: Ord, C: Default + Extend<T>>(
    r: &mut SnapReader<'_>,
    mut item: impl FnMut(&mut SnapReader<'_>) -> Result<T>,
    key: impl Fn(&T) -> K,
) -> Result<C> {
    let mut out = C::default();
    let mut last = None;
    for _ in 0..r.len()? {
        let x = item(r)?;
        let k = key(&x);
        ascending(r, last.as_ref(), &k)?;
        last = Some(k);
        out.extend(Some(x));
    }
    Ok(out)
}

fn entry<K: Field, V: Field>(r: &mut SnapReader<'_>) -> Result<(K, V)> {
    Ok((K::take(r)?, V::take(r)?))
}

impl<T: Field + Ord + Clone> Field for BTreeSet<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        self.iter().for_each(|x| x.put(w));
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        take_sorted(r, T::take, T::clone)
    }
}

impl<K: Field + Ord + Clone, V: Field> Field for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        take_sorted(r, entry, |(k, _): &(K, V)| k.clone())
    }
}

/// A hash map is written as the [`BTreeMap`] of its entries: in key order.
impl<K, V, S> Field for HashMap<K, V, S>
where
    K: Field + Ord + Hash + Clone,
    V: Field,
    S: BuildHasher + Default,
{
    fn put(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_len(entries.len());
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        take_sorted(r, entry, |(k, _): &(K, V)| k.clone())
    }
}

/// A hash set is written as the [`BTreeSet`] of its items.
impl<T, S> Field for HashSet<T, S>
where
    T: Field + Ord + Hash + Clone,
    S: BuildHasher + Default,
{
    fn put(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        w.put_len(items.len());
        items.into_iter().for_each(|x| x.put(w));
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self> {
        take_sorted(r, T::take, T::clone)
    }
}

/// A hash map whose values carry their own key (`.0` reads it): written as
/// its values in key order.
pub struct Keyed<F>(pub F);

impl<K, V, S, F> Codec<HashMap<K, V, S>> for Keyed<F>
where
    K: Ord + Hash + Clone,
    V: Field,
    S: BuildHasher + Default,
    F: Fn(&V) -> K,
{
    fn put(&self, map: &HashMap<K, V, S>, w: &mut SnapWriter) {
        let mut values: Vec<&V> = map.values().collect();
        values.sort_unstable_by_key(|v| (self.0)(v));
        w.put_len(values.len());
        values.into_iter().for_each(|v| v.put(w));
    }
    fn take(&self, r: &mut SnapReader<'_>) -> Result<HashMap<K, V, S>> {
        let item = |r: &mut SnapReader<'_>| V::take(r).map(|v| ((self.0)(&v), v));
        take_sorted(r, item, |(k, _): &(K, V)| k.clone())
    }
}

/// Pairs in strictly ascending key order: a map kept as a sorted list.
pub struct Sorted;

impl<K: Field + Ord + Clone, V: Field> Codec<Vec<(K, V)>> for Sorted {
    fn put(&self, v: &Vec<(K, V)>, w: &mut SnapWriter) {
        v.put(w);
    }
    fn take(&self, r: &mut SnapReader<'_>) -> Result<Vec<(K, V)>> {
        take_sorted(r, entry, |(k, _): &(K, V)| k.clone())
    }
}

/// A collection of at most `.0` items: the bound the data sets (a capacity
/// restored just before it, a unit's own size), never what the allocator
/// grants. `.1` is the refusal.
pub struct Max(pub usize, pub &'static str);

/// How many items a collection holds, for [`Max`].
pub trait Count {
    fn count(&self) -> usize;
}

impl<T: Field + Count> Codec<T> for Max {
    fn put(&self, v: &T, w: &mut SnapWriter) {
        v.put(w);
    }
    fn take(&self, r: &mut SnapReader<'_>) -> Result<T> {
        let v = T::take(r)?;
        if v.count() > self.0 {
            return Err(r.corrupt(self.1));
        }
        Ok(v)
    }
}

/// A value the recipe builds: written as `.1` gives it for the state, and
/// on read held to what `.1` gives for the state read into (one built from
/// the same recipe); another value is refused as corrupt, naming `.0`.
/// Named in a [`fields!`](crate::fields) list as `..Derived(name, getter)`.
pub struct Derived<F>(pub &'static str, pub F);

impl<S, T, F> Span<S> for Derived<F>
where
    F: Fn(&S) -> T,
    T: Field + PartialEq,
{
    fn put(&self, s: &S, w: &mut SnapWriter) {
        (self.1)(s).put(w);
    }

    fn take(&self, s: &mut S, r: &mut SnapReader<'_>) -> Result<()> {
        if T::take(r)? != (self.1)(s) {
            return Err(r.corrupt(format!("{}: not the recipe's", self.0)));
        }
        Ok(())
    }
}

/// Items that keep their places, each written and restored in place by its
/// own [`Snapshot`] and [`Restore`], with no count: a list whose length the
/// recipe sets. Named in a [`fields!`](crate::fields) list as
/// `field: ..Each`.
pub struct Each;

impl<T: Snapshot + Restore> Span<Vec<T>> for Each {
    fn put(&self, items: &Vec<T>, w: &mut SnapWriter) {
        items.iter().for_each(|x| x.snapshot(w));
    }

    fn take(&self, items: &mut Vec<T>, r: &mut SnapReader<'_>) -> Result<()> {
        items.iter_mut().try_for_each(|x| x.restore(r))
    }
}

impl<T> Count for Vec<T> {
    fn count(&self) -> usize {
        self.len()
    }
}

impl<K, V, S> Count for HashMap<K, V, S> {
    fn count(&self) -> usize {
        self.len()
    }
}

/// Declares a struct's section layout: its fields in wire order. A field is
/// written by its type's [`Field`] impl, or by the [`Codec`] after a colon;
/// `mut field` is a component restored in place through its own
/// [`Restore`](crate::Restore), so its configuration survives; `..span` is
/// a [`Span`] of the struct and `field: ..span` one of the field. Derives
/// [`Snapshot`](crate::Snapshot) from `&self` and
/// [`Restore`](crate::Restore) as `self.f = take(r)?` per field, in order,
/// then the optional `restored` block (`restored |r| { .. }` names the
/// reader, for a refusal). With `(expr)` before the list, the type is also
/// a [`Field`], taken by restoring into `expr`.
///
/// `Name for Type |t| { .. }` (after `<A, ..>` for a generic type) derives
/// the two as the [`Span`] `Name` of `Type` instead, its paths taken from
/// `t`: a section that is part of its owner's state, declared without
/// giving the owner a `Snapshot` of its own.
///
/// ```
/// # use lastcpu_snap::{Max, Restore, Snapshot};
/// struct Log { cap: usize, records: Vec<u64>, seen: u64 }
/// lastcpu_snap::fields! { Log |self| { cap, records: Max(self.cap, "too many"), seen } }
/// let a = Log { cap: 4, records: vec![1, 2], seen: 9 };
/// let mut b = Log { cap: 0, records: vec![], seen: 0 };
/// b.restore_bytes("log", &a.snapshot_bytes()).unwrap();
/// assert_eq!(b.snapshot_bytes(), a.snapshot_bytes());
/// ```
#[macro_export]
macro_rules! fields {
    ($(<$($g:ident),*>)? $span:ident for $ty:ty |$s:ident| { $($list:tt)* }
        $(restored $(|$rr:ident|)? $after:block)?) => {
        impl$(<$($g),*>)? $crate::Span<$ty> for $span {
            fn put(&self, $s: &$ty, w: &mut $crate::SnapWriter) {
                $crate::fields!(@put $s w $($list)*);
            }
            fn take(
                &self,
                $s: &mut $ty,
                r: &mut $crate::SnapReader<'_>,
            ) -> $crate::Result<()> {
                $crate::fields!(@take $s r $($list)*);
                $($(let $rr = &mut *r;)? $after)?
                Ok(())
            }
        }
    };
    ($ty:ty |$s:tt| $(($blank:expr))? { $($list:tt)* }
        $(restored $(|$rr:ident|)? $after:block)?) => {
        impl $crate::Snapshot for $ty {
            fn snapshot(&$s, w: &mut $crate::SnapWriter) {
                $crate::fields!(@put $s w $($list)*);
            }
        }
        impl $crate::Restore for $ty {
            fn restore(&mut $s, r: &mut $crate::SnapReader<'_>) -> $crate::Result<()> {
                $crate::fields!(@take $s r $($list)*);
                $($(let $rr = &mut *r;)? $after)?
                Ok(())
            }
        }
        $(impl $crate::Field for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                $crate::Snapshot::snapshot(self, w)
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> $crate::Result<Self> {
                let mut v = $blank;
                $crate::Restore::restore(&mut v, r)?;
                Ok(v)
            }
        })?
    };
    (@put $s:tt $w:ident) => {};
    (@put $s:tt $w:ident ..$c:expr $(, $($rest:tt)*)?) => {
        $crate::Span::put(&$c, $s, $w);
        $crate::fields!(@put $s $w $($($rest)*)?);
    };
    (@put $s:tt $w:ident $($f:ident).+ : ..$c:expr $(, $($rest:tt)*)?) => {
        $crate::Span::put(&$c, &$s.$($f).+, $w);
        $crate::fields!(@put $s $w $($($rest)*)?);
    };
    (@put $s:tt $w:ident mut $($f:ident).+ $(, $($rest:tt)*)?) => {
        $crate::Snapshot::snapshot(&$s.$($f).+, $w);
        $crate::fields!(@put $s $w $($($rest)*)?);
    };
    (@put $s:tt $w:ident $($f:ident).+ : $c:expr $(, $($rest:tt)*)?) => {
        $crate::Codec::put(&$c, &$s.$($f).+, $w);
        $crate::fields!(@put $s $w $($($rest)*)?);
    };
    (@put $s:tt $w:ident $($f:ident).+ $(, $($rest:tt)*)?) => {
        $crate::Field::put(&$s.$($f).+, $w);
        $crate::fields!(@put $s $w $($($rest)*)?);
    };
    (@take $s:tt $r:ident) => {};
    (@take $s:tt $r:ident ..$c:expr $(, $($rest:tt)*)?) => {
        $crate::Span::take(&$c, $s, $r)?;
        $crate::fields!(@take $s $r $($($rest)*)?);
    };
    (@take $s:tt $r:ident $($f:ident).+ : ..$c:expr $(, $($rest:tt)*)?) => {
        $crate::Span::take(&$c, &mut $s.$($f).+, $r)?;
        $crate::fields!(@take $s $r $($($rest)*)?);
    };
    (@take $s:tt $r:ident mut $($f:ident).+ $(, $($rest:tt)*)?) => {
        $crate::Restore::restore(&mut $s.$($f).+, $r)?;
        $crate::fields!(@take $s $r $($($rest)*)?);
    };
    (@take $s:tt $r:ident $($f:ident).+ : $c:expr $(, $($rest:tt)*)?) => {
        $s.$($f).+ = $crate::Codec::take(&$c, $r)?;
        $crate::fields!(@take $s $r $($($rest)*)?);
    };
    (@take $s:tt $r:ident $($f:ident).+ $(, $($rest:tt)*)?) => {
        $s.$($f).+ = $crate::Field::take($r)?;
        $crate::fields!(@take $s $r $($($rest)*)?);
    };
}

/// Declares a struct that is a plain value: its fields in wire order, each
/// its type's [`Field`]. Derives [`Field`], built by a struct literal. A
/// field given `= expr` is not in the layout, and a reader sets it to
/// `expr`. With a leading `wire path::to::wire;` it derives that module's
/// `Wire` codec instead, as [`variants!`](crate::variants) does, and a
/// field may name a `Codec` (`data as Rest`).
#[macro_export]
macro_rules! record {
    (wire $($m:ident)::+; $ty:ident<$lt:lifetime> $fields:tt) => {
        $crate::record!(@wire [$($m)::+] $lt, $ty<$lt>, $ty $fields);
    };
    (wire $($m:ident)::+; $ty:ident $fields:tt) => {
        $crate::record!(@wire [$($m)::+] 'w, $ty, $ty $fields);
    };
    (@wire [$($m:ident)::+] $lt:lifetime, $t:ty, $ty:ident
        { $($f:ident $(as $c:expr)?),* $(,)? }) => {
        const _: () = {
            use $($m)::+ as __w;
            impl<$lt> __w::Wire<$lt> for $t {
                #[inline]
                fn put(&self, w: &mut __w::WireWriter) {
                    $($crate::variants!(@put w (&self.$f) $($c)?);)*
                }
                #[inline]
                fn take(
                    r: &mut __w::WireReader<$lt>,
                ) -> ::std::result::Result<Self, __w::WireError> {
                    Ok($ty { $($f: $crate::variants!(@take r $($c)?)),* })
                }
                #[inline]
                fn encoded_len(&self) -> usize {
                    0 $(+ $crate::variants!(@len (&self.$f) $($c)?))*
                }
            }
        };
    };
    ($ty:ident { $($f:ident $(= $d:expr)?),* $(,)? }) => {
        impl $crate::Field for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                $($crate::record!(@put w (&self.$f) $(= $d)?);)*
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> $crate::Result<Self> {
                Ok($ty { $($f: $crate::record!(@take r $(= $d)?)),* })
            }
        }
    };
    (@put $w:ident ($v:expr)) => { $crate::Field::put($v, $w) };
    (@put $w:ident ($v:expr) = $d:expr) => {};
    (@take $r:ident) => { $crate::Field::take($r)? };
    (@take $r:ident = $d:expr) => { $d };
}

/// Declares newtypes over one [`Field`], each written as its inner value.
#[macro_export]
macro_rules! newtypes {
    ($($ty:ident),* $(,)?) => {$(
        impl $crate::Field for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                $crate::Field::put(&self.0, w)
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> $crate::Result<Self> {
                Ok($ty($crate::Field::take(r)?))
            }
        }
    )*};
}

/// Declares the one tag table of a fieldless enum: `Variant = tag`.
/// Derives `tag()`, `from_tag()` and a [`Field`] that refuses an unknown
/// tag; a wire codec reads the same table through `from_tag`.
#[macro_export]
macro_rules! tags {
    ($ty:ident { $($v:ident = $tag:literal),* $(,)? }) => {
        impl $ty {
            /// This value's tag, on the wire and in checkpoints.
            pub fn tag(self) -> u8 {
                match self { $($ty::$v => $tag),* }
            }

            /// The value `tag` stands for, if any.
            pub fn from_tag(tag: u8) -> Option<Self> {
                match tag { $($tag => Some($ty::$v),)* _ => None }
            }
        }
        impl $crate::Field for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                w.put_u8(self.tag())
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> $crate::Result<Self> {
                let t = r.u8()?;
                Self::from_tag(t).ok_or_else(|| r.bad_tag(stringify!($ty), t))
            }
        }
    };
}

/// Declares the layout of an enum with data: `Variant = tag { fields }`, a
/// tuple variant's fields by position (`Failed = 5 { 0: status }`), a unit
/// variant's braces empty. Derives a [`Field`].
///
/// With a leading `wire path::to::wire;` it derives that module's `Wire`
/// codec instead (a `put`, a `take` and an analytic `encoded_len`; the
/// module's trait frames whole messages from them), for a protocol whose
/// primitives are not a checkpoint's. The enum may borrow from the input
/// (`KvsRequestRef<'a>`), a field may name a `Codec` (`epoch as Varint`),
/// and `magic(EXPR)` before the table puts a fixed value ahead of the tag
/// that the reader refuses to see otherwise.
#[macro_export]
macro_rules! variants {
    (wire $($m:ident)::+; $ty:ident<$lt:lifetime> $($rest:tt)*) => {
        $crate::variants!(@wire [$($m)::+] $lt, $ty<$lt>, $ty $($rest)*);
    };
    (wire $($m:ident)::+; $ty:ident $($rest:tt)*) => {
        $crate::variants!(@wire [$($m)::+] 'w, $ty, $ty $($rest)*);
    };
    (@wire [$($m:ident)::+] $lt:lifetime, $t:ty, $ty:ident $(magic($pre:expr))?
        { $($v:ident = $tag:literal { $($f:tt $(: $b:ident)? $(as $c:expr)?),* }),* $(,)? }) => {
        const _: () = {
            use $($m)::+ as __w;
            impl<$lt> __w::Wire<$lt> for $t {
                #[inline]
                fn put(&self, w: &mut __w::WireWriter) {
                    $(__w::Wire::put(&$pre, w);)?
                    match self {$(
                        $ty::$v { $($f $(: $b)?),* } => {
                            w.u8($tag);
                            $($crate::variants!(@put w ($crate::variants!(@bind $f $($b)?)) $($c)?);)*
                        }
                    )*}
                }
                #[inline]
                fn take(
                    r: &mut __w::WireReader<$lt>,
                ) -> ::std::result::Result<Self, __w::WireError> {
                    $(r.expect_value($pre, concat!(stringify!($ty), ".magic"))?;)?
                    let t = r.u8()?;
                    Ok(match t {
                        $($tag => $ty::$v { $($f: $crate::variants!(@take r $($c)?)),* },)*
                        _ => return Err(r.bad_tag(stringify!($ty), t)),
                    })
                }
                #[inline]
                fn encoded_len(&self) -> usize {
                    $(__w::Wire::encoded_len(&$pre) +)? match self {$(
                        $ty::$v { $($f $(: $b)?),* } => {
                            1 $(+ $crate::variants!(@len ($crate::variants!(@bind $f $($b)?)) $($c)?))*
                        }
                    )*}
                }
            }
        };
    };
    (@put $w:ident ($v:expr)) => { __w::Wire::put($v, $w) };
    (@put $w:ident ($v:expr) $c:expr) => { __w::Codec::put(&$c, $v, $w) };
    (@take $r:ident) => { __w::Wire::take($r)? };
    (@take $r:ident $c:expr) => { __w::Codec::take(&$c, $r)? };
    (@len ($v:expr)) => { __w::Wire::encoded_len($v) };
    (@len ($v:expr) $c:expr) => { __w::Codec::encoded_len(&$c, $v) };
    ($ty:ident { $($v:ident = $tag:literal { $($f:tt $(: $b:ident)?),* }),* $(,)? }) => {
        impl $crate::Field for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                match self {$(
                    $ty::$v { $($f $(: $b)?),* } => {
                        w.put_u8($tag);
                        $($crate::Field::put($crate::variants!(@bind $f $($b)?), w);)*
                    }
                )*}
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> $crate::Result<Self> {
                let t = r.u8()?;
                Ok(match t {
                    $($tag => $ty::$v { $($f: $crate::Field::take(r)?),* },)*
                    _ => return Err(r.bad_tag(stringify!($ty), t)),
                })
            }
        }
    };
    (@bind $f:tt) => { $f };
    (@bind $f:tt $b:ident) => { $b };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bytes a reader of `T` may take: small little-endian counts (so that
    /// collections, strings and options have a chance to parse) mixed with
    /// small bytes and arbitrary ones.
    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((any::<bool>(), any::<u8>()), 0..64).prop_map(|parts| {
            let mut out = Vec::new();
            for (count, b) in parts {
                match count {
                    true => out.extend_from_slice(&u64::from(b % 4).to_le_bytes()),
                    false if b & 0x80 != 0 => out.push(b),
                    false => out.push(b % 8),
                }
            }
            out
        })
    }

    /// Whatever `take` accepts, `put` writes back byte for byte: the bytes
    /// it consumed, no more and no other.
    fn canonical<T>(
        bytes: &[u8],
        take: impl Fn(&mut SnapReader<'_>) -> Result<T>,
        put: impl Fn(&T, &mut SnapWriter),
    ) {
        let mut r = SnapReader::new("codec", bytes);
        if let Ok(v) = take(&mut r) {
            let used = bytes.len() - r.remaining();
            let mut w = SnapWriter::new();
            put(&v, &mut w);
            assert_eq!(w.into_bytes(), bytes[..used], "{bytes:?}");
        }
    }

    fn field<T: Field>(bytes: &[u8]) {
        canonical(bytes, T::take, T::put);
    }

    fn codec<T>(bytes: &[u8], c: impl Codec<T>) {
        canonical(bytes, |r| c.take(r), |v, w| c.put(v, w));
    }

    type DetMap<K, V> =
        HashMap<K, V, std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>>;
    type DetSet<T> =
        HashSet<T, std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>>;

    struct Part {
        n: u32,
    }
    crate::fields! { Part |self| { n } }

    struct Whole {
        clock: u64,
        parts: Vec<Part>,
    }

    struct Own;
    crate::fields! { Own for Whole |s| { ..Derived("clock", |s: &Whole| s.clock), parts: ..Each } }

    fn whole(clock: u64, ns: &[u32]) -> Whole {
        let parts = ns.iter().map(|&n| Part { n }).collect();
        Whole { clock, parts }
    }

    #[test]
    fn a_declared_span_checks_what_replay_rebuilds_and_loads_the_rest() {
        let bytes = Own.bytes(&whole(9, &[1, 2]));
        assert_eq!(
            bytes.len(),
            8 + 4 + 4,
            "the clock, then each part, no count"
        );
        let mut into = whole(9, &[0, 0]);
        let mut r = SnapReader::new("whole", &bytes);
        Own.take(&mut into, &mut r).expect("the same clock");
        r.finish().expect("all of it");
        assert_eq!(Own.bytes(&into), bytes);
        let mut r = SnapReader::new("whole", &bytes);
        let err = Own
            .take(&mut whole(8, &[0, 0]), &mut r)
            .expect_err("another clock");
        assert!(
            matches!(&err, crate::SnapError::Corrupt { detail, .. } if detail.starts_with("clock")),
            "{err}"
        );
    }

    #[derive(Debug, PartialEq)]
    struct Tagged {
        a: u8,
        b: u8,
    }
    crate::record!(Tagged { a, b = 7 });

    #[test]
    fn a_record_field_given_a_value_is_not_in_the_layout() {
        let mut w = SnapWriter::new();
        Tagged { a: 1, b: 2 }.put(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [1]);
        let mut r = SnapReader::new("tagged", &bytes);
        assert_eq!(Tagged::take(&mut r).expect("reads"), Tagged { a: 1, b: 7 });
    }

    proptest! {
        fn every_field_codec_puts_back_what_it_took(bytes in bytes()) {
            field::<u8>(&bytes);
            field::<u16>(&bytes);
            field::<u32>(&bytes);
            field::<u64>(&bytes);
            field::<u128>(&bytes);
            field::<i64>(&bytes);
            field::<f64>(&bytes);
            field::<bool>(&bytes);
            field::<usize>(&bytes);
            field::<String>(&bytes);
            field::<Arc<str>>(&bytes);
            field::<Option<u16>>(&bytes);
            field::<Vec<u8>>(&bytes);
            field::<Vec<(u8, bool)>>(&bytes);
            field::<VecDeque<u16>>(&bytes);
            field::<[u8; 3]>(&bytes);
            field::<(u8, u16, u32)>(&bytes);
            field::<(u8, u8, u8, u8)>(&bytes);
            field::<BTreeSet<u8>>(&bytes);
            field::<BTreeMap<u8, Option<u8>>>(&bytes);
            field::<DetMap<u8, u8>>(&bytes);
            field::<DetSet<u16>>(&bytes);
            codec::<Vec<u8>>(&bytes, Max(2, "too many"));
            codec::<Vec<(u8, u8)>>(&bytes, Sorted);
            codec::<DetMap<u8, (u8, u8)>>(&bytes, Keyed(|v: &(u8, u8)| v.0));
        }
    }
}
