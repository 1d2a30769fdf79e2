//! Per-id tables for the passes over the term arena.
//!
//! [`TermId`]s and [`VarId`]s are dense arena indices, so a pass keeps its
//! per-term state in a table indexed by id instead of a hash map: a lookup
//! is two bounds checks, not a hash. A pass touches ids spread over the
//! whole arena (shared base terms near 0, the terms it builds near the top)
//! but few of the ids in between, so the table holds fixed-size pages and
//! allocates one only when an id in its range is bound.

use std::fmt;
use std::marker::PhantomData;

use crate::term::{TermId, VarId};

/// An id usable as an [`IdMap`] index.
pub(crate) trait DenseId: Copy {
    /// The id's position in the arena.
    fn index(self) -> usize;
    /// The id at position `i`.
    fn from_index(i: usize) -> Self;
}

impl DenseId for TermId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> Self {
        TermId(i as u32)
    }
}

impl DenseId for VarId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> Self {
        VarId(i as u32)
    }
}

/// Ids per page of an [`IdMap`].
const PAGE: usize = 64;

/// A map from dense ids to values: a page of [`PAGE`] slots for each range
/// of ids holding a binding, plus a count of the bound slots. Equality,
/// `len` and iteration see the bindings only, never the slot count.
#[derive(Clone)]
pub(crate) struct IdMap<K, V> {
    pages: Vec<Option<Box<[Option<V>; PAGE]>>>,
    len: usize,
    key: PhantomData<K>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            pages: Vec::new(),
            len: 0,
            key: PhantomData,
        }
    }
}

impl<K: DenseId, V> IdMap<K, V> {
    /// The value bound to `k`.
    pub(crate) fn get(&self, k: K) -> Option<&V> {
        let i = k.index();
        self.pages.get(i / PAGE)?.as_ref()?[i % PAGE].as_ref()
    }

    /// Bind `k` to `v`, returning the value it replaces.
    pub(crate) fn insert(&mut self, k: K, v: V) -> Option<V> {
        let i = k.index();
        if i / PAGE >= self.pages.len() {
            self.pages.resize_with(i / PAGE + 1, || None);
        }
        let page = self.pages[i / PAGE].get_or_insert_with(|| Box::new([const { None }; PAGE]));
        let old = page[i % PAGE].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Number of bound ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The bindings, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p * PAGE, page.as_deref()?)))
            .flat_map(|(first, page)| {
                page.iter()
                    .enumerate()
                    .filter_map(move |(j, v)| Some((K::from_index(first + j), v.as_ref()?)))
            })
    }
}

impl<K: DenseId, V: PartialEq> PartialEq for IdMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((a, x), (b, y))| a.index() == b.index() && x == y)
    }
}

impl<K: DenseId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_demand_and_counts_bindings() {
        let mut m: IdMap<TermId, u8> = IdMap::default();
        assert_eq!(m.get(TermId(5)), None);
        assert_eq!(m.insert(TermId(5), 1), None);
        assert_eq!(m.insert(TermId(2), 2), None);
        assert_eq!(m.insert(TermId(5), 3), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(TermId(5)), Some(&3));
        assert_eq!(m.get(TermId(3)), None);
        assert_eq!(m.get(TermId(99)), None);
        let bound: Vec<_> = m.iter().collect();
        assert_eq!(bound, vec![(TermId(2), &2), (TermId(5), &3)]);
    }

    /// Ids far apart take a page each, not a slot for every id between.
    #[test]
    fn allocates_pages_only_where_ids_are_bound() {
        let mut m: IdMap<TermId, u8> = IdMap::default();
        m.insert(TermId(3), 1);
        m.insert(TermId(100_000), 2);
        m.insert(TermId(100_001), 3);
        let allocated = m.pages.iter().filter(|p| p.is_some()).count();
        assert_eq!(allocated, 2);
        assert_eq!(m.get(TermId(100_001)), Some(&3));
        assert_eq!(m.get(TermId(50_000)), None);
        let bound: Vec<_> = m.iter().collect();
        assert_eq!(
            bound,
            vec![
                (TermId(3), &1),
                (TermId(100_000), &2),
                (TermId(100_001), &3)
            ]
        );
    }

    /// Two maps with the same bindings are equal however many slots each
    /// holds.
    #[test]
    fn equality_ignores_unbound_slots() {
        let mut short: IdMap<VarId, u8> = IdMap::default();
        short.insert(VarId(1), 7);
        let mut long: IdMap<VarId, u8> = IdMap {
            pages: vec![None, None, Some(Box::new([None; PAGE]))],
            len: 0,
            key: PhantomData,
        };
        assert_ne!(short, long);
        long.insert(VarId(1), 7);
        assert_eq!(short, long);
        assert_eq!(long.len(), 1);
        assert_eq!(format!("{long:?}"), "{VarId(1): 7}");
    }
}
