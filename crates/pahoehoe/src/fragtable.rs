//! The per-version fragment table of a fragment server.
//!
//! An FS stores one or two sibling fragments per object version (§3.1),
//! each with the content hash recorded when it was durably stored. The
//! table keeps them as `(fragment, checksum)` pairs sorted by fragment
//! index in one exactly-sized allocation (none when empty). Fragments
//! already carry their index, so the table needs no separate keys; its
//! read API mirrors the `BTreeMap<FragmentIndex, Fragment>` it replaces
//! (`keys`, `values`, `iter`, `get`, `contains_key`, `len`, all in index
//! order), and a fragment can never be stored without its checksum.

use erasure::{Checksum, Fragment, FragmentIndex};

/// The fragments one FS holds for one object version, with their
/// recorded checksums, in fragment-index order.
#[derive(Clone, Debug, Default)]
pub struct FragTable {
    slots: Box<[(Fragment, Checksum)]>,
}

impl FragTable {
    /// The empty table (allocates nothing).
    pub fn new() -> Self {
        FragTable::default()
    }

    /// Number of fragments held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no fragment is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn position(&self, idx: FragmentIndex) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&idx, |(f, _)| f.index())
    }

    /// Whether fragment `idx` is held.
    pub fn contains_key(&self, idx: &FragmentIndex) -> bool {
        self.position(*idx).is_ok()
    }

    /// Fragment `idx`, if held.
    pub fn get(&self, idx: &FragmentIndex) -> Option<&Fragment> {
        self.get_with_checksum(idx).map(|(f, _)| f)
    }

    /// Fragment `idx` and the checksum recorded when it was stored.
    pub fn get_with_checksum(&self, idx: &FragmentIndex) -> Option<(&Fragment, &Checksum)> {
        let pos = self.position(*idx).ok()?;
        self.slots.get(pos).map(|(f, sum)| (f, sum))
    }

    /// Stores `fragment` with the checksum of its bytes unless a fragment
    /// with its index is already held (a duplicate store never replaces
    /// recorded bytes). Returns whether it was stored.
    pub fn insert(&mut self, fragment: Fragment) -> bool {
        let Err(pos) = self.position(fragment.index()) else {
            return false;
        };
        let checksum = Checksum::of(fragment.data());
        let mut slots = std::mem::take(&mut self.slots).into_vec();
        slots.reserve_exact(1);
        slots.insert(pos, (fragment, checksum));
        self.slots = slots.into_boxed_slice();
        true
    }

    /// Drops fragment `idx` and its checksum, returning the fragment.
    pub fn remove(&mut self, idx: &FragmentIndex) -> Option<Fragment> {
        let pos = self.position(*idx).ok()?;
        let mut slots = std::mem::take(&mut self.slots).into_vec();
        let (fragment, _) = slots.remove(pos);
        self.slots = slots.into_boxed_slice();
        Some(fragment)
    }

    /// Replaces fragment `idx`'s payload with `bytes` *without* touching
    /// its recorded checksum — bit rot, for fault injection. Returns
    /// `false` if the fragment is not held.
    pub fn overwrite_payload(&mut self, idx: FragmentIndex, bytes: Vec<u8>) -> bool {
        let slot = self
            .position(idx)
            .ok()
            .and_then(|pos| self.slots.get_mut(pos));
        let Some((frag, _)) = slot else {
            return false;
        };
        *frag = Fragment::new(idx, bytes);
        true
    }

    /// Held fragment indices, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &FragmentIndex> {
        self.slots.iter().map(|(f, _)| f.index_ref())
    }

    /// Held fragments, in index order.
    pub fn values(&self) -> impl Iterator<Item = &Fragment> {
        self.slots.iter().map(|(f, _)| f)
    }

    /// `(index, fragment)` pairs, in index order.
    pub fn iter(&self) -> Iter<'_> {
        fn pair((f, _): &(Fragment, Checksum)) -> (&FragmentIndex, &Fragment) {
            (f.index_ref(), f)
        }
        self.slots.iter().map(pair)
    }

    /// Held fragments with their recorded checksums, in index order.
    pub fn with_checksums(&self) -> impl Iterator<Item = (&Fragment, &Checksum)> {
        self.slots.iter().map(|(f, sum)| (f, sum))
    }
}

/// Iterator over a [`FragTable`]'s `(index, fragment)` pairs.
pub type Iter<'a> = std::iter::Map<
    std::slice::Iter<'a, (Fragment, Checksum)>,
    fn(&'a (Fragment, Checksum)) -> (&'a FragmentIndex, &'a Fragment),
>;

impl<'a> IntoIterator for &'a FragTable {
    type Item = (&'a FragmentIndex, &'a Fragment);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The layout the table replaced, kept as the differential oracle:
    /// two maps keyed by fragment index, kept in step by every write.
    #[derive(Default)]
    struct Oracle {
        fragments: BTreeMap<FragmentIndex, Fragment>,
        checksums: BTreeMap<FragmentIndex, Checksum>,
    }

    impl Oracle {
        fn insert(&mut self, fragment: Fragment) -> bool {
            let idx = fragment.index();
            if self.fragments.contains_key(&idx) {
                return false;
            }
            self.checksums.insert(idx, Checksum::of(fragment.data()));
            self.fragments.insert(idx, fragment);
            true
        }

        fn remove(&mut self, idx: FragmentIndex) -> Option<Fragment> {
            self.checksums.remove(&idx);
            self.fragments.remove(&idx)
        }
    }

    fn frag(idx: FragmentIndex, seed: u8, len: usize) -> Fragment {
        Fragment::new(idx, (0..len).map(|i| seed ^ (i as u8)).collect::<Vec<u8>>())
    }

    fn assert_same(table: &FragTable, oracle: &Oracle) {
        assert_eq!(table.len(), oracle.fragments.len());
        assert_eq!(table.is_empty(), oracle.fragments.is_empty());
        assert!(table.keys().eq(oracle.fragments.keys()));
        assert!(table.values().eq(oracle.fragments.values()));
        assert!(table.iter().eq(oracle.fragments.iter()));
        assert!(table.iter().rev().eq(oracle.fragments.iter().rev()));
        assert!(table
            .with_checksums()
            .map(|(f, sum)| (f.index(), *sum))
            .eq(oracle.checksums.iter().map(|(&i, &s)| (i, s))));
        for idx in 0..=u8::MAX {
            assert_eq!(
                table.contains_key(&idx),
                oracle.fragments.contains_key(&idx)
            );
            assert_eq!(table.get(&idx), oracle.fragments.get(&idx));
            assert_eq!(
                table.get_with_checksum(&idx),
                oracle.fragments.get(&idx).zip(oracle.checksums.get(&idx))
            );
        }
    }

    proptest! {
        /// Random insert/remove/overwrite sequences (indices drawn from a
        /// small range so duplicates and removals of absent indices are
        /// common) leave the table indistinguishable from the two-map
        /// layout on every read: `len`, `get`, `contains_key`, `keys`,
        /// `values`, `iter` and the recorded checksums.
        #[test]
        fn table_matches_the_two_map_oracle(
            ops in proptest::collection::vec((0u8..4, 0u8..20, any::<u8>(), 0usize..9), 1..80)
        ) {
            let mut table = FragTable::new();
            let mut oracle = Oracle::default();
            for (op, idx, seed, len) in ops {
                match op {
                    0 | 1 => {
                        let f = frag(idx, seed, len);
                        prop_assert_eq!(table.insert(f.clone()), oracle.insert(f));
                    }
                    2 => prop_assert_eq!(table.remove(&idx), oracle.remove(idx)),
                    _ => {
                        // Bit rot: new bytes under the old checksum.
                        let held = oracle.fragments.contains_key(&idx);
                        let bytes = vec![seed; len];
                        prop_assert_eq!(table.overwrite_payload(idx, bytes.clone()), held);
                        if held {
                            oracle.fragments.insert(idx, Fragment::new(idx, bytes));
                        }
                    }
                }
                assert_same(&table, &oracle);
            }
        }
    }

    #[test]
    fn storage_is_exactly_sized() {
        let mut t = FragTable::new();
        assert_eq!(t.slots.len(), 0);
        assert!(t.insert(frag(7, 1, 4)));
        assert!(t.insert(frag(2, 2, 4)));
        assert!(!t.insert(frag(7, 9, 4)), "duplicate keeps the first bytes");
        assert_eq!(t.slots.len(), 2);
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), vec![2, 7]);
        assert_eq!(t.get(&7), Some(&frag(7, 1, 4)));
        assert!(t.remove(&2).is_some());
        assert!(t.remove(&2).is_none());
        assert_eq!(t.slots.len(), 1);
    }

    #[test]
    fn overwrite_keeps_the_recorded_checksum() {
        let mut t = FragTable::new();
        t.insert(frag(3, 5, 8));
        let (_, before) = t
            .get_with_checksum(&3)
            .map(|(f, s)| (f.clone(), *s))
            .unwrap();
        assert!(t.overwrite_payload(3, vec![0; 8]));
        let (f, after) = t.get_with_checksum(&3).unwrap();
        assert_eq!(*after, before);
        assert!(!after.verify(f.data()), "the rotted bytes fail their hash");
        assert!(!t.overwrite_payload(4, vec![0; 8]), "absent index");
    }
}
