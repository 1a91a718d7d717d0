//! Object-version metadata: policy plus fragment locations.

use std::collections::BTreeMap;
use std::sync::Arc;

use erasure::FragmentIndex;
use simnet::NodeId;

use crate::policy::Policy;
use crate::topology::DataCenterId;
use crate::types::Timestamp;

/// A fragment location: a fragment server plus a disk on that server
/// (§3.5: "a location actually identifies both an FS and a disk on that FS
/// so that multiple sibling fragments may be collocated on the same FS").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Location {
    /// The fragment server.
    pub fs: NodeId,
    /// Disk index on that server.
    pub disk: u8,
}

/// The metadata a KLS stores per object version and a proxy assembles
/// during a put: the durability policy and the decided fragment locations.
///
/// Locations are decided **per data center** (a whole DC's worth at a
/// time, by the first KLS of that DC to answer) and are immutable once
/// decided — merging is a per-DC first-writer-wins join, which is
/// commutative, associative and idempotent because every KLS in a DC
/// computes the same deterministic placement for a given object version
/// (see [`crate::kls`]). The fragment index of a location is derived from
/// its DC's slot and its position within the DC's list, so all servers
/// agree on which fragment lives where.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Metadata {
    policy: Policy,
    home_dc: DataCenterId,
    value_len: u32,
    locs: BTreeMap<DataCenterId, Vec<Location>>,
    /// Delta-coded versions record the timestamp of the base version whose
    /// stripe the proxy XOR-deltaed against (same key, same length). `None`
    /// for fully encoded versions — the only shape the default protocol
    /// produces, which keeps its wire sizes (and digests) unchanged.
    delta_base: Option<Timestamp>,
}

impl Metadata {
    /// Creates metadata with no locations decided yet.
    pub fn new(policy: Policy, home_dc: DataCenterId, value_len: usize) -> Self {
        Metadata {
            policy,
            home_dc,
            value_len: u32::try_from(value_len).expect("values larger than 4 GiB are out of scope"),
            locs: BTreeMap::new(),
            delta_base: None,
        }
    }

    /// Tags this version as an XOR-delta against `base` (the previous
    /// version of the same key, same value length). Fragment servers use
    /// the tag to pick the resolution base for incoming windowed fragments.
    pub fn set_delta_base(&mut self, base: Timestamp) {
        self.delta_base = Some(base);
    }

    /// The base version this metadata's fragments are deltas against, if
    /// the version was delta-coded.
    pub fn delta_base(&self) -> Option<Timestamp> {
        self.delta_base
    }

    /// The durability policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The home data center (slot 0; holds the data fragments).
    pub fn home_dc(&self) -> DataCenterId {
        self.home_dc
    }

    /// Original value length in bytes (needed to size fragments for
    /// decode and recovery).
    pub fn value_len(&self) -> usize {
        self.value_len as usize
    }

    /// Adds the decided locations for one data center. Returns `true` if
    /// this DC had no locations yet (first writer wins; a second,
    /// identical decision is a no-op and a conflicting one is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the list length differs from the policy's per-DC count.
    pub fn add_dc_locations(&mut self, dc: DataCenterId, locations: Vec<Location>) -> bool {
        assert_eq!(
            locations.len(),
            self.policy.frags_per_dc as usize,
            "a DC decision must cover the full per-DC fragment count"
        );
        if self.locs.contains_key(&dc) {
            return false;
        }
        self.locs.insert(dc, locations);
        true
    }

    /// Merges locations from another metadata for the same object version.
    /// Returns `true` if anything was learned.
    pub fn merge(&mut self, other: &Metadata) -> bool {
        let mut changed = false;
        for (dc, locs) in &other.locs {
            if !self.locs.contains_key(dc) {
                self.locs.insert(*dc, locs.clone());
                changed = true;
            }
        }
        // Repair a placeholder value length (defensive: all senders carry
        // real metadata, but a server that first learned of a version
        // through a bare location decision would otherwise poison fragment
        // sizing for recovery).
        if self.value_len == 0 && other.value_len != 0 {
            self.value_len = other.value_len;
            changed = true;
        }
        // The delta-base tag is set once by the originating proxy, so every
        // copy that carries one agrees; learn it from whichever replica has
        // it first.
        if self.delta_base.is_none() && other.delta_base.is_some() {
            self.delta_base = other.delta_base;
            changed = true;
        }
        changed
    }

    /// Whether [`merge`](Self::merge) with `other` would learn anything —
    /// the same per-DC first-writer-wins test, without mutating. Lets the
    /// shared-metadata path skip the copy-on-write a no-op
    /// [`merge_shared`] would otherwise force.
    pub fn would_learn_from(&self, other: &Metadata) -> bool {
        other.locs.keys().any(|dc| !self.locs.contains_key(dc))
            || (self.value_len == 0 && other.value_len != 0)
            || (self.delta_base.is_none() && other.delta_base.is_some())
    }

    /// Whether `self` holds everything `dst` holds, so that merging
    /// `self` into `dst` yields exactly `self`: same policy and home DC,
    /// every DC `dst` decided present here with identical locations, and
    /// `dst`'s value length and delta base either equal to ours or still
    /// unset.
    fn covers(&self, dst: &Metadata) -> bool {
        self.policy == dst.policy
            && self.home_dc == dst.home_dc
            && (dst.value_len == self.value_len || dst.value_len == 0)
            && (dst.delta_base == self.delta_base || dst.delta_base.is_none())
            && dst
                .locs
                .iter()
                .all(|(dc, locs)| self.locs.get(dc) == Some(locs))
    }

    /// Merges `src` into the shared handle `dst`. Returns `true` if `dst`
    /// learned anything; the resulting value always equals
    /// `dst.merge(src)` on owned metadata. When `src` covers `dst` (the
    /// merge result *is* `src`), `dst` adopts `src`'s handle instead of
    /// keeping or copying its own, so every holder of a settled version
    /// converges on one allocation. Otherwise it copies-on-write only when
    /// something is learned. The `Arc::ptr_eq` fast path skips even the
    /// field comparisons when both handles are already the same snapshot.
    // lint:hot
    pub fn merge_shared(dst: &mut Arc<Metadata>, src: &Arc<Metadata>) -> bool {
        if Arc::ptr_eq(dst, src) {
            return false;
        }
        let learned = dst.would_learn_from(src);
        if src.covers(dst) {
            *dst = Arc::clone(src);
            return learned;
        }
        learned && Arc::make_mut(dst).merge(src)
    }

    /// Whether the proxy/FS knows locations for `dc` already (the paper's
    /// `useful_locs` test: locations are useful iff they are the first for
    /// their data center).
    pub fn has_dc(&self, dc: DataCenterId) -> bool {
        self.locs.contains_key(&dc)
    }

    /// The decided locations for `dc`, if any, in fragment order.
    pub fn dc_locations(&self, dc: DataCenterId) -> Option<&[Location]> {
        self.locs.get(&dc).map(Vec::as_slice)
    }

    /// Data centers with decided locations.
    pub fn decided_dcs(&self) -> impl Iterator<Item = DataCenterId> + '_ {
        self.locs.keys().copied()
    }

    /// `verify(meta)` from the paper: the metadata is complete when every
    /// data center required by the policy has decided locations.
    pub fn is_complete(&self) -> bool {
        self.locs.len() == self.policy.data_centers() as usize
    }

    /// Iterates over `(fragment index, location)` for every decided
    /// location. Fragment indices follow the DC slot layout: the home DC
    /// covers indices `0..frags_per_dc` (data fragments first), the next
    /// slot the following block, and so on.
    pub fn assignments(&self) -> impl Iterator<Item = (FragmentIndex, Location)> + '_ {
        self.locs.iter().flat_map(move |(dc, locs)| {
            let base = dc.slot(self.home_dc) * self.policy.frags_per_dc;
            locs.iter()
                .enumerate()
                .map(move |(i, &loc)| (base + i as FragmentIndex, loc))
        })
    }

    /// The data center hosting fragment index `idx` under this layout.
    pub fn dc_of_fragment(&self, idx: FragmentIndex) -> DataCenterId {
        let slot = idx / self.policy.frags_per_dc;
        DataCenterId::from_slot(slot, self.home_dc)
    }

    /// The fragment indices assigned to fragment server `fs`.
    pub fn fragments_of(&self, fs: NodeId) -> Vec<FragmentIndex> {
        self.assigned_to(fs).collect()
    }

    /// Iterates the fragment indices assigned to fragment server `fs`
    /// without allocating (the hot-path form of
    /// [`fragments_of`](Self::fragments_of)).
    pub fn assigned_to(&self, fs: NodeId) -> impl Iterator<Item = FragmentIndex> + '_ {
        self.assignments()
            .filter(move |(_, loc)| loc.fs == fs)
            .map(|(idx, _)| idx)
    }

    /// The distinct sibling fragment servers, in id order.
    pub fn sibling_fss(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.assignments().map(|(_, loc)| loc.fs).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total decided locations (equals `n` when complete).
    pub fn location_count(&self) -> usize {
        self.locs.values().map(Vec::len).sum()
    }

    /// Modeled wire size of this metadata when embedded in a message.
    pub fn wire_size(&self) -> usize {
        // policy(5) + home dc(1) + value_len(4) + per location (node 4 +
        // disk 1 + dc tag amortized 1); delta-coded versions also carry the
        // base timestamp (8 + 1 tag).
        10 + 6 * self.location_count() + if self.delta_base.is_some() { 9 } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(i: u8) -> DataCenterId {
        DataCenterId::new(i)
    }

    fn fs(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Six locations over three FSs, two fragments each.
    fn six_locs(first_fs: u32) -> Vec<Location> {
        (0..6)
            .map(|i| Location {
                fs: fs(first_fs + i / 2),
                disk: (i % 2) as u8,
            })
            .collect()
    }

    fn meta_with_both_dcs() -> Metadata {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 100 * 1024);
        assert!(m.add_dc_locations(dc(0), six_locs(10)));
        assert!(m.add_dc_locations(dc(1), six_locs(20)));
        m
    }

    #[test]
    fn completeness_tracks_decided_dcs() {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 1);
        assert!(!m.is_complete());
        m.add_dc_locations(dc(0), six_locs(10));
        assert!(!m.is_complete());
        assert!(m.has_dc(dc(0)));
        assert!(!m.has_dc(dc(1)));
        m.add_dc_locations(dc(1), six_locs(20));
        assert!(m.is_complete());
        assert_eq!(m.location_count(), 12);
    }

    #[test]
    fn first_writer_wins_per_dc() {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 1);
        assert!(m.add_dc_locations(dc(0), six_locs(10)));
        assert!(!m.add_dc_locations(dc(0), six_locs(50)), "second ignored");
        assert_eq!(m.dc_locations(dc(0)).unwrap()[0].fs, fs(10));
    }

    #[test]
    fn merge_is_idempotent_and_learns_missing_dcs() {
        let full = meta_with_both_dcs();
        let mut partial = Metadata::new(Policy::paper_default(), dc(0), 100 * 1024);
        partial.add_dc_locations(dc(0), six_locs(10));
        assert!(partial.merge(&full), "learns DC1");
        assert!(partial.is_complete());
        assert!(!partial.merge(&full), "second merge is a no-op");
        assert_eq!(partial, full);
    }

    #[test]
    fn merge_is_commutative_on_disjoint_dcs() {
        let mut a = Metadata::new(Policy::paper_default(), dc(0), 7);
        a.add_dc_locations(dc(0), six_locs(10));
        let mut b = Metadata::new(Policy::paper_default(), dc(0), 7);
        b.add_dc_locations(dc(1), six_locs(20));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn fragment_assignment_layout() {
        let m = meta_with_both_dcs();
        let assigns: Vec<_> = m.assignments().collect();
        assert_eq!(assigns.len(), 12);
        // Home DC (dc0) covers fragments 0..6; dc1 covers 6..12.
        assert_eq!(
            assigns[0],
            (
                0,
                Location {
                    fs: fs(10),
                    disk: 0
                }
            )
        );
        assert_eq!(assigns[5].0, 5);
        assert_eq!(
            assigns[6],
            (
                6,
                Location {
                    fs: fs(20),
                    disk: 0
                }
            )
        );
        assert_eq!(assigns[11].0, 11);
    }

    #[test]
    fn home_dc_slot_flips_when_home_is_dc1() {
        let mut m = Metadata::new(Policy::paper_default(), dc(1), 1);
        m.add_dc_locations(dc(0), six_locs(10));
        m.add_dc_locations(dc(1), six_locs(20));
        // dc1 is home -> slot 0 -> fragments 0..6 live on fs 20..22.
        assert_eq!(m.fragments_of(fs(20)), vec![0, 1]);
        assert_eq!(m.fragments_of(fs(10)), vec![6, 7]);
    }

    #[test]
    fn fragments_of_and_siblings() {
        let m = meta_with_both_dcs();
        assert_eq!(m.fragments_of(fs(11)), vec![2, 3]);
        assert_eq!(m.fragments_of(fs(99)), Vec::<u8>::new());
        assert_eq!(
            m.sibling_fss(),
            vec![fs(10), fs(11), fs(12), fs(20), fs(21), fs(22)]
        );
    }

    #[test]
    fn dc_of_fragment_follows_slot_layout() {
        let m = meta_with_both_dcs();
        for i in 0..6u8 {
            assert_eq!(m.dc_of_fragment(i), dc(0));
            assert_eq!(m.dc_of_fragment(6 + i), dc(1));
        }
        // With dc1 as home the mapping flips.
        let mut flipped = Metadata::new(Policy::paper_default(), dc(1), 1);
        flipped.add_dc_locations(dc(0), six_locs(10));
        flipped.add_dc_locations(dc(1), six_locs(20));
        assert_eq!(flipped.dc_of_fragment(0), dc(1));
        assert_eq!(flipped.dc_of_fragment(6), dc(0));
    }

    #[test]
    fn value_len_roundtrip() {
        let m = meta_with_both_dcs();
        assert_eq!(m.value_len(), 100 * 1024);
        assert_eq!(m.policy().k, 4);
        assert_eq!(m.home_dc(), dc(0));
    }

    #[test]
    fn merge_shared_adopts_covering_handles_and_copies_only_on_learning() {
        let full = Arc::new(meta_with_both_dcs());
        let mut partial_owned = Metadata::new(Policy::paper_default(), dc(0), 100 * 1024);
        partial_owned.add_dc_locations(dc(0), six_locs(10));
        let mut dst = Arc::new(partial_owned);
        let observer = Arc::clone(&dst);

        assert!(dst.would_learn_from(&full));
        assert!(Metadata::merge_shared(&mut dst, &full), "learns DC1");
        assert!(
            Arc::ptr_eq(&dst, &full),
            "full covers dst: adopted by handle"
        );
        assert!(!observer.is_complete(), "the aliased handle is untouched");

        // An equal snapshot in another allocation is adopted too, without
        // reporting anything learned.
        let mut twin = Arc::new(meta_with_both_dcs());
        assert!(!Metadata::merge_shared(&mut twin, &full));
        assert!(Arc::ptr_eq(&twin, &full));

        // A source that lacks one of dst's DCs cannot be adopted: dst
        // copies-on-write to learn the other DC.
        let mut dc1_only = Metadata::new(Policy::paper_default(), dc(0), 100 * 1024);
        dc1_only.add_dc_locations(dc(1), six_locs(20));
        let dc1_only = Arc::new(dc1_only);
        let mut dst = Arc::clone(&observer);
        let before = Arc::as_ptr(&dst);
        assert!(Metadata::merge_shared(&mut dst, &dc1_only), "learns DC1");
        assert_ne!(Arc::as_ptr(&dst), before, "copy-on-write happened");
        assert!(!Arc::ptr_eq(&dst, &dc1_only));
        assert_eq!(*dst, *full);
        assert!(!observer.is_complete(), "the aliased handle is untouched");

        // A source that teaches nothing and cannot be adopted (it lacks
        // DC0) leaves the handle alone.
        let settled = Arc::as_ptr(&dst);
        assert!(
            !Metadata::merge_shared(&mut dst, &dc1_only),
            "no-op learns nothing"
        );
        assert_eq!(Arc::as_ptr(&dst), settled, "no-op never copies");

        let mut alias = Arc::clone(&dst);
        assert!(
            !Metadata::merge_shared(&mut alias, &dst),
            "ptr_eq fast path"
        );
    }

    #[test]
    fn assigned_to_matches_fragments_of() {
        let m = meta_with_both_dcs();
        assert_eq!(
            m.assigned_to(fs(11)).collect::<Vec<_>>(),
            m.fragments_of(fs(11))
        );
        assert_eq!(m.assigned_to(fs(99)).count(), 0);
    }

    #[test]
    fn wire_size_grows_with_locations() {
        let empty = Metadata::new(Policy::paper_default(), dc(0), 1);
        let full = meta_with_both_dcs();
        assert!(full.wire_size() > empty.wire_size());
        assert_eq!(full.wire_size(), 10 + 6 * 12);
    }

    #[test]
    fn delta_base_tag_propagates_and_costs_wire_bytes() {
        let ts = Timestamp::MIN;
        let mut m = meta_with_both_dcs();
        assert_eq!(m.delta_base(), None);
        let plain_size = m.wire_size();
        m.set_delta_base(ts);
        assert_eq!(m.delta_base(), Some(ts));
        assert_eq!(m.wire_size(), plain_size + 9);

        // A replica without the tag learns it on merge.
        let mut untagged = meta_with_both_dcs();
        assert!(untagged.would_learn_from(&m));
        assert!(untagged.merge(&m));
        assert_eq!(untagged.delta_base(), Some(ts));
        assert!(!untagged.merge(&m), "second merge is a no-op");
    }

    #[test]
    #[should_panic(expected = "full per-DC fragment count")]
    fn short_dc_decision_panics() {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 1);
        m.add_dc_locations(dc(0), vec![Location { fs: fs(1), disk: 0 }]);
    }
}
