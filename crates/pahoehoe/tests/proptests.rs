//! Property-based tests for Pahoehoe's core data structures.

use pahoehoe::metadata::{Location, Metadata};
use pahoehoe::policy::Policy;
use pahoehoe::topology::DataCenterId;
use pahoehoe::types::{Key, ObjectVersion, Timestamp};
use proptest::prelude::*;
use simnet::{NodeId, SimTime};
use std::sync::Arc;

/// Strategy: a valid per-DC location list for the default policy (6
/// locations over 3 FSs x 2 disks, FS ids derived from a base).
fn dc_locations(base: u32) -> Vec<Location> {
    (0..6u8)
        .map(|i| Location {
            fs: NodeId::new(base + u32::from(i % 3)),
            disk: i / 3,
        })
        .collect()
}

/// Strategy: partial metadata — a subset of the two DCs decided.
fn partial_meta(mask: u8) -> Metadata {
    let mut m = Metadata::new(Policy::paper_default(), DataCenterId::new(0), 1234);
    if mask & 1 != 0 {
        m.add_dc_locations(DataCenterId::new(0), dc_locations(10));
    }
    if mask & 2 != 0 {
        m.add_dc_locations(DataCenterId::new(1), dc_locations(20));
    }
    m
}

/// Metadata drawn from a small space with every conflict `merge` must
/// arbitrate: `dcs` picks, per DC, undecided or one of two *different*
/// placements; `value_len` may be 0; `delta` picks no delta base or one of
/// two; `shape` varies the policy and home DC.
fn varied_meta(shape: u8, dcs: u8, zero_len: bool, delta: u8) -> Metadata {
    let policy = if shape & 1 == 0 {
        Policy::paper_default()
    } else {
        Policy::new(4, 12, 2, 3)
    };
    let home = DataCenterId::new(shape >> 1 & 1);
    let mut m = Metadata::new(policy, home, if zero_len { 0 } else { 1234 });
    for dc in 0..2u8 {
        match dcs / 3u8.pow(u32::from(dc)) % 3 {
            0 => {}
            choice => {
                let base = 10 + 20 * u32::from(dc) + 100 * u32::from(choice);
                m.add_dc_locations(DataCenterId::new(dc), dc_locations(base));
            }
        }
    }
    if delta > 0 {
        m.set_delta_base(Timestamp::new(SimTime::from_micros(u64::from(delta)), 0));
    }
    m
}

proptest! {
    /// The shared-handle merge computes exactly the owned merge — same
    /// value, same "learned" flag — and adopts the source's handle
    /// exactly when the merge result *is* the source. A handle aliasing
    /// the old destination is never mutated.
    #[test]
    fn merge_shared_matches_owned_merge(
        dst_shape in 0u8..4, dst_dcs in 0u8..9, dst_zero in any::<bool>(), dst_delta in 0u8..3,
        src_shape in 0u8..4, src_dcs in 0u8..9, src_zero in any::<bool>(), src_delta in 0u8..3,
    ) {
        let dst_meta = varied_meta(dst_shape, dst_dcs, dst_zero, dst_delta);
        let src = Arc::new(varied_meta(src_shape, src_dcs, src_zero, src_delta));
        let mut owned = dst_meta.clone();
        let owned_learned = owned.merge(&src);

        let mut dst = Arc::new(dst_meta.clone());
        let alias = Arc::clone(&dst);
        let learned = Metadata::merge_shared(&mut dst, &src);
        prop_assert_eq!(learned, owned_learned);
        prop_assert_eq!(&*dst, &owned);
        prop_assert_eq!(Arc::ptr_eq(&dst, &src), owned == *src);
        prop_assert_eq!(&*alias, &dst_meta, "the aliased handle is untouched");

        // Unaliased destinations take the same path.
        let mut sole = Arc::new(dst_meta);
        prop_assert_eq!(Metadata::merge_shared(&mut sole, &src), owned_learned);
        prop_assert_eq!(&*sole, &owned);
    }

    /// Metadata merging is a join: commutative, associative, idempotent.
    /// (First-writer-wins per DC is conflict-free here because every
    /// server derives identical per-DC decisions.)
    #[test]
    fn metadata_merge_is_a_semilattice(a in 0u8..4, b in 0u8..4, c in 0u8..4) {
        let (ma, mb, mc) = (partial_meta(a), partial_meta(b), partial_meta(c));

        // Commutative.
        let mut ab = ma.clone();
        ab.merge(&mb);
        let mut ba = mb.clone();
        ba.merge(&ma);
        prop_assert_eq!(&ab, &ba);

        // Associative.
        let mut ab_c = ab.clone();
        ab_c.merge(&mc);
        let mut bc = mb.clone();
        bc.merge(&mc);
        let mut a_bc = ma.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Idempotent.
        let mut aa = ma.clone();
        prop_assert!(!aa.merge(&ma) || a == 0, "self-merge learns nothing");
        prop_assert_eq!(&aa, &ma);
    }

    /// Fragment assignments partition the code word: each decided DC
    /// covers its slot's contiguous index range exactly once.
    #[test]
    fn assignments_partition_the_code_word(mask in 1u8..4) {
        let m = partial_meta(mask);
        let mut indices: Vec<u8> =
            m.assignments().map(|(idx, _)| idx).collect();
        indices.sort_unstable();
        indices.dedup();
        prop_assert_eq!(indices.len(), m.location_count(), "no duplicates");
        for (idx, loc) in m.assignments() {
            // Index maps back to the DC hosting it.
            let dc = m.dc_of_fragment(idx);
            prop_assert!(
                m.dc_locations(dc).expect("decided").contains(&loc)
            );
        }
    }

    /// Timestamp ordering is total and consistent with (clock, proxy).
    #[test]
    fn timestamp_order_is_lexicographic(
        c1 in 0u64..1000, p1 in 0u32..8,
        c2 in 0u64..1000, p2 in 0u32..8,
    ) {
        let t1 = Timestamp::new(SimTime::from_micros(c1), p1);
        let t2 = Timestamp::new(SimTime::from_micros(c2), p2);
        let expected = (c1, p1).cmp(&(c2, p2));
        prop_assert_eq!(t1.cmp(&t2), expected);
        prop_assert_eq!(t1 == t2, c1 == c2 && p1 == p2);
    }

    /// Key fingerprints never collide across distinct small names (a
    /// sanity bound, not a cryptographic claim).
    #[test]
    fn key_fingerprints_distinguish_names(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        prop_assert_ne!(
            Key::from_name(a.as_bytes()),
            Key::from_name(b.as_bytes())
        );
    }

    /// `fragments_of` and `sibling_fss` agree with `assignments`.
    #[test]
    fn per_fs_views_are_consistent(mask in 0u8..4) {
        let m = partial_meta(mask);
        let siblings = m.sibling_fss();
        let mut total = 0;
        for fs in &siblings {
            let frags = m.fragments_of(*fs);
            prop_assert!(!frags.is_empty(), "siblings host fragments");
            total += frags.len();
        }
        prop_assert_eq!(total, m.location_count());
        // Non-siblings host nothing.
        prop_assert!(m.fragments_of(NodeId::new(999)).is_empty());
    }

    /// Object versions inherit ordering from (key, timestamp).
    #[test]
    fn object_version_ordering(k1 in 0u64..4, c1 in 0u64..4, k2 in 0u64..4, c2 in 0u64..4) {
        let a = ObjectVersion::new(
            Key::from_u64(k1),
            Timestamp::new(SimTime::from_micros(c1), 0),
        );
        let b = ObjectVersion::new(
            Key::from_u64(k2),
            Timestamp::new(SimTime::from_micros(c2), 0),
        );
        if k1 == k2 {
            prop_assert_eq!(a.ts < b.ts, c1 < c2);
            prop_assert_eq!(a < b, c1 < c2);
        }
    }
}
