//! Erasure-coded fragments.

use bytes::Bytes;

/// Index of a fragment within its object version's code word.
///
/// Fragments `0..k` are *data* fragments (the value striped in order);
/// fragments `k..n` are *parity* fragments. Pahoehoe's default policy is
/// `(k = 4, n = 12)`, so indices fit comfortably in a byte.
pub type FragmentIndex = u8;

/// Wire overhead of a windowed delta fragment over a dense one: a 4-byte
/// column offset plus a 2-byte flags/length tag. Dense fragments carry
/// neither.
pub const DELTA_WINDOW_BYTES: usize = 6;

/// One erasure-coded fragment of an object version.
///
/// Fragments are cheap to clone: the payload is a reference-counted
/// [`Bytes`] buffer, which matters in simulation where the same fragment is
/// "sent" to many servers.
///
/// A fragment is either **dense** (the payload is the full
/// `fragment_len(value_len)` bytes of its code-word row) or a **windowed
/// delta**: the payload covers only the dirty column window
/// `[start, start + len)` of an XOR between two same-length versions, with
/// every column outside the window implicitly zero. Because the code is
/// linear and column-independent, a delta fragment XORed into the matching
/// window of the base version's same-index fragment yields the successor's
/// dense fragment exactly (see [`apply_delta`](Fragment::apply_delta)).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Fragment {
    index: FragmentIndex,
    data: Bytes,
    /// `Some((start, full_len))` for a windowed delta: the payload covers
    /// columns `start..start + data.len()` of a `full_len`-byte fragment.
    /// `None` for dense fragments.
    window: Option<(u32, u32)>,
}

impl Fragment {
    /// Creates a dense fragment with the given code-word index and payload.
    pub fn new(index: FragmentIndex, data: impl Into<Bytes>) -> Self {
        Fragment {
            index,
            data: data.into(),
            window: None,
        }
    }

    /// Creates a windowed delta fragment: `data` covers columns
    /// `start..start + data.len()` of a `full_len`-byte fragment, all
    /// other columns zero.
    pub fn new_delta(
        index: FragmentIndex,
        data: impl Into<Bytes>,
        start: u32,
        full_len: u32,
    ) -> Self {
        let data = data.into();
        debug_assert!(start as usize + data.len() <= full_len as usize);
        Fragment {
            index,
            data,
            window: Some((start, full_len)),
        }
    }

    /// The fragment's index within the code word.
    pub fn index(&self) -> FragmentIndex {
        self.index
    }

    /// The fragment's index by reference, for map-like views keyed by the
    /// index each fragment already carries.
    pub fn index_ref(&self) -> &FragmentIndex {
        &self.index
    }

    /// The fragment payload.
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty (possible for zero-length values).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `Some((start, full_len))` when this is a windowed delta fragment,
    /// `None` when dense.
    pub fn window(&self) -> Option<(u32, u32)> {
        self.window
    }

    /// Whether this is a windowed delta fragment.
    pub fn is_delta(&self) -> bool {
        self.window.is_some()
    }

    /// Modeled wire size: the payload, plus the window header for delta
    /// fragments. Identical to `len()` for dense fragments.
    pub fn wire_len(&self) -> usize {
        self.data.len()
            + if self.window.is_some() {
                DELTA_WINDOW_BYTES
            } else {
                0
            }
    }

    /// Resolves a windowed delta fragment against the dense fragment of
    /// its base version (same index): clones the base bytes and XORs the
    /// delta window in, yielding the successor version's dense fragment.
    ///
    /// Returns `None` when `self` is not a delta, the indices differ, or
    /// the base's length does not match the delta's recorded full length —
    /// a resolution against the wrong base must fail loudly rather than
    /// store corrupt bytes.
    pub fn apply_delta(&self, base: &Fragment) -> Option<Fragment> {
        let (start, full_len) = self.window?;
        if base.index != self.index || base.window.is_some() || base.len() != full_len as usize {
            return None;
        }
        let start = start as usize;
        let mut resolved = base.data.to_vec();
        for (r, d) in resolved[start..start + self.data.len()]
            .iter_mut()
            .zip(self.data.iter())
        {
            *r ^= d;
        }
        Some(Fragment::new(self.index, resolved))
    }
}

impl std::fmt::Debug for Fragment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Fragment");
        d.field("index", &self.index).field("len", &self.data.len());
        if let Some(w) = self.window {
            d.field("window", &w);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let f = Fragment::new(3, vec![1, 2, 3]);
        assert_eq!(f.index(), 3);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert_eq!(&f.data()[..], &[1, 2, 3]);
        assert_eq!(f.window(), None);
        assert!(!f.is_delta());
        assert_eq!(f.wire_len(), 3);
    }

    #[test]
    fn empty_fragment() {
        let f = Fragment::new(0, Vec::new());
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn clones_share_payload() {
        let f = Fragment::new(1, vec![9; 1024]);
        let g = f.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(f.data().as_ptr(), g.data().as_ptr());
    }

    #[test]
    fn debug_shows_index_and_len() {
        let f = Fragment::new(7, vec![0; 42]);
        let s = format!("{f:?}");
        assert!(s.contains("index: 7") && s.contains("len: 42"), "{s}");
        assert!(!s.contains("window"), "dense fragments elide the window");
        let d = Fragment::new_delta(7, vec![0; 2], 5, 42);
        let s = format!("{d:?}");
        assert!(s.contains("window: (5, 42)"), "{s}");
    }

    #[test]
    fn delta_fragment_carries_window_and_wire_overhead() {
        let d = Fragment::new_delta(2, vec![0xAA, 0xBB], 3, 10);
        assert!(d.is_delta());
        assert_eq!(d.window(), Some((3, 10)));
        assert_eq!(d.len(), 2);
        assert_eq!(d.wire_len(), 2 + DELTA_WINDOW_BYTES);
    }

    #[test]
    fn apply_delta_xors_the_window() {
        let base = Fragment::new(4, vec![1u8, 2, 3, 4, 5]);
        let delta = Fragment::new_delta(4, vec![0xFF, 0x0F], 1, 5);
        let resolved = delta.apply_delta(&base).expect("matching base");
        assert_eq!(&resolved.data()[..], &[1, 2 ^ 0xFF, 3 ^ 0x0F, 4, 5]);
        assert_eq!(resolved.index(), 4);
        assert!(!resolved.is_delta(), "resolution yields a dense fragment");
    }

    #[test]
    fn apply_delta_empty_window_clones_the_base() {
        let base = Fragment::new(0, vec![7u8; 8]);
        let delta = Fragment::new_delta(0, Vec::new(), 0, 8);
        let resolved = delta.apply_delta(&base).expect("empty delta resolves");
        assert_eq!(resolved.data(), base.data());
    }

    #[test]
    fn apply_delta_rejects_mismatches() {
        let base = Fragment::new(1, vec![0u8; 8]);
        // Dense fragments do not resolve.
        assert!(Fragment::new(1, vec![0u8; 8]).apply_delta(&base).is_none());
        // Index mismatch.
        let delta = Fragment::new_delta(2, vec![1], 0, 8);
        assert!(delta.apply_delta(&base).is_none());
        // Base length disagrees with the recorded full length.
        let delta = Fragment::new_delta(1, vec![1], 0, 9);
        assert!(delta.apply_delta(&base).is_none());
        // A delta base is not a valid resolution target.
        let delta_base = Fragment::new_delta(1, vec![0u8; 8], 0, 8);
        let delta = Fragment::new_delta(1, vec![1], 0, 8);
        assert!(delta.apply_delta(&delta_base).is_none());
    }
}
