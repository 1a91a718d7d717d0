//! Differential test: every public encode, decode and recovery path of
//! the default codec against `CodecImpl::Reference` (the seed's per-shard
//! log/exp implementation with a fresh inversion per call), with cold and
//! warm inversion caches.
//!
//! The implementation mode is process-wide, so this binary holds a single
//! test that switches it; nothing else in the binary can observe the
//! switch mid-run.

use bytes::Bytes;
use erasure::{Codec, CodecImpl, Fragment, FragmentIndex};

fn value(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(131).wrapping_add(seed * 17) % 251) as u8)
        .collect()
}

/// The fragment subsets each shape decodes and recovers from: the data
/// fragments (no algebra), the last `k` (mostly parity) and every other
/// fragment from the end (a mix), deduplicated.
fn subsets(k: usize, n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![(0..k).collect::<Vec<_>>(), (n - k..n).collect()];
    let mut mixed: Vec<usize> = (0..n).rev().step_by(2).take(k).collect();
    for i in (0..n).rev() {
        if mixed.len() == k {
            break;
        }
        if !mixed.contains(&i) {
            mixed.push(i);
        }
    }
    mixed.sort_unstable();
    out.push(mixed);
    out.sort();
    out.dedup();
    out
}

/// Everything one codec produces for one value: full encode, per-subset
/// decode and recovery of the complement, and a delta stripe.
#[derive(Debug, PartialEq)]
struct Outputs {
    encoded: Vec<Fragment>,
    decoded: Vec<Vec<u8>>,
    recovered: Vec<Vec<Fragment>>,
    delta: (Vec<Fragment>, (usize, usize)),
}

fn run(codec: &Codec, v: &[u8], subsets: &[Vec<usize>]) -> Outputs {
    let n = codec.total_fragments();
    let mut encoded = Vec::new();
    codec.encode_into(v, &mut encoded);
    let mut decoded = Vec::new();
    let mut recovered = Vec::new();
    for s in subsets {
        let picked: Vec<Fragment> = s.iter().map(|&i| encoded[i].clone()).collect();
        let mut out = vec![0xEEu8; 5];
        codec
            .decode_into(&picked, v.len(), &mut out)
            .expect("decodes");
        decoded.push(out);
        let missing: Vec<FragmentIndex> = (0..n)
            .filter(|i| !s.contains(i))
            .map(|i| i as FragmentIndex)
            .collect();
        let mut rec = Vec::new();
        codec
            .recover_into(&picked, &missing, v.len(), &mut rec)
            .expect("recovers");
        recovered.push(rec);
    }
    let mut next = v.to_vec();
    for b in next.iter_mut().skip(v.len() / 3).take(v.len() / 50 + 1) {
        *b ^= 0x5A;
    }
    let mut deltas = Vec::new();
    let window = codec.encode_delta_into(v, &next, &mut deltas);
    Outputs {
        encoded,
        decoded,
        recovered,
        delta: (deltas, window),
    }
}

#[test]
fn default_codec_matches_reference_on_every_path() {
    for (k, n) in [(1, 1), (2, 3), (4, 12), (4, 16), (10, 14), (17, 20)] {
        let subsets = subsets(k, n);
        for len in [0usize, 1, k * 64 - 1, 4097, 100 * 1024 + 3] {
            let v = value(len, k + n);

            Codec::set_impl_mode(CodecImpl::Reference);
            let expect = run(&Codec::new(k, n).unwrap(), &v, &subsets);
            Codec::set_impl_mode(CodecImpl::Packed);

            // Cold: a fresh codec, every inversion a miss.
            let codec = Codec::new(k, n).unwrap();
            assert_eq!(
                run(&codec, &v, &subsets),
                expect,
                "cold ({k},{n}) len={len}"
            );
            // Warm: the same codec again, every inversion a hit.
            assert_eq!(
                run(&codec, &v, &subsets),
                expect,
                "warm ({k},{n}) len={len}"
            );

            // The zero-copy encode and the owning decode agree too.
            let mut frags = Vec::new();
            codec.encode_value(&Bytes::from(v.clone()), &mut frags);
            assert_eq!(frags, expect.encoded, "encode_value ({k},{n}) len={len}");
            for (s, want) in subsets.iter().zip(&expect.decoded) {
                let picked: Vec<Fragment> = s.iter().map(|&i| frags[i].clone()).collect();
                let got = codec.decode_value(&picked, len).expect("decodes");
                assert_eq!(&got[..], &want[..], "decode_value ({k},{n}) {s:?}");
                assert_eq!(&got[..], &v[..]);
            }

            // One-pass recovery equals decoding and re-encoding.
            for (s, rec) in subsets.iter().zip(&expect.recovered) {
                let picked: Vec<Fragment> = s.iter().map(|&i| frags[i].clone()).collect();
                let reencoded = codec.encode(&codec.decode(&picked, len).expect("decodes"));
                for f in rec {
                    assert_eq!(f, &reencoded[f.index() as usize], "({k},{n}) {s:?}");
                }
            }
        }
    }
}
