//! Replays the public `erasure` functions on a workload's own value size
//! and policy, checking every result, to price one call of each.
//!
//! The actors call the codec from inside the program, where the shims
//! cannot see it; the replay gives a per-call cost that, multiplied by
//! call counts taken from the traced run, estimates the codec's share of
//! the run.

use erasure::{Checksum, Codec, Fragment, FragmentIndex};

use crate::clock::Stopwatch;
use crate::workloads::SplitMix;

/// Median per-call nanoseconds of each codec operation.
#[derive(Debug, Clone, Copy)]
pub struct CodecCost {
    /// `Codec::encode_into` of one value.
    pub encode_ns: f64,
    /// `Codec::decode_into` from `k` fragments including parity.
    pub decode_ns: f64,
    /// `Codec::recover_into` of one lost fragment.
    pub recover_ns: f64,
    /// `Codec::encode_delta_into` of a 1 % overwrite.
    pub delta_encode_ns: f64,
    /// `Checksum::of` one fragment.
    pub checksum_ns: f64,
}

/// Batches timed per operation; the median batch is reported.
const BATCHES: usize = 7;
/// Minimum bytes pushed through one batch, so short calls are timed in bulk.
const BATCH_BYTES: usize = 4 << 20;

/// Times `f` in batches of calls and returns the median nanoseconds per
/// call.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..calls {
                f();
            }
            sw.elapsed_ns() as f64 / calls as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// Replays every codec operation for `(k, n)` and `value_len`, panicking
/// if any result is wrong.
pub fn replay(k: usize, n: usize, value_len: usize, seed: u64) -> CodecCost {
    let codec = Codec::new(k, n).expect("workload policies are valid");
    let mut rng = SplitMix::new(seed, 9);
    let value = rng.bytes(value_len);
    let calls = (BATCH_BYTES / value_len.max(1)).clamp(4, 4096);

    let mut frags: Vec<Fragment> = Vec::new();
    codec.encode_into(&value, &mut frags);
    let encode_ns = per_call_ns(calls, || {
        codec.encode_into(std::hint::black_box(&value), &mut frags);
    });
    let reference = frags.clone();

    // Decode from the last k fragments: mostly parity, so the decode
    // matrix is not the identity.
    let picked: Vec<Fragment> = reference[n - k..].to_vec();
    let mut out = Vec::new();
    codec
        .decode_into(&picked, value_len, &mut out)
        .expect("k fragments decode");
    assert_eq!(out, value, "decode(encode(x)) == x");
    let decode_ns = per_call_ns(calls, || {
        codec
            .decode_into(std::hint::black_box(&picked), value_len, &mut out)
            .expect("k fragments decode");
    });
    assert_eq!(out, value, "decode(encode(x)) == x after timing");

    // Recover fragment 0 from k others.
    let sources: Vec<Fragment> = reference[1..=k].to_vec();
    let missing: [FragmentIndex; 1] = [0];
    let mut rec = Vec::new();
    codec
        .recover_into(&sources, &missing, value_len, &mut rec)
        .expect("k fragments recover");
    assert_eq!(rec[0].data(), reference[0].data(), "recovered == original");
    let recover_ns = per_call_ns(calls, || {
        codec
            .recover_into(
                std::hint::black_box(&sources),
                &missing,
                value_len,
                &mut rec,
            )
            .expect("k fragments recover");
    });
    assert_eq!(
        rec[0].data(),
        reference[0].data(),
        "recovered == original after timing"
    );

    // A 1 % overwrite encoded as a delta stripe, resolved against the base.
    let mut next = value.clone();
    let w = (value_len / 100).max(1);
    let off = (rng.next_u64() % (value_len - w + 1) as u64) as usize;
    next[off..off + w].copy_from_slice(&rng.bytes(w));
    let mut deltas = Vec::new();
    codec.encode_delta_into(&value, &next, &mut deltas);
    let full_next = codec.encode(&next);
    for (d, base) in deltas.iter().zip(&reference) {
        let resolved = d
            .apply_delta(base)
            .expect("delta resolves against its base");
        let want = full_next
            .iter()
            .find(|f| f.index() == d.index())
            .expect("same index");
        assert_eq!(resolved.data(), want.data(), "base ^ delta == encode(new)");
    }
    let delta_encode_ns = per_call_ns(calls, || {
        codec.encode_delta_into(std::hint::black_box(&value), &next, &mut deltas);
    });

    let frag = reference[0].data().clone();
    let sum = Checksum::of(&frag);
    let checksum_calls = (BATCH_BYTES / frag.len().max(1)).clamp(4, 1 << 16);
    let checksum_ns = per_call_ns(checksum_calls, || {
        std::hint::black_box(Checksum::of(std::hint::black_box(&frag)));
    });
    assert!(sum.verify(&frag), "checksum verifies its own bytes");
    let mut flipped = frag.to_vec();
    flipped[0] ^= 1;
    assert!(!sum.verify(&flipped), "checksum catches a flipped byte");

    CodecCost {
        encode_ns,
        decode_ns,
        recover_ns,
        delta_encode_ns,
        checksum_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_checks_pass_and_costs_are_positive() {
        let c = replay(4, 12, 4096, 1);
        for v in [
            c.encode_ns,
            c.decode_ns,
            c.recover_ns,
            c.delta_encode_ns,
            c.checksum_ns,
        ] {
            assert!(v > 0.0);
        }
    }
}
