//! A fixed reference computation that measures how fast the host is
//! running right now.
//!
//! On a shared host the speed of the same code drifts by tens of percent
//! over minutes, far more than any change worth gating. The benchmark
//! times this kernel right before every run and scales its host-time
//! metrics to a host on which the kernel takes [`NOMINAL_S`]. The kernel
//! uses none of the repository's code, so a change to the store cannot
//! move it; it mixes allocation, pointer chasing over a tree larger than
//! the caches, and a streaming pass, as the simulation does.

use std::collections::BTreeMap;

use crate::clock::Stopwatch;
use crate::workloads::SplitMix;

/// The kernel's time on the reference host, in seconds. Host-time
/// metrics are reported as if measured on a host this fast.
pub const NOMINAL_S: f64 = 0.040;

/// Tree entries the kernel inserts.
const TREE_ENTRIES: usize = 200_000;
/// Bytes the kernel streams over.
const STREAM_BYTES: usize = 8 << 20;

/// Runs the kernel once and returns its wall time in seconds.
pub fn time_kernel() -> f64 {
    let sw = Stopwatch::start();
    let mut rng = SplitMix::new(0x5eed, 0x4ef);
    let mut tree = BTreeMap::new();
    for _ in 0..TREE_ENTRIES {
        tree.insert(rng.next_u64(), rng.next_u64());
    }
    let stream = rng.bytes(STREAM_BYTES);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in stream.chunks_exact(8) {
        h = (h ^ u64::from(word[0])).wrapping_mul(0x100_0000_01b3);
    }
    let folded = tree.values().fold(h, |acc, v| acc ^ v);
    std::hint::black_box(folded);
    sw.elapsed_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(time_kernel() > 0.0);
    }
}
