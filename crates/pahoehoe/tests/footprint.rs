//! Resident-state footprint guard.
//!
//! What a fragment server keeps per stored object version — its fragment,
//! that fragment's checksum and the version's metadata (§3.1–3.2) — is
//! what bounds how many versions a node can hold, so this binary pins it.
//! A thread-local counting allocator measures the live heap a converged
//! cluster holds and divides it by the number of `(FS, version)` pairs
//! stored. It is a test binary of its own because it installs a
//! `#[global_allocator]`; the counter is thread-local so the harness's
//! other threads never disturb the measuring test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::convergence::ConvergenceOptions;
use pahoehoe::policy::Policy;
use pahoehoe::protocol::ProtocolMode;
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use simnet::RunOutcome;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// The system allocator, with this thread's live bytes counted.
/// (`realloc` keeps its default alloc-copy-dealloc form, which both
/// methods below count.)
struct Counting;

// lint:allow(unsafe-confinement): a global allocator must implement the unsafe GlobalAlloc trait; this test-only one forwards every call to System unchanged
unsafe impl GlobalAlloc for Counting {
    // lint:allow(unsafe-confinement): the trait's required signature; forwards to System
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    // lint:allow(unsafe-confinement): the trait's required signature; forwards to System
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Puts in the guard's workload.
const PUTS: u64 = 1_000;

/// Live heap bytes per FS-stored version after a converged run, measured
/// on this workload: 1 580 B with two fragment/checksum maps per version,
/// a private metadata copy per holder and a KLS timestamp index; 363 B
/// with one fragment table per version, metadata shared by handle and no
/// timestamp index. The bound sits halfway between.
const MAX_BYTES_PER_STORED_VERSION: isize = 971;

/// A small 4-DC `(4,16)` cluster — one fragment per FS per version, as in
/// the `small-4dc` benchmark workload — with 256 B puts over a key space
/// large enough that almost every put writes a fresh key.
fn config() -> ClusterConfig {
    let policy = Policy::new(4, 16, 4, 1);
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = ClusterLayout {
        dcs: 4,
        kls_per_dc: 2,
        fs_per_dc: 4,
    };
    cfg.policy = policy;
    cfg.convergence = ConvergenceOptions::all();
    cfg.protocol = ProtocolMode {
        batch_rounds: true,
        compact_converged: true,
        ..ProtocolMode::optimized()
    };
    cfg.workload_value_len = 256;
    cfg.streaming_workload = Some(StreamingWorkload {
        puts: PUTS,
        key_space: 100_000,
        value_len: 256,
        policy,
        seed: 3,
        dist: KeyDistribution::Uniform,
        overwrite_delta_permille: 0,
    });
    cfg
}

#[test]
fn live_heap_per_stored_version_stays_compact() {
    let before = live_bytes();
    let mut cluster = Cluster::build(config(), 3);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, PUTS);
    drop(report);

    let fss: Vec<_> = cluster.topology().all_fss().collect();
    let stored: usize = fss
        .iter()
        .map(|&fs| cluster.fs(fs).known_versions().count())
        .sum();
    assert_eq!(stored, 16 * PUTS as usize, "every FS stores every version");
    let per_version = (live_bytes() - before) / stored as isize;
    eprintln!("live heap: {per_version} B per FS-stored version ({stored} stored)");
    assert!(
        per_version <= MAX_BYTES_PER_STORED_VERSION,
        "{per_version} B of live heap per FS-stored version exceeds the \
         {MAX_BYTES_PER_STORED_VERSION} B bound"
    );
}
