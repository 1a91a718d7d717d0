//! Differential tests: the protocol hot-path optimizations against the
//! reference mode.
//!
//! [`ProtocolMode`] switches three hot-path changes — refcounted metadata
//! sharing, the dense per-version store, and coalesced round accounting —
//! that must be *invisible* to the protocol: for any workload and fault
//! plan, every mode reaches the same final KLS and FS states through the
//! same event sequence, and batching changes only how convergence traffic
//! is accounted (fewer physical messages, fewer header bytes), never how
//! many logical protocol entries travel.

use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::convergence::ConvergenceOptions;
use pahoehoe::fs::Fs;
use pahoehoe::kls::Kls;
use pahoehoe::protocol::ProtocolMode;
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use proptest::prelude::*;
use simnet::{FaultPlan, NetworkConfig, RunOutcome, SimDuration, SimTime};

/// A small randomized scenario: everything that feeds the deterministic
/// simulation, minus the protocol mode under test.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    puts: usize,
    value_len: usize,
    drop_pct: u8,
    dup_pct: u8,
    naive: bool,
    /// `(node index, start secs, duration secs)` outages.
    outages: Vec<(u32, u64, u64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let outage = (0u32..10, 0u64..60, 30u64..300);
    (
        any::<u64>(),
        1usize..4,
        (0usize..3).prop_map(|i| [512usize, 4096, 16 * 1024][i]),
        0u8..8,
        0u8..5,
        any::<bool>(),
        proptest::collection::vec(outage, 0..3),
    )
        .prop_map(
            |(seed, puts, value_len, drop_pct, dup_pct, naive, outages)| Scenario {
                seed,
                puts,
                value_len,
                drop_pct,
                dup_pct,
                naive,
                outages,
            },
        )
}

/// Everything observable after a run that must not depend on the protocol
/// mode: the outcome, the event count, the final virtual clock, the full
/// final state of every server, and the per-kind logical entry counts.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    events: u64,
    now: SimTime,
    state: String,
    entries: Vec<(&'static str, u64)>,
}

/// Renders every KLS's metadata table and every FS's fragment store,
/// convergence classification and fragment checksums into one canonical
/// string.
fn state_digest(cluster: &Cluster) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let topo = cluster.topology().clone();
    for id in topo.all_klss() {
        let kls: &Kls = cluster.sim().actor(id);
        write!(out, "KLS {id:?}:").unwrap();
        let mut ovs: Vec<_> = kls.known_versions().collect();
        ovs.sort();
        for ov in ovs {
            let meta = kls.meta(ov).expect("known");
            write!(out, " {ov:?}={meta:?}").unwrap();
        }
        out.push('\n');
    }
    for id in topo.all_fss() {
        let fs: &Fs = cluster.sim().actor(id);
        write!(out, "FS {id:?}:").unwrap();
        let mut ovs: Vec<_> = fs.known_versions().collect();
        ovs.sort();
        let amr: Vec<_> = fs.amr_versions().collect();
        let pending: Vec<_> = fs.pending_versions().collect();
        let gave_up: Vec<_> = fs.gave_up_versions().collect();
        for ov in ovs {
            let entry = fs.entry(ov).expect("known");
            let class = if amr.contains(&ov) {
                "amr"
            } else if pending.contains(&ov) {
                "pending"
            } else if gave_up.contains(&ov) {
                "gave-up"
            } else {
                "idle"
            };
            write!(
                out,
                " {ov:?}[{class} v={} meta={:?} frags={:?} sums={:?}]",
                fs.verified(ov),
                entry.meta,
                entry.fragments.keys().collect::<Vec<_>>(),
                entry
                    .fragments
                    .with_checksums()
                    .map(|(f, sum)| (f.index(), *sum))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

fn run(sc: &Scenario, mode: ProtocolMode) -> Observed {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = layout;
    cfg.protocol = mode;
    cfg.workload_puts = sc.puts;
    cfg.workload_value_len = sc.value_len;
    cfg.convergence = if sc.naive {
        ConvergenceOptions::naive()
    } else {
        ConvergenceOptions::all()
    };
    cfg.network = NetworkConfig {
        drop_rate: f64::from(sc.drop_pct) / 100.0,
        duplicate_rate: f64::from(sc.dup_pct) / 100.0,
        ..NetworkConfig::paper_default()
    };
    let mut faults = FaultPlan::none();
    for &(node, start, dur) in &sc.outages {
        faults.add_node_outage(
            simnet::NodeId::new(node),
            SimTime::ZERO + SimDuration::from_secs(start),
            SimDuration::from_secs(dur),
        );
    }
    let mut cluster = Cluster::build_with_faults(cfg, sc.seed, faults);
    let report = cluster.run_to_convergence();
    let entries = cluster
        .sim()
        .metrics()
        .registry()
        .iter()
        .map(|&k| (k, cluster.sim().metrics().entries_for(k)))
        .collect();
    Observed {
        outcome: report.outcome,
        events: cluster.sim().events_processed(),
        now: cluster.sim().now(),
        state: state_digest(&cluster),
        entries,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any workload and fault plan, all three protocol modes agree on
    /// the final converged state, the event sequence length, and the
    /// per-kind logical entry counts; batching strictly reduces physical
    /// message count and bytes whenever convergence traffic exists.
    #[test]
    fn protocol_modes_are_observationally_equivalent(sc in scenario_strategy()) {
        let reference = run(&sc, ProtocolMode::reference());
        let optimized = run(&sc, ProtocolMode::optimized());
        let batched = run(&sc, ProtocolMode::batched());

        // Arc-sharing and the dense store are pure representation changes:
        // *everything* observable matches the reference, including the
        // physical message counts.
        prop_assert_eq!(&reference, &optimized);

        // Batching must not change outcomes, event order, final state, or
        // logical entry counts — only the physical-message accounting.
        prop_assert_eq!(&reference.outcome, &batched.outcome);
        prop_assert_eq!(reference.events, batched.events);
        prop_assert_eq!(reference.now, batched.now);
        prop_assert_eq!(&reference.state, &batched.state);
        prop_assert_eq!(&reference.entries, &batched.entries);
    }
}

/// A fault-heavy scripted scenario: batching coalesces real convergence
/// traffic (physical messages strictly below logical entries) and saves
/// exactly the per-entry headers' worth of bytes.
#[test]
fn batching_reduces_physical_messages_and_bytes() {
    let sc = Scenario {
        seed: 11,
        puts: 4,
        value_len: 4096,
        drop_pct: 10,
        dup_pct: 0,
        naive: true,
        outages: vec![(2, 0, 240)],
    };
    let unbatched = run(&sc, ProtocolMode::optimized());
    let batched = run(&sc, ProtocolMode::batched());
    assert_eq!(unbatched.state, batched.state, "same final states");
    assert_eq!(unbatched.entries, batched.entries, "same logical entries");

    let total = |o: &Observed| o.entries.iter().map(|&(_, n)| n).sum::<u64>();
    assert!(total(&unbatched) > 0, "scenario generated traffic");

    // Re-run to inspect physical counts/bytes (Observed only keeps the
    // mode-independent view).
    let physical = |mode: ProtocolMode| {
        let layout = ClusterLayout {
            dcs: 2,
            kls_per_dc: 2,
            fs_per_dc: 3,
        };
        let mut cfg = ClusterConfig::paper_default();
        cfg.layout = layout;
        cfg.protocol = mode;
        cfg.workload_puts = sc.puts;
        cfg.workload_value_len = sc.value_len;
        cfg.convergence = ConvergenceOptions::naive();
        cfg.network = NetworkConfig {
            drop_rate: 0.10,
            ..NetworkConfig::paper_default()
        };
        let mut faults = FaultPlan::none();
        faults.add_node_outage(
            simnet::NodeId::new(2),
            SimTime::ZERO,
            SimDuration::from_secs(240),
        );
        let mut cluster = Cluster::build_with_faults(cfg, sc.seed, faults);
        cluster.run_to_convergence();
        let m = cluster.sim().metrics();
        (m.total_count(), m.total_bytes(), m.total_entries())
    };
    let (u_count, u_bytes, u_entries) = physical(ProtocolMode::optimized());
    let (b_count, b_bytes, b_entries) = physical(ProtocolMode::batched());
    assert_eq!(u_entries, b_entries, "logical entries are mode-independent");
    assert!(
        b_count < u_count,
        "batching coalesced physical messages ({b_count} vs {u_count})"
    );
    // Every coalesced entry saves exactly one header.
    let headers_saved = u_count - b_count;
    assert_eq!(
        u_bytes - b_bytes,
        headers_saved * pahoehoe::messages::HEADER_BYTES as u64,
        "byte savings are exactly the amortized headers"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The key-sharded per-FS version index against the flat single-shard
    /// map: sharding only changes *where* an index entry lives, so every
    /// observable — outcome, event sequence, final state, physical
    /// message accounting — must match exactly.
    #[test]
    fn sharded_store_is_invisible(sc in scenario_strategy()) {
        let sharded = run(&sc, ProtocolMode::optimized());
        let flat = run(
            &sc,
            ProtocolMode {
                shard_store: false,
                ..ProtocolMode::optimized()
            },
        );
        prop_assert_eq!(&sharded, &flat);
    }
}

/// Runs an update-heavy streamed workload — a small key space cycled
/// sequentially, so most puts supersede an earlier version of the same
/// key — and returns the cluster for in-place inspection. Compacting
/// runs cannot be rendered by [`state_digest`], which expects a full
/// [`FragEntry`](pahoehoe::fs::FragEntry) for every known version.
fn run_update_heavy(
    sc: &Scenario,
    key_space: u64,
    puts: u64,
    mode: ProtocolMode,
    overwrite_delta_permille: u16,
) -> (Cluster, RunOutcome) {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = layout;
    cfg.protocol = mode;
    cfg.workload_value_len = sc.value_len;
    cfg.streaming_workload = Some(StreamingWorkload {
        puts,
        key_space,
        value_len: sc.value_len,
        policy: cfg.policy,
        seed: sc.seed,
        dist: KeyDistribution::Sequential,
        overwrite_delta_permille,
    });
    cfg.convergence = if sc.naive {
        ConvergenceOptions::naive()
    } else {
        ConvergenceOptions::all()
    };
    cfg.network = NetworkConfig {
        drop_rate: f64::from(sc.drop_pct) / 100.0,
        duplicate_rate: f64::from(sc.dup_pct) / 100.0,
        ..NetworkConfig::paper_default()
    };
    let mut faults = FaultPlan::none();
    for &(node, start, dur) in &sc.outages {
        faults.add_node_outage(
            simnet::NodeId::new(node),
            SimTime::ZERO + SimDuration::from_secs(start),
            SimDuration::from_secs(dur),
        );
    }
    let mut cluster = Cluster::build_with_faults(cfg, sc.seed, faults);
    let outcome = cluster.run_to_convergence().outcome;
    (cluster, outcome)
}

/// Asserts the compacting run is observationally equivalent to the full
/// run: identical KLS tables, identical per-FS classification sets and
/// settle times, byte-identical entries for every uncompacted version,
/// and for each compacted version a residual mask recording exactly the
/// fragments the full store still holds. Returns the number of
/// compacted store entries seen (a superseded version compacts once per
/// FS that held it).
fn assert_compaction_invisible(full: &Cluster, compact: &Cluster) -> usize {
    let topo = full.topology().clone();
    for id in topo.all_klss() {
        let f: &Kls = full.sim().actor(id);
        let c: &Kls = compact.sim().actor(id);
        let mut f_ovs: Vec<_> = f.known_versions().collect();
        let mut c_ovs: Vec<_> = c.known_versions().collect();
        f_ovs.sort();
        c_ovs.sort();
        assert_eq!(f_ovs, c_ovs, "KLS {id:?} knows the same versions");
        for ov in f_ovs {
            assert_eq!(
                format!("{:?}", f.meta(ov)),
                format!("{:?}", c.meta(ov)),
                "KLS {id:?} metadata for {ov:?} is untouched by compaction"
            );
        }
    }

    let sorted = |it: Box<dyn Iterator<Item = pahoehoe::types::ObjectVersion> + '_>| {
        let mut v: Vec<_> = it.collect();
        v.sort();
        v
    };
    let mut compacted_entries = 0usize;
    for id in topo.all_fss() {
        let f: &Fs = full.sim().actor(id);
        let c: &Fs = compact.sim().actor(id);
        let known = sorted(Box::new(f.known_versions()));
        assert_eq!(
            known,
            sorted(Box::new(c.known_versions())),
            "FS {id:?} knows the same versions"
        );
        assert_eq!(
            sorted(Box::new(f.amr_versions())),
            sorted(Box::new(c.amr_versions())),
            "FS {id:?} AMR sets match"
        );
        assert_eq!(
            sorted(Box::new(f.pending_versions())),
            sorted(Box::new(c.pending_versions())),
            "FS {id:?} pending sets match"
        );
        assert_eq!(
            sorted(Box::new(f.gave_up_versions())),
            sorted(Box::new(c.gave_up_versions())),
            "FS {id:?} gave-up sets match"
        );
        for ov in known {
            assert_eq!(
                f.amr_settled_at(ov),
                c.amr_settled_at(ov),
                "FS {id:?} settle time for {ov:?} matches"
            );
            assert_eq!(
                f.verified(ov),
                c.verified(ov),
                "FS {id:?} verification for {ov:?} matches"
            );
            match c.compacted_residual(ov) {
                Some(mask) => {
                    compacted_entries += 1;
                    assert!(
                        c.amr_settled_at(ov).is_some(),
                        "only settled-AMR versions compact ({ov:?})"
                    );
                    assert!(
                        c.entry(ov).is_none(),
                        "compacted slot for {ov:?} released its full entry"
                    );
                    let entry = f.entry(ov).expect("full run keeps the entry");
                    let held: Vec<_> = mask.iter().collect();
                    let full_held: Vec<_> = entry.fragments.keys().copied().collect();
                    assert_eq!(
                        held, full_held,
                        "FS {id:?} residual for {ov:?} records exactly the fragments held"
                    );
                }
                None => {
                    assert_eq!(
                        format!("{:?}", f.entry(ov)),
                        format!("{:?}", c.entry(ov)),
                        "FS {id:?} uncompacted entry for {ov:?} is byte-identical"
                    );
                }
            }
        }
        assert_eq!(
            c.compacted_count(),
            sorted(Box::new(c.compacted_versions())).len(),
            "FS {id:?} compacted count matches its residual listing"
        );
    }
    compacted_entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Converged-version compaction against the full store on an
    /// update-heavy stream: on a clean network compaction is pure local
    /// bookkeeping, so the outcome, event sequence, virtual clock,
    /// per-kind logical entry counts, KLS tables and every per-FS
    /// observable must match — with superseded settled versions allowed
    /// to collapse to residuals that mirror the full store's fragment
    /// sets. (Under faults the stores legitimately diverge: a residual
    /// still answers verification queries, but its released fragments
    /// can no longer feed a straggling sibling's recovery, and late
    /// duplicate fragment pushes are dropped instead of stored — so the
    /// strict event-level claim is scoped to fault-free runs.)
    #[test]
    fn compaction_is_invisible(
        sc in scenario_strategy(),
        key_space in 1u64..4,
        puts in 4u64..13,
    ) {
        let sc = Scenario {
            drop_pct: 0,
            dup_pct: 0,
            outages: Vec::new(),
            ..sc
        };
        let (full, full_outcome) =
            run_update_heavy(&sc, key_space, puts, ProtocolMode::optimized(), 0);
        let (compact, compact_outcome) =
            run_update_heavy(&sc, key_space, puts, ProtocolMode::scale(), 0);
        prop_assert_eq!(full_outcome, compact_outcome);
        prop_assert_eq!(
            full.sim().events_processed(),
            compact.sim().events_processed()
        );
        prop_assert_eq!(full.sim().now(), compact.sim().now());
        let entries = |c: &Cluster| -> Vec<(&'static str, u64)> {
            c.sim()
                .metrics()
                .registry()
                .iter()
                .map(|&k| (k, c.sim().metrics().entries_for(k)))
                .collect()
        };
        prop_assert_eq!(entries(&full), entries(&compact));
        assert_compaction_invisible(&full, &compact);
    }
}

/// A clean-network scripted run where every put supersedes the single
/// key: the scale mode must compact each superseded version on every FS
/// that held its fragments, while staying observationally equivalent to
/// the full store.
#[test]
fn compaction_collapses_superseded_versions_invisibly() {
    let sc = Scenario {
        seed: 7,
        puts: 0,
        value_len: 4096,
        drop_pct: 0,
        dup_pct: 0,
        naive: false,
        outages: Vec::new(),
    };
    let (full, full_outcome) = run_update_heavy(&sc, 1, 8, ProtocolMode::optimized(), 0);
    let (compact, compact_outcome) = run_update_heavy(&sc, 1, 8, ProtocolMode::scale(), 0);
    assert_eq!(full_outcome, compact_outcome);
    assert_eq!(
        full.sim().events_processed(),
        compact.sim().events_processed(),
        "compaction is event-neutral"
    );
    let compacted = assert_compaction_invisible(&full, &compact);
    // 8 puts to one key leave 7 superseded versions, each compacted on
    // every FS that held fragments of it.
    assert!(
        compacted >= 7,
        "each superseded version compacted somewhere (got {compacted} entries)"
    );
}

// ---------------------------------------------------------------------------
// Delta coding: semantic equivalence against the full-encode path
// ---------------------------------------------------------------------------

/// The streaming workload [`run_update_heavy`] drives for `sc`, rebuilt
/// so tests can compute expected last-writer blobs.
fn update_heavy_workload(
    sc: &Scenario,
    key_space: u64,
    puts: u64,
    overwrite_delta_permille: u16,
) -> StreamingWorkload {
    StreamingWorkload {
        puts,
        key_space,
        value_len: sc.value_len,
        policy: pahoehoe::policy::Policy::paper_default(),
        seed: sc.seed,
        dist: KeyDistribution::Sequential,
        overwrite_delta_permille,
    }
}

/// Decodes every key's newest stored version from FS fragments and
/// asserts it equals the last writer's bytes from the workload stream —
/// the end-to-end correctness claim for delta resolution: whatever mix of
/// full and XOR-delta stripes travelled, the archive holds the blobs.
fn assert_last_writer_values(cluster: &Cluster, wl: &StreamingWorkload) {
    use pahoehoe::client::ClientOp;
    use std::collections::BTreeMap;

    let mut last_put: BTreeMap<pahoehoe::types::Key, u64> = BTreeMap::new();
    for i in 0..wl.puts {
        last_put.insert(wl.key_at(i), i);
    }
    let topo = cluster.topology().clone();
    let codec = erasure::Codec::new(4, 12).expect("paper-default policy");
    for (key, &i) in &last_put {
        let mut newest: Option<pahoehoe::types::ObjectVersion> = None;
        let mut frags: BTreeMap<u8, erasure::Fragment> = BTreeMap::new();
        for id in topo.all_fss() {
            let fs: &Fs = cluster.sim().actor(id);
            for ov in fs.known_versions().filter(|ov| ov.key == *key) {
                if newest.is_none_or(|n| ov.ts > n.ts) {
                    newest = Some(ov);
                    frags.clear();
                }
            }
        }
        let ov = newest.expect("every key was stored");
        for id in topo.all_fss() {
            let fs: &Fs = cluster.sim().actor(id);
            if let Some(entry) = fs.entry(ov) {
                for (&idx, frag) in &entry.fragments {
                    assert!(!frag.is_delta(), "stores hold dense resolved fragments");
                    frags.entry(idx).or_insert_with(|| frag.clone());
                }
            }
        }
        assert!(frags.len() >= 4, "newest {ov:?} is decodable");
        let subset: Vec<erasure::Fragment> = frags.into_values().take(4).collect();
        let decoded = codec.decode(&subset, wl.value_len).expect("decodes");
        let ClientOp::Put { value, .. } = wl.op_at(i) else {
            panic!("streams are puts")
        };
        assert_eq!(
            decoded, value,
            "key {key:?} must hold put {i}'s bytes (newest {ov:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta coding changes the put-path *representation* — windowed XOR
    /// stripes against the proxy's cached base instead of full fragments
    /// — but never the archive's contents. On a clean network with an
    /// overwrite-correlated stream, the delta run and the full-encode run
    /// both succeed every put, classify every version identically, and
    /// every key converges to its last writer's exact bytes — including
    /// when converged-version compaction reclaims superseded delta bases
    /// underneath the chain.
    #[test]
    fn delta_mode_archives_last_writer_values(
        sc in scenario_strategy(),
        key_space in 1u64..5,
        extra_puts in 2u64..11,
        compact: bool,
        permille in 1u16..30,
    ) {
        let sc = Scenario {
            drop_pct: 0,
            dup_pct: 0,
            outages: Vec::new(),
            ..sc
        };
        let puts = key_space + extra_puts; // every run revisits a key
        let delta_mode = ProtocolMode {
            compact_converged: compact,
            ..ProtocolMode::delta()
        };
        // The baseline differs from the delta run in exactly one switch,
        // so every report delta is attributable to delta coding. (The
        // compaction flag must match: released residuals are invisible
        // to the report's durability census by design.)
        let full_mode = ProtocolMode {
            delta: false,
            ..delta_mode
        };
        let (delta, delta_outcome) =
            run_update_heavy(&sc, key_space, puts, delta_mode, permille);
        let (full, full_outcome) = run_update_heavy(&sc, key_space, puts, full_mode, permille);
        prop_assert_eq!(delta_outcome, RunOutcome::PredicateSatisfied);
        prop_assert_eq!(full_outcome, RunOutcome::PredicateSatisfied);

        // Non-vacuity: overwrites of cached stripes really took the
        // delta path.
        let metrics = delta.sim().metrics().clone();
        prop_assert!(metrics.event("deltas_encoded") > 0, "{metrics:?}");
        prop_assert_eq!(metrics.event("delta_unresolvable"), 0);
        prop_assert_eq!(
            metrics.event("deltas_resolved") > 0,
            metrics.event("deltas_encoded") > 0
        );

        // Semantic equivalence: identical put ledger and AMR census.
        // (Raw digests legitimately differ — delta puts skip the
        // location-decision round, so the message flow changes.)
        let dr = delta.report(delta_outcome);
        let fr = full.report(full_outcome);
        prop_assert_eq!(dr.puts_attempted, fr.puts_attempted);
        prop_assert_eq!(dr.puts_succeeded, fr.puts_succeeded);
        prop_assert_eq!(dr.puts_succeeded, puts);
        prop_assert_eq!(dr.amr_versions, fr.amr_versions);
        prop_assert_eq!(dr.excess_amr, fr.excess_amr);
        prop_assert_eq!(dr.non_durable, fr.non_durable);
        prop_assert_eq!(dr.durable_not_amr, fr.durable_not_amr);
        if !compact {
            // Without compaction every version stays fully inspectable:
            // all must be durable and settled AMR.
            prop_assert_eq!(dr.non_durable, 0);
            prop_assert_eq!(dr.durable_not_amr, 0);
            prop_assert_eq!(dr.amr_versions as u64, puts);
        }

        let wl = update_heavy_workload(&sc, key_space, puts, permille);
        assert_last_writer_values(&delta, &wl);
        assert_last_writer_values(&full, &wl);
    }
}

/// A scripted delta chain long enough to cross the chain-depth bound
/// *and* run over an actively compacting store: twelve puts to one hot
/// key under `delta + compact_converged`. Superseded bases must compact
/// (the store stays bounded) while every resolved stripe still decodes
/// to the last writer's bytes.
#[test]
fn delta_chains_survive_base_compaction() {
    let sc = Scenario {
        seed: 7,
        puts: 0,
        value_len: 4096,
        drop_pct: 0,
        dup_pct: 0,
        naive: false,
        outages: Vec::new(),
    };
    let mode = ProtocolMode {
        compact_converged: true,
        ..ProtocolMode::delta()
    };
    let (cluster, outcome) = run_update_heavy(&sc, 1, 12, mode, 10);
    assert_eq!(outcome, RunOutcome::PredicateSatisfied);

    let compacted: usize = cluster
        .topology()
        .clone()
        .all_fss()
        .map(|id| cluster.sim().actor::<Fs>(id).compacted_count())
        .sum();
    assert!(compacted > 0, "superseded delta bases compacted");

    let metrics = cluster.sim().metrics().clone();
    // Twelve puts to one key: the first is a full encode and every
    // chain-depth re-anchor falls back, but most overwrites are deltas.
    assert!(metrics.event("deltas_encoded") >= 6, "{metrics:?}");
    assert_eq!(metrics.event("delta_unresolvable"), 0, "{metrics:?}");

    let report = cluster.report(outcome);
    assert_eq!(report.puts_succeeded, 12);

    let wl = update_heavy_workload(&sc, 1, 12, 10);
    assert_last_writer_values(&cluster, &wl);
}
