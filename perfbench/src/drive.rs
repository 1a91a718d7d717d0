//! Drives one workload on a built simulation and measures its outcome.
//!
//! The same code drives the untraced run (the repository's own
//! [`Cluster`](pahoehoe::cluster::Cluster)) and the traced run (the
//! benchmark's own assembly of shimmed actors), so the two can be
//! compared event for event.

use std::collections::BTreeSet;

use pahoehoe::analysis;
use pahoehoe::client::{Client, ClientOp};
use pahoehoe::cluster::ClusterLayout;
use pahoehoe::fs::{Fs, WAKE_TIMER_TAG};
use pahoehoe::messages::{
    EV_DELTAS_ENCODED, EV_DELTA_BYTES_SAVED, EV_DELTA_FALLBACKS, EV_DELTA_UNRESOLVABLE,
    EV_REPAIR_ABANDONED, EV_REPAIR_BYTES, EV_REPAIR_COMPLETED, EV_REPAIR_THROTTLE_STALLS,
    EV_REPAIR_TRIGGERED, EV_STRIPE_CACHE_HITS, EV_STRIPE_CACHE_MISSES,
};
use pahoehoe::topology::Topology;
use pahoehoe::{Message, ObjectVersion};
use simnet::{NodeId, Payload, SimDuration, SimTime, Simulation};

use crate::clock::Stopwatch;
use crate::report::Metric;
use crate::workloads::{Spec, OP_TIMEOUT};

/// Timer tag that wakes the client's next operation.
const CLIENT_WAKE_TAG: u64 = 1;
/// Simulated interval between the (costly) convergence checks.
const CHECK_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Rounds of re-issuing gets that came back empty.
const GET_RETRY_ROUNDS: usize = 3;

/// Labels of the convergence message kinds (rounds, AMR indications and
/// sibling stores).
const CONVERGENCE_KINDS: [&str; 6] = [
    "KLSConvergeReq",
    "KLSConvergeRep",
    "FSConvergeReq",
    "FSConvergeRep",
    "AMRIndication",
    "SiblingStoreReq",
];

/// Everything of a run that is a pure function of the seed: two runs of
/// the same inputs, traced or not, must produce identical fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events the engine dispatched.
    pub events: u64,
    /// Final simulated time, in microseconds.
    pub sim_us: u64,
    /// `(count, bytes)` sent per message kind, in registry order.
    pub kinds: Vec<(u64, u64)>,
    /// Messages the network dropped.
    pub drops: u64,
    /// Messages the network duplicated.
    pub dups: u64,
    /// Protocol event counters, in registry order.
    pub counters: Vec<u64>,
}

/// The simulated outcome of one run (no host time in it).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Equivalence fingerprint.
    pub fingerprint: Fingerprint,
    /// Put issue-to-answer latencies, one per answered put attempt (µs).
    pub put_lat_us: Vec<u64>,
    /// Get issue-to-completion latencies, one per get the proxy answered (µs).
    pub get_lat_us: Vec<u64>,
    /// Put-to-AMR times of acked versions that ended AMR (µs).
    pub amr_us: Vec<u64>,
    /// Put attempts the client issued.
    pub put_attempts: u64,
    /// Put attempts answered (success or failure).
    pub puts_answered: u64,
    /// Put attempts that failed or timed out.
    pub put_attempts_failed: u64,
    /// Puts acked to the client.
    pub puts_acked: u64,
    /// Logical puts in the workload (each retried until acked).
    pub puts_logical: u64,
    /// Get attempts (including re-issued ones).
    pub get_attempts: u64,
    /// Get attempts that came back empty or timed out.
    pub get_attempts_empty: u64,
    /// Get attempts the client timed out on.
    pub get_timeouts: u64,
    /// Logical gets in the workload.
    pub gets_logical: u64,
    /// Logical gets still empty after every retry round.
    pub gets_failed: u64,
    /// Gets whose bytes match no value put under the key.
    pub gets_wrong: u64,
    /// Versions whose put was acked.
    pub acked_versions: u64,
    /// Acked versions not AMR when the run stopped.
    pub not_amr: u64,
    /// Simulated seconds from the loss until every key's latest acked
    /// version was AMR again (`None`: not by the horizon, or no loss).
    pub reprotect_s: Option<f64>,
    /// The horizon after the loss, in seconds (when there is a loss).
    pub horizon_s: Option<f64>,
    /// Whether the run stopped converged (rather than at the horizon).
    pub converged: bool,
    /// Fragment bytes held by all FSs at the end.
    pub stored_bytes: u64,
    /// Bytes of the latest acked value of every key.
    pub user_bytes: u64,
    /// Convergence steps summed over every FS.
    pub fs_rounds: u64,
    /// Local fragment recoveries summed over every FS.
    pub fs_recoveries: u64,
    /// Versions compacted to residual records, summed over every FS.
    pub fs_compacted: u64,
}

impl Outcome {
    /// The protocol event counter `id`.
    pub fn counter(&self, id: usize) -> u64 {
        self.fingerprint.counters.get(id).copied().unwrap_or(0)
    }

    /// Messages and bytes sent of one kind.
    pub fn kind(&self, label: &str) -> (u64, u64) {
        Message::KINDS
            .iter()
            .position(|k| *k == label)
            .and_then(|i| self.fingerprint.kinds.get(i).copied())
            .unwrap_or((0, 0))
    }

    /// Logical operations attempted, and those that failed: puts never
    /// acked, gets still empty after every retry, gets with wrong bytes.
    pub fn logical_ops(&self) -> (u64, u64) {
        let puts_lost = self.puts_logical.saturating_sub(self.puts_acked);
        (
            self.puts_logical + self.gets_logical,
            puts_lost + self.gets_failed + self.gets_wrong,
        )
    }

    /// The per-layer metrics that are pure functions of the seed:
    /// message traffic, convergence, repair and delta-coding counts.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let f = &self.fingerprint;
        let (conv_msgs, conv_bytes) = CONVERGENCE_KINDS
            .iter()
            .map(|k| self.kind(k))
            .fold((0, 0), |(m, b), (km, kb)| (m + km, b + kb));
        let triggered = self.counter(EV_REPAIR_TRIGGERED);
        let completed = self.counter(EV_REPAIR_COMPLETED);
        let hits = self.counter(EV_STRIPE_CACHE_HITS);
        let misses = self.counter(EV_STRIPE_CACHE_MISSES);
        let n = |name: &str, v: u64, unit: &'static str| Metric::new(name, v as f64, unit, 1);
        vec![
            n("simnet.events", f.events, "count"),
            n("simnet.msgs", f.kinds.iter().map(|k| k.0).sum(), "count"),
            n("simnet.msg_bytes", f.kinds.iter().map(|k| k.1).sum(), "B"),
            n("simnet.drops", f.drops, "count"),
            n("simnet.dups", f.dups, "count"),
            Metric::new("simnet.sim_s", f.sim_us as f64 / 1e6, "s", 1),
            n("convergence.msgs", conv_msgs, "count"),
            n("convergence.bytes", conv_bytes, "B"),
            n("fs.rounds", self.fs_rounds, "count"),
            n("fs.recoveries", self.fs_recoveries, "count"),
            n("fs.compacted", self.fs_compacted, "count"),
            n("repair.triggered", triggered, "count"),
            n("repair.completed", completed, "count"),
            n(
                "repair.abandoned",
                self.counter(EV_REPAIR_ABANDONED),
                "count",
            ),
            Metric::new(
                "repair.useful_ratio",
                ratio(completed, triggered),
                "ratio",
                triggered,
            ),
            n("repair.bytes", self.counter(EV_REPAIR_BYTES), "B"),
            n(
                "repair.throttle_stalls",
                self.counter(EV_REPAIR_THROTTLE_STALLS),
                "count",
            ),
            n("delta.encoded", self.counter(EV_DELTAS_ENCODED), "count"),
            n("delta.fallbacks", self.counter(EV_DELTA_FALLBACKS), "count"),
            Metric::new(
                "delta.cache_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
                hits + misses,
            ),
            n("delta.bytes_saved", self.counter(EV_DELTA_BYTES_SAVED), "B"),
            n(
                "delta.unresolvable",
                self.counter(EV_DELTA_UNRESOLVABLE),
                "count",
            ),
        ]
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host time of one run: from the first event to the settle point, and
/// the parts of it spent inside the engine's run calls and in the
/// benchmark's own convergence checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimes {
    /// Nanoseconds from the start of the run to the settle point (the
    /// outcome analysis afterwards is not included).
    pub wall_ns: u64,
    /// Nanoseconds inside `Simulation::run_until`.
    pub run_ns: u64,
    /// Nanoseconds of convergence checks evaluated inside those calls.
    pub check_ns: u64,
}

/// Watches the client after every dispatched event and records each
/// answered operation's simulated latency.
struct Sampler {
    client: NodeId,
    puts_answered: u64,
    puts_acked: u64,
    gets_done: usize,
    /// When the client last finished an operation: with no gap between
    /// operations, the next get is issued at exactly this time.
    last_done: SimTime,
    put_lat_us: Vec<u64>,
    get_lat_us: Vec<u64>,
    get_timeouts: u64,
}

impl Sampler {
    fn observe(&mut self, sim: &Simulation<Message>) {
        let c: &Client = sim.actor(self.client);
        if c.puts_answered() != self.puts_answered {
            self.puts_answered = c.puts_answered();
            self.put_lat_us.push(c.last_put_latency().as_micros());
        }
        if c.puts_succeeded() != self.puts_acked {
            self.puts_acked = c.puts_succeeded();
            self.last_done = sim.now();
        }
        let gets = c.gets_done();
        if gets.len() != self.gets_done {
            self.gets_done = gets.len();
            let lat = sim.now().as_micros() - self.last_done.as_micros();
            let answered =
                gets.last().is_some_and(|g| g.result.is_some()) || lat < OP_TIMEOUT.as_micros();
            if answered {
                self.get_lat_us.push(lat);
            } else {
                self.get_timeouts += 1;
            }
            self.last_done = sim.now();
        }
    }
}

/// Node ids and topology that [`drive`] needs.
pub struct Ids<'a> {
    /// Cluster layout.
    pub layout: ClusterLayout,
    /// Shared topology.
    pub topo: &'a Topology,
}

fn run_until(
    sim: &mut Simulation<Message>,
    times: &mut RunTimes,
    mut pred: impl FnMut(&Simulation<Message>) -> bool,
) {
    let sw = Stopwatch::start();
    sim.run_until(|s| pred(s));
    times.run_ns += sw.elapsed_ns();
}

fn client_done(sim: &Simulation<Message>, client: NodeId) -> bool {
    sim.actor::<Client>(client).is_done()
}

/// Number of durable versions some FS still has convergence work for.
/// Cheap when nothing is pending, which is the common case once settled.
fn pending_durable(sim: &Simulation<Message>, fss: &[NodeId]) -> usize {
    let pending: BTreeSet<ObjectVersion> = fss
        .iter()
        .flat_map(|&fs| sim.actor::<Fs>(fs).pending_versions())
        .collect();
    pending
        .into_iter()
        .filter(|&ov| {
            let mut frags = BTreeSet::new();
            let mut k = None;
            for &fs in fss {
                if let Some(e) = sim.actor::<Fs>(fs).entry(ov) {
                    k = Some(usize::from(e.meta.policy().k));
                    frags.extend(e.fragments.keys().copied());
                }
            }
            k.is_some_and(|k| frags.len() >= k)
        })
        .count()
}

/// Whether an acked version ended at maximum redundancy: AMR in place, or
/// compacted (compaction only collapses versions that settled AMR).
fn ended_amr(
    sim: &Simulation<Message>,
    topo: &Topology,
    fss: &[NodeId],
    ov: ObjectVersion,
) -> bool {
    analysis::is_amr(sim, topo, ov)
        || fss
            .iter()
            .any(|&fs| sim.actor::<Fs>(fs).compacted_residual(ov).is_some())
}

/// Runs `spec` to its end on `sim` and measures the outcome.
pub fn drive(
    sim: &mut Simulation<Message>,
    ids: &Ids<'_>,
    spec: &Spec,
    times: &mut RunTimes,
) -> Outcome {
    let client = ids.layout.client();
    let fss: Vec<NodeId> = ids.topo.all_fss().collect();
    let keys: Vec<pahoehoe::Key> = spec.written.keys().copied().collect();
    let wall = Stopwatch::start();
    sim.actor_mut::<Client>(client).set_op_timeout(OP_TIMEOUT);
    let mut sampler = Sampler {
        client,
        puts_answered: 0,
        puts_acked: 0,
        gets_done: 0,
        last_done: SimTime::ZERO,
        put_lat_us: Vec::new(),
        get_lat_us: Vec::new(),
        get_timeouts: 0,
    };

    run_until(sim, times, |s| {
        sampler.observe(s);
        client_done(s, client)
    });

    let mut loss_at = None;
    if let Some(loss) = &spec.loss {
        let now = sim.now();
        let victim = ids.layout.fs(loss.dc, loss.fs);
        {
            let fs = sim.actor_mut::<Fs>(victim);
            fs.destroy_disk(0, now);
            fs.destroy_disk(1, now);
        }
        sim.schedule_timer(victim, SimDuration::ZERO, WAKE_TIMER_TAG);
        loss_at = Some(now);
        enqueue(sim, client, loss.then.iter().cloned());
        sampler.last_done = now;
        run_until(sim, times, |s| {
            sampler.observe(s);
            client_done(s, client)
        });
    }

    // Re-issue gets that came back empty (lost on a lossy network, or
    // aborted mid-rebuild); a logical get fails only if every round does.
    let mut first_unchecked = 0;
    for _ in 0..GET_RETRY_ROUNDS {
        let retry: Vec<ClientOp> = sim.actor::<Client>(client).gets_done()[first_unchecked..]
            .iter()
            .filter(|g| g.result.is_none())
            .map(|g| ClientOp::Get { key: g.key })
            .collect();
        first_unchecked = sim.actor::<Client>(client).gets_done().len();
        if retry.is_empty() {
            break;
        }
        sampler.last_done = sim.now();
        enqueue(sim, client, retry);
        run_until(sim, times, |s| {
            sampler.observe(s);
            client_done(s, client)
        });
    }

    // Settle: stop once converged (and, after a loss, re-protected), or at
    // the horizon.
    let deadline = loss_at.unwrap_or(sim.now()) + spec.horizon;
    let mut next_check = sim.now();
    let mut reprotected_at: Option<SimTime> = None;
    let mut protected: BTreeSet<ObjectVersion> = BTreeSet::new();
    let mut converged = false;
    let mut check_ns = 0;
    run_until(sim, times, |s| {
        sampler.observe(s);
        if s.now() >= deadline {
            return true;
        }
        if s.now() < next_check {
            return false;
        }
        next_check = s.now() + CHECK_INTERVAL;
        let sw = Stopwatch::start();
        let done = settle_check(
            s,
            ids.topo,
            &fss,
            &keys,
            client,
            loss_at.is_some(),
            &mut protected,
            &mut reprotected_at,
        );
        check_ns += sw.elapsed_ns();
        converged = done;
        done
    });
    times.check_ns += check_ns;
    times.wall_ns = wall.elapsed_ns();
    if !converged && sim.now() < deadline {
        // The queue drained between two checks.
        converged = settle_check(
            sim,
            ids.topo,
            &fss,
            &keys,
            client,
            loss_at.is_some(),
            &mut protected,
            &mut reprotected_at,
        );
    }

    let c: &Client = sim.actor(client);
    let mut acked_versions = 0;
    let mut not_amr = 0;
    let mut amr_us = Vec::new();
    for &ov in c.success_versions() {
        acked_versions += 1;
        let settled = fss
            .iter()
            .filter_map(|&fs| sim.actor::<Fs>(fs).amr_settled_at(ov))
            .max();
        match settled {
            Some(t) if ended_amr(sim, ids.topo, &fss, ov) => {
                amr_us.push(t.as_micros().saturating_sub(ov.ts.clock_micros()));
            }
            _ => not_amr += 1,
        }
    }

    let mut gets_wrong = 0;
    for g in c.gets_done() {
        if let Some((_, bytes)) = &g.result {
            let ok = spec
                .written
                .get(&g.key)
                .is_some_and(|vals| vals.iter().any(|v| v == bytes));
            if !ok {
                gets_wrong += 1;
            }
        }
    }
    let gets_logical = spec
        .all_ops()
        .filter(|op| matches!(op, ClientOp::Get { .. }))
        .count() as u64;
    let puts_logical = spec.all_ops().count() as u64 - gets_logical;
    let get_attempts = c.gets_done().len() as u64;
    let get_attempts_empty = c.gets_done().iter().filter(|g| g.result.is_none()).count() as u64;
    let gets_failed = c.gets_done()[first_unchecked..]
        .iter()
        .filter(|g| g.result.is_none())
        .count() as u64;

    // Every value of a workload has the same length.
    let user_bytes =
        keys.iter().filter(|k| c.version_of(**k).is_some()).count() as u64 * spec.value_len as u64;
    let mut stored_bytes = 0u64;
    let (mut fs_rounds, mut fs_recoveries, mut fs_compacted) = (0, 0, 0);
    for &id in &fss {
        let fs: &Fs = sim.actor(id);
        for ov in fs.known_versions() {
            if let Some(e) = fs.entry(ov) {
                stored_bytes += e.fragments.values().map(|f| f.len() as u64).sum::<u64>();
            }
        }
        fs_rounds += fs.steps_run();
        fs_recoveries += fs.recoveries_done();
        fs_compacted += fs.compacted_count() as u64;
    }

    let m = sim.metrics();
    let fingerprint = Fingerprint {
        events: sim.events_processed(),
        sim_us: sim.now().as_micros(),
        kinds: Message::KINDS
            .iter()
            .map(|k| {
                let s = m.kind(k);
                (s.count, s.bytes)
            })
            .collect(),
        drops: m.dropped(),
        dups: m.duplicated(),
        counters: Message::EVENTS.iter().map(|e| m.event(e)).collect(),
    };
    let put_attempts = c.puts_attempted();
    Outcome {
        fingerprint,
        put_lat_us: sampler.put_lat_us,
        get_lat_us: sampler.get_lat_us,
        amr_us,
        put_attempts,
        puts_answered: c.puts_answered(),
        put_attempts_failed: put_attempts - c.puts_succeeded(),
        puts_acked: c.puts_succeeded(),
        puts_logical,
        get_attempts,
        get_attempts_empty,
        get_timeouts: sampler.get_timeouts,
        gets_logical,
        gets_failed,
        gets_wrong,
        acked_versions,
        not_amr,
        reprotect_s: match (loss_at, reprotected_at) {
            (Some(l), Some(r)) => Some(r.duration_since(l).as_secs_f64()),
            _ => None,
        },
        horizon_s: loss_at.map(|_| spec.horizon.as_secs_f64()),
        converged,
        stored_bytes,
        user_bytes,
        fs_rounds,
        fs_recoveries,
        fs_compacted,
    }
}

fn enqueue(sim: &mut Simulation<Message>, client: NodeId, ops: impl IntoIterator<Item = ClientOp>) {
    let c = sim.actor_mut::<Client>(client);
    for op in ops {
        c.enqueue(op);
    }
    sim.schedule_timer(client, SimDuration::ZERO, CLIENT_WAKE_TAG);
}

/// One settle check: the client is done, no durable version has
/// convergence work left and — after a loss — every key's latest acked
/// version is AMR again (recording when that first held).
#[allow(clippy::too_many_arguments)]
fn settle_check(
    sim: &Simulation<Message>,
    topo: &Topology,
    fss: &[NodeId],
    keys: &[pahoehoe::Key],
    client: NodeId,
    after_loss: bool,
    protected: &mut BTreeSet<ObjectVersion>,
    reprotected_at: &mut Option<SimTime>,
) -> bool {
    if !client_done(sim, client) {
        return false;
    }
    if after_loss && reprotected_at.is_none() {
        let c: &Client = sim.actor(client);
        for key in keys {
            let Some(ov) = c.version_of(*key) else {
                continue;
            };
            if protected.contains(&ov) {
                continue;
            }
            if !analysis::is_amr(sim, topo, ov) {
                return false;
            }
            protected.insert(ov);
        }
        *reprotected_at = Some(sim.now());
    }
    pending_durable(sim, fss) == 0
}
