//! The background repair engine.
//!
//! The paper's recovery story is purely reactive: §4.2 sibling recovery
//! fires only when a convergence round happens to probe a version, and
//! the optional scrub merely re-hashes. Under sustained churn or a
//! rack-correlated outage the archive silently degrades until a read
//! notices. This module adds the production-shaped counterpart: one
//! [`RepairActor`] per data center that *continuously* tracks per-object
//! live-fragment counts from periodic FS inventory reports
//! ([`Message::RepairReport`]) and restores redundancy the moment an
//! object falls below a policy threshold — not only on reads.
//!
//! # Threshold policy
//!
//! Each actor watches the fragments assigned to its own data center
//! (`frags_per_dc` of them per object). An object becomes *below
//! threshold* when `live * 100 < threshold_pct * target` — integer
//! arithmetic, no floats, so every run computes the identical decision.
//! With the paper policy (6 per DC) and the default `threshold_pct = 80`,
//! repair triggers once a DC drops to 4 of its 6 fragments. Objects with
//! fewer than `k` live fragments *cluster-wide* are not repairable and
//! are left for read-path convergence to flag.
//!
//! # Inventory fold
//!
//! Each version keeps one [`FragMask`] per reporting FS, plus their union
//! and the DC's assigned indices as cached masks. A report arrives sorted
//! by version and is folded by one merge-walk against the tracked map:
//! listed versions take the reporter's new mask, omitted ones lose it.
//! The trigger test then runs over the tracked map in key order as a pure
//! function of the version, the options, whether every FS has reported,
//! and the time. Neither step allocates per entry. A `#[cfg(test)]`
//! oracle keeps the earlier from-scratch fold and pins the equivalence.
//!
//! # Donor selection
//!
//! Donors are the live fragments' holders. When racks are modeled
//! ([`Topology::with_racks`]) the actor prefers donors outside the
//! *failing racks* — the racks hosting the missing fragments — so a
//! rack-correlated outage does not also concentrate repair reads on the
//! sick rack. Within a preference class donors are ordered by `NodeId`,
//! keeping the schedule deterministic. When the local DC cannot supply
//! `k` live fragments the actor falls back to the sibling DC's assigned
//! holders (verified by the fetch itself: absent fragments answer ⊥).
//!
//! # Throttle and backpressure
//!
//! Repairs drain from a queue on a fixed-period tick. At most
//! [`RepairOptions::max_in_flight`] jobs run concurrently, and a token
//! bucket refilled with [`RepairOptions::bandwidth_per_tick`] bytes per
//! tick (0 = unthrottled) gates job admission; a tick whose budget cannot
//! cover the next job records a throttle stall and leaves the job queued.
//! Donor timeouts retry the whole job up to [`RepairOptions::retry_limit`]
//! times before abandoning it (a later report re-triggers from scratch).
//!
//! # Why repair-off digests are pinned
//!
//! The engine is entirely gated on `ConvergenceOptions::repair`: with
//! `None` (the default) no repair actors are built, no report timers are
//! scheduled and no messages or counters change, so the full 144-scenario
//! sweep digests stay byte-identical to the pre-repair tree. The
//! equivalence ladder (sequential vs parallel, default vs reference
//! protocol) therefore keeps guarding the paper protocol while the repair
//! scenarios guard the engine.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use erasure::{Codec, Fragment, FragmentIndex};
use simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};

use crate::messages::{
    Message, OpId, EV_REPAIR_ABANDONED, EV_REPAIR_BYTES, EV_REPAIR_COMPLETED,
    EV_REPAIR_QUEUE_DEPTH, EV_REPAIR_THROTTLE_STALLS, EV_REPAIR_TRIGGERED,
};
use crate::metadata::Metadata;
use crate::protocol::FragMask;
use crate::topology::{DataCenterId, Topology};
use crate::types::ObjectVersion;

/// Timer tag: periodic queue-drain tick.
const TAG_DRAIN: u64 = 1 << 56;
/// Timer tag: per-job donor timeout (low bits carry the job's op id).
const TAG_JOB: u64 = 2 << 56;
/// Mask selecting the tag class from a timer tag.
const TAG_MASK: u64 = 0xff << 56;

/// Policy knobs for the background repair engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOptions {
    /// Redundancy floor as a percentage of the per-DC fragment target:
    /// an object triggers repair when
    /// `live * 100 < threshold_pct * target`. Integer percent keeps the
    /// decision float-free and deterministic. Default 80 (the tentpole's
    /// "0.8×target").
    pub threshold_pct: u32,
    /// How long an object may stay repairable-but-below-threshold before
    /// the `redundancy-floor` invariant calls it a violation. Must cover
    /// at least one report interval plus a repair round-trip.
    pub grace: SimDuration,
    /// Period of each FS's inventory report to its DC's repair actor.
    pub report_interval: SimDuration,
    /// Period of the repair actor's queue-drain tick.
    pub drain_interval: SimDuration,
    /// Maximum concurrently in-flight repair jobs (backpressure bound).
    pub max_in_flight: usize,
    /// Token-bucket refill per drain tick, in fragment payload bytes;
    /// `0` disables throttling entirely.
    pub bandwidth_per_tick: u64,
    /// How many times a job is retried after donor timeouts before it is
    /// abandoned (a later report re-triggers it from scratch).
    pub retry_limit: u32,
    /// Donor fetch timeout per job attempt.
    pub donor_timeout: SimDuration,
}

impl RepairOptions {
    /// Production-shaped defaults: 80 % floor, 30 s reports, 1 s drain
    /// ticks, 4 jobs in flight, unthrottled.
    pub fn paper_default() -> Self {
        RepairOptions {
            threshold_pct: 80,
            grace: SimDuration::from_secs(120),
            report_interval: SimDuration::from_secs(30),
            drain_interval: SimDuration::from_secs(1),
            max_in_flight: 4,
            bandwidth_per_tick: 0,
            retry_limit: 3,
            donor_timeout: SimDuration::from_secs(5),
        }
    }

    /// The default policy with a bandwidth budget of `bytes` per drain
    /// tick (the throttled benchmark cell).
    pub fn throttled(bytes: u64) -> Self {
        RepairOptions {
            bandwidth_per_tick: bytes,
            ..RepairOptions::paper_default()
        }
    }
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions::paper_default()
    }
}

/// What the actor knows about one object version.
#[derive(Debug)]
struct Tracked {
    meta: Arc<Metadata>,
    /// Fragment indices each FS holds, by the FS's position in
    /// [`RepairActor::holders`]: what its last report listed plus the
    /// repair pushes it has acked since.
    have: Vec<FragMask>,
    /// The union of `have`: every fragment index some FS holds.
    live: FragMask,
    /// The fragment indices `meta` assigns to this actor's DC; recomputed
    /// only when `meta` learns something.
    local: FragMask,
    /// When this actor first learned of the version; threshold checks
    /// wait one report interval so every holder has had a chance to
    /// report before a fresh put looks degraded.
    first_seen: SimTime,
    state: JobState,
    retries: u32,
}

impl Tracked {
    fn new(meta: Arc<Metadata>, local: FragMask, holders: usize, now: SimTime) -> Self {
        Tracked {
            meta,
            have: Vec::with_capacity(holders),
            live: FragMask::new(),
            local,
            first_seen: now,
            state: JobState::Idle,
            retries: 0,
        }
    }

    /// Replaces holder `h`'s fragment set, keeping `live` in step.
    // lint:hot
    fn set_held(&mut self, h: usize, held: FragMask) {
        match self.have.get_mut(h) {
            Some(cur) if *cur == held => return,
            Some(cur) => *cur = held,
            None if held.is_empty() => return,
            None => {
                self.have.resize(h, FragMask::new());
                self.have.push(held);
            }
        }
        self.live = self
            .have
            .iter()
            .fold(FragMask::new(), |acc, &m| acc.union(m));
    }

    /// Records that holder `h` now also holds fragment `idx`.
    fn add_held(&mut self, h: usize, idx: FragmentIndex) {
        let mut held = self.have.get(h).copied().unwrap_or_default();
        held.insert(idx);
        self.set_held(h, held);
    }

    /// Assigned local fragments no FS holds: what a repair rebuilds.
    fn missing(&self) -> FragMask {
        self.local.difference(self.live)
    }
}

/// Whether `t` should be queued for repair now: idle, every FS of the DC
/// has reported (`all_reported`), known for a full report interval, below
/// the threshold and still repairable. Pure and allocation-free; the
/// report fold applies it to every tracked version in key order.
// lint:hot
fn should_trigger(t: &Tracked, opts: &RepairOptions, all_reported: bool, now: SimTime) -> bool {
    if t.state != JobState::Idle || !all_reported || now < t.first_seen + opts.report_interval {
        return false;
    }
    let target = t.local.count() as u64;
    if target == 0 {
        return false;
    }
    let live = t.local.intersection(t.live).count() as u64;
    let k = u64::from(t.meta.policy().k);
    let below_threshold = live * 100 < u64::from(opts.threshold_pct) * target;
    // Repairable: the cluster still has >= k fragments. Locally we only
    // *know* our DC's live set; assigned remote fragments count as
    // potential donors (the fetch verifies).
    let remote = t.meta.location_count() as u64 - target;
    let repairable = live + remote >= k && live < target;
    below_threshold && repairable
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Idle,
    Queued,
    InFlight(OpId),
}

/// What one repair of a version rebuilds and where it reads from.
#[derive(Debug, PartialEq, Eq)]
struct Plan {
    /// Missing `(fragment index, assigned FS)` pairs, in assignment order.
    targets: Vec<(FragmentIndex, NodeId)>,
    /// Up to `k` `(FS, fragment index)` donors, in fetch order.
    donors: Vec<(NodeId, FragmentIndex)>,
}

/// One in-flight reconstruction.
#[derive(Debug)]
struct Job {
    ov: ObjectVersion,
    /// Missing `(fragment index, assigned FS)` pairs to regenerate.
    targets: Vec<(FragmentIndex, NodeId)>,
    /// Donor fragments collected so far.
    collected: Vec<Fragment>,
    /// Donor replies still outstanding.
    awaiting: usize,
    /// Store acks still outstanding after reconstruction.
    pending_acks: BTreeSet<FragmentIndex>,
    timer: TimerId,
}

/// Per-data-center background repair actor.
///
/// Fed by [`Message::RepairReport`] inventories from the DC's fragment
/// servers; fetches donors with [`Message::RetrieveFrag`], reconstructs
/// missing fragments and pushes them with [`Message::StoreFragment`] —
/// all existing protocol paths, so fragment servers need no repair-
/// specific handling.
pub struct RepairActor {
    topo: Arc<Topology>,
    my_dc: DataCenterId,
    opts: RepairOptions,
    tracked: BTreeMap<ObjectVersion, Tracked>,
    /// Every FS that has reported or acked a push, the DC's own FSs
    /// first; a position here indexes [`Tracked::have`].
    holders: Vec<NodeId>,
    /// Positions in the report being folded of versions not yet tracked
    /// (reused across reports).
    fresh_scratch: Vec<usize>,
    queue: VecDeque<ObjectVersion>,
    jobs: BTreeMap<OpId, Job>,
    next_op: OpId,
    /// Token bucket for the bandwidth throttle (bytes).
    tokens: u64,
    /// FSs of my DC that have sent at least one report; threshold checks
    /// start once every FS has reported.
    reported: BTreeSet<NodeId>,
    /// Codecs by `(k, n)`, built once per policy shape.
    codecs: BTreeMap<(u8, u8), Codec>,
    triggered: u64,
    completed: u64,
    abandoned: u64,
}

impl RepairActor {
    /// Creates the repair actor for data center `my_dc`.
    pub fn new(topo: Arc<Topology>, my_dc: DataCenterId, opts: RepairOptions) -> Self {
        let holders = topo.fss_in(my_dc).to_vec();
        RepairActor {
            topo,
            my_dc,
            opts,
            tracked: BTreeMap::new(),
            holders,
            fresh_scratch: Vec::new(),
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            next_op: 1,
            tokens: 0,
            reported: BTreeSet::new(),
            codecs: BTreeMap::new(),
            triggered: 0,
            completed: 0,
            abandoned: 0,
        }
    }

    /// Repair jobs triggered so far.
    pub fn jobs_triggered(&self) -> u64 {
        self.triggered
    }

    /// Repair jobs completed so far.
    pub fn jobs_completed(&self) -> u64 {
        self.completed
    }

    /// Repair jobs abandoned after exhausting retries.
    pub fn jobs_abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Object versions currently queued or in flight.
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.jobs.len()
    }

    /// Live fragment indices this actor believes `ov` has in its DC.
    pub fn live_fragments(&self, ov: ObjectVersion) -> usize {
        self.tracked.get(&ov).map_or(0, |t| t.live.count())
    }

    /// The fragment indices `meta` assigns to FSs of data center `dc`.
    fn local_mask(topo: &Topology, dc: DataCenterId, meta: &Metadata) -> FragMask {
        FragMask::from_indices(
            meta.assignments()
                .filter(|(_, loc)| topo.dc_of(loc.fs) == Some(dc))
                .map(|(idx, _)| idx),
        )
    }

    /// `fs`'s position in `holders`, appending it on first sight.
    fn holder(&mut self, fs: NodeId) -> usize {
        match self.holders.iter().position(|&n| n == fs) {
            Some(h) => h,
            None => {
                self.holders.push(fs);
                self.holders.len() - 1
            }
        }
    }

    /// Folds FS `from`'s inventory into `tracked`, then queues, in key
    /// order, every version [`should_trigger`] selects. `entries` must be
    /// in strictly ascending version order (the FS sorts its report). One
    /// merge-walk over `tracked` replaces `from`'s fragment set for every
    /// listed version and clears it for every version the report omits: a
    /// fragment the FS no longer lists is gone (disk loss, corruption).
    /// Returns how many versions were queued.
    // lint:hot
    fn fold_report(
        &mut self,
        from: NodeId,
        now: SimTime,
        entries: &[(ObjectVersion, Arc<Metadata>, FragMask)],
    ) -> u64 {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        self.reported.insert(from);
        let h = self.holder(from);
        let mut fresh = std::mem::take(&mut self.fresh_scratch);
        let mut next = 0;
        for (ov, t) in self.tracked.iter_mut() {
            while entries.get(next).is_some_and(|(e, ..)| e < ov) {
                fresh.push(next);
                next += 1;
            }
            match entries.get(next) {
                Some((e, meta, held)) if e == ov => {
                    if Metadata::merge_shared(&mut t.meta, meta) {
                        t.local = Self::local_mask(&self.topo, self.my_dc, &t.meta);
                    }
                    t.set_held(h, *held);
                    next += 1;
                }
                _ => t.set_held(h, FragMask::new()),
            }
        }
        fresh.extend(next..entries.len());
        for &i in &fresh {
            if let Some((ov, meta, held)) = entries.get(i) {
                let local = Self::local_mask(&self.topo, self.my_dc, meta);
                let mut t = Tracked::new(Arc::clone(meta), local, self.holders.len(), now);
                t.set_held(h, *held);
                self.tracked.insert(*ov, t);
            }
        }
        fresh.clear();
        self.fresh_scratch = fresh;

        let all_reported = self.reported.len() >= self.topo.fss_in(self.my_dc).len();
        let mut queued = 0;
        for (&ov, t) in self.tracked.iter_mut() {
            if should_trigger(t, &self.opts, all_reported, now) {
                t.state = JobState::Queued;
                self.queue.push_back(ov);
                queued += 1;
            }
        }
        self.triggered += queued;
        queued
    }

    /// Records that `fs` acked a repair push of fragment `idx` of `ov`.
    fn note_stored(&mut self, fs: NodeId, ov: ObjectVersion, idx: FragmentIndex) {
        let h = self.holder(fs);
        if let Some(t) = self.tracked.get_mut(&ov) {
            t.add_held(h, idx);
        }
    }

    /// Estimated payload bytes one repair of `ov` moves: `k` donor
    /// fetches plus one push per missing fragment.
    fn job_cost(t: &Tracked) -> u64 {
        let p = t.meta.policy();
        let flen = t.meta.value_len().div_ceil(usize::from(p.k.max(1))) as u64;
        (u64::from(p.k) + t.missing().count() as u64) * flen
    }

    /// The repair plan for `t`. Donors are live local fragments first,
    /// those outside the failing racks (the racks hosting the missing
    /// fragments) ahead of the rest, then the sibling DCs' assigned
    /// holders; `NodeId` order within each class.
    fn plan(&self, t: &Tracked) -> Plan {
        let missing = t.missing();
        let targets: Vec<(FragmentIndex, NodeId)> = t
            .meta
            .assignments()
            .filter(|(idx, _)| missing.contains(*idx))
            .map(|(idx, loc)| (idx, loc.fs))
            .collect();
        let failing: BTreeSet<usize> = targets
            .iter()
            .filter_map(|(_, fs)| self.topo.rack_of(self.my_dc, *fs))
            .collect();
        let mut donors: Vec<(bool, bool, NodeId, FragmentIndex)> = Vec::new();
        for (idx, loc) in t.meta.assignments() {
            if !t.local.contains(idx) {
                donors.push((true, false, loc.fs, idx));
            } else if t.live.contains(idx) {
                let sick = self
                    .topo
                    .rack_of(self.my_dc, loc.fs)
                    .is_some_and(|r| failing.contains(&r));
                donors.push((false, sick, loc.fs, idx));
            }
        }
        donors.sort_unstable();
        // Each fragment index has exactly one assigned location, so the
        // first `k` donors are `k` distinct fragments.
        let donors = donors
            .into_iter()
            .take(usize::from(t.meta.policy().k))
            .map(|(_, _, fs, idx)| (fs, idx))
            .collect();
        Plan { targets, donors }
    }

    /// Starts the repair of `ov`: pick donors, fire the fetches, arm the
    /// job timeout.
    fn start_job(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        let Some(t) = self.tracked.get(&ov) else {
            return;
        };
        let Plan { targets, donors } = self.plan(t);
        if targets.is_empty() {
            // A newer report healed it while queued.
            if let Some(t) = self.tracked.get_mut(&ov) {
                t.state = JobState::Idle;
                t.retries = 0;
            }
            return;
        }
        let op = self.next_op;
        self.next_op += 1;
        let awaiting = donors.len();
        for (fs, idx) in donors {
            ctx.send(
                fs,
                Message::RetrieveFrag {
                    op,
                    ov,
                    fragment: idx,
                },
            );
        }
        let timer = ctx.schedule_timer(self.opts.donor_timeout, TAG_JOB | op);
        self.jobs.insert(
            op,
            Job {
                ov,
                targets,
                collected: Vec::new(),
                awaiting,
                pending_acks: BTreeSet::new(),
                timer,
            },
        );
        if let Some(t) = self.tracked.get_mut(&ov) {
            t.state = JobState::InFlight(op);
        }
    }

    /// Reconstructs and pushes the missing fragments once `k` donors have
    /// answered.
    fn try_reconstruct(&mut self, ctx: &mut Context<'_, Message>, op: OpId) {
        let Some(job) = self.jobs.get(&op) else {
            return;
        };
        let ov = job.ov;
        let Some(t) = self.tracked.get(&ov) else {
            return;
        };
        let meta = Arc::clone(&t.meta);
        let p = *meta.policy();
        let k = usize::from(p.k);
        if job.collected.len() < k {
            if job.awaiting == 0 {
                // Every donor answered and we still lack k fragments.
                self.retry_or_abandon(ctx, op);
            }
            return;
        }
        let codec = self.codecs.entry((p.k, p.n)).or_insert_with(|| {
            // lint:allow(panic-path): the policy was validated at put time
            Codec::new(usize::from(p.k), usize::from(p.n)).expect("policy validated at put time")
        });
        let missing: Vec<FragmentIndex> = job.targets.iter().map(|(idx, _)| *idx).collect();
        let Ok(rebuilt) = codec.recover(&job.collected, &missing, meta.value_len()) else {
            self.retry_or_abandon(ctx, op);
            return;
        };
        let mut pushed_bytes = 0u64;
        let mut pending_acks = BTreeSet::new();
        for frag in rebuilt {
            let idx = frag.index();
            if let Some((_, fs)) = job.targets.iter().find(|(i, _)| *i == idx) {
                pushed_bytes += frag.len() as u64;
                pending_acks.insert(idx);
                ctx.send(
                    *fs,
                    Message::StoreFragment {
                        ov,
                        meta: Arc::clone(&meta),
                        fragment: frag,
                    },
                );
            }
        }
        ctx.record_event(EV_REPAIR_BYTES, pushed_bytes);
        if let Some(job) = self.jobs.get_mut(&op) {
            job.collected.clear();
            job.pending_acks = pending_acks;
        }
    }

    /// A job attempt failed (donor timeout or unrecoverable donor set):
    /// requeue with the retry budget, or abandon.
    fn retry_or_abandon(&mut self, ctx: &mut Context<'_, Message>, op: OpId) {
        let Some(job) = self.jobs.remove(&op) else {
            return;
        };
        ctx.cancel_timer(job.timer);
        let ov = job.ov;
        let Some(t) = self.tracked.get_mut(&ov) else {
            return;
        };
        t.retries += 1;
        if t.retries > self.opts.retry_limit {
            t.state = JobState::Idle;
            t.retries = 0;
            self.abandoned += 1;
            ctx.record_event(EV_REPAIR_ABANDONED, 1);
        } else {
            // Back off by re-queuing: the next drain tick (or a later
            // one, under throttle) restarts the job with fresh donors.
            t.state = JobState::Queued;
            self.queue.push_back(ov);
        }
    }

    /// One drain tick: refill the token bucket, record queue depth,
    /// admit jobs within the in-flight and bandwidth budgets.
    fn drain(&mut self, ctx: &mut Context<'_, Message>) {
        ctx.record_event(EV_REPAIR_QUEUE_DEPTH, self.queue.len() as u64);
        if self.opts.bandwidth_per_tick > 0 {
            self.tokens = (self.tokens + self.opts.bandwidth_per_tick)
                .min(self.opts.bandwidth_per_tick.saturating_mul(8));
        }
        while self.jobs.len() < self.opts.max_in_flight {
            let Some(&ov) = self.queue.front() else {
                break;
            };
            if self.opts.bandwidth_per_tick > 0 {
                let cost = self.tracked.get(&ov).map_or(0, Self::job_cost);
                if cost > self.tokens {
                    ctx.record_event(EV_REPAIR_THROTTLE_STALLS, 1);
                    break;
                }
                self.tokens -= cost;
            }
            self.queue.pop_front();
            self.start_job(ctx, ov);
        }
        ctx.schedule_timer(self.opts.drain_interval, TAG_DRAIN);
    }
}

impl Actor<Message> for RepairActor {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        ctx.schedule_timer(self.opts.drain_interval, TAG_DRAIN);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::RepairReport { entries } => {
                let queued = self.fold_report(from, ctx.now(), &entries);
                if queued > 0 {
                    ctx.record_event(EV_REPAIR_TRIGGERED, queued);
                }
            }

            Message::RetrieveFragReply { op, data, .. } => {
                if let Some(job) = self.jobs.get_mut(&op) {
                    job.awaiting = job.awaiting.saturating_sub(1);
                    // Delta-shaped fragments cannot feed the codec
                    // directly; treat them like an absent donor.
                    if let Some(frag) = data.filter(|f| !f.is_delta()) {
                        ctx.record_event(EV_REPAIR_BYTES, frag.len() as u64);
                        job.collected.push(frag);
                    }
                    self.try_reconstruct(ctx, op);
                }
            }

            Message::StoreFragmentReply { ov, fragment } => {
                let done = self.jobs.iter_mut().find_map(|(&op, job)| {
                    if job.ov == ov && job.pending_acks.remove(&fragment) {
                        Some((op, job.pending_acks.is_empty()))
                    } else {
                        None
                    }
                });
                self.note_stored(from, ov, fragment);
                if let Some((op, true)) = done {
                    if let Some(job) = self.jobs.remove(&op) {
                        ctx.cancel_timer(job.timer);
                    }
                    if let Some(t) = self.tracked.get_mut(&ov) {
                        t.state = JobState::Idle;
                        t.retries = 0;
                    }
                    self.completed += 1;
                    ctx.record_event(EV_REPAIR_COMPLETED, 1);
                }
            }

            // Anything else (stray replies after an abandon, protocol
            // traffic misdirected by a fault scenario) is ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        match tag & TAG_MASK {
            TAG_DRAIN => self.drain(ctx),
            TAG_JOB => {
                let op = tag & !TAG_MASK;
                if self.jobs.contains_key(&op) {
                    self.retry_or_abandon(ctx, op);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kls::Kls;
    use crate::policy::Policy;
    use crate::types::{Key, Timestamp};

    fn topo() -> Arc<Topology> {
        // One DC: 1 KLS, 6 FSs in 3 racks.
        Topology::with_racks(
            vec![(
                vec![NodeId::new(0)],
                (1..=6).map(NodeId::new).collect::<Vec<_>>(),
            )],
            3,
        )
    }

    fn ov(n: u64) -> ObjectVersion {
        ObjectVersion::new(
            Key::from_u64(n),
            Timestamp::new(simnet::SimTime::from_micros(n), 0),
        )
    }

    fn meta_for(t: &Topology, v: ObjectVersion) -> Arc<Metadata> {
        // Single-DC policy: k=4, n=6, all six fragments in DC0.
        let p = Policy::new(4, 6, 1, 2);
        let mut m = Metadata::new(p, DataCenterId::new(0), 1024);
        m.add_dc_locations(
            DataCenterId::new(0),
            Kls::which_locs(t, DataCenterId::new(0), v, &p),
        );
        Arc::new(m)
    }

    /// Feeds `actor` one report per FS of DC 0, each listing the first
    /// `live` of `v`'s assigned fragments that FS holds.
    fn report_all(actor: &mut RepairActor, v: ObjectVersion, meta: &Arc<Metadata>, live: usize) {
        let kept: Vec<(FragmentIndex, NodeId)> = meta
            .assignments()
            .take(live)
            .map(|(idx, loc)| (idx, loc.fs))
            .collect();
        for fs in actor.topo.fss_in(DataCenterId::new(0)).to_vec() {
            let held =
                FragMask::from_indices(kept.iter().filter(|(_, f)| *f == fs).map(|(idx, _)| *idx));
            actor.fold_report(fs, SimTime::ZERO, &[(v, Arc::clone(meta), held)]);
        }
    }

    #[test]
    fn threshold_is_integer_percent_of_local_target() {
        let t = topo();
        let opts = RepairOptions::paper_default();
        let after = SimTime::ZERO + opts.report_interval;
        let mut actor = RepairActor::new(t.clone(), DataCenterId::new(0), opts.clone());
        // 6 live of target 6: 600 >= 80*6=480, healthy.
        let (healthy, meta) = (ov(1), meta_for(&t, ov(1)));
        report_all(&mut actor, healthy, &meta, 6);
        assert_eq!(actor.live_fragments(healthy), 6);
        let tr = &actor.tracked[&healthy];
        assert_eq!(tr.local.count(), 6);
        assert!(!should_trigger(tr, &opts, true, after));
        // 4 live: 400 < 480 and 4 >= k, so repairable and due — but only
        // once every FS has reported and a report interval has passed.
        let (degraded, meta) = (ov(2), meta_for(&t, ov(2)));
        report_all(&mut actor, degraded, &meta, 4);
        assert_eq!(actor.live_fragments(degraded), 4);
        let tr = &actor.tracked[&degraded];
        assert!(should_trigger(tr, &opts, true, after));
        assert!(!should_trigger(tr, &opts, false, after));
        assert!(!should_trigger(tr, &opts, true, SimTime::ZERO));
        // 5 live: 500 >= 480, above the floor.
        let (dipped, meta) = (ov(3), meta_for(&t, ov(3)));
        report_all(&mut actor, dipped, &meta, 5);
        assert!(!should_trigger(&actor.tracked[&dipped], &opts, true, after));
    }

    #[test]
    fn job_cost_counts_fetches_and_pushes() {
        let t = topo();
        let v = ov(2);
        let meta = meta_for(&t, v);
        let mut actor = RepairActor::new(
            t.clone(),
            DataCenterId::new(0),
            RepairOptions::paper_default(),
        );
        // 4 of 6 fragments live -> 2 missing; flen = 1024/4 = 256.
        report_all(&mut actor, v, &meta, 4);
        assert_eq!(RepairActor::job_cost(&actor.tracked[&v]), (4 + 2) * 256);
    }

    /// The from-scratch fold the actor ran before its inventory became
    /// incremental, kept as the oracle for [`RepairActor::fold_report`]:
    /// every report rebuilds a `BTreeMap<ov, BTreeSet>`, replaces the
    /// reporter's set on every tracked version, and every trigger test,
    /// cost estimate and plan re-derives the live set and the local
    /// assignment from scratch.
    struct Oracle {
        topo: Arc<Topology>,
        my_dc: DataCenterId,
        opts: RepairOptions,
        tracked: BTreeMap<ObjectVersion, OracleTracked>,
        queue: VecDeque<ObjectVersion>,
        reported: BTreeSet<NodeId>,
        triggered: u64,
    }

    struct OracleTracked {
        meta: Arc<Metadata>,
        have: BTreeMap<NodeId, BTreeSet<FragmentIndex>>,
        first_seen: SimTime,
        state: JobState,
    }

    impl Oracle {
        fn new(topo: Arc<Topology>, my_dc: DataCenterId, opts: RepairOptions) -> Self {
            Oracle {
                topo,
                my_dc,
                opts,
                tracked: BTreeMap::new(),
                queue: VecDeque::new(),
                reported: BTreeSet::new(),
                triggered: 0,
            }
        }

        fn report(
            &mut self,
            from: NodeId,
            now: SimTime,
            entries: &[(ObjectVersion, Arc<Metadata>, FragMask)],
        ) -> u64 {
            self.reported.insert(from);
            let mut fresh: BTreeMap<ObjectVersion, BTreeSet<FragmentIndex>> = BTreeMap::new();
            for (ov, meta, have) in entries {
                fresh.insert(*ov, have.iter().collect());
                let t = self.tracked.entry(*ov).or_insert_with(|| OracleTracked {
                    meta: Arc::clone(meta),
                    have: BTreeMap::new(),
                    first_seen: now,
                    state: JobState::Idle,
                });
                Metadata::merge_shared(&mut t.meta, meta);
            }
            let touched: Vec<ObjectVersion> = self
                .tracked
                .iter_mut()
                .map(|(&ov, t)| {
                    match fresh.remove(&ov) {
                        Some(set) => {
                            t.have.insert(from, set);
                        }
                        None => {
                            t.have.remove(&from);
                        }
                    }
                    ov
                })
                .collect();
            let before = self.triggered;
            for ov in touched {
                self.maybe_trigger(now, ov);
            }
            self.triggered - before
        }

        fn live_set(t: &OracleTracked) -> BTreeSet<FragmentIndex> {
            t.have.values().flatten().copied().collect()
        }

        fn local_assigned(&self, meta: &Metadata) -> Vec<(FragmentIndex, NodeId)> {
            meta.assignments()
                .filter(|(_, loc)| self.topo.dc_of(loc.fs) == Some(self.my_dc))
                .map(|(idx, loc)| (idx, loc.fs))
                .collect()
        }

        fn maybe_trigger(&mut self, now: SimTime, ov: ObjectVersion) {
            let t = &self.tracked[&ov];
            if t.state != JobState::Idle {
                return;
            }
            if self.reported.len() < self.topo.fss_in(self.my_dc).len() {
                return;
            }
            if now < t.first_seen + self.opts.report_interval {
                return;
            }
            let local = self.local_assigned(&t.meta);
            let target = local.len() as u64;
            if target == 0 {
                return;
            }
            let live_set = Self::live_set(t);
            let live = local
                .iter()
                .filter(|(idx, _)| live_set.contains(idx))
                .count() as u64;
            let k = u64::from(t.meta.policy().k);
            let below_threshold = live * 100 < u64::from(self.opts.threshold_pct) * target;
            let remote = t.meta.location_count() as u64 - target;
            let repairable = live + remote >= k && live < target;
            if below_threshold && repairable {
                self.tracked.get_mut(&ov).unwrap().state = JobState::Queued;
                self.queue.push_back(ov);
                self.triggered += 1;
            }
        }

        fn stored(&mut self, from: NodeId, ov: ObjectVersion, idx: FragmentIndex) {
            if let Some(t) = self.tracked.get_mut(&ov) {
                t.have.entry(from).or_default().insert(idx);
            }
        }

        fn job_cost(&self, t: &OracleTracked) -> u64 {
            let p = t.meta.policy();
            let flen = t.meta.value_len().div_ceil(usize::from(p.k.max(1))) as u64;
            let live_set = Self::live_set(t);
            let missing = self
                .local_assigned(&t.meta)
                .iter()
                .filter(|(idx, _)| !live_set.contains(idx))
                .count() as u64;
            (u64::from(p.k) + missing) * flen
        }

        fn plan(&self, t: &OracleTracked) -> Plan {
            let live_set = Self::live_set(t);
            let local = self.local_assigned(&t.meta);
            let targets: Vec<(FragmentIndex, NodeId)> = local
                .iter()
                .filter(|(idx, _)| !live_set.contains(idx))
                .copied()
                .collect();
            let failing: BTreeSet<usize> = targets
                .iter()
                .filter_map(|(_, fs)| self.topo.rack_of(self.my_dc, *fs))
                .collect();
            let mut donors: Vec<(bool, bool, NodeId, FragmentIndex)> = Vec::new();
            for (idx, fs) in &local {
                if live_set.contains(idx) {
                    let sick = self
                        .topo
                        .rack_of(self.my_dc, *fs)
                        .is_some_and(|r| failing.contains(&r));
                    donors.push((false, sick, *fs, *idx));
                }
            }
            for (idx, loc) in t.meta.assignments() {
                if self.topo.dc_of(loc.fs) != Some(self.my_dc) {
                    donors.push((true, false, loc.fs, idx));
                }
            }
            donors.sort_unstable();
            let mut seen = BTreeSet::new();
            let picked = donors
                .into_iter()
                .filter(|(_, _, _, idx)| seen.insert(*idx))
                .take(usize::from(t.meta.policy().k))
                .map(|(_, _, fs, idx)| (fs, idx))
                .collect();
            Plan {
                targets,
                donors: picked,
            }
        }
    }

    /// SplitMix64, for the differential test's random choices.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// Two DCs of 1 KLS + 6 FSs in 3 racks (DC 0 FSs are nodes 1..=6,
    /// DC 1 FSs are nodes 8..=13).
    fn two_dc_topo() -> Arc<Topology> {
        Topology::with_racks(
            (0..2u32)
                .map(|dc| {
                    let base = dc * 7;
                    (
                        vec![NodeId::new(base)],
                        (base + 1..=base + 6).map(NodeId::new).collect::<Vec<_>>(),
                    )
                })
                .collect(),
            3,
        )
    }

    /// One version's metadata before (home DC only) and after it learns
    /// the second DC.
    struct Version {
        ov: ObjectVersion,
        partial: Arc<Metadata>,
        full: Arc<Metadata>,
    }

    fn versions(topo: &Topology, rng: &mut Rng) -> Vec<Version> {
        let p = Policy::paper_default();
        (1..=16u64)
            .map(|n| {
                let v = ov(n);
                let home = DataCenterId::new(rng.below(2) as u8);
                let other = DataCenterId::new(1 - home.index() as u8);
                let mut m = Metadata::new(p, home, 4096);
                m.add_dc_locations(home, Kls::which_locs(topo, home, v, &p));
                let partial = Arc::new(m.clone());
                m.add_dc_locations(other, Kls::which_locs(topo, other, v, &p));
                Version {
                    ov: v,
                    partial,
                    full: Arc::new(m),
                }
            })
            .collect()
    }

    /// Drives the incremental fold and the oracle through one random
    /// sequence of reports (adding, shrinking and omitting versions, with
    /// metadata that learns its second DC), repair-push acks between
    /// reports and queue drains, asserting after every step that both
    /// agree on what was triggered, the queue order, the backlog, every
    /// version's live count, job cost and repair plan.
    fn differential_run(seed: u64, my_dc: DataCenterId, opts: RepairOptions) -> u64 {
        let topo = two_dc_topo();
        let mut rng = Rng(seed);
        let vs = versions(&topo, &mut rng);
        let mut actor = RepairActor::new(topo.clone(), my_dc, opts.clone());
        let mut oracle = Oracle::new(topo.clone(), my_dc, opts);
        let all_fss: Vec<NodeId> = topo.all_fss().collect();
        let mine = topo.fss_in(my_dc).to_vec();
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            now += SimDuration::from_secs(rng.below(16));
            match rng.below(10) {
                0..=5 => {
                    // Mostly the DC's own FSs; now and then a stray sender.
                    let from = if rng.chance(90) {
                        mine[rng.below(mine.len() as u64) as usize]
                    } else {
                        all_fss[rng.below(all_fss.len() as u64) as usize]
                    };
                    let listed = rng.below(100);
                    let mut entries = Vec::new();
                    for v in &vs {
                        if rng.below(100) >= listed {
                            continue;
                        }
                        let meta = if rng.chance(50) { &v.full } else { &v.partial };
                        let mut held = FragMask::new();
                        for idx in v.full.assigned_to(from) {
                            if rng.chance(80) {
                                held.insert(idx);
                            }
                        }
                        if rng.chance(10) {
                            held.insert(rng.below(12) as FragmentIndex);
                        }
                        entries.push((v.ov, Arc::clone(meta), held));
                    }
                    let got = actor.fold_report(from, now, &entries);
                    assert_eq!(got, oracle.report(from, now, &entries), "seed {seed}");
                }
                6 | 7 => {
                    let from = all_fss[rng.below(all_fss.len() as u64) as usize];
                    let v = &vs[rng.below(vs.len() as u64) as usize];
                    let idx = rng.below(12) as FragmentIndex;
                    actor.note_stored(from, v.ov, idx);
                    oracle.stored(from, v.ov, idx);
                }
                _ => {
                    // A drain: the head job starts and is later abandoned
                    // or completed, either way leaving the version idle.
                    if let Some(ov) = actor.queue.pop_front() {
                        actor.tracked.get_mut(&ov).unwrap().state = JobState::Idle;
                    }
                    if let Some(ov) = oracle.queue.pop_front() {
                        oracle.tracked.get_mut(&ov).unwrap().state = JobState::Idle;
                    }
                }
            }
            assert_eq!(actor.queue, oracle.queue, "seed {seed}");
            assert_eq!(actor.jobs_triggered(), oracle.triggered);
            assert_eq!(actor.backlog(), oracle.queue.len());
            assert_eq!(
                actor.tracked.keys().collect::<Vec<_>>(),
                oracle.tracked.keys().collect::<Vec<_>>()
            );
            for v in &vs {
                let want = oracle
                    .tracked
                    .get(&v.ov)
                    .map_or(0, |t| Oracle::live_set(t).len());
                assert_eq!(actor.live_fragments(v.ov), want, "seed {seed}");
            }
            for (ov, t) in &actor.tracked {
                let o = &oracle.tracked[ov];
                assert_eq!(t.meta, o.meta);
                assert_eq!(RepairActor::job_cost(t), oracle.job_cost(o));
                assert_eq!(actor.plan(t), oracle.plan(o), "seed {seed}");
            }
        }
        actor.jobs_triggered()
    }

    #[test]
    fn incremental_fold_matches_the_from_scratch_oracle() {
        let eager = RepairOptions {
            threshold_pct: 100,
            report_interval: SimDuration::ZERO,
            ..RepairOptions::paper_default()
        };
        let lax = RepairOptions {
            threshold_pct: 50,
            report_interval: SimDuration::from_secs(10),
            ..RepairOptions::paper_default()
        };
        let mut triggered = 0;
        for seed in 0..4u64 {
            for dc in 0..2u8 {
                for opts in [RepairOptions::paper_default(), eager.clone(), lax.clone()] {
                    triggered += differential_run(seed, DataCenterId::new(dc), opts);
                }
            }
        }
        assert!(
            triggered > 1000,
            "the runs must exercise triggering: {triggered}"
        );
    }
}
