//! The traced run: the repository's actors, each wrapped in a shim that
//! times its calls from outside the program.
//!
//! [`build_traced`] assembles the same actors as
//! `Cluster::build_with_faults` (through their public constructors, in
//! the same order, so node ids match) on a plain `simnet::Simulation`.
//! Each actor sits inside a [`Timed`] shim that times `on_start`,
//! `on_message` and `on_timer` into a shared [`Ledger`] and passes
//! `as_any`/`as_any_mut` straight through, so every downcast, predicate
//! and inspection helper still sees the real actor. Engine time is what
//! the actors do not cover.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use pahoehoe::client::Client;
use pahoehoe::cluster::{ClusterConfig, EngineMode};
use pahoehoe::fs::Fs;
use pahoehoe::kls::Kls;
use pahoehoe::proxy::{Proxy, ProxyConfig};
use pahoehoe::topology::{DataCenterId, Topology};
use pahoehoe::{Message, RepairActor};
use simnet::{Actor, Context, FaultPlan, NodeId, Payload, SimTime, Simulation};

use crate::clock::Stopwatch;

/// The actor layers the ledger splits time across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `pahoehoe::proxy`.
    Proxy = 0,
    /// `pahoehoe::kls`.
    Kls = 1,
    /// `pahoehoe::fs`.
    Fs = 2,
    /// `pahoehoe::client`.
    Client = 3,
    /// `pahoehoe::repair`.
    Repair = 4,
}

/// Metric prefixes of the layers, indexed by [`Layer`].
pub const LAYERS: [&str; 5] = ["proxy", "kls", "fs", "client", "repair"];

/// Slots per layer: one per message kind, then timers, then `on_start`.
const SLOTS: usize = Message::KINDS.len() + 2;
/// Slot of timer calls.
pub const TIMER_SLOT: usize = Message::KINDS.len();
const START_SLOT: usize = Message::KINDS.len() + 1;

/// Calls and nanoseconds per layer and per call slot, plus the repair
/// backlog gauge.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// `[layer][slot]` call counts.
    pub calls: [[u64; SLOTS]; 5],
    /// `[layer][slot]` nanoseconds inside the actor.
    pub ns: [[u64; SLOTS]; 5],
    /// Current backlog of each repair actor, by node id.
    backlog: Vec<(NodeId, usize)>,
    /// Simulated time of the last backlog change.
    backlog_since: SimTime,
    /// Integral of the total backlog over simulated time (items × µs).
    backlog_area: u128,
    /// Largest total backlog seen.
    pub backlog_max: usize,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            calls: [[0; SLOTS]; 5],
            ns: [[0; SLOTS]; 5],
            backlog: Vec::new(),
            backlog_since: SimTime::ZERO,
            backlog_area: 0,
            backlog_max: 0,
        }
    }
}

impl Ledger {
    fn record(&mut self, layer: Layer, slot: usize, ns: u64) {
        let l = layer as usize;
        if let Some(c) = self.calls.get_mut(l).and_then(|row| row.get_mut(slot)) {
            *c += 1;
        }
        if let Some(t) = self.ns.get_mut(l).and_then(|row| row.get_mut(slot)) {
            *t += ns;
        }
    }

    fn total_backlog(&self) -> usize {
        self.backlog.iter().map(|&(_, b)| b).sum()
    }

    /// Records repair actor `id`'s backlog after a call at `now`; the
    /// total backlog is constant between repair calls, so the integral
    /// is exact.
    fn set_backlog(&mut self, id: NodeId, backlog: usize, now: SimTime) {
        self.advance_backlog(now);
        match self.backlog.iter_mut().find(|(n, _)| *n == id) {
            Some(slot) => slot.1 = backlog,
            None => self.backlog.push((id, backlog)),
        }
        self.backlog_max = self.backlog_max.max(self.total_backlog());
    }

    fn advance_backlog(&mut self, now: SimTime) {
        let dt = now
            .as_micros()
            .saturating_sub(self.backlog_since.as_micros());
        self.backlog_area += self.total_backlog() as u128 * u128::from(dt);
        self.backlog_since = self.backlog_since.max(now);
    }

    /// Time-weighted mean total repair backlog from time zero to `end`.
    pub fn backlog_mean(&mut self, end: SimTime) -> f64 {
        self.advance_backlog(end);
        if end.as_micros() == 0 {
            0.0
        } else {
            self.backlog_area as f64 / end.as_micros() as f64
        }
    }

    /// Calls of one layer, over every slot.
    pub fn layer_calls(&self, layer: usize) -> u64 {
        self.calls[layer].iter().sum()
    }

    /// Nanoseconds of one layer, over every slot.
    pub fn layer_ns(&self, layer: usize) -> u64 {
        self.ns[layer].iter().sum()
    }

    /// Nanoseconds across every actor.
    pub fn actor_ns(&self) -> u64 {
        (0..LAYERS.len()).map(|l| self.layer_ns(l)).sum()
    }
}

/// A shared ledger handle.
pub type SharedLedger = Rc<RefCell<Ledger>>;

/// An actor the shim knows how to attribute.
pub trait Traced: Actor<Message> + 'static {
    /// The layer its time is charged to.
    const LAYER: Layer;

    /// A gauge to sample after every call (the repair backlog).
    fn gauge(&self) -> Option<usize> {
        None
    }
}

impl Traced for Proxy {
    const LAYER: Layer = Layer::Proxy;
}
impl Traced for Kls {
    const LAYER: Layer = Layer::Kls;
}
impl Traced for Fs {
    const LAYER: Layer = Layer::Fs;
}
impl Traced for Client {
    const LAYER: Layer = Layer::Client;
}
impl Traced for RepairActor {
    const LAYER: Layer = Layer::Repair;

    fn gauge(&self) -> Option<usize> {
        Some(self.backlog())
    }
}

/// Wraps an actor and times every call into it.
pub struct Timed<A> {
    inner: A,
    ledger: SharedLedger,
}

impl<A: Traced> Timed<A> {
    /// Wraps `inner`, charging its time to `ledger`.
    pub fn new(inner: A, ledger: SharedLedger) -> Self {
        Timed { inner, ledger }
    }

    fn after(&self, slot: usize, ns: u64, ctx: &Context<'_, Message>) {
        let mut ledger = self.ledger.borrow_mut();
        ledger.record(A::LAYER, slot, ns);
        if let Some(g) = self.inner.gauge() {
            ledger.set_backlog(ctx.self_id(), g, ctx.now());
        }
    }
}

impl<A: Traced> Actor<Message> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        let sw = Stopwatch::start();
        self.inner.on_start(ctx);
        self.after(START_SLOT, sw.elapsed_ns(), ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        let slot = msg.kind_id();
        let sw = Stopwatch::start();
        self.inner.on_message(ctx, from, msg);
        self.after(slot, sw.elapsed_ns(), ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        let sw = Stopwatch::start();
        self.inner.on_timer(ctx, tag);
        self.after(TIMER_SLOT, sw.elapsed_ns(), ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Builds the cluster `config` describes, every actor shimmed, in
/// `Cluster::build_with_faults` order. Returns the simulation and its
/// topology.
///
/// Only the single-proxy legacy-engine shape the benchmark's workloads
/// use is supported.
pub fn build_traced(
    config: &ClusterConfig,
    seed: u64,
    ledger: &SharedLedger,
) -> (Simulation<Message>, std::sync::Arc<Topology>) {
    assert_eq!(
        config.engine,
        EngineMode::Legacy,
        "traced runs use the legacy engine"
    );
    assert!(
        config.extra_proxies.is_empty(),
        "traced runs have one proxy"
    );
    let layout = config.layout;
    let mut sim = Simulation::with_network(seed, config.network.clone(), FaultPlan::none());
    let dc_shape = (0..layout.dcs)
        .map(|dc| {
            (
                (0..layout.kls_per_dc).map(|i| layout.kls(dc, i)).collect(),
                (0..layout.fs_per_dc).map(|i| layout.fs(dc, i)).collect(),
            )
        })
        .collect();
    let topo = match config.racks_per_dc {
        Some(racks) => Topology::with_racks(dc_shape, racks),
        None => Topology::new(dc_shape),
    };
    for dc in 0..layout.dcs {
        let dc_id = DataCenterId::new(dc as u8);
        for _ in 0..layout.kls_per_dc {
            let kls = Kls::with_mode(topo.clone(), dc_id, config.protocol);
            sim.add_actor(Timed::new(kls, Rc::clone(ledger)));
        }
        for _ in 0..layout.fs_per_dc {
            let fs = Fs::with_mode(
                topo.clone(),
                dc_id,
                config.convergence.clone(),
                config.protocol,
            );
            sim.add_actor(Timed::new(fs, Rc::clone(ledger)));
        }
    }

    let proxy_cfg = ProxyConfig {
        put_amr_indication: config.convergence.put_amr_indication,
        ..config.proxy.clone()
    };
    let proxy = Proxy::with_mode(
        topo.clone(),
        DataCenterId::new(0),
        0,
        proxy_cfg,
        config.protocol,
    );
    let proxy_id = sim.add_actor(Timed::new(proxy, Rc::clone(ledger)));
    assert_eq!(proxy_id, layout.proxy());

    let script = config.custom_workload.clone().unwrap_or_default();
    let client_id = sim.add_actor(Timed::new(Client::new(proxy_id, script), Rc::clone(ledger)));
    assert_eq!(client_id, layout.client());

    if let Some(opts) = config.convergence.repair.clone() {
        for dc in 0..layout.dcs {
            let dc_id = DataCenterId::new(dc as u8);
            let repair = RepairActor::new(topo.clone(), dc_id, opts.clone());
            let id = sim.add_actor(Timed::new(repair, Rc::clone(ledger)));
            for i in 0..layout.fs_per_dc {
                sim.actor_mut::<Fs>(layout.fs(dc, i)).set_repair_target(id);
            }
        }
    }
    (sim, topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + simnet::SimDuration::from_secs(s)
    }

    #[test]
    fn backlog_gauge_is_time_weighted_over_every_repair_actor() {
        let mut l = Ledger::default();
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        l.set_backlog(a, 4, at(10)); // total 4 over [10, 20)
        l.set_backlog(b, 2, at(20)); // total 6 over [20, 30)
        l.set_backlog(a, 0, at(30)); // total 2 over [30, 40)
        assert_eq!(l.backlog_max, 6);
        let want = (4.0 * 10.0 + 6.0 * 10.0 + 2.0 * 10.0) / 40.0;
        assert!((l.backlog_mean(at(40)) - want).abs() < 1e-9);
    }

    #[test]
    fn record_charges_the_right_layer_and_slot() {
        let mut l = Ledger::default();
        l.record(Layer::Fs, TIMER_SLOT, 70);
        l.record(Layer::Fs, 3, 30);
        l.record(Layer::Proxy, 3, 5);
        assert_eq!(l.layer_calls(Layer::Fs as usize), 2);
        assert_eq!(l.layer_ns(Layer::Fs as usize), 100);
        assert_eq!(l.ns[Layer::Fs as usize][TIMER_SLOT], 70);
        assert_eq!(l.actor_ns(), 105);
    }
}
