//! The three benchmark workloads: cluster configuration and client inputs.
//!
//! Every workload is one simulated closed-loop client with one operation
//! in flight. Its inputs are a pure function of the `--seed` argument;
//! the program under test receives only the generated operations. Every
//! configuration field is pinned here rather than taken from a default,
//! so a later change to a default cannot silently change what is
//! measured. See `perfbench/README.md` for why each workload exists.

use std::collections::BTreeMap;

use bytes::Bytes;
use pahoehoe::client::ClientOp;
use pahoehoe::cluster::{ClusterConfig, ClusterLayout, EngineMode};
use pahoehoe::proxy::ProxyConfig;
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use pahoehoe::{ConvergenceOptions, Key, Policy, ProtocolMode, RepairOptions};
use simnet::{NetworkConfig, SimDuration};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["blob-rw", "small-4dc", "churn-repair"];

/// `blob-rw`: puts (each followed by one get).
pub const BLOB_PUTS: u64 = 1_000;
/// `blob-rw`: value length (the paper's 100 KiB objects).
pub const BLOB_VALUE_LEN: usize = 100 * 1024;
/// `blob-rw`: distinct keys — more than the proxy's 32-entry stripe
/// cache, so overwrites miss it and delta coding is bypassed.
pub const BLOB_KEYS: u64 = 48;

/// `small-4dc`: puts.
pub const SMALL_PUTS: u64 = 8_000;
/// `small-4dc`: gets reading back written keys after the puts. Enough
/// samples for a p99 with ten samples beyond it.
pub const SMALL_READBACK: u64 = 1_000;
/// `small-4dc`: uniform key space.
pub const SMALL_KEY_SPACE: u64 = 100_000;
/// `small-4dc`: value length.
pub const SMALL_VALUE_LEN: usize = 256;

/// `churn-repair`: puts before the disk loss.
pub const CHURN_PUTS_BEFORE: u64 = 3_000;
/// `churn-repair`: gets in the burst right after the loss.
pub const CHURN_GETS: u64 = 1_000;
/// `churn-repair`: puts after the burst, while the rebuild runs.
pub const CHURN_PUTS_AFTER: u64 = 1_000;
/// `churn-repair`: Zipf key space.
pub const CHURN_KEYS: u64 = 2_000;
/// `churn-repair`: value length.
pub const CHURN_VALUE_LEN: usize = 8 * 1024;
/// `churn-repair`: the run stops this long (simulated) after the loss if
/// the store has not re-protected and converged by then.
pub const CHURN_HORIZON: SimDuration = SimDuration::from_secs(1_800);

/// Simulated time the store gets to converge after the client finishes
/// on workloads without a loss (a safety net; converged runs stop
/// earlier).
pub const SETTLE_LIMIT: SimDuration = SimDuration::from_secs(3_600);

/// The client's per-operation timeout, pinned (it is the client's default
/// today).
pub const OP_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// A mid-run fault: both disks of one fragment server are destroyed once
/// the first phase of operations is done, then `then` runs.
#[derive(Debug, Clone)]
pub struct Loss {
    /// Data center of the victim FS.
    pub dc: usize,
    /// Index of the victim FS within its data center.
    pub fs: usize,
    /// Operations issued right after the loss.
    pub then: Vec<ClientOp>,
}

/// One generated workload: what to build and what the client does.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The pinned cluster configuration; its `custom_workload` holds the
    /// operations before any loss.
    pub config: ClusterConfig,
    /// The mid-run disk loss, if the workload has one.
    pub loss: Option<Loss>,
    /// How long the run may go on after the loss (or after the client
    /// finishes, without a loss) before it stops unconverged.
    pub horizon: SimDuration,
    /// Value length of every put (the codec replay uses it).
    pub value_len: usize,
    /// Every value put under each key, for checking gets.
    pub written: BTreeMap<Key, Vec<Bytes>>,
}

impl Spec {
    /// The operations issued before any loss.
    pub fn first_phase(&self) -> &[ClientOp] {
        self.config.custom_workload.as_deref().unwrap_or(&[])
    }

    /// Every operation of the run, in issue order (before retries).
    pub fn all_ops(&self) -> impl Iterator<Item = &ClientOp> {
        self.first_phase()
            .iter()
            .chain(self.loss.iter().flat_map(|l| l.then.iter()))
    }
}

/// Builds the named workload for `seed`, or `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Spec> {
    match name {
        "blob-rw" => Some(blob_rw(seed)),
        "small-4dc" => Some(small_4dc(seed)),
        "churn-repair" => Some(churn_repair(seed)),
        _ => None,
    }
}

/// SplitMix64: a small seeded generator for input synthesis.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a per-purpose `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        v.truncate(len);
        v
    }
}

/// The deployment stack: every protocol optimization on.
const DEPLOYMENT: ProtocolMode = ProtocolMode {
    share_metadata: true,
    batch_rounds: true,
    shard_store: true,
    compact_converged: true,
    delta: true,
};

fn base_config(
    layout: ClusterLayout,
    policy: Policy,
    protocol: ProtocolMode,
    repair: bool,
    racks_per_dc: Option<usize>,
    network: NetworkConfig,
    value_len: usize,
) -> ClusterConfig {
    let mut convergence = ConvergenceOptions::all();
    convergence.repair = repair.then(RepairOptions::paper_default);
    ClusterConfig {
        layout,
        extra_proxies: Vec::new(),
        policy,
        convergence,
        protocol,
        proxy: ProxyConfig::default(),
        network,
        workload_puts: 0,
        workload_value_len: value_len,
        workload_rounds: 1,
        custom_workload: None,
        streaming_workload: None,
        max_sim_time: SETTLE_LIMIT,
        engine: EngineMode::Legacy,
        racks_per_dc,
    }
}

fn record(written: &mut BTreeMap<Key, Vec<Bytes>>, op: &ClientOp) {
    if let ClientOp::Put { key, value, .. } = op {
        written.entry(*key).or_default().push(value.clone());
    }
}

/// The paper's §5.1 cluster on the deployment stack; the client
/// alternates a 100 KiB put with a get of an already-written key.
fn blob_rw(seed: u64) -> Spec {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let policy = Policy::paper_default();
    let mut rng = SplitMix::new(seed, 1);
    let keys: Vec<Key> = (0..BLOB_KEYS)
        .map(|_| Key::from_u64(rng.next_u64() | 1))
        .collect();
    let mut ops = Vec::with_capacity(2 * BLOB_PUTS as usize);
    let mut put_keys: Vec<Key> = Vec::new();
    let mut written = BTreeMap::new();
    for _ in 0..BLOB_PUTS {
        let key = keys[rng.below(BLOB_KEYS) as usize];
        let put = ClientOp::Put {
            key,
            value: Bytes::from(rng.bytes(BLOB_VALUE_LEN)),
            policy,
        };
        record(&mut written, &put);
        ops.push(put);
        put_keys.push(key);
        let read = put_keys[rng.below(put_keys.len() as u64) as usize];
        ops.push(ClientOp::Get { key: read });
    }
    let mut config = base_config(
        layout,
        policy,
        DEPLOYMENT,
        true,
        Some(3),
        NetworkConfig::paper_default(),
        BLOB_VALUE_LEN,
    );
    config.custom_workload = Some(ops);
    Spec {
        config,
        loss: None,
        horizon: SETTLE_LIMIT,
        value_len: BLOB_VALUE_LEN,
        written,
    }
}

/// Four data centers of small values: uniform puts, then a read-back.
fn small_4dc(seed: u64) -> Spec {
    let layout = ClusterLayout {
        dcs: 4,
        kls_per_dc: 2,
        fs_per_dc: 4,
    };
    let policy = Policy::new(4, 16, 4, 1);
    let stream = StreamingWorkload {
        puts: SMALL_PUTS,
        key_space: SMALL_KEY_SPACE,
        value_len: SMALL_VALUE_LEN,
        policy,
        seed,
        dist: KeyDistribution::Uniform,
        overwrite_delta_permille: 0,
    };
    let mut ops: Vec<ClientOp> = (0..SMALL_PUTS).map(|i| stream.op_at(i)).collect();
    let mut written = BTreeMap::new();
    for op in &ops {
        record(&mut written, op);
    }
    let mut rng = SplitMix::new(seed, 2);
    for _ in 0..SMALL_READBACK {
        let key = stream.key_at(rng.below(SMALL_PUTS));
        ops.push(ClientOp::Get { key });
    }
    let protocol = ProtocolMode {
        delta: false,
        ..DEPLOYMENT
    };
    let mut config = base_config(
        layout,
        policy,
        protocol,
        false,
        None,
        NetworkConfig::paper_default(),
        SMALL_VALUE_LEN,
    );
    config.custom_workload = Some(ops);
    Spec {
        config,
        loss: None,
        horizon: SETTLE_LIMIT,
        value_len: SMALL_VALUE_LEN,
        written,
    }
}

/// Zipf overwrites on the full deployment stack over a lossy network,
/// with one server's disks destroyed mid-stream and a read burst during
/// the rebuild.
fn churn_repair(seed: u64) -> Spec {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 6,
    };
    let policy = Policy::paper_default();
    let stream = StreamingWorkload {
        puts: CHURN_PUTS_BEFORE + CHURN_PUTS_AFTER,
        key_space: CHURN_KEYS,
        value_len: CHURN_VALUE_LEN,
        policy,
        seed,
        dist: KeyDistribution::Zipf { exponent: 1.1 },
        overwrite_delta_permille: 10,
    };
    let before: Vec<ClientOp> = (0..CHURN_PUTS_BEFORE).map(|i| stream.op_at(i)).collect();
    let mut rng = SplitMix::new(seed, 3);
    let mut then: Vec<ClientOp> = (0..CHURN_GETS)
        .map(|_| ClientOp::Get {
            key: stream.key_at(rng.below(CHURN_PUTS_BEFORE)),
        })
        .collect();
    then.extend((CHURN_PUTS_BEFORE..stream.puts).map(|i| stream.op_at(i)));
    let mut written = BTreeMap::new();
    for op in before.iter().chain(&then) {
        record(&mut written, op);
    }
    let mut config = base_config(
        layout,
        policy,
        DEPLOYMENT,
        true,
        Some(3),
        NetworkConfig::with_drop_rate(0.02),
        CHURN_VALUE_LEN,
    );
    config.custom_workload = Some(before);
    Spec {
        config,
        loss: Some(Loss { dc: 0, fs: 0, then }),
        horizon: CHURN_HORIZON,
        value_len: CHURN_VALUE_LEN,
        written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A digest of every operation's kind, key and value.
    fn fingerprint(spec: &Spec) -> Vec<(u8, u64, u64)> {
        spec.all_ops()
            .map(|op| match op {
                ClientOp::Put { key, value, .. } => {
                    let h = value.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
                    });
                    (0, key.as_u64(), h)
                }
                ClientOp::Get { key } => (1, key.as_u64(), 0),
            })
            .collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for name in NAMES {
            let a = fingerprint(&generate(name, 7).expect("known workload"));
            let b = fingerprint(&generate(name, 7).expect("known workload"));
            let c = fingerprint(&generate(name, 8).expect("known workload"));
            assert_eq!(a, b, "{name}: same seed, same inputs");
            assert_ne!(a, c, "{name}: another seed, other inputs");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(generate("nope", 1).is_none());
    }

    #[test]
    fn gets_only_read_keys_written_before_them() {
        for name in NAMES {
            let spec = generate(name, 3).expect("known workload");
            let mut seen = std::collections::BTreeSet::new();
            for op in spec.all_ops() {
                match op {
                    ClientOp::Put { key, .. } => {
                        seen.insert(*key);
                    }
                    ClientOp::Get { key } => assert!(seen.contains(key), "{name}"),
                }
            }
        }
    }

    #[test]
    fn blob_rw_keys_outnumber_the_stripe_cache() {
        let spec = generate("blob-rw", 1).expect("known workload");
        assert!(spec.written.len() > 32);
    }

    #[test]
    fn configurations_pin_engine_and_stack() {
        let blob = generate("blob-rw", 1).expect("known workload").config;
        assert_eq!(blob.engine, EngineMode::Legacy);
        assert_eq!(blob.protocol, DEPLOYMENT);
        assert!(blob.convergence.repair.is_some());
        assert_eq!(blob.racks_per_dc, Some(3));
        let small = generate("small-4dc", 1).expect("known workload").config;
        assert!(small.protocol.compact_converged && !small.protocol.delta);
        assert!(small.convergence.repair.is_none());
        assert_eq!(small.layout.dcs, 4);
        let churn = generate("churn-repair", 1).expect("known workload");
        assert_eq!(churn.config.protocol, DEPLOYMENT);
        assert!(churn.loss.is_some());
        assert!(churn.config.network.drop_rate > 0.0);
    }
}
