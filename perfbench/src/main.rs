//! The Pahoehoe store's benchmark.
//!
//! ```text
//! perfbench --workload <blob-rw|small-4dc|churn-repair> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it builds the workload's cluster with
//! `Cluster::build_with_faults` and, after one untimed warm-up run, runs
//! the workload again and again until `--seconds` have passed (at least
//! three times). It checks every run's outputs and prints the end-to-end
//! metrics, the host-time ones scaled by the reference kernel of
//! [`hostref`]. With `--trace 1` it
//! alternates those untraced runs with traced runs of shimmed actors,
//! checks that both reproduce the same event and message counts, replays
//! the codec, and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and metrics.

mod clock;
mod codec;
mod drive;
mod hostref;
mod report;
mod trace;
mod workloads;

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

use pahoehoe::cluster::Cluster;
use pahoehoe::messages::{EV_DELTAS_ENCODED, EV_REPAIR_COMPLETED};
use simnet::{FaultPlan, Payload};

use crate::clock::Stopwatch;
use crate::drive::{drive, ratio, Ids, Outcome, RunTimes};
use crate::report::{median, p99, result_line, table_line, valid_name, Metric};
use crate::trace::{build_traced, Ledger, LAYERS, TIMER_SLOT};
use crate::workloads::{generate, Spec};

/// Fewest measured runs per invocation, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Fewest set-ups timed per invocation (extra ones build and discard).
const MIN_SETUPS: usize = 7;
/// Extra set-ups continue until the timed set-ups add up to this many
/// seconds, so a set-up of a millisecond still gets a steady median.
const MIN_SETUP_SECONDS: f64 = 0.5;
/// Most set-ups timed per invocation.
const MAX_SETUPS: usize = 2_000;
/// Fewest traced/untraced pairs with `--trace 1`.
const MIN_PAIRS: usize = 2;

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "ops_per_s",
    "peak_rss_mb",
    "put_p50_ms",
    "put_p99_ms",
    "get_p50_ms",
    "get_p99_ms",
    "amr_p50_s",
    "amr_p99_s",
    "bytes_per_put",
    "msgs_per_put",
    "stored_per_user_byte",
];

/// Message kinds the proxy receives.
const PROXY_KINDS: [&str; 7] = [
    "ClientPutReq",
    "ClientGetReq",
    "DecideLocsRep",
    "StoreMetadataRep",
    "StoreFragmentRep",
    "RetrieveTsRep",
    "RetrieveFragRep",
];

/// Message kinds a fragment server receives.
const FS_KINDS: [&str; 11] = [
    "StoreFragmentReq",
    "StoreMetadataReq",
    "SiblingStoreReq",
    "LocsIndication",
    "AMRIndication",
    "FSConvergeReq",
    "FSConvergeRep",
    "KLSConvergeRep",
    "DecideLocsRep",
    "RetrieveFragReq",
    "RetrieveFragRep",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One set-up: generate the inputs, build the repository's cluster.
struct Setup {
    spec: Spec,
    cluster: Cluster,
    gen_s: f64,
    build_s: f64,
}

fn setup(name: &str, seed: u64) -> Setup {
    let sw = Stopwatch::start();
    let spec = generate(name, seed).expect("workload name checked before set-up");
    let gen_s = sw.elapsed_s();
    let sw = Stopwatch::start();
    let cluster = Cluster::build_with_faults(spec.config.clone(), seed, FaultPlan::none());
    let build_s = sw.elapsed_s();
    Setup {
        spec,
        cluster,
        gen_s,
        build_s,
    }
}

/// One measured untraced run.
struct Run {
    outcome: Outcome,
    wall_s: f64,
}

fn run_untraced(s: &mut Setup) -> Run {
    let layout = s.cluster.layout();
    let topo = s.cluster.topology().clone();
    let ids = Ids {
        layout,
        topo: &topo,
    };
    let mut times = RunTimes::default();
    let outcome = drive(s.cluster.sim_mut(), &ids, &s.spec, &mut times);
    Run {
        outcome,
        wall_s: times.wall_ns as f64 / 1e9,
    }
}

/// Checks one run's outputs; returns a description of each failure.
fn check_outcome(o: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    if o.gets_wrong > 0 {
        bad.push(format!(
            "{} gets returned bytes never put under their key",
            o.gets_wrong
        ));
    }
    if o.amr_us.len() as u64 + o.not_amr != o.acked_versions {
        bad.push("an acked version is neither AMR nor counted as not AMR".into());
    }
    if o.put_lat_us.len() as u64 != o.puts_answered {
        bad.push(format!(
            "{} put latency samples for {} answered puts",
            o.put_lat_us.len(),
            o.puts_answered
        ));
    }
    if o.get_lat_us.len() as u64 + o.get_timeouts != o.get_attempts {
        bad.push(format!(
            "{} get latency samples + {} timeouts for {} gets",
            o.get_lat_us.len(),
            o.get_timeouts,
            o.get_attempts
        ));
    }
    if o.puts_acked != o.puts_logical {
        bad.push(format!("{} of {} puts acked", o.puts_acked, o.puts_logical));
    }
    bad
}

fn ms(us: &[u64]) -> Vec<f64> {
    us.iter().map(|&u| u as f64 / 1e3).collect()
}

fn secs(us: &[u64]) -> Vec<f64> {
    us.iter().map(|&u| u as f64 / 1e6).collect()
}

/// Every end-to-end metric this workload exercises, plus the ones only
/// some workloads have (failures, re-protection).
///
/// `kernels[i]` is the reference kernel's time right before `runs[i]`.
/// `setup_s` and `ops_per_s` are scaled to a host on which the kernel
/// takes [`hostref::NOMINAL_S`]; the unscaled values follow in the table.
fn end_to_end(
    o: &Outcome,
    runs: &[Run],
    kernels: &[f64],
    setups: &[f64],
    peak_rss: Option<u64>,
) -> Vec<Metric> {
    let n = runs.len() as u64;
    let completed = o.puts_acked + (o.get_attempts - o.get_attempts_empty);
    let host_rates: Vec<f64> = runs.iter().map(|r| completed as f64 / r.wall_s).collect();
    let rates: Vec<f64> = host_rates
        .iter()
        .zip(kernels)
        .map(|(rate, k)| rate * k / hostref::NOMINAL_S)
        .collect();
    let kernel_s = median(kernels);
    let setup_s = median(setups);
    let mut out = vec![
        Metric::new(
            "setup_s",
            setup_s * hostref::NOMINAL_S / kernel_s,
            "s",
            setups.len() as u64,
        ),
        Metric::new("ops_per_s", median(&rates), "1/s", n),
        Metric::new("setup_s.host", setup_s, "s", setups.len() as u64),
        Metric::new("ops_per_s.host", median(&host_rates), "1/s", n),
        Metric::new("reference_kernel_s", kernel_s, "s", n),
    ];
    if let Some(peak) = peak_rss {
        out.push(Metric::new(
            "peak_rss_mb",
            peak as f64 / (1 << 20) as f64,
            "MB",
            1,
        ));
    }
    let lat = [
        ("put", ms(&o.put_lat_us), "ms"),
        ("get", ms(&o.get_lat_us), "ms"),
        ("amr", secs(&o.amr_us), "s"),
    ];
    for (what, samples, unit) in lat {
        let count = samples.len() as u64;
        if let Some(v) = stats::percentile(&samples, 50.0) {
            out.push(Metric::new(format!("{what}_p50_{unit}"), v, unit, count));
        }
        if let Some(v) = p99(&samples) {
            out.push(Metric::new(format!("{what}_p99_{unit}"), v, unit, count));
        }
    }
    let f = &o.fingerprint;
    let msgs: u64 = f.kinds.iter().map(|k| k.0).sum();
    let bytes: u64 = f.kinds.iter().map(|k| k.1).sum();
    out.push(Metric::new(
        "bytes_per_put",
        ratio(bytes, o.puts_acked),
        "B",
        o.puts_acked,
    ));
    out.push(Metric::new(
        "msgs_per_put",
        ratio(msgs, o.puts_acked),
        "count",
        o.puts_acked,
    ));
    out.push(Metric::new(
        "stored_per_user_byte",
        ratio(o.stored_bytes, o.user_bytes),
        "ratio",
        o.user_bytes,
    ));
    let attempts = o.put_attempts + o.get_attempts;
    let failed = o.put_attempts_failed + o.get_attempts_empty + o.gets_wrong;
    if failed > 0 || o.fingerprint.drops > 0 {
        out.push(Metric::new(
            "ops_failed_frac",
            ratio(failed, attempts),
            "ratio",
            attempts,
        ));
    }
    if let Some(h) = o.horizon_s {
        out.push(Metric::new(
            "reprotect_s",
            o.reprotect_s.unwrap_or(h),
            "s",
            1,
        ));
    }
    if o.not_amr > 0 || o.horizon_s.is_some() {
        out.push(Metric::new(
            "not_amr_frac",
            ratio(o.not_amr, o.acked_versions),
            "ratio",
            o.acked_versions,
        ));
    }
    out
}

/// An untimed first run: the heap grows to its working size and the
/// caches fill, which later runs then reuse. Its outcome is checked and
/// is the fingerprint every later run must reproduce.
fn warm_up(args: &Args, problems: &mut Vec<String>) -> Outcome {
    let mut s = setup(&args.workload, args.seed);
    let run = run_untraced(&mut s);
    problems.extend(check_outcome(&run.outcome));
    run.outcome
}

/// Runs the untraced runs of `--trace 0` and reports end-to-end metrics.
fn measure(args: &Args) -> (bool, u64, u64, Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    let reference = warm_up(args, &mut problems);
    // Read after one set-up and run, so it does not grow with the number
    // of runs a window fits.
    let peak = stats::peak_rss_bytes();
    let total = Stopwatch::start();
    let mut setups = Vec::new();
    let mut runs: Vec<Run> = Vec::new();
    let mut kernels = Vec::new();
    while runs.len() < MIN_RUNS || total.elapsed_s() < args.seconds {
        kernels.push(hostref::time_kernel());
        let mut s = setup(&args.workload, args.seed);
        setups.push(s.gen_s + s.build_s);
        let run = run_untraced(&mut s);
        drop(s);
        problems.extend(check_outcome(&run.outcome));
        if run.outcome.fingerprint != reference.fingerprint {
            problems.push("two runs of the same seed diverged".into());
        }
        runs.push(run);
    }
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < MIN_SETUP_SECONDS && setups.len() < MAX_SETUPS)
    {
        let s = setup(&args.workload, args.seed);
        setups.push(s.gen_s + s.build_s);
    }
    let o = &runs[0].outcome;
    let metrics = end_to_end(o, &runs, &kernels, &setups, peak);
    for name in END_TO_END {
        if !metrics.iter().any(|m| m.name == name) {
            problems.push(format!("end-to-end metric {name} has too few samples"));
        }
    }
    let (attempted, failed) = o.logical_ops();
    let walls: Vec<String> = runs.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!(
        "workload {} seed {}: {} runs, wall s: {}; stopped {} at {:.1} simulated s",
        args.workload,
        args.seed,
        runs.len(),
        walls.join(" "),
        if o.converged {
            "converged"
        } else {
            "at the horizon"
        },
        o.fingerprint.sim_us as f64 / 1e6
    );
    for m in &metrics {
        println!("{}", table_line(m));
    }
    let result: Vec<Metric> = END_TO_END
        .iter()
        .filter_map(|name| metrics.iter().find(|m| m.name == *name).cloned())
        .collect();
    (problems.is_empty(), attempted, failed, result, problems)
}

/// One traced run: its outcome, wall time, run-call times and ledger.
struct TracedRun {
    outcome: Outcome,
    wall_s: f64,
    times: RunTimes,
    ledger: Ledger,
    backlog_mean: f64,
}

fn run_traced(args: &Args) -> TracedRun {
    let spec = generate(&args.workload, args.seed).expect("workload name checked");
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let (mut sim, topo) = build_traced(&spec.config, args.seed, &ledger);
    let ids = Ids {
        layout: spec.config.layout,
        topo: &topo,
    };
    let mut times = RunTimes::default();
    let outcome = drive(&mut sim, &ids, &spec, &mut times);
    let wall_s = times.wall_ns as f64 / 1e9;
    let end = sim.now();
    drop(sim);
    let mut ledger = Rc::try_unwrap(ledger)
        .expect("the simulation held the only other ledger handles")
        .into_inner();
    let backlog_mean = ledger.backlog_mean(end);
    TracedRun {
        outcome,
        wall_s,
        times,
        ledger,
        backlog_mean,
    }
}

/// Runs `--trace 1`: alternating untraced and traced runs, the
/// equivalence check, the codec replay, and the per-layer split.
fn measure_layers(args: &Args) -> (bool, u64, u64, Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    let reference = warm_up(args, &mut problems);
    let total = Stopwatch::start();
    let mut plain: Vec<Run> = Vec::new();
    let mut traced: Vec<TracedRun> = Vec::new();
    let (mut gens, mut builds) = (Vec::new(), Vec::new());
    while traced.len() < MIN_PAIRS || total.elapsed_s() < args.seconds {
        let mut s = setup(&args.workload, args.seed);
        gens.push(s.gen_s);
        builds.push(s.build_s);
        let run = run_untraced(&mut s);
        drop(s);
        problems.extend(check_outcome(&run.outcome));
        let t = run_traced(args);
        problems.extend(check_outcome(&t.outcome));
        if run.outcome.fingerprint != reference.fingerprint {
            problems.push("two untraced runs of the same seed diverged".into());
        }
        if t.outcome.fingerprint != run.outcome.fingerprint {
            problems.push(format!(
                "traced run diverged: events {} vs {}, sim time {} vs {} us",
                t.outcome.fingerprint.events,
                run.outcome.fingerprint.events,
                t.outcome.fingerprint.sim_us,
                run.outcome.fingerprint.sim_us
            ));
        }
        plain.push(run);
        traced.push(t);
    }

    let spec = generate(&args.workload, args.seed).expect("workload name checked");
    let policy = spec.config.policy;
    let cost = codec::replay(
        usize::from(policy.k),
        usize::from(policy.n),
        spec.value_len,
        args.seed,
    );

    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let o = &traced[0].outcome;
    let n = traced.len() as u64;
    let med = |f: &dyn Fn(&TracedRun) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut out: Vec<Metric> = Vec::new();

    // Engine: run-call time the actors and the benchmark's checks do not
    // cover.
    let engine_s = |t: &TracedRun| {
        (t.times
            .run_ns
            .saturating_sub(t.times.check_ns + t.ledger.actor_ns())) as f64
            / 1e9
    };
    out.push(Metric::new(
        "simnet.events_per_s",
        o.fingerprint.events as f64 / plain_wall,
        "1/s",
        plain.len() as u64,
    ));
    out.push(Metric::new("simnet.self_s", med(&engine_s), "s", n));
    out.push(Metric::new(
        "simnet.self_share",
        med(&|t| engine_s(t) / t.wall_s),
        "ratio",
        n,
    ));

    for (l, layer) in LAYERS.iter().enumerate() {
        let calls = traced[0].ledger.layer_calls(l);
        let self_s = |t: &TracedRun| t.ledger.layer_ns(l) as f64 / 1e9;
        out.push(Metric::new(
            format!("{layer}.calls"),
            calls as f64,
            "count",
            1,
        ));
        out.push(Metric::new(format!("{layer}.self_s"), med(&self_s), "s", n));
        out.push(Metric::new(
            format!("{layer}.share"),
            med(&|t| self_s(t) / t.wall_s),
            "ratio",
            n,
        ));
        out.push(Metric::new(
            format!("{layer}.ns_per_call"),
            med(&|t| ratio(t.ledger.layer_ns(l), calls)),
            "ns",
            n,
        ));
    }
    let kind_slot = |label: &str| {
        <pahoehoe::Message as Payload>::KINDS
            .iter()
            .position(|k| *k == label)
            .expect("registered message kind")
    };
    for (l, kinds) in [(0usize, &PROXY_KINDS[..]), (2, &FS_KINDS[..])] {
        let slots = kinds
            .iter()
            .map(|k| (k.to_string(), kind_slot(k)))
            .chain(std::iter::once(("timer".to_string(), TIMER_SLOT)));
        for (label, slot) in slots {
            out.push(Metric::new(
                format!("{}.self_s.{label}", LAYERS[l]),
                med(&|t| t.ledger.ns[l][slot] as f64 / 1e9),
                "s",
                n,
            ));
        }
    }

    out.extend(o.layer_metrics());
    out.push(Metric::new(
        "repair.backlog_max",
        traced[0].ledger.backlog_max as f64,
        "count",
        1,
    ));
    out.push(Metric::new(
        "repair.backlog_mean",
        traced[0].backlog_mean,
        "count",
        1,
    ));

    // Codec: replayed per-call cost times the calls the traced run made.
    let ledger = &traced[0].ledger;
    let proxy_calls = |k: &str| ledger.calls[0][kind_slot(k)] as f64;
    let fs_calls = |k: &str| ledger.calls[2][kind_slot(k)] as f64;
    let deltas = o.counter(EV_DELTAS_ENCODED) as f64;
    let encodes = (proxy_calls("ClientPutReq") - deltas).max(0.0);
    let decodes = proxy_calls("ClientGetReq");
    let recoveries = o.fs_recoveries as f64;
    let recovers = recoveries + o.counter(EV_REPAIR_COMPLETED) as f64;
    let checksums = fs_calls("StoreFragmentReq")
        + fs_calls("SiblingStoreReq")
        + fs_calls("RetrieveFragReq")
        + recoveries;
    let codec_ns = encodes * cost.encode_ns
        + decodes * cost.decode_ns
        + recovers * cost.recover_ns
        + deltas * cost.delta_encode_ns
        + checksums * cost.checksum_ns;
    out.push(Metric::new("erasure.encode_ns", cost.encode_ns, "ns", 7));
    out.push(Metric::new("erasure.decode_ns", cost.decode_ns, "ns", 7));
    out.push(Metric::new("erasure.recover_ns", cost.recover_ns, "ns", 7));
    out.push(Metric::new(
        "erasure.delta_encode_ns",
        cost.delta_encode_ns,
        "ns",
        7,
    ));
    out.push(Metric::new(
        "erasure.checksum_ns",
        cost.checksum_ns,
        "ns",
        7,
    ));
    out.push(Metric::new(
        "erasure.est_share",
        codec_ns / 1e9 / plain_wall,
        "ratio",
        1,
    ));

    out.push(Metric::new(
        "cluster.build_s",
        median(&builds),
        "s",
        builds.len() as u64,
    ));
    out.push(Metric::new(
        "workload.gen_s",
        median(&gens),
        "s",
        gens.len() as u64,
    ));
    out.push(Metric::new(
        "trace.overhead",
        traced_wall / plain_wall - 1.0,
        "ratio",
        n,
    ));
    let uncovered = |t: &TracedRun| {
        let covered = t.ledger.actor_ns() as f64 / 1e9 + engine_s(t);
        (t.wall_s - covered) / t.wall_s
    };
    out.push(Metric::new(
        "trace.uncovered_share",
        med(&uncovered),
        "ratio",
        n,
    ));

    println!(
        "workload {} seed {}: {} traced + {} untraced runs; traced wall {:.3} s, untraced {:.3} s",
        args.workload,
        args.seed,
        traced.len(),
        plain.len(),
        traced_wall,
        plain_wall
    );
    let covered: f64 = LAYERS
        .iter()
        .map(|l| {
            out.iter()
                .find(|m| m.name == format!("{l}.share"))
                .map_or(0.0, |m| m.value)
        })
        .sum::<f64>()
        + out
            .iter()
            .find(|m| m.name == "simnet.self_share")
            .map_or(0.0, |m| m.value);
    println!(
        "  actors + engine cover {:.1} % of traced wall time; uncovered (benchmark driving and checks) {:.1} %",
        covered * 100.0,
        med(&uncovered) * 100.0
    );
    for m in &out {
        println!("{}", table_line(m));
    }
    let (attempted, failed) = o.logical_ops();
    (problems.is_empty(), attempted, failed, out, problems)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if generate(&args.workload, 0).is_none() {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    let (correct, attempted, failed, metrics, problems) = if args.trace {
        measure_layers(&args)
    } else {
        measure(&args)
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    if let Some(m) = metrics.iter().find(|m| !valid_name(&m.name)) {
        eprintln!("perfbench: invalid metric name {}", m.name);
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values of one array of `BENCHMARK.json`, in order.
    fn names(section: &str) -> Vec<String> {
        let start = BENCHMARK
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("section closed")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closed")].to_string())
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
    }

    #[test]
    fn every_declared_metric_name_is_valid_and_unique() {
        for section in ["end_to_end", "per_layer"] {
            let n = names(section);
            assert!(!n.is_empty());
            let mut sorted = n.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), n.len(), "{section} names are unique");
            for name in &n {
                assert!(valid_name(name), "{name}");
            }
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        assert_eq!(names("workloads"), workloads::NAMES.to_vec());
    }

    #[test]
    fn per_layer_kinds_are_registered() {
        for k in PROXY_KINDS.iter().chain(&FS_KINDS) {
            assert!(<pahoehoe::Message as Payload>::KINDS.contains(k), "{k}");
        }
    }
}
