//! End-to-end and per-layer benchmark of the one-shot path (graph file →
//! answers) and the served path (request → response) on the paper's hard
//! and easy instances.
//!
//! ```text
//! emg-perfbench --workload hard|easy --seed N --seconds S --trace 0|1
//! ```
//!
//! One process generates the workload's inputs from the seed, starts an
//! in-process `emg-server` on them, and then runs whole rounds until `S`
//! seconds have passed. A round is: the LCA build and a batched LCA query
//! pass; three times a segment of the saturating windowed served phase and
//! one bridge pipeline (TV, CK, hybrid) on each graph instance; the light
//! open-loop served phase and a fourth saturating segment. Round 0 is a
//! warm-up. Every output is checked against the benchmark's own
//! computations (`oracle`). The last line of standard output is one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`.

mod inputs;
mod oneshot;
mod oracle;
mod serve;
mod trace;

use emg_server::protocol::QueryKind;
use emg_server::{BatchConfig, Batcher, Catalog, Client, Server, ServerStats, SessionLimits};
use gpu_sim::{
    CaptureMode, Device, DeviceConfig, FaultConfig, MetricsSnapshot, SanitizeMode, ScanEngine,
};
use graph_core::{Csr, Tree};
use inputs::{Inputs, Workload, GRAPH_NAME, TREE_NAME};
use lca::{InlabelTables, LcaAlgorithm, NaiveGpuLca, SequentialInlabelLca};
use oneshot::BridgeAlg;
use oracle::{SplitMix, TreeIndex};
use serve::{Outcome, Planned};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 2;
/// Pairs in a batched one-shot LCA query pass (one pass a round).
const LCA_QUERIES: usize = 8 << 20;
/// Light phase: one connection, single-pair requests at a fixed rate.
const LIGHT_RATE: f64 = 400.0;
const LIGHT_SECS: f64 = 1.0;
/// Saturating phase: `nproc` connections, each keeping `SAT_WINDOW`
/// requests of `SAT_PAIRS` pairs in flight. One request alone is four
/// default-size (1024-pair) batches, so every flush is a size flush that
/// never waits for the other session, and the batched device answer
/// rather than thread hand-offs sets the rate. At most 32Ki pairs are
/// ever pending, half the default admission bound.
const SAT_PAIRS: usize = 4096;
const SAT_WINDOW: usize = 4;
const SAT_SECS: f64 = 1.0;
/// The saturating phase runs in this many segments spread through the
/// round; `serve.qps` is the median segment's rate.
const SAT_SEGMENTS: usize = 4;
/// Distinct planned requests per served phase (the phases cycle through
/// them).
const LIGHT_PLAN: usize = 1024;
const SAT_PLAN: usize = 256;
/// Bridges and non-bridges each checked by removal, on the first timed
/// call on each graph instance.
const REMOVAL_SAMPLES: usize = 3;
/// Rounds at least, the warm-up included: every bridge pipeline then has
/// at least three timed calls on each graph instance.
const MIN_ROUNDS: usize = 4;
/// The warm-up round's served phases run for this share of their length.
const WARMUP_SERVE_SHARE: f64 = 0.25;
/// Repetitions of each in-process server probe.
const PROBE_REPS: usize = 200;

const SERVED_WRONG: &str = "served answer differs from the one-shot answer";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| opts.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?} (hard|easy)", opts["workload"]))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(k) = opts
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{k}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Clears every environment knob that would change the measured program
/// (fault injection, sanitizer, capture, scan-engine and server
/// overrides) and the thread-count override of the global pool. Runs
/// before any thread starts.
fn scrub_environment() -> Vec<String> {
    let removed: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("EMG_") || k == "RAYON_NUM_THREADS")
        .collect();
    for k in &removed {
        std::env::remove_var(k);
    }
    removed
}

/// The program's default device configuration, spelled out so that no
/// environment variable can change it, with a pool as wide as the host.
fn device_config(nproc: usize) -> DeviceConfig {
    DeviceConfig {
        threads: Some(nproc),
        block_size: 4096,
        seq_threshold: 2048,
        launch_overhead: None,
        pooling: true,
        sanitize: SanitizeMode::Off,
        sanitize_fatal: true,
        scan_engine: ScanEngine::Lookback,
        capture: CaptureMode::Off,
        faults: FaultConfig::default(),
    }
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (NaN for an empty sample).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if s[hi].is_infinite() {
        return s[hi];
    }
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A running server on the workload's catalog.
struct Live {
    inputs: Inputs,
    addr: String,
    catalog: Arc<Catalog>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Live {
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(c);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// Generates and writes the inputs, starts the server and loads its
/// catalog, up to the first answered query. Returns the wall time.
fn setup(
    workload: Workload,
    seed: u64,
    work: &Path,
    cfg: &DeviceConfig,
) -> Result<(Live, f64), String> {
    let t = Instant::now();
    let dir = work.join("catalog");
    let inputs = inputs::generate(workload, seed, &dir, &work.join("extra"))
        .map_err(|e| format!("writing inputs: {e}"))?;
    let server = Server::bind_with(
        "127.0.0.1:0",
        &dir,
        BatchConfig::default(),
        cfg.clone(),
        SessionLimits::default(),
    )
    .map_err(|(code, msg)| format!("server start: {code:?}: {msg}"))?;
    let addr = server.local_addr();
    let catalog = server.catalog();
    let thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let (_, answer) = client
        .query(TREE_NAME, 0, QueryKind::Lca, &[(0, 0)])
        .map_err(|e| format!("first query: {e}"))?;
    if answer != [0] {
        return Err(format!("first query: lca(0,0) = {answer:?}"));
    }
    let took = t.elapsed().as_secs_f64();
    Ok((
        Live {
            inputs,
            addr,
            catalog,
            thread,
        },
        took,
    ))
}

/// Everything one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    /// Wall time of each one-shot call: `lca_build` once, each bridge
    /// pipeline once on each graph instance, in instance order.
    oneshot: BTreeMap<&'static str, Vec<f64>>,
    /// Wall time of the round's batched LCA query pass.
    query_pass: f64,
    counters: BTreeMap<&'static str, MetricsSnapshot>,
    light: Vec<Outcome>,
    light_stats: PhaseStats,
    /// Right answers per second in each saturating segment, from its start
    /// to its last answer.
    sat_rates: Vec<f64>,
    sat_stats: PhaseStats,
    probes: BTreeMap<String, f64>,
}

/// Tallies attempted and failed operations per class. A wrong answer
/// fails its operation and makes the run incorrect; a refused or
/// unanswered request only fails its operation.
#[derive(Default)]
struct Tally {
    attempted: BTreeMap<&'static str, u64>,
    failed: BTreeMap<&'static str, u64>,
    wrong: u64,
    errors: Vec<String>,
}

impl Tally {
    /// One operation whose output was checked: `Err` is a wrong answer.
    fn op(&mut self, class: &'static str, checked: Result<(), String>) {
        if let Err(e) = &checked {
            self.wrong += 1;
            self.note(class, e);
        }
        self.count(class, checked.is_ok());
    }

    /// One request that got no answer to check.
    fn unanswered(&mut self, class: &'static str, why: &str) {
        self.note(class, why);
        self.count(class, false);
    }

    fn count(&mut self, class: &'static str, ok: bool) {
        *self.attempted.entry(class).or_default() += 1;
        if !ok {
            *self.failed.entry(class).or_default() += 1;
        }
    }

    fn note(&mut self, class: &str, why: &str) {
        if self.errors.len() < 8 {
            self.errors.push(format!("{class}: {why}"));
        }
    }

    fn total(map: &BTreeMap<&'static str, u64>) -> u64 {
        map.values().sum()
    }
}

/// Checked reference answers, fixed after round 0.
struct Refs {
    /// Bridge flags of each graph instance.
    flags: Vec<Vec<bool>>,
    tree_index: TreeIndex,
    lca_pairs: Vec<(u32, u32)>,
    lca_answers: Option<Vec<u32>>,
    light: Vec<Planned>,
    sat: Vec<Planned>,
}

/// The server's batching counters over one phase.
#[derive(Default, Clone, Copy)]
struct PhaseStats {
    batches: u64,
    pairs: u64,
    size_flushes: u64,
    deadline_flushes: u64,
}

impl PhaseStats {
    fn between(a: &ServerStats, b: &ServerStats) -> Self {
        PhaseStats {
            batches: b.batches - a.batches,
            pairs: b.queries - a.queries,
            size_flushes: b.size_flushes - a.size_flushes,
            deadline_flushes: b.deadline_flushes - a.deadline_flushes,
        }
    }

    fn add(&mut self, o: PhaseStats) {
        self.batches += o.batches;
        self.pairs += o.pairs;
        self.size_flushes += o.size_flushes;
        self.deadline_flushes += o.deadline_flushes;
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    serve::handshake(&mut s)?;
    Ok(s)
}

/// Builds the served phases' requests and their expected answers: the
/// one-shot answers for the same pairs (LCA from the checked tables,
/// bridge flags from the checked TV run), themselves re-checked here.
fn plan_requests(
    seed: u64,
    inputs: &Inputs,
    tables: &InlabelTables,
    flags: &[bool],
    tree_index: &TreeIndex,
) -> Result<(Vec<Planned>, Vec<Planned>), String> {
    let mut rng = SplitMix(seed ^ 0x005E_77E5);
    let tree_n = inputs.tree.num_nodes();
    let edges = inputs.graphs[0].edges.edges();
    let mut make = |i: usize, pairs_per: usize| -> Result<Planned, String> {
        if i.is_multiple_of(2) {
            let pairs: Vec<(u32, u32)> = (0..pairs_per)
                .map(|_| (rng.below(tree_n) as u32, rng.below(tree_n) as u32))
                .collect();
            let expect: Vec<u32> = pairs.iter().map(|&(x, y)| tables.query(x, y)).collect();
            tree_index.check_batch(&pairs, &expect)?;
            Ok(Planned {
                graph: TREE_NAME,
                kind: QueryKind::Lca,
                pairs,
                expect,
            })
        } else {
            let ids: Vec<usize> = (0..pairs_per).map(|_| rng.below(edges.len())).collect();
            Ok(Planned {
                graph: GRAPH_NAME,
                kind: QueryKind::BridgeEdge,
                pairs: ids.iter().map(|&e| edges[e]).collect(),
                expect: ids.iter().map(|&e| u32::from(flags[e])).collect(),
            })
        }
    };
    let light = (0..LIGHT_PLAN)
        .map(|i| make(i, 1))
        .collect::<Result<_, _>>()?;
    let sat = (0..SAT_PLAN)
        .map(|i| make(i, SAT_PAIRS))
        .collect::<Result<_, _>>()?;
    Ok((light, sat))
}

struct Bench {
    args: Args,
    nproc: usize,
    device: Arc<Device>,
    live: Live,
    tally: Tally,
    refs: Refs,
    rounds: Vec<Round>,
    baselines: BTreeMap<String, f64>,
    probe_csr: Option<Csr>,
    /// Where the next saturating segment starts in the plan.
    sat_cursor: usize,
}

impl Bench {
    fn run_round(&mut self, index: usize, traced: bool) -> Result<(), String> {
        trace::set_enabled(traced);
        let mut round = Round {
            traced,
            ..Round::default()
        };
        let round_span = trace::span("round");
        // The warm-up round makes every kind of call once, the bridge
        // calls on graph instance 0 only.
        let warmup = index == 0;
        let instances = if warmup {
            1
        } else {
            self.args.workload.graph_instances()
        };
        let share = if warmup { WARMUP_SERVE_SHARE } else { 1.0 };
        let segment = SAT_SECS * share / SAT_SEGMENTS as f64;

        let device = Arc::clone(&self.device);
        let tree_path = self.live.inputs.tree_path.clone();
        let t = Instant::now();
        let (lca, counters) = oneshot::lca_build(&device, &tree_path)?;
        round
            .oneshot
            .insert("lca_build", vec![t.elapsed().as_secs_f64()]);
        round.counters.insert("lca_build", counters);
        self.tally.op("lca_build", Ok(()));
        self.query_pass(lca.tables(), &mut round)?;
        drop(lca);

        // Saturating segments are spread through the round, between the
        // bridge calls, so that a burst of host noise lands on few of them.
        for alg in BridgeAlg::ALL {
            self.sat_phase(&mut round, segment)?;
            for graph in 0..instances {
                self.bridge_call(index, graph, alg, &mut round)?;
            }
        }
        if traced {
            self.layer_probes()?;
        }

        self.light_phase(&mut round, share)?;
        self.sat_phase(&mut round, segment)?;
        if traced {
            self.server_probes(&mut round)?;
        }
        drop(round_span);
        trace::set_enabled(false);
        self.rounds.push(round);
        Ok(())
    }

    /// One graph file → flags call on graph instance `graph`.
    fn bridge_call(
        &mut self,
        index: usize,
        graph: usize,
        alg: BridgeAlg,
        round: &mut Round,
    ) -> Result<(), String> {
        let file = &self.live.inputs.graphs[graph];
        let t = Instant::now();
        let (flags, counters) = oneshot::bridges(&self.device, &file.path, alg)?;
        let took = t.elapsed().as_secs_f64();
        let want = &self.refs.flags[graph];
        self.tally
            .op(alg.name(), oracle::check_bridge_set(&flags, want));
        round.oneshot.entry(alg.name()).or_default().push(took);
        // Device counts differ between instances; report the served one's.
        if graph == 0 {
            round.counters.insert(alg.name(), counters);
        }
        // The first timed call on each instance is also checked against
        // the definition of a bridge.
        if index == 1 && alg == BridgeAlg::Tv {
            let mut rng = SplitMix(self.args.seed ^ 0xB41D ^ graph as u64);
            let samples = oracle::sample_edges(&flags, REMOVAL_SAMPLES, &mut rng);
            let g = &file.edges;
            let removal =
                oracle::check_bridges_by_removal(g.num_nodes(), g.edges(), &flags, &samples);
            self.tally.op("bridge_removal_check", removal);
        }
        Ok(())
    }

    /// One batched LCA query pass. The first of the run is checked answer
    /// by answer and fixes the served phases' expected answers; every
    /// later pass must reproduce it exactly.
    fn query_pass(&mut self, tables: &InlabelTables, round: &mut Round) -> Result<(), String> {
        let mut answers = vec![0u32; self.refs.lca_pairs.len()];
        let (took, counters) =
            oneshot::lca_query(&self.device, tables, &self.refs.lca_pairs, &mut answers);
        round.query_pass = took.as_secs_f64();
        round.counters.insert("lca_query", counters);
        let check = match &self.refs.lca_answers {
            None => {
                let r = self
                    .refs
                    .tree_index
                    .check_batch(&self.refs.lca_pairs, &answers);
                let (light, sat) = plan_requests(
                    self.args.seed,
                    &self.live.inputs,
                    tables,
                    &self.refs.flags[0],
                    &self.refs.tree_index,
                )?;
                self.refs.light = light;
                self.refs.sat = sat;
                self.refs.lca_answers = Some(answers);
                r
            }
            Some(want) if *want == answers => Ok(()),
            Some(_) => Err("answers differ from the checked reference pass".into()),
        };
        self.tally.op("lca_query", check);
        Ok(())
    }

    /// Layer calls no end-to-end operation makes on its own: every forest
    /// backend, the tour build split into stages, and (once) the
    /// single-threaded and naive baselines.
    fn layer_probes(&mut self) -> Result<(), String> {
        let inputs = &self.live.inputs;
        let graph = &inputs.graphs[0].edges;
        let csr = self
            .probe_csr
            .get_or_insert_with(|| Csr::from_edge_list(graph));
        oneshot::forest_backends(&self.device, graph, csr);
        oneshot::euler_breakdown(&self.device, &inputs.tree);
        if self.baselines.contains_key("dfs_bridges_s") {
            return Ok(());
        }
        let t = Instant::now();
        let dfs = bridges::bridges_dfs(graph, csr);
        self.baselines
            .insert("dfs_bridges_s".into(), t.elapsed().as_secs_f64());
        let flags: Vec<bool> = (0..graph.num_edges())
            .map(|e| dfs.is_bridge.get(e))
            .collect();
        self.tally.op(
            "baseline",
            oracle::check_bridge_set(&flags, &self.refs.flags[0]),
        );

        let tree = Tree::from_edges(inputs.tree.num_nodes(), inputs.tree.edges(), 0)
            .map_err(|e| format!("{e:?}"))?;
        let pairs = &self.refs.lca_pairs;
        let want = self.refs.lca_answers.as_ref().expect("round 0 ran");
        let mut out = vec![0u32; pairs.len()];
        let t = Instant::now();
        let seq = SequentialInlabelLca::preprocess(&tree);
        self.baselines
            .insert("seq_lca_build_s".into(), t.elapsed().as_secs_f64());
        let t = Instant::now();
        seq.query_batch(pairs, &mut out);
        let secs = t.elapsed().as_secs_f64();
        self.baselines
            .insert("seq_lca_query_mqps".into(), pairs.len() as f64 / secs / 1e6);
        let same = if out == *want {
            Ok(())
        } else {
            Err("sequential inlabel disagrees".into())
        };
        self.tally.op("baseline", same);

        // Naive LCA walks up from both nodes, so its cost per query grows
        // with the depth (about 50 ns a level here): size its batch to the
        // tree so that it ends in about a second.
        let depth = self.refs.tree_index.average_depth().max(1.0);
        let q = ((1u64 << 24) as f64 / depth).clamp(64.0, pairs.len() as f64) as usize;
        let naive = NaiveGpuLca::preprocess(&self.device, &tree);
        let t = Instant::now();
        naive.query_batch(&pairs[..q], &mut out[..q]);
        let secs = t.elapsed().as_secs_f64();
        self.baselines
            .insert("naive_lca_query_mqps".into(), q as f64 / secs / 1e6);
        let same = if out[..q] == want[..q] {
            Ok(())
        } else {
            Err("naive LCA disagrees".into())
        };
        self.tally.op("baseline", same);
        Ok(())
    }

    /// In-process probes of the server's layers, on the live catalog's
    /// snapshots: one `Batcher::submit` → reply round trip at a time, and
    /// `Snapshot::answer_batch` on a full mixed batch.
    fn server_probes(&mut self, round: &mut Round) -> Result<(), String> {
        let tree = self.live.catalog.get(TREE_NAME).map_err(|e| e.1)?;
        let graph = self.live.catalog.get(GRAPH_NAME).map_err(|e| e.1)?;
        let _s = trace::span("emg_server.probes");
        let batcher = Batcher::new(BatchConfig::default());
        let mut roundtrip = Vec::with_capacity(PROBE_REPS);
        for i in 0..PROBE_REPS {
            let p = &self.refs.light[(2 * i) % self.refs.light.len()];
            let t = Instant::now();
            let rx = batcher.submit(Arc::clone(&tree), p.kind, p.pairs.clone());
            let reply = rx.recv().map_err(|e| format!("batcher reply: {e}"))?;
            roundtrip.push(t.elapsed().as_secs_f64() * 1e6);
            let ok = match reply {
                Ok((_, a)) if a == p.expect => Ok(()),
                other => Err(format!("batcher answered {other:?}")),
            };
            self.tally.op("probe", ok);
            // Pace like the light phase, so every submit opens a new window.
            std::thread::sleep(Duration::from_secs_f64(1.0 / LIGHT_RATE));
        }
        batcher.stop();
        round
            .probes
            .insert("batcher_roundtrip_us".into(), median(&roundtrip));

        let lca = &self.refs.sat[0];
        let bridge = &self.refs.sat[1];
        let mut out = vec![0u32; SAT_PAIRS];
        let mut took = Vec::with_capacity(PROBE_REPS);
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            tree.answer_batch(lca.kind, &lca.pairs, &mut out);
            let ok_lca = out == lca.expect;
            graph.answer_batch(bridge.kind, &bridge.pairs, &mut out);
            took.push(t.elapsed().as_secs_f64() * 1e6);
            let ok = if ok_lca && out == bridge.expect {
                Ok(())
            } else {
                Err("answer_batch disagrees with the one-shot answers".into())
            };
            self.tally.op("probe", ok);
        }
        round.probes.insert("answer_batch_us".into(), median(&took));
        Ok(())
    }

    fn light_phase(&mut self, round: &mut Round, share: f64) -> Result<(), String> {
        let mut control = Client::connect(&self.live.addr).map_err(|e| e.to_string())?;
        let before = control.stats().map_err(|e| e.to_string())?;
        let stream = connect(&self.live.addr)?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let count = (LIGHT_RATE * LIGHT_SECS * share) as usize;
        let phase = trace::span("serve.light");
        let start = Instant::now() + Duration::from_millis(2);
        let outcomes = serve::open_loop(writer, stream, &self.refs.light, count, LIGHT_RATE, start);
        if trace::enabled() {
            for (i, o) in outcomes.iter().enumerate() {
                let (Some(sent), Some((done, _))) = (o.sent, o.done) else {
                    continue;
                };
                let req = i as u64 + 1;
                let id = trace::record("serve.request", o.due, done, phase.id(), req);
                trace::record("serve.wire", sent, done, id, req);
            }
        }
        drop(phase);
        for o in &outcomes {
            if o.ok() || o.wrong() {
                let r = if o.ok() {
                    Ok(())
                } else {
                    Err(SERVED_WRONG.to_string())
                };
                self.tally.op("serve_light", r);
            } else {
                self.tally
                    .unanswered("serve_light", "refused, timed out or unsent");
            }
        }
        let after = control.stats().map_err(|e| e.to_string())?;
        round.light_stats = PhaseStats::between(&before, &after);
        round.light = outcomes;
        Ok(())
    }

    fn sat_phase(&mut self, round: &mut Round, secs: f64) -> Result<(), String> {
        let mut control = Client::connect(&self.live.addr).map_err(|e| e.to_string())?;
        let before = control.stats().map_err(|e| e.to_string())?;
        let mut streams = (0..self.nproc)
            .map(|_| connect(&self.live.addr))
            .collect::<Result<Vec<_>, _>>()?;
        let _phase = trace::span("serve.sat");
        let until = Instant::now() + Duration::from_secs_f64(secs);
        let plan = &self.refs.sat;
        // Each segment picks up the plan where the last one left off, and
        // the connections start evenly apart in it, so that every planned
        // request is sent about equally often.
        let cursor = self.sat_cursor;
        let stride = plan.len() / streams.len();
        let reports: Vec<serve::WindowReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter_mut()
                .enumerate()
                .map(|(c, s)| {
                    let offset = cursor + c * stride;
                    scope.spawn(move || serve::window(s, plan, offset, SAT_WINDOW, until))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("window connection panicked"))
                .collect()
        });
        // From the segment's start to its last answer, all connections.
        let start = until - Duration::from_secs_f64(secs);
        let last = reports.iter().filter_map(|r| r.last_done).max();
        let done: u64 = reports.iter().map(|r| r.completed).sum();
        self.sat_cursor += reports
            .iter()
            .map(|r| r.attempted as usize)
            .max()
            .unwrap_or(0);
        if let Some(last) = last {
            round
                .sat_rates
                .push(done as f64 / (last - start).as_secs_f64());
        }
        for r in &reports {
            for _ in 0..r.completed {
                self.tally.op("serve_sat", Ok(()));
            }
            for _ in 0..r.wrong {
                self.tally.op("serve_sat", Err(SERVED_WRONG.into()));
            }
            for _ in r.wrong..r.failed {
                self.tally
                    .unanswered("serve_sat", "refused, timed out or unsent");
            }
        }
        let after = control.stats().map_err(|e| e.to_string())?;
        round.sat_stats.add(PhaseStats::between(&before, &after));
        Ok(())
    }
}

/// One metric line of the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn end_to_end(setups: &[f64], rounds: &[&Round], rss_mb: f64) -> Vec<Metric> {
    // Mean over the graph instances of each one's median call.
    let per_instance = |op: &str| -> f64 {
        let medians: Vec<f64> = (0..rounds[0].oneshot[op].len())
            .map(|g| median(&rounds.iter().map(|r| r.oneshot[op][g]).collect::<Vec<_>>()))
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    };
    let builds: Vec<f64> = rounds.iter().map(|r| r.oneshot["lca_build"][0]).collect();
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.light.iter().map(Outcome::latency_ms))
        .collect();
    vec![
        m("setup_s", median(setups), "s"),
        m("bridges_tv_s", per_instance("tv"), "s"),
        m("bridges_ck_s", per_instance("ck"), "s"),
        m("bridges_hybrid_s", per_instance("hybrid"), "s"),
        m("lca_build_s", median(&builds), "s"),
        m("serve_p50_ms", quantile(&lat, 0.50), "ms"),
        m("peak_rss_mb", rss_mb, "MB"),
    ]
}

fn per_layer(bench: &Bench, traced: &[&Round], untraced: &[&Round]) -> Vec<Metric> {
    let spans = trace::spans();
    let mut self_by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (name, secs) in trace::self_times(&spans) {
        self_by_name.entry(name).or_default().push(secs);
    }
    let layer = |name: &str| self_by_name.get(name).map_or(f64::NAN, |v| median(v));
    let mut out = Vec::new();
    for name in [
        "graph_io.read",
        "graph_io.read_tree",
        "graph_core.csr",
        "graph_core.tree",
        "bridges.forest.uf",
        "bridges.forest.bfs",
        "bridges.forest.sv",
        "bridges.forest.afforest",
        "bridges.forest.adaptive",
        "bridges.tv.spanning_tree",
        "bridges.tv.euler_tour",
        "bridges.tv.detect_bridges",
        "bridges.ck.bfs",
        "bridges.ck.mark",
        "bridges.hybrid.spanning_tree",
        "bridges.hybrid.euler_tour",
        "bridges.hybrid.levels_parents",
        "bridges.hybrid.mark",
        "euler_tour.dcel",
        "euler_tour.list",
        "euler_tour.rank",
        "euler_tour.tour",
        "euler_tour.stats",
        "lca.tables",
        "lca.query",
    ] {
        out.push(m(format!("{name}_s"), layer(name), "s"));
    }
    let last = traced.last().expect("a traced round ran");
    for op in ["tv", "ck", "hybrid", "lca_build", "lca_query"] {
        let c = last.counters[op];
        out.push(m(
            format!("gpu_sim.{op}.launches"),
            c.kernel_launches as f64,
            "count",
        ));
        out.push(m(
            format!("gpu_sim.{op}.work_items"),
            c.work_items as f64,
            "count",
        ));
        // The query kernel models no traffic, so its byte counts would
        // read 0 whatever changes.
        if op != "lca_query" {
            out.push(m(
                format!("gpu_sim.{op}.bytes_read"),
                c.bytes_read as f64,
                "B",
            ));
            out.push(m(
                format!("gpu_sim.{op}.bytes_written"),
                c.bytes_written as f64,
                "B",
            ));
        }
    }

    let probe =
        |k: &str| -> f64 { median(&traced.iter().map(|r| r.probes[k]).collect::<Vec<_>>()) };
    // The wire round trip (actual send → reply) of the light phase, less
    // the in-process batcher round trip: framing, sockets and the session
    // thread's hand-offs.
    let wire: Vec<f64> = traced
        .iter()
        .flat_map(|r| {
            r.light.iter().filter_map(|o| match (o.sent, o.done) {
                (Some(s), Some((d, serve::Reply::Right))) => Some((d - s).as_secs_f64() * 1e6),
                _ => None,
            })
        })
        .collect();
    let batcher = probe("batcher_roundtrip_us");
    out.push(m("emg_server.protocol_us", median(&wire) - batcher, "us"));
    out.push(m("emg_server.batcher_roundtrip_us", batcher, "us"));
    out.push(m(
        "emg_server.answer_batch_us",
        probe("answer_batch_us"),
        "us",
    ));
    for phase in ["light", "sat"] {
        let st: Vec<PhaseStats> = traced
            .iter()
            .map(|r| {
                if phase == "light" {
                    r.light_stats
                } else {
                    r.sat_stats
                }
            })
            .collect();
        let med = |f: fn(&PhaseStats) -> f64| median(&st.iter().map(f).collect::<Vec<_>>());
        out.push(m(
            format!("emg_server.{phase}.batches"),
            med(|s| s.batches as f64),
            "count",
        ));
        out.push(m(
            format!("emg_server.{phase}.mean_batch_pairs"),
            med(|s| s.pairs as f64 / s.batches.max(1) as f64),
            "count",
        ));
        out.push(m(
            format!("emg_server.{phase}.deadline_flushes"),
            med(|s| s.deadline_flushes as f64),
            "count",
        ));
        out.push(m(
            format!("emg_server.{phase}.size_flushes"),
            med(|s| s.size_flushes as f64),
            "count",
        ));
    }
    let late: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.light.iter().filter_map(Outcome::late_ms))
        .collect();
    out.push(m("serve.generator_late_ms", quantile(&late, 1.0), "ms"));
    let lat: Vec<f64> = untraced
        .iter()
        .chain(traced)
        .flat_map(|r| r.light.iter().map(Outcome::latency_ms))
        .collect();
    out.push(m("serve.p99_ms", quantile(&lat, 0.99), "ms"));
    let sat: Vec<f64> = untraced
        .iter()
        .chain(traced)
        .flat_map(|r| r.sat_rates.iter().copied())
        .collect();
    out.push(m("serve.qps", median(&sat), "req/s"));
    let passes: Vec<f64> = untraced
        .iter()
        .chain(traced)
        .map(|r| r.query_pass)
        .collect();
    out.push(m(
        "lca.query_mqps",
        LCA_QUERIES as f64 / median(&passes) / 1e6,
        "Mq/s",
    ));

    for (key, unit) in [
        ("dfs_bridges_s", "s"),
        ("seq_lca_build_s", "s"),
        ("seq_lca_query_mqps", "Mq/s"),
        ("naive_lca_query_mqps", "Mq/s"),
    ] {
        out.push(m(format!("baseline.{key}"), bench.baselines[key], unit));
    }
    // Tracing overhead: one-shot time per round, traced against untraced
    // rounds of the same process.
    let sum = |r: &&Round| -> f64 { r.oneshot.values().flatten().sum::<f64>() + r.query_pass };
    let on = median(&traced.iter().map(sum).collect::<Vec<_>>());
    let off = median(&untraced.iter().map(sum).collect::<Vec<_>>());
    out.push(m("trace.overhead_pct", (on / off - 1.0) * 100.0, "%"));
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Per-span self time, summed by name, for the human-readable report.
fn self_time_table(spans: &[trace::Span]) -> String {
    let mut agg: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (name, secs) in trace::self_times(spans) {
        let e = agg.entry(name).or_default();
        e.0 += secs;
        e.1 += 1;
    }
    let mut rows: Vec<_> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
    let mut s = String::from("per-layer self time (traced rounds):\n");
    for (name, (secs, n)) in rows {
        s.push_str(&format!("  {name:<34} {secs:>9.4} s over {n:>6} spans\n"));
    }
    s
}

fn run(args: Args, scrubbed: &[String]) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = device_config(nproc);
    let commit = commit();
    eprintln!(
        "host: nproc={nproc} pool_width={} commit={commit} workload={} seed={} seconds={} trace={}{}",
        cfg.threads.unwrap_or(0),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if scrubbed.is_empty() {
            String::new()
        } else {
            format!(" cleared={}", scrubbed.join(","))
        }
    );
    let out_dir = PathBuf::from("perfbench/out");
    let work = out_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<Live> = None;
    for _ in 0..SETUP_REPS {
        if let Some(l) = live.take() {
            l.stop()?;
        }
        let (l, secs) = setup(args.workload, args.seed, &work, &cfg)?;
        eprintln!("setup: {secs:.3} s");
        setups.push(secs);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");

    // Reference computations, untimed.
    let t = Instant::now();
    let mut flags = Vec::with_capacity(live.inputs.graphs.len());
    for (i, file) in live.inputs.graphs.iter().enumerate() {
        let g = &file.edges;
        let f = oracle::dfs_bridges(g.num_nodes(), g.edges());
        eprintln!(
            "inputs: graph {i}: {} nodes {} edges {} bridges, {} BFS levels from node 0",
            g.num_nodes(),
            g.num_edges(),
            f.iter().filter(|&&b| b).count(),
            oracle::bfs_levels(g.num_nodes(), g.edges(), 0),
        );
        flags.push(f);
    }
    let tree_index = TreeIndex::new(live.inputs.tree.num_nodes(), live.inputs.tree.edges(), 0)?;
    let lca_pairs =
        graphgen::random_queries(live.inputs.tree.num_nodes(), LCA_QUERIES, args.seed ^ 0x1CA);
    eprintln!(
        "inputs: tree {} nodes, average depth {:.0}, max depth {} (references in {:.2} s)",
        live.inputs.tree.num_nodes(),
        tree_index.average_depth(),
        tree_index.max_depth(),
        t.elapsed().as_secs_f64()
    );

    let mut bench = Bench {
        device: Arc::new(Device::with_config(cfg.clone())),
        nproc,
        live,
        tally: Tally::default(),
        refs: Refs {
            flags,
            tree_index,
            lca_pairs,
            lca_answers: None,
            light: Vec::new(),
            sat: Vec::new(),
        },
        rounds: Vec::new(),
        baselines: BTreeMap::new(),
        probe_csr: None,
        sat_cursor: 0,
        args,
    };
    for _ in 0..SETUP_REPS {
        bench.tally.op("setup", Ok(()));
    }

    let start = Instant::now();
    let mut index = 0;
    while index < MIN_ROUNDS || start.elapsed().as_secs_f64() < bench.args.seconds {
        // Traced runs alternate traced and untraced rounds after the
        // warm-up, so the overhead is measured in one process. Every
        // timed round calls the pipelines on every graph instance, so
        // traced and untraced rounds measure the same calls.
        let traced = bench.args.trace && index % 2 == 1;
        let t = Instant::now();
        bench.run_round(index, traced)?;
        let r = bench.rounds.last().expect("round pushed");
        eprintln!(
            "round {index}{}: {} | lca_query {:.3} s | light p50 {:.3} ms | sat {:.0} req/s ({:.1} s)",
            if traced { " (traced)" } else { "" },
            BridgeAlg::ALL
                .iter()
                .map(|a| a.name())
                .chain(["lca_build"])
                .map(|op| {
                    let t: Vec<String> =
                        r.oneshot[op].iter().map(|t| format!("{t:.3}")).collect();
                    format!("{op} {} s", t.join("/"))
                })
                .collect::<Vec<_>>()
                .join(" | "),
            r.query_pass,
            quantile(&r.light.iter().map(Outcome::latency_ms).collect::<Vec<_>>(), 0.5),
            median(&r.sat_rates),
            t.elapsed().as_secs_f64()
        );
        index += 1;
    }

    let rss = peak_rss_mb();
    let timed: Vec<&Round> = bench.rounds.iter().skip(1).collect();
    let traced: Vec<&Round> = timed.iter().copied().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = timed.iter().copied().filter(|r| !r.traced).collect();
    let metrics = if bench.args.trace {
        let spans = trace::spans();
        let trace_path = out_dir.join(format!(
            "trace-{}-{}.json",
            bench.args.workload.name(),
            bench.args.seed
        ));
        std::fs::write(&trace_path, trace::chrome_json(&spans))
            .map_err(|e| format!("writing {trace_path:?}: {e}"))?;
        eprint!("{}", self_time_table(&spans));
        eprintln!(
            "trace: {} spans written to {}",
            spans.len(),
            trace_path.display()
        );
        per_layer(&bench, &traced, &untraced)
    } else {
        end_to_end(&setups, &untraced, rss)
    };

    let Bench { live, tally, .. } = bench;
    live.stop()?;
    let _ = std::fs::remove_dir_all(&work);

    for (class, n) in &tally.attempted {
        eprintln!(
            "ops: {class:<22} attempted {n:>7} failed {:>5}",
            tally.failed.get(class).copied().unwrap_or(0)
        );
    }
    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    Ok((
        tally.wrong == 0,
        Tally::total(&tally.attempted),
        Tally::total(&tally.failed),
        metrics,
    ))
}

fn main() {
    let scrubbed = scrub_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: emg-perfbench --workload hard|easy --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match run(args, &scrubbed) {
        Ok((correct, attempted, failed, metrics)) => {
            for x in &metrics {
                eprintln!("  {:<40} {:>16.6} {}", x.name, x.value, x.unit);
            }
            println!("{}", json_line(correct, attempted, failed, &metrics));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::EdgeList;

    /// A real server on a small road grid and tree: the served answers
    /// match the one-shot ones, and a planted wrong expectation is caught
    /// as a wrong answer that makes the run incorrect.
    #[test]
    fn served_answers_are_checked_against_the_one_shot_path() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-served-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (graph, _) =
            graphgen::largest_connected_component(&graphgen::road_grid(30, 30, 0.7, 3));
        let tree = graphgen::random_tree(500, Some(3), 4);
        let tree = EdgeList::new(tree.num_nodes(), tree.edges());
        let write = |name: &str, g: &EdgeList| {
            let path = dir.join(format!("{name}.emgbin"));
            let parsed = graph_io::ParsedGraph::dense(g.clone());
            graph_io::binary::write_file(&path, &parsed, None).unwrap();
            path
        };
        let inputs = Inputs {
            graphs: vec![inputs::GraphFile {
                path: write(GRAPH_NAME, &graph),
                edges: graph.clone(),
            }],
            tree_path: write(TREE_NAME, &tree),
            tree,
        };
        let device = Device::with_config(device_config(2));
        let (flags, _) = oneshot::bridges(&device, &inputs.graphs[0].path, BridgeAlg::Tv).unwrap();
        let want = oracle::dfs_bridges(graph.num_nodes(), graph.edges());
        oracle::check_bridge_set(&flags, &want).unwrap();
        let (lca, _) = oneshot::lca_build(&device, &inputs.tree_path).unwrap();
        let index = TreeIndex::new(inputs.tree.num_nodes(), inputs.tree.edges(), 0).unwrap();
        let (mut light, _) = plan_requests(9, &inputs, lca.tables(), &flags, &index).unwrap();

        let server = Server::bind_with(
            "127.0.0.1:0",
            &dir,
            BatchConfig::default(),
            device_config(2),
            SessionLimits::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        let send = |plan: &[Planned]| {
            let s = connect(&addr).unwrap();
            let w = s.try_clone().unwrap();
            serve::open_loop(w, s, plan, 16, 2000.0, Instant::now())
        };
        assert!(send(&light).iter().all(Outcome::ok));

        light[3].expect[0] ^= 1;
        let mut tally = Tally::default();
        for o in send(&light) {
            let r = if o.ok() {
                Ok(())
            } else {
                Err(SERVED_WRONG.to_string())
            };
            assert_eq!(o.wrong(), r.is_err());
            tally.op("serve_light", r);
        }
        assert_eq!((tally.wrong, Tally::total(&tally.failed)), (1, 1));

        Client::connect(&addr).unwrap().shutdown().unwrap();
        thread.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
