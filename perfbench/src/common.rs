//! What every workload shares: seeded draws, world set-up, query pools,
//! the session tally, the closed-loop phase driver and the layer probes.

use crate::oracle;
use crate::sys;
use crate::trace::{mean, quantile, SpanId, Tracer};
use spair_broadcast::{BroadcastChannel, BroadcastCycle, LossModel, PacketKind};
use spair_core::netcodec::ReceivedGraph;
use spair_core::query::{Query, QueryError, QueryOutcome};
use spair_core::BorderPrecomputation;
use spair_methods::{MethodId, MethodProgram, MethodRegistry, ProgramSet, World};
use spair_partition::{KdTreePartition, Partitioning, RegionId};
use spair_roadnet::{NetworkPreset, NodeId, QueuePolicy, RoadNetwork};
use spair_serve::frame::{self, DataFrame, Frame};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every method some workload serves, in the order per-method metrics
/// are reported.
pub const METHODS: [&str; 7] = ["nr", "eb", "dj", "ld", "af", "astar_air", "bidi_air"];

/// The seed every workload's road network is generated from. Like the
/// paper's fixed real maps, the network is a dataset, not a draw:
/// `--seed` draws the journeys, tune-in offsets and channel noise on it,
/// so figures from different seeds compare the same world.
pub const WORLD_SEED: u64 = 9001;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded draw stream; the same seed yields the same draws.
pub struct Draws(u64);

impl Draws {
    pub fn new(seed: u64) -> Self {
        Self(splitmix64(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A derived seed for one (pool entry, method, version, attempt) tuple,
/// so each pool entry replays the same session on every pass.
pub fn derive(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(splitmix64(seed), |h, &p| {
        splitmix64(h ^ p.wrapping_mul(0x100_0000_01B3))
    })
}

pub fn method_id(name: &str) -> MethodId {
    MethodRegistry::standard()
        .get(name)
        .expect("benchmark methods are registered")
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Generates a germany-class network, partitions it, runs the border
/// precomputation and builds each method's program, recording a span
/// around each layer call.
pub fn build_world(
    nodes: usize,
    regions: usize,
    seed: u64,
    methods: &[&str],
    tr: &mut Tracer,
) -> ProgramSet {
    let g = tr.span("roadnet.generate", "", || {
        NetworkPreset::Germany
            .config_for_nodes(seed, nodes)
            .generate()
    });
    let part = tr.span("partition.build", "", || {
        KdTreePartition::build(&g, regions)
    });
    let pre = tr.span("core.precompute", "0", || {
        BorderPrecomputation::run(&g, &part)
    });
    let programs = ProgramSet::new(World::from_parts(g, part, pre));
    build_programs(&programs, methods, tr);
    programs
}

/// Builds each named method's program (`BroadcastMethod::build_program`
/// through `ProgramSet::ensure`) inside a `methods.build` span.
pub fn build_programs(programs: &ProgramSet, methods: &[&str], tr: &mut Tracer) {
    for &m in methods {
        tr.span("methods.build", m, || {
            programs.ensure(method_id(m));
        });
    }
}

/// Runs `setup` `repeats` times (once when traced) and returns the last
/// product with the median wall time.
pub fn repeat_setup<T>(traced: bool, repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if traced { 1 } else { repeats };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        // Drop the previous world first so set-ups do not overlap in memory.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(secs(t));
    }
    eprintln!("set-up times (s): {times:.3?}");
    (last.expect("at least one set-up"), quantile(&times, 0.5))
}

/// One journey of a workload's pool, with its oracle distance on each
/// version of the network.
#[derive(Clone)]
pub struct PoolQuery {
    pub q: Query,
    pub oracle: Vec<u64>,
}

/// Draws `sources` random sources with `short` same-region and `long`
/// other-region targets each, and computes every oracle distance with
/// the benchmark's own Dijkstra on each network in `versions`.
pub fn make_pool(
    versions: &[&RoadNetwork],
    part: &KdTreePartition,
    draws: &mut Draws,
    sources: usize,
    short: usize,
    long: usize,
) -> Vec<PoolQuery> {
    let g = versions[0];
    let n = g.num_nodes();
    let mut by_region: BTreeMap<RegionId, Vec<NodeId>> = BTreeMap::new();
    for v in g.node_ids() {
        by_region.entry(part.region_of(v)).or_default().push(v);
    }
    let mut pool = Vec::with_capacity(sources * (short + long));
    while pool.len() < sources * (short + long) {
        let s = draws.below(n) as NodeId;
        let mates = &by_region[&part.region_of(s)];
        if mates.len() < 2 {
            continue;
        }
        let dists: Vec<Vec<u64>> = versions
            .iter()
            .map(|gv| oracle::distances_from(gv, s))
            .collect();
        let mut push = |t: NodeId| {
            let oracle: Vec<u64> = dists.iter().map(|d| d[t as usize]).collect();
            if t != s && oracle.iter().all(|&d| d != u64::MAX) {
                pool.push(PoolQuery {
                    q: Query::for_nodes(g, s, t),
                    oracle,
                });
                true
            } else {
                false
            }
        };
        let mut got = 0;
        for _ in 0..64 * short {
            if got == short {
                break;
            }
            if push(mates[draws.below(mates.len())]) {
                got += 1;
            }
        }
        let mut got = 0;
        for _ in 0..64 * long {
            if got == long {
                break;
            }
            let t = draws.below(n) as NodeId;
            if part.region_of(t) != part.region_of(s) && push(t) {
                got += 1;
            }
        }
    }
    pool.truncate(sources * (short + long));
    pool
}

/// One answered session as the client saw it.
#[derive(Debug, Clone)]
pub struct Answer {
    pub method: &'static str,
    /// The pool entry the session replays; every pass over the pool
    /// repeats the same sessions, so their packet and memory counts
    /// repeat too.
    pub entry: usize,
    pub wall: Duration,
    pub tuning: u64,
    pub latency: u64,
    pub peak_bytes: usize,
    pub settled: u64,
    pub stats_cpu: Duration,
}

impl Answer {
    pub fn of(method: &'static str, entry: usize, wall: Duration, out: &QueryOutcome) -> Self {
        Self {
            method,
            entry,
            wall,
            tuning: out.stats.tuning_packets,
            latency: out.stats.latency_packets,
            peak_bytes: out.stats.peak_memory_bytes,
            settled: out.stats.settled_nodes,
            stats_cpu: out.stats.cpu,
        }
    }
}

/// Failure classes, in report order.
pub const FAIL_CLASSES: [&str; 4] = [
    "session_error",
    "session_failure",
    "wrong_answer",
    "timeout",
];

/// Operations attempted, answered and failed in one phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub answers: Vec<Answer>,
    pub failures: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Counts one failed operation; wrong answers and the first failure
    /// of each class are also printed.
    pub fn fail(&mut self, class: &'static str, why: &str) {
        debug_assert!(FAIL_CLASSES.contains(&class));
        let n = self.failures.entry(class).or_insert(0);
        if *n == 0 || class == "wrong_answer" {
            eprintln!("FAILED [{class}]: {why}");
        }
        *n += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.answers.extend(other.answers);
        for (k, v) in other.failures {
            *self.failures.entry(k).or_insert(0) += v;
        }
    }

    /// Checks an answer against the oracle and the paper's packet
    /// properties, then records it or counts a wrong answer.
    pub fn check(
        &mut self,
        g: &RoadNetwork,
        pq: &PoolQuery,
        version: usize,
        (distance, path): (u64, &[NodeId]),
        answer: Answer,
        property: Result<(), String>,
    ) {
        let why = oracle::check_answer(
            g,
            pq.q.source,
            pq.q.target,
            pq.oracle[version],
            distance,
            path,
        )
        .map(Err)
        .unwrap_or(property)
        .and_then(|()| {
            if answer.latency < answer.tuning {
                Err(format!(
                    "latency {} < tuning {}",
                    answer.latency, answer.tuning
                ))
            } else {
                Ok(())
            }
        });
        match why {
            Ok(()) => self.answers.push(answer),
            Err(why) => self.fail(
                "wrong_answer",
                &format!(
                    "{} {}->{} v{version}: {why}",
                    answer.method, pq.q.source, pq.q.target
                ),
            ),
        }
    }
}

/// One closed-loop session phase.
pub struct Phase {
    pub tally: Tally,
    pub wall: Duration,
    /// CPU used by the processes under test during the phase.
    pub cpu: Duration,
    pub tracer: Tracer,
}

/// Sessions an untraced phase attempts at least, so that at least ten
/// lie beyond its p99.
pub const MIN_SESSIONS: u64 = 1000;

/// Runs whole rounds (`round(index, tracer, tally)`) until `seconds`
/// have passed, `min_rounds` rounds have run and `min_sessions` were
/// attempted, timing wall and process CPU over the phase.
pub fn run_phase(
    seconds: f64,
    min_rounds: usize,
    min_sessions: u64,
    traced: bool,
    mut round: impl FnMut(usize, &mut Tracer, &mut Tally),
) -> Phase {
    let mut tracer = Tracer::new(traced);
    let mut tally = Tally::default();
    let cpu0 = sys::self_cpu();
    let t0 = Instant::now();
    let mut i = 0;
    while secs(t0) < seconds || i < min_rounds || tally.attempted < min_sessions {
        round(i, &mut tracer, &mut tally);
        i += 1;
    }
    Phase {
        wall: t0.elapsed(),
        cpu: sys::self_cpu() - cpu0,
        tally,
        tracer,
    }
}

/// The paper's packet property of a lossless answer: nr and eb read
/// only what they need (tuning below the cycle length); every other
/// method downloads exactly one cycle.
pub fn packet_property(method: &str, tuning: u64, cycle_len: usize) -> Result<(), String> {
    let len = cycle_len as u64;
    match method {
        "nr" | "eb" if tuning >= len => {
            Err(format!("anchored tuning {tuning} >= cycle length {len}"))
        }
        "nr" | "eb" => Ok(()),
        _ if tuning != len => Err(format!("whole-cycle tuning {tuning} != cycle length {len}")),
        _ => Ok(()),
    }
}

/// One lossless in-process session: a fresh client tunes in at `offset`
/// and answers through `AirClient::query` inside a `methods.query` span.
pub fn inproc_query(
    prog: &dyn MethodProgram,
    method: &'static str,
    q: &Query,
    offset: usize,
    tr: &mut Tracer,
    parent: SpanId,
    session: u64,
) -> (Result<QueryOutcome, QueryError>, Duration) {
    let cycle = prog.cycle().expect("served methods broadcast a cycle");
    let t = Instant::now();
    let mut client = prog
        .make_client(QueuePolicy::default())
        .expect("served methods are air clients");
    let mut ch = BroadcastChannel::tune_in(cycle, offset, LossModel::Lossless);
    let span = tr.open("methods.query", method, parent, Some(session));
    let out = client.query(&mut ch, q);
    tr.close(span);
    (out, t.elapsed())
}

/// Per-layer metric map, keyed by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Client-layer metrics read from a phase's answers and spans.
pub fn client_layers(layers: &mut Layers, phase: &Phase) {
    let answers = &phase.tally.answers;
    layers.insert(
        "client.settled_nodes_mean".into(),
        mean(&answers.iter().map(|a| a.settled as f64).collect::<Vec<_>>()),
    );
    layers.insert(
        "client.stats_cpu_ms_mean".into(),
        mean(
            &answers
                .iter()
                .map(|a| a.stats_cpu.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    for m in METHODS {
        let of_m: Vec<&Answer> = answers.iter().filter(|a| a.method == m).collect();
        layers.insert(
            format!("client.tuning_packets.{m}"),
            mean(&of_m.iter().map(|a| a.tuning as f64).collect::<Vec<_>>()),
        );
        layers.insert(
            format!("client.peak_kb.{m}"),
            mean(
                &of_m
                    .iter()
                    .map(|a| a.peak_bytes as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
        );
        layers.insert(
            format!("methods.query_ms_p50.{m}"),
            quantile(&phase.tracer.durations_ms("methods.query", m), 0.5),
        );
    }
}

/// Set-up layer metrics from the set-up tracer's spans.
/// `programs` is the version-0 world, whose cycles every session tunes
/// in to first; only the `served` methods' cycles are counted (the
/// ingest probe builds dj's on every workload).
pub fn setup_layers(layers: &mut Layers, setup: &Tracer, programs: &ProgramSet, served: &[&str]) {
    layers.insert(
        "roadnet.generate_s".into(),
        setup.total_s("roadnet.generate"),
    );
    layers.insert("partition.build_s".into(), setup.total_s("partition.build"));
    layers.insert("core.precompute_s".into(), setup.total_s("core.precompute"));
    layers.insert(
        "core.patch.build_cycle_s".into(),
        setup.total_s("core.patch.build_cycle"),
    );
    for m in METHODS {
        layers.insert(
            format!("methods.build_s.{m}"),
            setup
                .durations_ms("methods.build", m)
                .iter()
                .fold(0.0, |a, b| a + b)
                / 1e3,
        );
        let len = programs
            .get(method_id(m))
            .ok()
            .filter(|_| served.contains(&m))
            .and_then(|p| p.cycle().ok())
            .map_or(0, BroadcastCycle::len);
        layers.insert(format!("broadcast.cycle_packets.{m}"), len as f64);
    }
}

/// Median of `f` timed over `reps` repetitions, in nanoseconds per item.
fn ns_per_item(reps: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// The layer probes every traced run makes on its own world:
/// `ReceivedGraph::ingest_payload` over the dj cycle, `shortest_path`
/// over the fully ingested network for the pool's journeys,
/// `BroadcastChannel::receive` over one cycle under the workload's loss
/// model, and frame encode/decode over the served cycles.
pub fn probe_layers(
    layers: &mut Layers,
    programs: &ProgramSet,
    served: &[&str],
    pool: &[PoolQuery],
    open: &dyn for<'c> Fn(&'c BroadcastCycle) -> BroadcastChannel<'c>,
    tally: &mut Tally,
    tr: &mut Tracer,
) {
    let g = &programs.world().g;
    let dj = programs
        .ensure(method_id("dj"))
        .cycle()
        .expect("dj broadcasts");
    let payloads: Vec<&[u8]> = (0..dj.len())
        .map(|i| dj.packet(i))
        .filter(|p| p.kind() == PacketKind::Data)
        .map(|p| p.payload().as_ref())
        .collect();
    let span = tr.open("probe.netcodec.ingest", "dj", SpanId::NONE, None);
    let mut store = ReceivedGraph::new();
    let ingest = ns_per_item(5, payloads.len(), || {
        store = ReceivedGraph::new();
        for p in &payloads {
            store.ingest_payload(p).expect("dj payloads decode");
        }
    });
    tr.close(span);
    layers.insert("core.netcodec.ingest_ns_per_packet".into(), ingest);

    let mut search_ms = Vec::new();
    for pq in pool.iter().take(64) {
        let span = tr.open("probe.netcodec.search", "", SpanId::NONE, None);
        let t = Instant::now();
        let (res, _) = store.shortest_path(pq.q.source, pq.q.target);
        search_ms.push(secs(t) * 1e3);
        tr.close(span);
        // The probe's answers are checked like any session's.
        match res {
            Some((d, path)) => {
                if let Some(why) =
                    oracle::check_answer(g, pq.q.source, pq.q.target, pq.oracle[0], d, &path)
                {
                    tally.fail("wrong_answer", &format!("search probe: {why}"));
                }
            }
            None => tally.fail("wrong_answer", "search probe: reachable target not found"),
        }
    }
    layers.insert(
        "core.netcodec.search_ms_p50".into(),
        quantile(&search_ms, 0.5),
    );

    let first = programs
        .ensure(method_id(served[0]))
        .cycle()
        .expect("served methods broadcast");
    let span = tr.open("probe.broadcast.receive", served[0], SpanId::NONE, None);
    let receive = ns_per_item(5, first.len(), || {
        let mut ch = open(first);
        for _ in 0..first.len() {
            std::hint::black_box(ch.receive());
        }
    });
    tr.close(span);
    layers.insert("broadcast.receive_ns_per_packet".into(), receive);

    let cycles: Vec<&BroadcastCycle> = served
        .iter()
        .map(|m| programs.ensure(method_id(m)).cycle().expect("served"))
        .collect();
    let packets: usize = cycles.iter().map(|c| c.len()).sum();
    let frames: Vec<Frame> = cycles
        .iter()
        .flat_map(|c| {
            (0..c.len()).map(move |i| {
                Frame::Data(DataFrame {
                    session: 1,
                    slot: i as u64,
                    packet: c.packet(i).clone(),
                })
            })
        })
        .collect();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let span = tr.open("probe.serve.frame_encode", "", SpanId::NONE, None);
    let encode = ns_per_item(5, packets, || {
        bodies = frames.iter().map(frame::encode).collect();
    });
    tr.close(span);
    let span = tr.open("probe.serve.frame_decode", "", SpanId::NONE, None);
    let decode = ns_per_item(5, packets, || {
        for b in &bodies {
            std::hint::black_box(frame::decode(b).expect("own frames decode"));
        }
    });
    tr.close(span);
    layers.insert("serve.frame_encode_ns_per_packet".into(), encode);
    layers.insert("serve.frame_decode_ns_per_packet".into(), decode);
}

/// What a workload hands back to the report.
pub struct Outcome {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// The measured session phase (the traced half in a traced run).
    pub phase: Phase,
    /// Peak resident set of the processes under test, KiB.
    pub peak_rss_kib: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Operations of the untraced half and of probes, which count toward
    /// `attempted`/`failed` but not toward the phase's metrics.
    pub side: Tally,
    /// Median session ms of the untraced half of a traced run.
    pub untraced_p50_ms: Option<f64>,
    /// Distinct sessions a pass over the pool holds (pool entries ×
    /// methods × versions); an untraced run answers each at least once.
    pub entries: usize,
}

/// The session phase of a run: `seconds` untraced, or, in a traced run,
/// `seconds / 2` untraced and then `seconds / 2` traced, so the two
/// medians give the tracing overhead. Round `i` replays pool entry
/// `i % pool_len`; an untraced phase runs at least one full pass over
/// the pool, so its packet and memory means see every entry. Returns
/// (measured, untraced half).
pub fn measure(
    seconds: f64,
    traced: bool,
    pool_len: usize,
    mut round: impl FnMut(usize, &mut Tracer, &mut Tally),
) -> (Phase, Option<Phase>) {
    if !traced {
        return (
            run_phase(seconds, pool_len, MIN_SESSIONS, false, round),
            None,
        );
    }
    // The traced run reports no p99 and no pool means, so its halves
    // need no floor.
    let plain = run_phase(seconds / 2.0, 0, 0, false, &mut round);
    (run_phase(seconds / 2.0, 0, 0, true, round), Some(plain))
}

/// Median session wall time of a phase, in ms.
pub fn p50_ms(phase: &Phase) -> f64 {
    let ms: Vec<f64> = phase
        .tally
        .answers
        .iter()
        .map(|a| a.wall.as_secs_f64() * 1e3)
        .collect();
    quantile(&ms, 0.5)
}
