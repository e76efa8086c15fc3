//! The `patch-lossy` workload: EB and DJ clients on a versioned
//! world over a bursty-loss channel with CRC corruption. Each client
//! tunes in under the §6.2 supervisor at version 0, then for every later
//! version receives the patch cycle into its exported arena and searches
//! it with `shortest_path_checked`, falling back to a supervised re-tune
//! when the patch fails or the search cannot certify its answer.

use crate::common::*;
use crate::sys;
use crate::trace::{mean, quantile, SpanId, Tracer};
use spair_broadcast::{BroadcastChannel, BroadcastCycle, FaultPlan, LossModel};
use spair_core::patch::{build_patch_cycle, receive_patch, ClientArena, PatchError};
use spair_core::{supervise, AttemptReport, BorderPrecomputation, RecoveryBudget, SessionOutcome};
use spair_methods::{ProgramSet, Tuning, World};
use spair_partition::KdTreePartition;
use spair_roadnet::{NetworkPreset, NodeId, QueuePolicy, RoadNetwork};
use spair_sim::traffic::{network_at, version_deltas, TrafficSpec};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 6_000;
const REGIONS: usize = 32;
/// Versions including the unperturbed version 0.
const VERSIONS: usize = 4;
/// NR is left out: under loss its client ingests data packets of regions
/// it does not report as held, so `receive_patch` leaves their weights
/// stale and `shortest_path_checked` can certify a wrong distance.
const SERVED: [&str; 2] = ["eb", "dj"];
/// Gilbert–Elliott loss: stationary rate and mean burst length, those of
/// the scenario matrix's bursty cell (`grid16-kd-bursty5`); the rate is
/// also that of the dynamic matrix's lossy cell (`dyn-lossy-incidents`).
const LOSS_RATE: f64 = 0.05;
const LOSS_BURST: f64 = 8.0;
/// Share of received frames whose CRC fails, that of the fault matrix's
/// cell that stacks corruption on a lossy channel
/// (`chaos-corrupt3-bernoulli2`).
const CORRUPT_RATE: f64 = 0.03;
const BUDGET: RecoveryBudget = RecoveryBudget::standard();
/// Set-ups per untraced run (`setup_s` is their median).
const SETUP_REPEATS: usize = 5;
/// Pool: sources, and same-region / other-region targets per source.
const SOURCES: usize = 128;
const SHORT: usize = 3;
const LONG: usize = 1;

fn traffic() -> TrafficSpec {
    TrafficSpec::incidents()
}

struct Versioned {
    worlds: Vec<ProgramSet>,
    /// `patches[v - 1]` upgrades version `v - 1` to `v`.
    patches: Vec<BroadcastCycle>,
}

fn build(seed: u64, tr: &mut Tracer) -> Versioned {
    let g0 = tr.span("roadnet.generate", "", || {
        NetworkPreset::Germany
            .config_for_nodes(seed, NODES)
            .generate()
    });
    let part = Arc::new(tr.span("partition.build", "", || {
        KdTreePartition::build(&g0, REGIONS)
    }));
    let mut worlds = Vec::with_capacity(VERSIONS);
    for v in 0..VERSIONS {
        let gv = if v == 0 {
            g0.clone()
        } else {
            network_at(&g0, &traffic(), seed, v as u32)
        };
        let label = v.to_string();
        let pre = tr.span("core.precompute", &label, || {
            BorderPrecomputation::run(&gv, part.as_ref())
        });
        let programs = ProgramSet::new(World {
            g: Arc::new(gv),
            part: part.clone(),
            pre: Arc::new(pre),
            pois: Arc::new(Vec::new()),
            tuning: Tuning::default(),
        });
        build_programs(&programs, &SERVED, tr);
        worlds.push(programs);
    }
    let patches = (1..VERSIONS as u32)
        .map(|v| {
            let deltas = version_deltas(&g0, &part, &traffic(), seed, v);
            tr.span("core.patch.build_cycle", &v.to_string(), || {
                build_patch_cycle(v, v - 1, &deltas)
            })
        })
        .collect();
    Versioned { worlds, patches }
}

/// Opens one attempt's channel: a seeded uniform offset, bursty loss and
/// CRC corruption.
fn open(cycle: &BroadcastCycle, s: u64) -> BroadcastChannel<'_> {
    BroadcastChannel::tune_in_with_faults(
        cycle,
        (splitmix64(s) % cycle.len() as u64) as usize,
        LossModel::bursty(LOSS_RATE, LOSS_BURST, splitmix64(s ^ 1)),
        FaultPlan::corruption(CORRUPT_RATE, splitmix64(s ^ 2)),
    )
}

/// Layer counters, kept for the traced phase only.
#[derive(Default)]
struct Counters {
    supervised: Vec<(u32, u64)>,
    corrupted: Vec<u64>,
    patch_sessions: u64,
    certified: u64,
    fallback_retunes: u64,
    patch_packets: Vec<u64>,
    applied: Vec<u64>,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setup_tr = Tracer::new(traced);
    let (world, setup_s) = repeat_setup(traced, SETUP_REPEATS, || build(WORLD_SEED, &mut setup_tr));
    let nets: Vec<&RoadNetwork> = world.worlds.iter().map(|w| w.world().g.as_ref()).collect();
    let pool = make_pool(
        &nets,
        &world.worlds[0].world().part,
        &mut Draws::new(derive(seed, &[2])),
        SOURCES,
        SHORT,
        LONG,
    );
    let counters = RefCell::new(Counters::default());

    let round = |i: usize, tr: &mut Tracer, tally: &mut Tally| {
        let e = i % pool.len();
        let pq = &pool[e];
        let (s, t) = (pq.q.source, pq.q.target);
        let mut c = counters.borrow_mut();
        let count = tr.enabled();
        for (k, m) in SERVED.into_iter().enumerate() {
            let mut arena: Option<ClientArena> = None;
            for (v, &gv) in nets.iter().enumerate() {
                let sid = ((i * SERVED.len() + k) * VERSIONS + v) as u64;
                let seed_v = derive(seed, &[4, e as u64, k as u64, v as u64]);
                tally.attempted += 1;
                let root = tr.open("session", m, SpanId::NONE, Some(sid));
                let started = Instant::now();
                let (mut tuning, mut latency, mut corrupted) = (0u64, 0u64, 0u64);
                // (distance, path, peak bytes, settled, search time)
                let mut answer: Option<(u64, Vec<NodeId>, usize, u64, Duration)> = None;
                let mut unreachable = false;

                if let Some(ar) = arena.as_mut() {
                    // One patch session; a lossy attempt listens again,
                    // bounded by the supervisor's attempt budget.
                    let mut patched = Err(PatchError::Aborted("no patch attempt ran"));
                    let mut listened = 0;
                    for a in 0..BUDGET.max_attempts {
                        let mut pch = open(&world.patches[v - 1], derive(seed_v, &[0xA, a as u64]));
                        let span = tr.open("core.patch.receive", m, root, Some(sid));
                        patched =
                            receive_patch(&mut pch, v as u32 - 1, &ar.coverage, &mut ar.store);
                        tr.close(span);
                        listened += pch.tuned();
                        latency += pch.elapsed();
                        corrupted += pch.fault_telemetry().corrupted;
                        if matches!(patched, Ok(_) | Err(PatchError::Stale { .. })) {
                            break;
                        }
                    }
                    tuning += listened;
                    if count {
                        c.patch_sessions += 1;
                        c.patch_packets.push(listened);
                    }
                    if let Ok(report) = patched {
                        if count {
                            c.applied.push(report.applied as u64);
                        }
                        let span = tr.open("core.patch.search", m, root, Some(sid));
                        let t0 = Instant::now();
                        let (res, settled, certified) =
                            ar.store.shortest_path_checked(s, t, QueuePolicy::default());
                        let took = t0.elapsed();
                        tr.close(span);
                        if certified {
                            if count {
                                c.certified += 1;
                            }
                            match res {
                                Some((d, path)) => {
                                    let kept = ar.store.retained_bytes();
                                    answer = Some((d, path, kept, settled as u64, took));
                                }
                                None => unreachable = true,
                            }
                        }
                    }
                    if answer.is_none() && !unreachable {
                        // Patch failed or the search left the held
                        // regions: recovered work, not a failure.
                        if count {
                            c.fallback_retunes += 1;
                        }
                        arena = None;
                    }
                }

                if answer.is_none() && !unreachable {
                    let prog = world.worlds[v].ensure(method_id(m));
                    let cycle = prog.cycle().expect("served methods broadcast");
                    let mut client = prog
                        .make_client(QueuePolicy::default())
                        .expect("served methods are air clients");
                    let span = tr.open("core.session.supervise", m, root, Some(sid));
                    // `supervise_query`'s per-attempt body, spelled out so
                    // each attempt's fault telemetry can be read.
                    let sup = supervise(BUDGET, cycle.len(), |a| {
                        let mut ch = open(cycle, derive(seed_v, &[0xB, u64::from(a)]));
                        let q = tr.open("methods.query", m, span, Some(sid));
                        let result = client.query(&mut ch, &pq.q);
                        tr.close(q);
                        corrupted += ch.fault_telemetry().corrupted;
                        (result, AttemptReport::of(&ch, (0, 0)))
                    });
                    tr.close(span);
                    tuning += sup.tuned_packets;
                    latency += sup.recovery_packets;
                    if count {
                        c.supervised.push((sup.attempts, sup.recovery_packets));
                    }
                    match sup.outcome {
                        SessionOutcome::Answered(out) => {
                            answer = Some((
                                out.distance,
                                out.path,
                                out.stats.peak_memory_bytes,
                                out.stats.settled_nodes,
                                out.stats.cpu,
                            ));
                            arena = client.export_arena();
                        }
                        SessionOutcome::Unreachable => unreachable = true,
                        SessionOutcome::Failed(err) => {
                            tally.fail(
                                "session_error",
                                &format!("{m} v{v} {s}->{t}: {err} ({})", err.root_class()),
                            );
                            arena = None;
                        }
                    }
                }
                let wall = started.elapsed();
                if count {
                    c.corrupted.push(corrupted);
                }
                if unreachable {
                    tally.fail(
                        "wrong_answer",
                        &format!("{m} v{v} {s}->{t}: reachable target reported unreachable"),
                    );
                } else if let Some((d, path, peak, settled, cpu)) = answer {
                    let a = Answer {
                        method: m,
                        entry: (e * SERVED.len() + k) * VERSIONS + v,
                        wall,
                        tuning,
                        latency,
                        peak_bytes: peak,
                        settled,
                        stats_cpu: cpu,
                    };
                    tally.check(gv, pq, v, (d, &path), a, Ok(()));
                }
                tr.close(root);
            }
        }
    };
    let (mut phase, plain) = measure(seconds, traced, pool.len(), round);

    let mut layers = Layers::new();
    let mut side = Tally::default();
    if traced {
        let c = counters.into_inner();
        let f = |xs: &[u64]| mean(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>());
        let attempts: Vec<u64> = c.supervised.iter().map(|&(a, _)| u64::from(a)).collect();
        let recovery: Vec<u64> = c.supervised.iter().map(|&(_, r)| r).collect();
        layers.insert("core.session.attempts_mean".into(), f(&attempts));
        layers.insert("core.session.recovery_packets_mean".into(), f(&recovery));
        layers.insert("broadcast.corrupted_mean".into(), f(&c.corrupted));
        layers.insert("core.patch.packets_mean".into(), f(&c.patch_packets));
        layers.insert("core.patch.applied_mean".into(), f(&c.applied));
        layers.insert(
            "core.patch.certified_ratio".into(),
            c.certified as f64 / c.patch_sessions.max(1) as f64,
        );
        layers.insert(
            "core.patch.fallback_retunes".into(),
            c.fallback_retunes as f64,
        );
        let tr = &phase.tracer;
        layers.insert(
            "core.patch.receive_ms_p50".into(),
            quantile(&tr.durations_ms("core.patch.receive", ""), 0.5),
        );
        layers.insert(
            "core.patch.search_ms_p50".into(),
            quantile(&tr.durations_ms("core.patch.search", ""), 0.5),
        );
        let base = &world.worlds[0];
        client_layers(&mut layers, &phase);
        let probe_seed = derive(seed, &[5]);
        probe_layers(
            &mut layers,
            base,
            &SERVED,
            &pool,
            &|cycle| open(cycle, probe_seed),
            &mut side,
            &mut phase.tracer,
        );
        setup_layers(&mut layers, &setup_tr, base, &SERVED);
        phase.tracer.absorb(setup_tr);
    }
    let untraced_p50_ms = plain.as_ref().map(p50_ms);
    if let Some(plain) = plain {
        side.absorb(plain.tally);
    }
    Outcome {
        setup_s,
        phase,
        peak_rss_kib: sys::peak_rss_kib("self").unwrap_or(0),
        layers,
        side,
        untraced_p50_ms,
        entries: pool.len() * SERVED.len() * VERSIONS,
    }
}
