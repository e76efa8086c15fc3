//! The `anchored` and `whole-cycle` workloads: one closed-loop client at
//! a time tunes in to an in-process cycle over a lossless channel at a
//! seeded uniform offset and answers through `AirClient::query`.

use crate::common::*;
use crate::sys;
use crate::trace::{SpanId, Tracer};
use spair_methods::MethodProgram;

/// Set-ups per untraced run (`setup_s` is their median). Fewer than the
/// cheaper workloads' five: one set-up of this world takes seconds.
const SETUP_REPEATS: usize = 3;

/// The world both workloads share: germany-class, kd regions.
const NODES: usize = 20_000;
const REGIONS: usize = 64;

pub struct Spec {
    pub methods: &'static [&'static str],
    /// Pool: sources, and same-region / other-region targets per source.
    pub sources: usize,
    pub short: usize,
    pub long: usize,
}

/// NR and EB (§4, §5): the client reads one packet, sleeps to an index
/// and downloads only the regions it needs.
pub const ANCHORED: Spec = Spec {
    methods: &["nr", "eb"],
    sources: 256,
    short: 4,
    long: 4,
};

/// Every session ingests a full cycle and searches the whole network.
pub const WHOLE_CYCLE: Spec = Spec {
    methods: &["dj", "ld", "af", "astar_air", "bidi_air"],
    sources: 32,
    short: 1,
    long: 1,
};

pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setup_tr = Tracer::new(traced);
    let (programs, setup_s) = repeat_setup(traced, SETUP_REPEATS, || {
        build_world(NODES, REGIONS, WORLD_SEED, spec.methods, &mut setup_tr)
    });
    let world = programs.world();
    let g = world.g.clone();
    let pool = make_pool(
        &[&g],
        &world.part,
        &mut Draws::new(derive(seed, &[2])),
        spec.sources,
        spec.short,
        spec.long,
    );
    let progs: Vec<(&'static str, &dyn MethodProgram)> = spec
        .methods
        .iter()
        .map(|&m| (m, programs.ensure(method_id(m))))
        .collect();
    // A fixed tune-in offset per (pool entry, method), so every pass over
    // the pool replays the same sessions.
    let offsets: Vec<Vec<usize>> = (0..pool.len())
        .map(|e| {
            progs
                .iter()
                .enumerate()
                .map(|(k, (_, p))| {
                    let len = p.cycle().expect("served").len() as u64;
                    (derive(seed, &[3, e as u64, k as u64]) % len) as usize
                })
                .collect()
        })
        .collect();

    let round = |i: usize, tr: &mut Tracer, tally: &mut crate::common::Tally| {
        let e = i % pool.len();
        let pq = &pool[e];
        for (k, &(m, prog)) in progs.iter().enumerate() {
            let sid = (i * progs.len() + k) as u64;
            tally.attempted += 1;
            let root = tr.open("session", m, SpanId::NONE, Some(sid));
            let (out, wall) = inproc_query(prog, m, &pq.q, offsets[e][k], tr, root, sid);
            match out {
                Ok(out) => {
                    let len = prog.cycle().expect("served").len();
                    let prop = packet_property(m, out.stats.tuning_packets, len);
                    tally.check(
                        &g,
                        pq,
                        0,
                        (out.distance, &out.path),
                        Answer::of(m, e * progs.len() + k, wall, &out),
                        prop,
                    );
                }
                Err(err) => tally.fail("session_error", &format!("{m}: {err}")),
            }
            tr.close(root);
        }
    };
    let (mut phase, plain) = measure(seconds, traced, pool.len(), round);

    let mut layers = Layers::new();
    let mut side = Tally::default();
    if traced {
        client_layers(&mut layers, &phase);
        probe_layers(
            &mut layers,
            &programs,
            spec.methods,
            &pool,
            &|c| spair_broadcast::BroadcastChannel::lossless(c),
            &mut side,
            &mut phase.tracer,
        );
        setup_layers(&mut layers, &setup_tr, &programs, spec.methods);
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
        entries: pool.len() * progs.len(),
    }
}
