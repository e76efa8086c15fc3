//! The `socket` workload: the `serve_daemon` process serves nr and dj
//! over loopback TCP to two concurrent client sessions, each a
//! `fetch_cycle` followed by the registry's remote client. Every answer
//! must equal the in-process answer for the same tune-in offset, which
//! the benchmark computes on its own copy of the daemon's world.

use crate::common::*;
use crate::sys;
use crate::trace::{mean, quantile, SpanId, Tracer};
use spair_broadcast::{BroadcastChannel, LossModel};
use spair_core::query::QueryOutcome;
use spair_core::BorderPrecomputation;
use spair_methods::{MethodRegistry, ProgramSet, World};
use spair_partition::KdTreePartition;
use spair_roadnet::generators::small_grid;
use spair_roadnet::QueuePolicy;
use spair_serve::client::{fetch_cycle, SessionConfig, SessionFailure, Transport};
use spair_serve::frame::{self, DataFrame, Frame};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The daemon's world: a jittered grid (the daemon binary's only world).
const GRID: (usize, usize) = (48, 48);
const REGIONS: usize = 16;
const SERVED: [&str; 2] = ["nr", "dj"];
/// Concurrent client sessions (one thread each).
const CLIENTS: usize = 2;
/// Pool: sources, and same-region / other-region targets per source.
const SOURCES: usize = 64;
const SHORT: usize = 1;
const LONG: usize = 1;
/// Daemon spawns per untraced run (`setup_s` is their median).
const SPAWN_REPEATS: usize = 9;
/// A session that has not collected its cycle by then is a timeout.
const SESSION_WAIT: Duration = Duration::from_secs(10);

/// The live daemon's pid, so the deadline watchdog can stop it.
static DAEMON_PID: AtomicU32 = AtomicU32::new(0);

/// Kills and reaps the live daemon, if any (the deadline path;
/// `Daemon`'s `Drop` handles every other exit).
pub fn kill_daemon() {
    let pid = DAEMON_PID.swap(0, Ordering::SeqCst);
    if pid != 0 {
        sys::kill_and_reap(pid);
    }
}

/// A spawned `serve_daemon`, stopped and reaped on drop — also when the
/// benchmark panics.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening on ADDR` line;
    /// returns it with the time from spawn to that line.
    fn spawn(exe: &Path, logs: &Path, seed: u64) -> Result<(Daemon, Duration), String> {
        let t = Instant::now();
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--grid"])
            .args([GRID.0.to_string(), GRID.1.to_string()])
            .args([
                "--regions",
                &REGIONS.to_string(),
                "--seed",
                &seed.to_string(),
            ])
            .args(["--methods", &SERVED.join(",")])
            .arg("--events")
            .arg(logs.join("events.jsonl"))
            .arg("--dead-letter")
            .arg(logs.join("deadletter.jsonl"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        DAEMON_PID.store(child.id(), Ordering::SeqCst);
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr: Option<SocketAddr> = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let spawned = Daemon {
            child,
            stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok((spawned, t.elapsed())),
            _ => Err(format!("daemon did not report its address (got {line:?})")),
        }
    }

    /// SIGTERM, then wait up to 5 s for the graceful `stopped` line and
    /// exit; SIGKILL after that. Always reaps.
    fn stop(&mut self) -> Result<(), String> {
        if self.child.try_wait().ok().flatten().is_some() {
            DAEMON_PID.store(0, Ordering::SeqCst);
            return Err("daemon exited early".into());
        }
        sys::signal(self.child.id(), sys::SIGTERM);
        let t = Instant::now();
        let status = loop {
            if let Ok(Some(s)) = self.child.try_wait() {
                break Some(s);
            }
            if t.elapsed() > Duration::from_secs(5) {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        DAEMON_PID.store(0, Ordering::SeqCst);
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        match status {
            Some(s) if s.success() && rest.contains("stopped") => Ok(()),
            Some(s) => Err(format!("daemon shut down with {s}: {rest:?}")),
            None => Err("daemon ignored SIGTERM for 5 s and was killed".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.stop();
        }
    }
}

/// One pool entry: a journey, the method, its tune-in offset and the
/// in-process answer for that offset.
struct Entry {
    pq: PoolQuery,
    method: &'static str,
    offset: u64,
    expected: QueryOutcome,
}

/// What one socket session reported, for the serve layer metrics.
struct ServeRecord {
    admission_us: u64,
    frames_rx: u64,
    frame_bytes: f64,
    useful: u64,
}

pub fn run(seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let exe = std::env::current_exe()
        .expect("own path")
        .with_file_name("serve_daemon");
    let logs: PathBuf = out_dir.join(format!("socket-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&logs).expect("per-run log directory");

    // set-up: daemon spawn until `listening on`, median of repeats.
    let repeats = if traced { 1 } else { SPAWN_REPEATS };
    let mut spawns = Vec::new();
    let mut daemon = None;
    for k in 0..repeats {
        let (mut d, took) = Daemon::spawn(&exe, &logs, WORLD_SEED).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(1)
        });
        spawns.push(took.as_secs_f64());
        if k + 1 < repeats {
            if let Err(e) = d.stop() {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("one daemon serves");
    eprintln!("daemon spawn times (s): {spawns:.3?}");
    let setup_s = quantile(&spawns, 0.5);

    // The benchmark's own copy of the daemon's world, with the set-up
    // layer spans measured on it.
    let mut setup_tr = Tracer::new(traced);
    let g = setup_tr.span("roadnet.generate", "", || {
        small_grid(GRID.0, GRID.1, WORLD_SEED)
    });
    let part = setup_tr.span("partition.build", "", || {
        KdTreePartition::build(&g, REGIONS)
    });
    let pre = setup_tr.span("core.precompute", "0", || {
        BorderPrecomputation::run(&g, &part)
    });
    let programs = ProgramSet::new(World::from_parts(g, part, pre));
    build_programs(&programs, &SERVED, &mut setup_tr);
    let g = programs.world().g.clone();
    let pool = make_pool(
        &[&g],
        &programs.world().part,
        &mut Draws::new(derive(seed, &[2])),
        SOURCES,
        SHORT,
        LONG,
    );
    let frame_bytes: Vec<f64> = SERVED
        .iter()
        .map(|m| {
            let c = programs.ensure(method_id(m)).cycle().expect("served");
            let total: usize = (0..c.len())
                .map(|i| {
                    frame::encode_stream(&Frame::Data(DataFrame {
                        session: 0,
                        slot: i as u64,
                        packet: c.packet(i).clone(),
                    }))
                    .len()
                })
                .sum();
            total as f64 / c.len() as f64
        })
        .collect();
    let mut entries = Vec::new();
    let mut side = Tally::default();
    for (e, pq) in pool.iter().enumerate() {
        for (k, &m) in SERVED.iter().enumerate() {
            let prog = programs.ensure(method_id(m));
            let len = prog.cycle().expect("served").len() as u64;
            let offset = derive(seed, &[3, e as u64, k as u64]) % len;
            side.attempted += 1;
            let (out, _) = inproc_query(
                prog,
                m,
                &pq.q,
                offset as usize,
                &mut setup_tr,
                SpanId::NONE,
                u64::MAX,
            );
            match out {
                Ok(expected) => entries.push(Entry {
                    pq: pq.clone(),
                    method: m,
                    offset,
                    expected,
                }),
                Err(err) => side.fail("session_error", &format!("in-process {m}: {err}")),
            }
        }
    }

    let addr = daemon.addr;
    let serve_records = Mutex::new(Vec::new());
    let session = |j: usize, i: usize, tr: &mut Tracer, tally: &mut Tally| {
        let entry = (i * CLIENTS + j) % entries.len();
        let en = &entries[entry];
        let m = en.method;
        let sid = (i * CLIENTS + j) as u64;
        tally.attempted += 1;
        let root = tr.open("session", m, SpanId::NONE, Some(sid));
        let started = Instant::now();
        let cfg = SessionConfig {
            offset: en.offset,
            queue: QueuePolicy::default(),
            max_wait: SESSION_WAIT,
            ..SessionConfig::new(addr, m, Transport::Tcp)
        };
        let span = tr.open("serve.fetch_cycle", m, root, Some(sid));
        let fetched = fetch_cycle(&cfg);
        tr.close(span);
        let (cycle, bootstrap, metrics) = match fetched {
            Ok(f) => f,
            Err(SessionFailure::Timeout) => {
                tally.fail(
                    "timeout",
                    &format!("{m}: cycle not collected in {SESSION_WAIT:?}"),
                );
                tr.close(root);
                return;
            }
            Err(err) => {
                tally.fail("session_failure", &format!("{m}: {err}"));
                tr.close(root);
                return;
            }
        };
        let registry = MethodRegistry::standard();
        let mut client = registry
            .remote_client(method_id(m), &bootstrap, cfg.queue)
            .expect("served methods have remote clients");
        let mut ch = BroadcastChannel::tune_in(
            &cycle,
            (en.offset % metrics.cycle_len) as usize,
            LossModel::Lossless,
        );
        let span = tr.open("serve.query", m, root, Some(sid));
        let out = client.query(&mut ch, &en.pq.q);
        tr.close(span);
        let wall = started.elapsed();
        match out {
            Ok(out) => {
                let x = &en.expected;
                let same = out.distance == x.distance
                    && out.path == x.path
                    && out.stats.tuning_packets == x.stats.tuning_packets
                    && out.stats.latency_packets == x.stats.latency_packets;
                let prop = if same {
                    packet_property(m, out.stats.tuning_packets, cycle.len())
                } else {
                    Err(format!(
                        "socket answer ({} / {} tuning) differs from in-process ({} / {})",
                        out.distance, out.stats.tuning_packets, x.distance, x.stats.tuning_packets
                    ))
                };
                if tr.enabled() {
                    let k = SERVED.iter().position(|&s| s == m).expect("served");
                    serve_records.lock().expect("records").push(ServeRecord {
                        admission_us: metrics.admission_us,
                        frames_rx: metrics.frames_rx,
                        frame_bytes: frame_bytes[k],
                        useful: x.stats.tuning_packets,
                    });
                }
                tally.check(
                    &g,
                    &en.pq,
                    0,
                    (out.distance, &out.path),
                    Answer::of(m, entry, wall, &out),
                    prop,
                );
            }
            Err(err) => tally.fail("session_failure", &format!("{m} remote client: {err}")),
        }
        tr.close(root);
    };

    let pid = daemon.child.id();
    let daemon_cpu = || sys::proc_cpu(pid).unwrap_or_default();
    // An untraced phase runs at least one pass over the entries (each
    // client takes every CLIENTS-th) and MIN_SESSIONS sessions.
    let floor = entries
        .len()
        .div_ceil(CLIENTS)
        .max(MIN_SESSIONS as usize / CLIENTS);
    let plain = traced.then(|| run_clients(seconds / 2.0, 0, false, &session, &daemon_cpu));
    let cpu0 = daemon_cpu();
    let (span_s, floor) = if traced {
        (seconds / 2.0, 0)
    } else {
        (seconds, floor)
    };
    let mut phase = run_clients(span_s, floor, traced, &session, &daemon_cpu);
    let daemon_cpu_used = daemon_cpu().saturating_sub(cpu0);
    let peak_rss_kib =
        sys::peak_rss_kib("self").unwrap_or(0) + sys::peak_rss_kib(&pid.to_string()).unwrap_or(0);
    if let Err(e) = daemon.stop() {
        side.fail("session_failure", &e);
    }

    let mut layers = Layers::new();
    if traced {
        let recs = serve_records.into_inner().expect("records");
        let n = phase.tally.answers.len().max(1) as f64;
        let col = |f: &dyn Fn(&ServeRecord) -> f64| recs.iter().map(f).collect::<Vec<f64>>();
        let tr = &phase.tracer;
        layers.insert(
            "serve.admission_us_p50".into(),
            quantile(&col(&|r| r.admission_us as f64), 0.5),
        );
        layers.insert(
            "serve.fetch_ms_p50".into(),
            quantile(&tr.durations_ms("serve.fetch_cycle", ""), 0.5),
        );
        layers.insert(
            "serve.query_ms_p50".into(),
            quantile(&tr.durations_ms("serve.query", ""), 0.5),
        );
        layers.insert(
            "serve.frames_rx_per_session".into(),
            mean(&col(&|r| r.frames_rx as f64)),
        );
        layers.insert(
            "serve.wire_kb_per_session".into(),
            mean(&col(&|r| r.frames_rx as f64 * r.frame_bytes / 1024.0)),
        );
        let useful: f64 = col(&|r| r.useful as f64).iter().sum();
        let rx: f64 = col(&|r| r.frames_rx as f64).iter().sum();
        layers.insert("serve.useful_frame_ratio".into(), useful / rx.max(1.0));
        layers.insert(
            "serve.daemon_cpu_ms_per_session".into(),
            daemon_cpu_used.as_secs_f64() * 1e3 / n,
        );
        // The set-up spans and the in-process expectations ran under the
        // set-up tracer; move them over so the set-up layers and
        // `methods.query_ms_p50` see them.
        phase.tracer.absorb(setup_tr);
        client_layers(&mut layers, &phase);
        probe_layers(
            &mut layers,
            &programs,
            &SERVED,
            &pool,
            &|c| BroadcastChannel::lossless(c),
            &mut side,
            &mut phase.tracer,
        );
        setup_layers(&mut layers, &phase.tracer, &programs, &SERVED);
    }
    let untraced_p50_ms = plain.as_ref().map(p50_ms);
    if let Some(plain) = plain {
        side.absorb(plain.tally);
    }
    if side.failed() + phase.tally.failed() == 0 {
        let _ = std::fs::remove_dir_all(&logs);
    } else {
        eprintln!("daemon logs kept in {}", logs.display());
    }
    Outcome {
        setup_s,
        phase,
        peak_rss_kib,
        layers,
        side,
        untraced_p50_ms,
        entries: entries.len(),
    }
}

/// Runs `CLIENTS` closed-loop client threads for `seconds`, and until
/// each has run `min_sessions`; each runs whole sessions with its own
/// tracer and tally, merged at the end. The phase's CPU is this process's plus the daemon's
/// (`daemon_cpu`).
fn run_clients(
    seconds: f64,
    min_sessions: usize,
    traced: bool,
    session: &(dyn Fn(usize, usize, &mut Tracer, &mut Tally) + Sync),
    daemon_cpu: &dyn Fn() -> Duration,
) -> Phase {
    let cpu = || sys::self_cpu() + daemon_cpu();
    let cpu0 = cpu();
    let epoch = Instant::now();
    let parts: Vec<(Tracer, Tally)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|j| {
                s.spawn(move || {
                    let mut tr = Tracer::new(traced);
                    let mut tally = Tally::default();
                    let mut i = 0;
                    while secs(epoch) < seconds || i < min_sessions {
                        session(j, i, &mut tr, &mut tally);
                        i += 1;
                    }
                    (tr, tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = epoch.elapsed();
    let mut tracer = Tracer::new(traced);
    let mut tally = Tally::default();
    for (tr, t) in parts {
        tracer.absorb(tr);
        tally.absorb(t);
    }
    Phase {
        tally,
        wall,
        cpu: cpu() - cpu0,
        tracer,
    }
}
