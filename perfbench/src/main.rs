//! spair's end-to-end benchmark: a seeded load generator that drives the
//! system through its public functions, checks every answer against its
//! own oracle, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <anchored|whole-cycle|patch-lossy|socket>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded around every layer call and prints the
//! per-layer metrics, writing the spans to `<out-dir>/spans-*.jsonl`.
//! Build and run it through `perfbench/run.py`, which also builds the
//! daemon the `socket` workload spawns.

mod common;
mod inproc;
mod oracle;
mod patch;
mod socket;
mod sys;
mod trace;

use common::{Outcome, FAIL_CLASSES, METHODS};
use std::path::PathBuf;
use std::time::Duration;
use trace::{mean, quantile};

/// A run that has not finished by then fails with a message.
const DEADLINE: Duration = Duration::from_secs(160);

pub const WORKLOADS: [&str; 4] = ["anchored", "whole-cycle", "patch-lossy", "socket"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench-runs"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(val),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The end-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p99", "ms"),
    ("sessions_per_s", "1/s"),
    ("cpu_ms_per_session", "ms"),
    ("tuning_packets_mean", "packets"),
    ("latency_packets_mean", "packets"),
    ("peak_client_kb_mean", "KiB"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("roadnet.generate_s".into(), "s"),
        ("partition.build_s".into(), "s"),
        ("core.precompute_s".into(), "s"),
        ("core.patch.build_cycle_s".into(), "s"),
    ];
    for m in METHODS {
        v.push((format!("methods.build_s.{m}"), "s"));
    }
    for m in METHODS {
        v.push((format!("broadcast.cycle_packets.{m}"), "packets"));
    }
    for m in METHODS {
        v.push((format!("methods.query_ms_p50.{m}"), "ms"));
    }
    v.extend([
        ("core.netcodec.ingest_ns_per_packet".into(), "ns"),
        ("core.netcodec.search_ms_p50".into(), "ms"),
        ("broadcast.receive_ns_per_packet".into(), "ns"),
        ("client.settled_nodes_mean".into(), "nodes"),
        ("client.stats_cpu_ms_mean".into(), "ms"),
    ]);
    for m in METHODS {
        v.push((format!("client.tuning_packets.{m}"), "packets"));
    }
    for m in METHODS {
        v.push((format!("client.peak_kb.{m}"), "KiB"));
    }
    v.extend([
        ("core.session.attempts_mean".into(), "count"),
        ("core.session.recovery_packets_mean".into(), "packets"),
        ("broadcast.corrupted_mean".into(), "count"),
        ("core.patch.receive_ms_p50".into(), "ms"),
        ("core.patch.search_ms_p50".into(), "ms"),
        ("core.patch.packets_mean".into(), "packets"),
        ("core.patch.applied_mean".into(), "count"),
        ("core.patch.certified_ratio".into(), "ratio"),
        ("core.patch.fallback_retunes".into(), "count"),
        ("serve.admission_us_p50".into(), "us"),
        ("serve.fetch_ms_p50".into(), "ms"),
        ("serve.query_ms_p50".into(), "ms"),
        ("serve.frames_rx_per_session".into(), "frames"),
        ("serve.wire_kb_per_session".into(), "KiB"),
        ("serve.useful_frame_ratio".into(), "ratio"),
        ("serve.daemon_cpu_ms_per_session".into(), "ms"),
        ("serve.frame_encode_ns_per_packet".into(), "ns"),
        ("serve.frame_decode_ns_per_packet".into(), "ns"),
        ("trace.session_ms_p50".into(), "ms"),
        ("trace.overhead_pct".into(), "%"),
    ]);
    v
}

/// The end-to-end metrics of an untraced run. Fails when a pool entry
/// that did not fail went unanswered: the packet and memory means must
/// cover the whole pool to be exact functions of the seed.
fn end_to_end(out: &Outcome, failed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let answers = &out.phase.tally.answers;
    let n = answers.len().max(1) as f64;
    let ms: Vec<f64> = answers.iter().map(|a| a.wall.as_secs_f64() * 1e3).collect();
    // Packet and memory means count each pool entry once, so they are
    // exact functions of the seed whatever number of passes a run makes.
    let mut first: std::collections::BTreeMap<usize, &common::Answer> = Default::default();
    for a in answers {
        first.entry(a.entry).or_insert(a);
    }
    if failed == 0 && first.len() != out.entries {
        return Err(format!(
            "{} of {} pool entries were answered; the packet and memory means need all",
            first.len(),
            out.entries
        ));
    }
    let of = |f: &dyn Fn(&common::Answer) -> f64| {
        mean(&first.values().map(|a| f(a)).collect::<Vec<_>>())
    };
    Ok(vec![
        ("setup_s", out.setup_s),
        ("session_ms_p50", quantile(&ms, 0.5)),
        ("session_ms_p99", quantile(&ms, 0.99)),
        (
            "sessions_per_s",
            answers.len() as f64 / out.phase.wall.as_secs_f64(),
        ),
        ("cpu_ms_per_session", out.phase.cpu.as_secs_f64() * 1e3 / n),
        ("tuning_packets_mean", of(&|a| a.tuning as f64)),
        ("latency_packets_mean", of(&|a| a.latency as f64)),
        ("peak_client_kb_mean", of(&|a| a.peak_bytes as f64 / 1024.0)),
        ("peak_rss_mb", out.peak_rss_kib as f64 / 1024.0),
    ])
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = oracle::self_test() {
        eprintln!("perfbench: the oracle fails its hand-computed self-test: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let workload = args.workload.clone();
    // The watchdog is never joined: it either ends the process or ends
    // with it.
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE);
        eprintln!(
            "perfbench: workload {workload} overran its {}s deadline; stopping",
            DEADLINE.as_secs()
        );
        socket::kill_daemon();
        std::process::exit(3);
    });

    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let out = match args.workload.as_str() {
        "anchored" => inproc::run(&inproc::ANCHORED, seed, secs, traced),
        "whole-cycle" => inproc::run(&inproc::WHOLE_CYCLE, seed, secs, traced),
        "patch-lossy" => patch::run(seed, secs, traced),
        "socket" => socket::run(seed, secs, traced, &args.out_dir),
        _ => unreachable!("validated in parse_args"),
    };

    let mut failures = out.phase.tally.failures.clone();
    for (k, v) in &out.side.failures {
        *failures.entry(k).or_insert(0) += v;
    }
    let attempted = out.phase.tally.attempted + out.side.attempted;
    let failed: u64 = failures.values().sum();
    let classes: Vec<String> = FAIL_CLASSES
        .iter()
        .map(|c| format!("{c}={}", failures.get(c).unwrap_or(&0)))
        .collect();
    println!(
        "workload {} seed {seed}: attempted {attempted}, failed {failed} ({}), answered in phase {}",
        args.workload,
        classes.join(" "),
        out.phase.tally.answers.len()
    );

    let metrics: Vec<(String, f64, &str)> = if traced {
        let p50 = common::p50_ms(&out.phase);
        let mut layers = out.layers.clone();
        layers.insert("trace.session_ms_p50".into(), p50);
        if let Some(plain) = out.untraced_p50_ms {
            println!("tracing overhead: session p50 {p50:.4} ms traced vs {plain:.4} ms untraced");
            layers.insert("trace.overhead_pct".into(), (p50 / plain - 1.0) * 100.0);
        }
        let path = args
            .out_dir
            .join(format!("spans-{}-{seed}.jsonl", args.workload));
        match out.phase.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                out.phase.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        let units: std::collections::BTreeMap<&str, &str> = END_TO_END.into_iter().collect();
        end_to_end(&out, failed)
            .unwrap_or_else(|e| {
                eprintln!("perfbench: {e}");
                std::process::exit(1)
            })
            .into_iter()
            .map(|(name, v)| (name.to_string(), v, units[name]))
            .collect()
    };
    for (name, v, unit) in &metrics {
        println!("  {name:<40} {v:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = failures.get("wrong_answer").copied().unwrap_or(0) == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    /// The metric names in `BENCHMARK.json` are the ones this binary
    /// prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let names_after = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..].find(']').unwrap() + start;
            json[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        let e2e: Vec<String> = super::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names_after("end_to_end"), e2e);
        let layers: Vec<String> = super::per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_after("per_layer"), layers);
        let workloads: Vec<String> = super::WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_after("workloads"), workloads);
    }
}
