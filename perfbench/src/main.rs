//! Seeded wall-clock benchmark of HAIL, driven through the public API
//! of `hail-core`, `hail-dfs`, `hail-exec` and `hail-mr`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed_serving --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `BENCHMARK.json` lists `ingest` and `mixed_serving`, the two whose
//! spreads stay within their bounds on a noisy 2-vCPU host;
//! `indexed_jobs` and `scan_jobs` run the same way by hand.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (timed from this package around
//! public calls) with `--trace 1`. The line before it records what was
//! run: seed, build profile, every `HAIL_*` knob's effective value,
//! sample counts, the block shares and the checks. A readable table goes
//! to standard error.

mod setup;
mod stats;
mod trace;
mod workloads;

use stats::{peak_rss_mb, percentile, ratio};
use std::process::ExitCode;
use workloads::{Args, Outcome, Solo};

const WORKLOADS: [&str; 4] = ["ingest", "indexed_jobs", "scan_jobs", "mixed_serving"];

/// End-to-end metrics, reported with `--trace 0` on every workload. On
/// `ingest` an operation is one upload; elsewhere it is one job.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("upload_mb_per_s", "MB/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("stored_bytes_per_input_byte", "B/B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer the workload
/// does not reach reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("pax.encode_ms", "ms"),
    ("pax.parse_ms", "ms"),
    ("index.build_ms", "ms"),
    ("pax.checksum_ms", "ms"),
    ("dfs.packet_ms", "ms"),
    ("dfs.upload_block_ms", "ms"),
    ("dfs.hdfs_upload_ms", "ms"),
    ("sim.upload_s", "s"),
    ("exec.planner.cold_plan_ms", "ms"),
    ("exec.planner.warm_plan_ms", "ms"),
    ("exec.cache.hit_ratio", "ratio"),
    ("exec.cache.evictions", "count"),
    ("exec.cache.cost_evaluations", "count"),
    ("exec.cache.working_set_frac", "ratio"),
    ("exec.synopsis.blocks_pruned", "count"),
    ("exec.synopsis.bytes_read", "B"),
    ("exec.splitting.ms", "ms"),
    ("mr.scheduler.overhead_ms", "ms"),
    ("exec.path.fullscan_ms_per_block", "ms"),
    ("exec.path.index_ms_per_block", "ms"),
    ("exec.path.bytes_read_per_row_returned", "B"),
    ("sim.job_s", "s"),
    ("exec.share.pruned_frac", "ratio"),
    ("exec.share.shared_frac", "ratio"),
    ("exec.share.index_frac", "ratio"),
    ("exec.share.fullscan_frac", "ratio"),
    ("mr.manager.queue_wait_ms_p50", "ms"),
    ("mr.manager.queue_wait_ms_p90", "ms"),
    ("exec.sharing.attach_ratio", "ratio"),
    ("exec.sharing.fallbacks", "count"),
    ("exec.adapt.reindex_ms", "ms"),
    ("exec.adapt.replicas_rewritten", "count"),
    ("exec.adapt.jobs_until_flip", "count"),
    ("trace.overhead_frac", "ratio"),
];

const USAGE: &str =
    "usage: hail-perfbench --workload <ingest|indexed_jobs|scan_jobs|mixed_serving> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag `{}` has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(format!("unexpected `{flag} {value}`")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) => Ok((
            w,
            Args {
                seed,
                seconds,
                trace,
            },
        )),
        _ => Err("every flag is required and must be valid".into()),
    }
}

/// The effective value of every registered knob, as the engine will
/// read it.
fn knob_values() -> Vec<(&'static str, String)> {
    use hail_core::knobs::{list, KnobKind};
    list()
        .iter()
        .map(|k| {
            let value = match k.kind {
                KnobKind::Count => k.count().to_string(),
                _ if k.enabled() => "feature enabled".to_string(),
                _ => "feature disabled".to_string(),
            };
            (k.name, value)
        })
        .collect()
}

fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The program under test reads its knobs from the environment; a
    // set knob would silently change what is measured.
    if let Some(k) = hail_core::knobs::list()
        .iter()
        .find(|k| k.read_raw().is_some())
    {
        eprintln!(
            "refusing to run: {} is set; unset every HAIL_* knob",
            k.name
        );
        return ExitCode::from(2);
    }

    let result = match workload.as_str() {
        "ingest" => workloads::ingest(&args),
        "indexed_jobs" => workloads::solo(Solo::Indexed, &args),
        "scan_jobs" => workloads::solo(Solo::Scan, &args),
        _ => workloads::mixed(&args),
    };
    let mut out: Outcome = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: run aborted: {e}");
            return ExitCode::from(1);
        }
    };
    let latencies = out.e2e.samples("op_ms").to_vec();
    out.e2e.set("op_ms_p50", percentile(&latencies, 50.0));
    out.e2e.set("op_ms_p90", percentile(&latencies, 90.0));
    out.e2e.set("peak_rss_mb", peak_rss_mb());

    let failed_frac = ratio(out.failed as f64, out.attempted as f64);
    let checks_ok = out.checks.iter().all(|(_, ok)| *ok);
    let correct = out.failed == 0 && checks_ok && out.attempted > 0;

    let (list, source): (&[(&str, &str)], &stats::Layers) = if args.trace {
        (&PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.e2e)
    };
    eprintln!(
        "{workload} seed={} trace={} ops={} (latency samples {}) failed={} failed_frac={failed_frac}",
        args.seed,
        u8::from(args.trace),
        out.attempted,
        latencies.len(),
        out.failed
    );
    for (name, unit) in list {
        eprintln!("  {name:<40} {:>16.6} {unit}", source.value(name));
    }
    for (name, ok) in &out.checks {
        eprintln!("  check: {name}: {}", if *ok { "ok" } else { "FAILED" });
    }

    let knobs: Vec<(String, String)> = knob_values()
        .into_iter()
        .map(|(k, v)| (k.to_string(), format!("\"{v}\"")))
        .collect();
    let checks: Vec<(String, String)> = out
        .checks
        .iter()
        .map(|(name, ok)| (name.to_string(), ok.to_string()))
        .collect();
    let shares: Vec<(String, String)> = PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("exec.share.") || n.starts_with("exec.cache."))
        .map(|(n, _)| (n.to_string(), json_num(out.layers.value(n))))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let record = json_object(&[
        ("workload".into(), format!("\"{workload}\"")),
        ("seed".into(), args.seed.to_string()),
        ("profile".into(), format!("\"{profile}\"")),
        ("available_parallelism".into(), threads.to_string()),
        ("knobs".into(), json_object(&knobs)),
        ("latency_samples".into(), latencies.len().to_string()),
        ("failed_frac".into(), json_num(failed_frac)),
        ("checks".into(), json_object(&checks)),
        ("blocks_and_cache".into(), json_object(&shares)),
    ]);
    println!("{{\"run\": {record}}}");

    let metrics: Vec<(String, String)> = list
        .iter()
        .map(|(name, unit)| {
            let value = json_num(source.value(name));
            (
                name.to_string(),
                format!("{{\"value\": {value}, \"unit\": \"{unit}\"}}"),
            )
        })
        .collect();
    println!(
        "{}",
        json_object(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), out.attempted.to_string()),
            ("failed".into(), out.failed.to_string()),
            ("metrics".into(), json_object(&metrics)),
        ])
    );
    ExitCode::SUCCESS
}
