//! One command, one workload, one fresh process:
//!
//! ```text
//! pbist-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--dir <scratch>]
//! ```
//!
//! `--trace 0` drives the workload through the whole stack and prints the
//! end-to-end metrics; `--trace 1` runs the traced per-layer ladder and
//! prints the per-layer metrics.  The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  See `README.md`.

mod e2e;
mod hist;
mod ladder;
mod run;
mod stack;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Spec, SPECS};

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Every metric a run must print, by mode; `check.sh` holds
/// `BENCHMARK.json` to the same lists (`--list`).
const END_TO_END: [&str; 4] = [
    "setup_s",
    "throughput_kkeys_s",
    "read_p50_us",
    "wal_bytes_per_key",
];

const PER_LAYER: [&str; 51] = [
    "workloads.gen_s",
    "pbist.build_ns_per_key",
    "pbist.read_ns_per_key",
    "pbist.write_ns_per_key",
    "pbist.ns_per_key",
    "pbist.nodes_per_key",
    "pbist.leaves_edited_per_kkey",
    "pbist.rebuild_keys_per_key",
    "baselines.sorted_array_read_ns_per_key",
    "baselines.sorted_array_write_ns_per_key",
    "baselines.mutex_btree_ns_per_key",
    "combine.read_ns_per_key",
    "combine.write_ns_per_key",
    "combine.tax_ns_per_key",
    "combine.rounds",
    "combine.round_size_mean",
    "combine.pooled_round_share",
    "combine.snapshot_read_share",
    "combine.publish_clone_keys",
    "service.read_ns_per_key",
    "service.write_ns_per_key",
    "service.tax_ns_per_key",
    "service.subbatch_size_mean",
    "service.empty_subbatch_share",
    "service.split_ns_per_key",
    "service.stitch_ns_per_key",
    "durable.read_ns_per_key",
    "durable.write_ns_per_key",
    "durable.tax_ns_per_key",
    "durable.read_p50_us",
    "durable.write_p50_us",
    "durable.read_tail_us",
    "durable.write_tail_us",
    "durable.mem_bytes_per_key",
    "durable.recovery_s",
    "durable.sync_us",
    "durable.snapshot_s",
    "durable.records_per_kkey",
    "durable.bytes_per_key",
    "durable.fsyncs_per_kkey",
    "durable.group_size_mean",
    "forkjoin.install_ns",
    "forkjoin.join_ns",
    "forkjoin.jobs_per_round",
    "forkjoin.wakes_per_round",
    "forkjoin.steal_hit_share",
    "parprim.merge_ns_per_key",
    "batchapi.normalise_ns_per_key",
    "obs.disabled_overhead_ns",
    "trace.stack_ns_per_key",
    "trace.overhead_share",
];

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where the WAL goes; removed when the run ends.
    dir: PathBuf,
    /// Where the trace file goes.
    out_dir: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, 1u64, 24.0f64, false, false);
    let mut dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            "--list" => {
                for spec in SPECS {
                    println!("workload {}", spec.name);
                }
                END_TO_END
                    .iter()
                    .for_each(|name| println!("end_to_end {name}"));
                PER_LAYER
                    .iter()
                    .for_each(|name| println!("per_layer {name}"));
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&workload).ok_or_else(|| {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {workload}; one of {names:?}")
    })?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    // The scratch directory is per process, so concurrent runs never share
    // a WAL; by default it sits under the benchmark's own `out/`.
    let dir = dir.unwrap_or_else(|| out_dir.clone()).join(format!(
        "wal-{}-{}",
        spec.name,
        std::process::id()
    ));
    Ok(Some(Args {
        spec: if quick { spec.quick() } else { spec },
        seed,
        seconds,
        trace,
        dir,
        out_dir,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pbist-bench: {message}");
            return ExitCode::from(2);
        }
    };
    // A crashed run with this pid may have left a WAL here.
    let _ = std::fs::remove_dir_all(&args.dir);
    let outcome = if args.trace {
        ladder::run(&args.spec, args.seed, &args.dir, &args.out_dir)
    } else {
        e2e::run(&args.spec, args.seed, args.seconds, &args.dir)
    };
    // Best effort: a failed run may leave its scratch directory behind.
    let _ = std::fs::remove_dir_all(&args.dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("pbist-bench: {}: {message}", args.spec.name);
            return ExitCode::from(2);
        }
    };

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let ordered: Vec<&Metric> = expected
        .iter()
        .filter_map(|&name| outcome.metrics.iter().find(|m| m.name == name))
        .collect();
    if ordered.len() != expected.len()
        || outcome.metrics.len() != expected.len()
        || ordered.iter().any(|m| !m.value.is_finite())
    {
        let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        eprintln!("pbist-bench: metrics {printed:?} are not the finite set {expected:?}");
        return ExitCode::from(2);
    }
    for metric in &ordered {
        println!("{:<44} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    let metrics: Vec<String> = ordered
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
