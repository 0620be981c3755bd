//! The end-to-end run (`--trace 0`): set-up, a warm-up, one timed window
//! through the full `DurableTier`, then the durability check.  Tracing is off.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::run::{drive, merged_oracle, Client, Stop, Tally, WINDOW_SLICES};
use crate::stack;
use crate::workload::{generate, Bitmap, Spec};
use crate::{median, Metric, Outcome};

/// Set-ups per run, `setup_s` being their median: at least `SETUP_REPS_MIN`,
/// then more until `SETUP_BUDGET_S` is spent or `SETUP_REPS_MAX` are done — a
/// 70 ms set-up needs more repetitions than a 700 ms one to give a steady
/// median, and can afford them.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;
/// The clients run this share of `--seconds`, checked but unmeasured, before
/// the window opens: a freshly prefilled tree is faster than the one a few
/// hundred thousand updates leave behind (`point-write` takes ~5 s to settle).
const WARMUP_SHARE: f64 = 0.2;

/// Resident set size of this process, from `/proc/self/status`.
pub fn rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

/// The tail reported beside a median: the highest percentile that still
/// has ten samples beyond it in a run — p99 of point calls, p90 of the far
/// fewer batch calls.
pub fn tail_quantile(spec: &Spec) -> f64 {
    if spec.keys_per_call() == 1 {
        0.99
    } else {
        0.90
    }
}

/// Whether the tier's length and contents equal the oracle's.
pub fn contents_match(tier: &stack::Tier, oracle: &Bitmap) -> bool {
    let keys = stack::tier_keys(tier);
    let expected = oracle.count();
    stack::tier_len(tier) == expected
        && keys.len() == expected
        && keys.iter().all(|&k| oracle.test(k))
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let universe = spec.universe();

    // ---- set-up, several times; the last one is kept for the window ----
    let mut setup_s: Vec<f64> = Vec::new();
    let (inputs, tier) = loop {
        let started = Instant::now();
        let inputs = generate(spec, seed);
        let tier = stack::open_tier(dir, universe, false).map_err(|e| io("open", e))?;
        stack::prefill_tier(&tier, &inputs.prefill).map_err(|e| io("prefill", e))?;
        setup_s.push(started.elapsed().as_secs_f64());
        let spent: f64 = setup_s.iter().sum();
        if setup_s.len() >= SETUP_REPS_MAX
            || (setup_s.len() >= SETUP_REPS_MIN && spent >= SETUP_BUDGET_S)
        {
            break (inputs, tier);
        }
        drop(tier);
        std::fs::remove_dir_all(dir).map_err(|e| io("remove set-up dir", e))?;
    };

    // ---- warm-up, then the timed window ----
    let mut clients: Vec<Client<'_>> = inputs
        .clients
        .iter()
        .map(|trace| Client::new(trace, &inputs.prefill_bits))
        .collect();
    let warmup = drive(
        vec![&tier; clients.len()],
        &mut clients,
        Stop::After(Duration::from_secs_f64(seconds * WARMUP_SHARE)),
        "durable.call",
        None,
    );
    let wal_before = stack::tier_wal_bytes(&tier);
    let pass = drive(
        vec![&tier; clients.len()],
        &mut clients,
        Stop::After(Duration::from_secs_f64(seconds)),
        "durable.call",
        None,
    );
    let wal_bytes = match (stack::tier_wal_bytes(&tier), wal_before) {
        (Some(after), Some(before)) => after - before,
        _ => return Err("durable.bytes_written is no longer exposed".to_string()),
    };

    // ---- durability: everything acknowledged survives close + reopen ----
    stack::close_tier(tier).map_err(|e| io("close", e))?;
    let tier = stack::open_tier(dir, universe, false).map_err(|e| io("reopen", e))?;
    let durable = contents_match(&tier, &merged_oracle(&clients, universe));
    drop(tier);
    std::fs::remove_dir_all(dir).map_err(|e| io("remove dir", e))?;

    // Every window metric is the median over the window's full slices.
    let slices = &pass.slices[..WINDOW_SLICES];
    let slice_s = seconds / WINDOW_SLICES as f64;
    let over_slices = |what: &str, pick: &dyn Fn(&Tally) -> Option<f64>| {
        let values: Vec<f64> = slices.iter().filter_map(pick).collect();
        if values.len() * 2 > slices.len() {
            Ok(median(&values))
        } else {
            Err(format!(
                "{what}: only {} of {} slices had a sample",
                values.len(),
                slices.len()
            ))
        }
    };
    eprintln!(
        "{}: {} calls ({} keys) in {:.3} s; {} read / {} write calls timed, write p50 {:.1} us; kkeys/s by slice {:?}",
        spec.name,
        pass.calls,
        pass.total.keys,
        pass.wall.as_secs_f64(),
        pass.total.read.count(),
        pass.total.write.count(),
        over_slices("write p50", &|s| s.write.quantile_ns(0.5)).unwrap_or(f64::NAN) / 1e3,
        slices
            .iter()
            .map(|s| (s.keys as f64 / 1e3 / slice_s).round())
            .collect::<Vec<_>>(),
    );
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "throughput_kkeys_s",
            over_slices("throughput", &|s| Some(s.keys as f64 / 1e3 / slice_s))?,
            "kkeys/s",
        ),
        Metric::new(
            "read_p50_us",
            over_slices("read p50", &|s| s.read.quantile_ns(0.5))? / 1e3,
            "us",
        ),
        Metric::new(
            "wal_bytes_per_key",
            wal_bytes / pass.mutated.max(1) as f64,
            "B/key",
        ),
    ];
    let failed = warmup.failed + pass.failed;
    Ok(Outcome {
        correct: durable && failed == 0,
        attempted: warmup.calls + pass.calls,
        failed: failed + u64::from(!durable),
        metrics,
    })
}
