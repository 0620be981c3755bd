//! The traced ladder run (`--trace 1`): the first quarter of the
//! workload's trace replayed against each stack prefix — bare `IstSet`,
//! `ConcurrentSet`, `ShardedSet`, full `DurableTier` — so every layer's tax
//! is measured from outside as "this prefix minus the previous"; plus the
//! reference bars, isolated public calls, and the layers' own counters.
//! A fixed op count (not a duration), so counts repeat on one seed.

use std::path::Path;
use std::time::Instant;

use crate::e2e::{contents_match, rss_bytes, tail_quantile};
use crate::run::{drive, merged_oracle, run_client, Client, PassResult, Stop};
use crate::stack::{self, Bare, Counts, Ops};
use crate::trace::{Trace, NO_PARENT};
use crate::workload::{generate, Inputs, Spec};
use crate::{Metric, Outcome};

/// What a counter the layer no longer exposes reports.
const MISSING: f64 = -1.0;
/// Repetitions of each isolated call.
const ISOLATED_REPS: usize = 201;
/// Traced (and as many untraced) slices the full-stack rung is cut into.
const TRACE_SLICES: usize = 8;
/// Batch size of the isolated calls on point workloads (which have no `m`).
const ISOLATED_MIN_KEYS: usize = 1024;

fn fresh_clients(inputs: &Inputs) -> Vec<Client<'_>> {
    inputs
        .clients
        .iter()
        .map(|trace| Client::new(trace, &inputs.prefill_bits))
        .collect()
}

/// Replays every client's trace prefix on this one thread, inside a pool
/// so batch ops fork: the bare-backend rung of the ladder.
fn replay_bare<S: Send>(
    backend: S,
    inputs: &Inputs,
    stop: Stop,
    layer_call: &'static str,
    trace: Option<(&mut Trace, u32)>,
) -> (PassResult, S)
where
    Bare<S>: Ops,
{
    let pool = stack::pool(false);
    let mut bare = Bare(backend);
    let mut clients = fresh_clients(inputs);
    let mut buf = trace
        .as_ref()
        .map(|(trace, phase)| trace.client_buf(*phase));
    let results = pool.install(|| {
        clients
            .iter_mut()
            .map(|client| run_client(&mut bare, client, stop, layer_call, buf.as_mut()))
            .collect()
    });
    if let (Some((trace, _)), Some(buf)) = (trace, buf) {
        trace.absorb(buf);
    }
    (PassResult::from_clients(results), bare.0)
}

/// `counts[num] / den`; 0 when nothing was counted in `den`.
fn ratio(counts: &Counts, num: &str, den: f64) -> f64 {
    match counts.get(num) {
        Some(&value) if den > 0.0 => value / den,
        Some(_) => 0.0,
        None => MISSING,
    }
}

/// `counts[num]` over the sum of `counts[den…]`.
fn share(counts: &Counts, num: &str, den: &[&str]) -> f64 {
    match den
        .iter()
        .map(|name| counts.get(name).copied())
        .sum::<Option<f64>>()
    {
        Some(total) => ratio(counts, num, total),
        None => MISSING,
    }
}

struct Emit(Vec<Metric>);

impl Emit {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }

    /// `<layer>.read_ns_per_key` and `.write_ns_per_key`; returns ns/key
    /// over all timed calls.
    fn read_write(&mut self, layer: &str, pass: &PassResult) -> f64 {
        let (read, write, all) = pass.ns_per_key();
        self.push(&format!("{layer}.read_ns_per_key"), read, "ns/key");
        self.push(&format!("{layer}.write_ns_per_key"), write, "ns/key");
        all
    }
}

pub fn run(spec: &Spec, seed: u64, dir: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let universe = spec.universe();
    let mut m = Emit(Vec::new());
    let mut trace = Trace::new();
    let root = trace.begin("run", NO_PARENT);

    let (inputs, gen_ns) = trace.time("workloads.generate", root, || generate(spec, seed));
    m.push("workloads.gen_s", gen_ns as f64 / 1e9, "s");
    let quarter = Stop::Count((spec.trace_len() / 4).max(1));
    let capped = Stop::Count((spec.trace_len() / 4).clamp(1, spec.baseline_cap));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |pass: &PassResult| {
        attempted += pass.calls;
        failed += pass.failed;
    };

    // ---- top rung first (its memory reading needs an unused heap): the
    // full DurableTier ----
    let rss_before = rss_bytes()?;
    let tier = stack::open_tier(dir, universe, false).map_err(|e| io("open", e))?;
    stack::prefill_tier(&tier, &inputs.prefill).map_err(|e| io("prefill", e))?;
    m.push(
        "durable.mem_bytes_per_key",
        (rss_bytes()? - rss_before) / spec.n as f64,
        "B/key",
    );
    // Untraced and traced slices alternate, a quarter of the trace each in
    // total, so warm-up and drift fall on both sides of the overhead ratio.
    let mut clients = fresh_clients(&inputs);
    let slice = Stop::Count((spec.trace_len() / 4 / TRACE_SLICES).max(1));
    let mut sides: [Option<PassResult>; 2] = [None, None];
    for turn in 0..2 * TRACE_SLICES {
        let traced = turn % 2 == 1;
        let phase = trace.begin(
            if traced {
                "ladder.durable"
            } else {
                "ladder.durable.untraced"
            },
            root,
        );
        let spans = traced.then_some((&mut trace, phase));
        let pass = drive(
            vec![&tier; clients.len()],
            &mut clients,
            slice,
            "durable.call",
            spans,
        );
        trace.end(phase);
        tally(&pass);
        match &mut sides[usize::from(traced)] {
            Some(total) => total.absorb(&pass),
            side => *side = Some(pass),
        }
    }
    let [Some(untraced), Some(durable)] = sides else {
        unreachable!("both sides ran TRACE_SLICES times")
    };
    let wall_per_key = |pass: &PassResult| pass.wall.as_secs_f64() / pass.total.keys as f64;
    m.push(
        "trace.overhead_share",
        wall_per_key(&durable) / wall_per_key(&untraced) - 1.0,
        "share",
    );
    let quantile_us = |hist: &crate::hist::LatencyHist, q: f64| {
        hist.quantile_ns(q).map_or(MISSING, |ns| ns / 1e3)
    };
    let tail = tail_quantile(spec);
    for (side, hist) in [
        ("read", &untraced.total.read),
        ("write", &untraced.total.write),
    ] {
        m.push(
            &format!("durable.{side}_p50_us"),
            quantile_us(hist, 0.5),
            "us",
        );
        m.push(
            &format!("durable.{side}_tail_us"),
            quantile_us(hist, tail),
            "us",
        );
    }

    let probe = inputs.prefill[0];
    let sync_us = stack::time_sync(&mut trace, root, &tier, probe, ISOLATED_REPS / 8)
        .map_err(|e| io("sync_all", e))?;
    m.push("durable.sync_us", sync_us, "us");

    // Recovery of everything above, then the same replay once more for the
    // counts, the reopened tier's pools built with metrics on (kept off
    // above: they put clock reads in `join`).
    stack::close_tier(tier).map_err(|e| io("close", e))?;
    let (tier, recovery_ns) = trace.time("durable.open", root, || {
        stack::open_tier(dir, universe, true)
    });
    let tier = tier.map_err(|e| io("reopen", e))?;
    m.push("durable.recovery_s", recovery_ns as f64 / 1e9, "s");
    let recovered = contents_match(&tier, &merged_oracle(&clients, universe));
    let before = stack::tier_counts(&tier);
    let pass = drive(
        vec![&tier; clients.len()],
        &mut clients,
        quarter,
        "durable.call",
        None,
    );
    tally(&pass);
    let counts = stack::delta(&stack::tier_counts(&tier), &before);
    let kkeys = pass.total.keys as f64 / 1e3;
    let rounds = counts.get("combine.rounds").copied().unwrap_or(0.0);
    let pooled = counts.get("combine.pooled_rounds").copied().unwrap_or(0.0);
    m.push(
        "combine.rounds",
        ratio(&counts, "combine.rounds", 1.0),
        "count",
    );
    m.push(
        "combine.round_size_mean",
        share(
            &counts,
            "combine.round_size.sum",
            &["combine.round_size.count"],
        ),
        "count",
    );
    m.push(
        "combine.pooled_round_share",
        ratio(&counts, "combine.pooled_rounds", rounds),
        "share",
    );
    m.push(
        "combine.snapshot_read_share",
        ratio(&counts, "combine.snapshot_reads", pass.calls as f64),
        "share",
    );
    m.push(
        "combine.publish_clone_keys",
        ratio(&counts, "combine.publish_clone_keys", 1.0),
        "count",
    );
    m.push(
        "durable.records_per_kkey",
        ratio(&counts, "durable.records_appended", kkeys),
        "count",
    );
    m.push(
        "durable.bytes_per_key",
        ratio(&counts, "durable.bytes_written", pass.mutated as f64),
        "B/key",
    );
    m.push(
        "durable.fsyncs_per_kkey",
        ratio(&counts, "durable.fsyncs", kkeys),
        "count",
    );
    m.push(
        "durable.group_size_mean",
        share(
            &counts,
            "durable.group_size.sum",
            &["durable.group_size.count"],
        ),
        "count",
    );
    m.push(
        "forkjoin.jobs_per_round",
        ratio(&counts, "forkjoin.jobs_executed", pooled),
        "count",
    );
    m.push(
        "forkjoin.wakes_per_round",
        ratio(&counts, "forkjoin.wakes", pooled),
        "count",
    );
    m.push(
        "forkjoin.steal_hit_share",
        share(
            &counts,
            "forkjoin.steal_success",
            &["forkjoin.steal_success", "forkjoin.steal_empty"],
        ),
        "share",
    );
    let (snapshotted, snapshot_ns) =
        trace.time("durable.snapshot_all", root, || stack::snapshot_tier(&tier));
    snapshotted.map_err(|e| io("snapshot_all", e))?;
    m.push("durable.snapshot_s", snapshot_ns as f64 / 1e9, "s");
    stack::close_tier(tier).map_err(|e| io("close", e))?;
    std::fs::remove_dir_all(dir).map_err(|e| io("remove dir", e))?;

    // ---- rung 1: bare IstSet ----
    let keys = inputs.prefill.clone();
    let (tree, build_ns) = trace.time("pbist.build", root, || stack::build_tree(keys, false));
    m.push(
        "pbist.build_ns_per_key",
        build_ns as f64 / spec.n as f64,
        "ns/key",
    );
    let phase = trace.begin("ladder.pbist", root);
    let (pass, tree) = replay_bare(
        tree,
        &inputs,
        quarter,
        "pbist.call",
        Some((&mut trace, phase)),
    );
    trace.end(phase);
    drop(tree);
    tally(&pass);
    let pbist_ns = m.read_write("pbist", &pass);
    m.push("pbist.ns_per_key", pbist_ns, "ns/key");

    // The same replay with the tree's work counters on, untimed.
    let counted = stack::build_tree(inputs.prefill.clone(), true);
    let before = stack::tree_counts(&counted);
    let (pass, counted) = replay_bare(counted, &inputs, quarter, "pbist.call", None);
    tally(&pass);
    let counts = stack::delta(&stack::tree_counts(&counted), &before);
    drop(counted);
    let keys = pass.total.keys as f64;
    m.push(
        "pbist.nodes_per_key",
        ratio(&counts, "pbist.nodes_touched", keys),
        "count",
    );
    m.push(
        "pbist.leaves_edited_per_kkey",
        ratio(&counts, "pbist.leaves_edited", keys / 1e3),
        "count",
    );
    m.push(
        "pbist.rebuild_keys_per_key",
        ratio(&counts, "pbist.rebuild_keys", keys),
        "count",
    );

    // ---- reference bars on the same prefix, capped (their writes are O(n)) ----
    let sorted = stack::build_sorted_array(inputs.prefill.clone());
    let phase = trace.begin("ladder.sorted_array", root);
    let (pass, sorted) = replay_bare(
        sorted,
        &inputs,
        capped,
        "baselines.sorted_array.call",
        Some((&mut trace, phase)),
    );
    trace.end(phase);
    drop(sorted);
    tally(&pass);
    let (read, write, _) = pass.ns_per_key();
    m.push("baselines.sorted_array_read_ns_per_key", read, "ns/key");
    m.push("baselines.sorted_array_write_ns_per_key", write, "ns/key");

    let btree = stack::build_mutex_btree(&inputs.prefill);
    let mut clients = fresh_clients(&inputs);
    let phase = trace.begin("ladder.mutex_btree", root);
    let pass = drive(
        vec![&btree; clients.len()],
        &mut clients,
        capped,
        "baselines.mutex_btree.call",
        Some((&mut trace, phase)),
    );
    trace.end(phase);
    drop(btree);
    tally(&pass);
    m.push(
        "baselines.mutex_btree_ns_per_key",
        pass.ns_per_key().2,
        "ns/key",
    );

    // ---- rung 2: ConcurrentSet ----
    let front = stack::build_front(inputs.prefill.clone());
    let mut clients = fresh_clients(&inputs);
    let phase = trace.begin("ladder.combine", root);
    let pass = drive(
        vec![&front; clients.len()],
        &mut clients,
        quarter,
        "combine.call",
        Some((&mut trace, phase)),
    );
    trace.end(phase);
    drop(front);
    tally(&pass);
    let combine_ns = m.read_write("combine", &pass);

    // ---- rung 3: ShardedSet ----
    let sharded = stack::build_sharded(inputs.prefill.clone(), universe);
    let mut clients = fresh_clients(&inputs);
    let before = stack::sharded_counts(&sharded);
    let phase = trace.begin("ladder.service", root);
    let pass = drive(
        vec![&sharded; clients.len()],
        &mut clients,
        quarter,
        "service.call",
        Some((&mut trace, phase)),
    );
    trace.end(phase);
    let counts = stack::delta(&stack::sharded_counts(&sharded), &before);
    drop(sharded);
    tally(&pass);
    let service_ns = m.read_write("service", &pass);
    m.push(
        "service.subbatch_size_mean",
        share(
            &counts,
            "service.subbatch_size.sum",
            &["service.subbatch_size.count"],
        ),
        "count",
    );
    m.push(
        "service.empty_subbatch_share",
        share(
            &counts,
            "service.empty_subbatches",
            &["service.empty_subbatches", "service.subbatch_size.count"],
        ),
        "share",
    );

    // ---- the taxes: each rung minus the one below; with `pbist.ns_per_key`
    // they sum to the traced full-stack ns/key ----
    let durable_ns = m.read_write("durable", &durable);
    m.push("combine.tax_ns_per_key", combine_ns - pbist_ns, "ns/key");
    m.push("service.tax_ns_per_key", service_ns - combine_ns, "ns/key");
    m.push("durable.tax_ns_per_key", durable_ns - service_ns, "ns/key");
    m.push("trace.stack_ns_per_key", durable_ns, "ns/key");

    // ---- isolated public calls at the workload's batch size ----
    // Two interleaved strides of the prefill, `m` keys each.
    let iso_keys = spec.keys_per_call().max(ISOLATED_MIN_KEYS);
    let step = (inputs.prefill.len() / iso_keys).max(2);
    let batches: Vec<stack::Batch<u64>> = [0, step / 2]
        .iter()
        .map(|&offset| {
            let keys = inputs.prefill[offset..]
                .iter()
                .step_by(step)
                .take(iso_keys)
                .copied()
                .collect();
            stack::Batch::from_sorted(keys).expect("a stride of ascending keys")
        })
        .collect();
    let (split_ns, stitch_ns) =
        stack::time_split_stitch(&mut trace, root, universe, &batches[0], ISOLATED_REPS);
    m.push("service.split_ns_per_key", split_ns, "ns/key");
    m.push("service.stitch_ns_per_key", stitch_ns, "ns/key");
    let (install_ns, join_ns) = stack::time_install_join(&mut trace, root, ISOLATED_REPS * 10);
    m.push("forkjoin.install_ns", install_ns, "ns");
    m.push("forkjoin.join_ns", join_ns, "ns");
    let merge_ns = stack::time_merge(&mut trace, root, &batches[0], &batches[1], ISOLATED_REPS);
    m.push("parprim.merge_ns_per_key", merge_ns, "ns/key");
    // A fixed permutation (7919 is prime to every batch size used): the
    // input is shuffled, yet needs no seed.
    let sorted_keys = batches[0].to_vec();
    let shuffled: Vec<u64> = (0..sorted_keys.len())
        .map(|i| sorted_keys[(i * 7919 + 13) % sorted_keys.len()])
        .collect();
    let normalise_ns = stack::time_normalise(&mut trace, root, &shuffled, ISOLATED_REPS);
    m.push("batchapi.normalise_ns_per_key", normalise_ns, "ns/key");
    m.push(
        "obs.disabled_overhead_ns",
        stack::disabled_overhead_ns(),
        "ns",
    );

    trace.end(root);
    std::fs::create_dir_all(out_dir).map_err(|e| io("create out dir", e))?;
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    let started = Instant::now();
    trace
        .write_json(&path, spec.name)
        .map_err(|e| io("write trace", e))?;
    eprintln!(
        "{}: wrote {} in {:.2} s",
        spec.name,
        path.display(),
        started.elapsed().as_secs_f64()
    );

    Ok(Outcome {
        correct: failed == 0 && recovered,
        attempted,
        failed: failed + u64::from(!recovered),
        metrics: m.0,
    })
}
