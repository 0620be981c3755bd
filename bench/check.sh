#!/usr/bin/env bash
# Self-check of the benchmark (< 10 s of running after the build): every
# workload in --quick mode, end to end and traced, held against
# BENCHMARK.json.  Run from anywhere; CI wiring is left to a later PR.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
run=(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml --)

python3 - "$root/BENCHMARK.json" "${run[@]}" <<'EOF'
import json, re, subprocess, sys

spec = json.load(open(sys.argv[1]))
run = sys.argv[2:]
name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

listed = {"workload": [], "end_to_end": [], "per_layer": []}
for line in subprocess.run(run + ["--list"], check=True, capture_output=True, text=True).stdout.split("\n"):
    if line:
        kind, name = line.split()
        listed[kind].append(name)

declared = {
    "workload": [w["name"] for w in spec["workloads"]],
    "end_to_end": [m["name"] for m in spec["end_to_end"]],
    "per_layer": [m["name"] for m in spec["per_layer"]],
}
for kind, limit in (("workload", 8), ("end_to_end", 16), ("per_layer", 128)):
    assert declared[kind] == listed[kind], f"BENCHMARK.json {kind} names differ from the binary's: {declared[kind]} vs {listed[kind]}"
    assert 1 <= len(declared[kind]) <= limit, f"{len(declared[kind])} {kind} names, limit {limit}"
names = sum(declared.values(), [])
assert len(set(names)) == len(names), "a name is used twice"
assert all(name_ok.match(n) for n in names), "a name has characters outside [A-Za-z0-9_.-]"
units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

for workload in declared["workload"]:
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        argv = run + ["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace, "--quick"]
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == 0, f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}"
        result = json.loads(done.stdout.strip().split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: oracle failed: {result}"
        assert sorted(result["metrics"]) == sorted(declared[kind]), f"{workload} --trace {trace} printed {sorted(result['metrics'])}"
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), f"{name} is not a number"
            assert unit_ok.match(metric["unit"]) and metric["unit"] == units[name], f"{name}: unit {metric['unit']!r} vs declared {units[name]!r}"
        print(f"ok  {workload:12s} --trace {trace}: {len(result['metrics'])} metrics, {result['attempted']} calls checked")
print("bench/check.sh: all checks passed")
EOF
