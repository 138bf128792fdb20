#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself?
#
#   benchmark/aa.sh [--sets 2] [--runs 10] [--seconds S] [--workload W]... [--smoke]
#
# Runs the untraced benchmark as interleaved sets on this checkout (run i of
# every set uses seed i, and the sets take turns, so slow stretches of the
# machine fall on all sets alike) and prints, per workload and end-to-end
# metric: each set's median and quartiles, the relative difference between
# the first two sets' medians, each set's quartile spread as a share of its
# median, and the bound from BENCHMARK.json. Exits non-zero if a difference
# exceeds its bound, if any run fails a check, or if phi, rho or the attempted
# op count of a batch workload differ at all between sets for the same seed.
# (serve_lookup is time-boxed, so its op count is a measurement, not a count.)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys

sets, runs, workloads, passthrough = 2, 10, [], []
argv = sys.argv[1:]
while argv:
    flag = argv.pop(0)
    if flag == "--sets":
        sets = int(argv.pop(0))
    elif flag == "--runs":
        runs = int(argv.pop(0))
    elif flag == "--workload":
        workloads.append(argv.pop(0))
    elif flag == "--seconds":
        passthrough += [flag, argv.pop(0)]
    elif flag == "--smoke":
        passthrough.append(flag)
    else:
        sys.exit(f"unknown argument {flag}")
if sets < 2 or runs < 2:
    sys.exit("need at least two sets of two runs")

spec = json.load(open("BENCHMARK.json"))
workloads = workloads or [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m for m in spec["end_to_end"]}
if "--seconds" not in passthrough:
    passthrough += ["--seconds", str(spec["run_seconds"])]

# results[workload][set] = list of result objects, one per seed
results = {w: [[] for _ in range(sets)] for w in workloads}
bad = []
for workload in workloads:
    for seed in range(1, runs + 1):
        for s in range(sets):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--trace", "0"]
            done = subprocess.run(cmd + passthrough, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.exit(f"{workload} seed {seed}: no result line\n{done.stderr}")
            if done.returncode != 0 or not result["correct"]:
                bad.append(f"{workload} seed {seed} set {s}: failed a check\n{done.stderr}")
            results[workload][s].append(result)
            print(f"ran {workload} seed {seed} set {s}", file=sys.stderr)

# Every result line, for whoever wants more than the table.
os.makedirs("benchmark/out", exist_ok=True)
with open("benchmark/out/aa.json", "w") as raw:
    json.dump(results, raw)

def values(workload, s, metric):
    return [r["metrics"][metric]["value"] for r in results[workload][s]]

print(f"{'workload':<16}{'metric':<13}" + "".join(f"{f'median {s}':>12}{'q1':>12}{'q3':>12}{'spread':>8}" for s in range(sets))
      + f"{'diff 0-1':>10}{'bound':>7}")
for workload in workloads:
    for metric, m in bounds.items():
        row, medians = f"{workload:<16}{metric:<13}", []
        for s in range(sets):
            v = values(workload, s, metric)
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            medians.append(med)
            row += f"{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{(q3 - q1) / med:>8.1%}"
        worse = (medians[1] - medians[0]) / medians[0]
        row += f"{worse:>+10.1%}{m['bound']:>7.0%}"
        print(row)
        if abs(worse) > m["bound"]:
            bad.append(f"{workload}/{metric}: medians differ by {worse:+.1%}, bound {m['bound']:.0%}")
    exact = ["phi", "rho"]
    for s in range(1, sets):
        for metric in exact:
            if values(workload, 0, metric) != values(workload, s, metric):
                bad.append(f"{workload}/{metric}: not bit-equal between set 0 and set {s}")
        counts = [[r["attempted"] for r in results[workload][x]] for x in (0, s)]
        if workload != "serve_lookup" and counts[0] != counts[1]:
            bad.append(f"{workload}: attempted op counts differ between set 0 and set {s}")
for problem in bad:
    print("FAIL", problem)
print("A/A " + ("FAILED" if bad else "passed"))
sys.exit(1 if bad else 0)
PY
