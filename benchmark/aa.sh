#!/usr/bin/env bash
# A/A: run the same code as two sets and report whether the benchmark's
# own bounds survive this host's noise.
#
#   benchmark/aa.sh [runs-per-set [seconds]] > benchmark/NOISE.md
#
# (defaults: 10 runs, BENCHMARK.json's run_seconds)
#
# Each set runs every workload `runs-per-set` times untraced, each time
# with another --seed (1, 2, ...), exactly as BENCHMARK.json's command
# says, plus one traced run on seed 1. Per end-to-end metric it prints both
# sets' medians, their gap, each set's spread (the distance between the
# quartiles over the median, by Python's statistics.quantiles(n=4), the
# arithmetic the benchmark driver uses) and the bound. PASS means set B
# is not worse than set A by more than the bound and both spreads are
# inside it; anything else is UNRESOLVED: on this host, on that metric, a
# change of that size cannot be told from noise. (setup_s is judged on
# its medians only, as the driver judges it.) Count-type layer metrics
# must be identical between the two traced runs.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" "${2:-}" <<'PY'
import json, statistics, subprocess, sys, time

runs = int(sys.argv[1])
bench = json.load(open("BENCHMARK.json"))
seconds = int(sys.argv[2]) if sys.argv[2] else bench["run_seconds"]

def run(workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - t
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}")
    line = json.loads(p.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        sys.exit(f"{' '.join(cmd)} failed its checks")
    stem = f"benchmark/results/{workload}.seed{seed}" + (".trace" if trace else "")
    return line, json.load(open(stem + ".json")), wall

sets = {}
for name in "AB":
    sets[name] = {}
    for w in (w["name"] for w in bench["workloads"]):
        untraced = [run(w, seed, 0) for seed in range(1, runs + 1)]
        sets[name][w] = {"untraced": untraced, "traced": run(w, 1, 1)}
        print(f"set {name} {w} done", file=sys.stderr)

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

host = sets["A"][bench["workloads"][0]["name"]]["untraced"][0][1]["host"]
print("# Noise floor of the benchmark on this host (A/A)\n")
print("Written by `benchmark/aa.sh`; rerun it on another host, do not edit.\n")
print(f"- host: {host['nproc']} x {host['cpu_model']}, kernel {host['kernel']}")
print(f"- benchmark tree: `{host['tree_hash']}`")
print(f"- two sets of {runs} untraced runs per workload (seeds 1..{runs}, "
      f"`--seconds {seconds}`) and one traced run (seed 1)\n")

print("## End-to-end metrics\n")
print("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
unresolved = 0
for w in sets["A"]:
    for m in bench["end_to_end"]:
        col = {s: [r[0]["metrics"][m["name"]]["value"] for r in sets[s][w]["untraced"]] for s in "AB"}
        med = {s: statistics.median(col[s]) for s in "AB"}
        worse = (med["B"] - med["A"]) / med["A"] * (1 if m["better"] == "lower" else -1)
        sp = {s: spread(col[s]) for s in "AB"}
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(sp.values()) <= m["bound"])
        unresolved += not ok
        print(f"| {w} | {m['name']} ({m['unit']}) | {med['A']:.6g} | {med['B']:.6g} | {worse:+.1%} "
              f"| {sp['A']:.1%} | {sp['B']:.1%} | {m['bound']:.0%} | {'PASS' if ok else 'UNRESOLVED'} |")
print(f"\n{unresolved} UNRESOLVED.\n")

print("## Count-type layer metrics, traced run A against traced run B\n")
differ = []
for w in sets["A"]:
    a, b = (sets[s][w]["traced"][0]["metrics"] for s in "AB")
    for m in bench["per_layer"]:
        if m["unit"] in ("count", "B") and a[m["name"]]["value"] != b[m["name"]]["value"]:
            differ.append(f"{w} {m['name']}: {a[m['name']]['value']} vs {b[m['name']]['value']}")
counts = sum(m["unit"] in ("count", "B") for m in bench["per_layer"])
print(f"{counts} count-type metrics x {len(sets['A'])} workloads: "
      + ("all identical." if not differ else "DIFFER:"))
for d in differ:
    print(f"- {d}")

print("\n## Layer metrics of the traced runs (set A | set B)\n")
print("| metric | " + " | ".join(sets["A"]) + " |")
print("|---|" + "---|" * len(sets["A"]))
for m in bench["per_layer"]:
    cells = []
    for w in sets["A"]:
        a, b = (sets[s][w]["traced"][0]["metrics"][m["name"]]["value"] for s in "AB")
        cells.append(f"{a:.6g}" if a == b else f"{a:.6g} \\| {b:.6g}")
    print(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells) + " |")

print("\n## Wall seconds per run\n")
for w in sets["A"]:
    walls = [r[2] for s in "AB" for r in sets[s][w]["untraced"]]
    traced = [sets[s][w]["traced"][2] for s in "AB"]
    print(f"- {w}: untraced median {statistics.median(walls):.1f}, max {max(walls):.1f}; "
          f"traced {traced[0]:.1f}, {traced[1]:.1f}")

print("\n## Raw host seconds of every timed repetition\n")
for w in sets["A"]:
    print(f"### {w}\n")
    for s in "AB":
        for seed, r in enumerate(sets[s][w]["untraced"], 1):
            raw = r[1]["repetitions"]["plain"]["raw_s"]
            print(f"- {s} seed {seed}: " + " ".join(f"{x:.3f}" for x in raw))
    print()
PY
