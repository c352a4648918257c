#!/usr/bin/env python3
"""Sensitivity check: does the benchmark measure the program?

Raises one layer's work through a public flow option (PlaceEffort 1->4 for
place, ActivityCycles 500->5000 for sim) and runs each workload on one
seed at the default and the raised settings. Untraced runs alternate
between the settings, --reps times each, and compile_s is their median, so
a burst of machine noise in one run does not decide the result; one traced
run per setting gives the layer metrics. For each case it prints the layer
metric, the traced pass time (the sum of every layer's time, which shows a
layer's knock-on effect on the others), and compile_s. The predicted rise
of compile_s is the raised layer's added traced time as a share of
compile_s; on the farm it is divided by the worker count, because the
pass's jobs run on that many workers at once. The whole traced pass is not
the predictor: its other layers come from different runs, so machine
noise in them would swamp the raised layer. Output is a Markdown table.

Run from the repository root:

    python3 perfbench/sensitivity.py --seed 11 --seconds 30
"""
import argparse
import json
import os
import statistics
import subprocess

CASES = [
    ("place", "place.s", ["--place-effort", "4"]),
    ("sim", "sim.activity_s", ["--activity-cycles", "5000"]),
]
WORKLOADS = ["route-minw", "synth-verify", "farm"]
LAYER_TIMES = ["vhdl.s", "edif.s", "netlist.s", "logic.s", "techmap.s", "pack.s", "place.s", "route.s",
               "timing.s", "sim.activity_s", "sim.verify_s", "power.s", "bitstream.s", "check.s"]


def run(workload, seed, seconds, trace, extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return {k: v["value"] for k, v in json.loads(out.strip().splitlines()[-1])["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    print("| workload | case | layer metric (s/pass) | traced pass (s) | compile_s | predicted rise | observed rise | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        # jobs.FlowOptions has no activity-cycles field, so the farm cannot
        # be asked for more simulation.
        cases = [c for c in CASES if not (w == "farm" and c[0] == "sim")]
        settings = [[]] + [extra for _, _, extra in cases]
        compile_s = {tuple(x): [] for x in settings}
        for _ in range(args.reps):
            for extra in settings:
                compile_s[tuple(extra)].append(run(w, args.seed, args.seconds, 0, extra)["compile_s"])
        traced = {tuple(x): run(w, args.seed, args.seconds, 1, x) for x in settings}
        base_t, c0 = traced[()], statistics.median(compile_s[()])
        t0 = sum(base_t[m] for m in LAYER_TIMES)
        workers = os.cpu_count() if w == "farm" else 1
        for name, layer, extra in cases:
            hi_t, c1 = traced[tuple(extra)], statistics.median(compile_s[tuple(extra)])
            t1 = sum(hi_t[m] for m in LAYER_TIMES)
            print(f"| {w} | {name} {' '.join(extra)} | {layer} {base_t[layer]:.3f} -> {hi_t[layer]:.3f} "
                  f"| {t0:.3f} -> {t1:.3f} | {c0:.3f} -> {c1:.3f} "
                  f"| {100 * (hi_t[layer] - base_t[layer]) / workers / c0:+.1f}% "
                  f"| {100 * (c1 - c0) / c0:+.1f}% | {100 * bounds['compile_s']:.0f}% |", flush=True)


if __name__ == "__main__":
    main()
