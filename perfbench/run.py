#!/usr/bin/env python3
"""The repository benchmark: one workload of the simulated server, on
two clocks.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

It builds perfbench/bench.exe with dune, runs it, checks its outputs
and prints every metric by name with its unit. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
--workload all runs the four workloads in turn.

Checks (any failure prints "correct": false and exits 1):
- parity: every repetition's modeled outcome equals Experiment.run on
  the same config, traced repetitions included;
- reference: at full size the modeled numbers of the reference seed
  equal the committed perfbench/reference.json, so a host-only change
  that moves a modeled number fails instead of reading as a gain;
- invariants: httperf's completed count equals the server's replies,
  and attempted = completed + errors after the drain.

Everything it writes goes under _build/ (the dune build) and
.perfbench/ in the working directory: the full report, the Chrome
trace of a traced run, and the runtime events ring while the program
runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
# bench.exe runs the reference at this seed at full size.
REFERENCE_SEED = 42
OUT_DIR = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["churn", "idle35k", "rtsig", "bulk"]
BUILD_TIMEOUT_S = 840
# bench.exe measures for --seconds, plus the oracle and reference runs.
RUN_SLACK_S = 150


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_layout():
    for path in ("dune-project", "lib", "BENCHMARK.json", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die(f"{path} not found; run from the root of a repository checkout")


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    # No shared build cache: the build reads and writes only _build/.
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        die("build failed", 1)


def run_bench(workload, seed, seconds, trace, size):
    cmd = [
        EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size,
    ]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")]
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=env, timeout=seconds + RUN_SLACK_S, text=True)
    if proc.returncode != 0:
        die(f"bench.exe exited with {proc.returncode}", 1)
    return json.loads(proc.stdout)


def reference_failures(workload, measured):
    with open(REFERENCE) as f:
        committed = json.load(f)
    if committed.get("seed") != REFERENCE_SEED:
        return [f"reference.json is for seed {committed.get('seed')}, not {REFERENCE_SEED}"]
    want = committed["workloads"].get(workload)
    if want is None:
        return [f"reference.json has no entry for {workload}"]
    return [
        f"reference {k}: committed {want.get(k)!r}, measured {measured.get(k)!r}"
        for k in sorted(set(want) | set(measured))
        if want.get(k) != measured.get(k)
    ]


def update_reference(workload, measured):
    with open(REFERENCE) as f:
        committed = json.load(f)
    committed["seed"] = REFERENCE_SEED
    committed["workloads"][workload] = measured
    with open(REFERENCE, "w") as f:
        json.dump(committed, f, indent=1, sort_keys=True)
        f.write("\n")


def result(report, spec, trace, size):
    """The result line: the metrics of the traced or untraced section
    of BENCHMARK.json, with their units, plus every check's verdict."""
    failures = list(report["failures"])
    if size == "full":
        failures += reference_failures(report["workload"], report["reference"])
    values = {**report["modeled"], **report["host"], **report["host_layers"]}
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None:
            failures.append(f"metric {m['name']} not reported")
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return failures, {
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run_one(args, spec, workload):
    report = run_bench(workload, args.seed, args.seconds, args.trace, args.size)
    if args.update_reference:
        if args.size != "full":
            die("--update-reference needs --size full")
        update_reference(workload, report["reference"])
    failures, line = result(report, spec, args.trace, args.size)
    path = os.path.join(OUT_DIR, f"report-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"report": report, "failures": failures, "result": line}, f, indent=1)
    print(f"== {workload} (seed {args.seed}, size {args.size}, trace {args.trace}): "
          f"{report['untraced_reps']} untraced + {report['traced_reps']} traced repetitions")
    for name, m in line["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for f in failures:
        print(f"  FAILED: {f}")
    return line


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: at most 2 000 idle and 1 000 offered connections, for the benchmark's own tests")
    ap.add_argument("--update-reference", action="store_true",
                    help="rewrite this workload's entry of perfbench/reference.json")
    args = ap.parse_args()
    check_layout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    build()
    print(f"build: {time.monotonic() - start:.1f} s", file=sys.stderr)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    lines = {w: run_one(args, spec, w) for w in workloads}
    last = lines[workloads[0]] if len(workloads) == 1 else lines
    print(json.dumps(last))
    sys.exit(0 if all(l["correct"] for l in lines.values()) else 1)


if __name__ == "__main__":
    main()
