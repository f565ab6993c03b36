"""The bingcheck benchmark.

    python3 perfbench/run.py --workload bing|presentations|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The workloads and the default --seconds
are those of BENCHMARK.json.  A run repeats cold passes of one workload for
about --seconds (at least one pass).  Each pass is a
fresh interpreter (worker.py) that imports the package, builds the inputs
from the seed and runs every op of the workload once, one after another:
the package keeps process-wide lru_caches, so a repeated input in one
process would time the caches instead of the engine.  Every op's answer
is checked against perfbench/expected.json and the catalog batteries
against tests/golden byte for byte.

End-to-end metrics (--trace 0), medians over the run's passes:
  setup_s      spawn to ready: interpreter, import bingcheck, inputs; also
               timed on SETUP_SAMPLES workers per pass that stop at ready
  wall_s       the timed section: all ops of the pass
  peak_rss_mb  peak resident set size of the pass
The summary lines also give op_p50_s, the median time of one op over every
op of every pass; op_tail_s, the op time with exactly ten ops of the pass
above it (where a pass has more than ten ops); and fail_ratio.  The op
times are not metrics: ops of tens of milliseconds move more with the
host's speed than whole passes do.

With --trace 1 the run alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see tracer.py), and the tracing
overhead as traced minus untraced wall_s.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_OPS = 10
# set-up is ~0.1 s against passes of ~10 s, so extra samples of it are cheap
SETUP_SAMPLES = 3
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def run_pass(workload, seed, trace, setup_only=False):
    """One cold pass in a fresh interpreter; setup_s is spawn to `ready`.
    With setup_only the worker stops at `ready` and only setup_s is returned."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    # a pass prints its result after `ready`; a set-up-only worker prints nothing
    if (proc.returncode != 0 or ready.strip() != "ready"
            or bool(rest.strip()) == setup_only):
        raise BenchError("%s pass (trace %d) exited with code %s"
                         % (workload, trace, proc.returncode))
    if setup_only:
        return setup_s
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def calibration_ms():
    """A fixed pure-Python Fraction loop: a reading of the machine's speed
    beside the run, not a metric of the program."""
    t0 = perf_counter()
    for k in range(1, 20000):
        Fraction(k, 89) * Fraction(3, 7) - Fraction(1, k)
    return round((perf_counter() - t0) * 1000, 3)


def environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bingcheck").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail_s(op_s):
    """The op time with exactly TAIL_OPS ops of the pass above it."""
    return sorted(op_s)[-TAIL_OPS - 1]


def end_to_end(passes, setups):
    med = statistics.median
    return {
        "setup_s": med(setups),
        "wall_s": med(p["wall_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_kb"] for p in passes) / 1024,
    }


def per_layer(plain, traced):
    med = statistics.median
    out = {name: med(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (med(p["wall_s"] for p in traced)
                               - med(p["wall_s"] for p in plain))
    return out


def layer_problems(workload, layers):
    problems = []
    for layer in tracer.LAYERS:
        calls = layers[layer.name + ".calls"]
        if workload in layer.reach and calls == 0:
            problems.append("%s: 0 calls on %s" % (layer.name, workload))
        if layer.exclusive and workload not in layer.reach and calls:
            problems.append("%s: %d calls on %s" % (layer.name, calls, workload))
    return problems


def run_workload(spec, workload, seed, seconds, trace):
    """Run passes for `seconds`; return (result, summary lines)."""
    calib_before = calibration_ms()
    plain, traced, setups = [], [], []
    t_start = perf_counter()
    while True:
        t_round = perf_counter()
        if not trace:
            setups += [run_pass(workload, seed, 0, setup_only=True)
                       for _ in range(SETUP_SAMPLES)]
        # a traced run alternates which pass of a pair goes first
        order = (0, 1) if len(plain) % 2 == 0 else (1, 0)
        for flag in order if trace else (0,):
            (traced if flag else plain).append(run_pass(workload, seed, flag))
        # stop when half a round more would pass the end: runs overshoot
        # --seconds by at most half a round, and fall short by as much
        now = perf_counter()
        if now - t_start + (now - t_round) / 2 > seconds:
            break
    env = environment(seed)
    env["calibration_ms"] = [calib_before, calibration_ms()]

    passes = plain + traced
    n_ops = len(plain[0]["op_s"])
    attempted = n_ops * len(passes)
    failed_ops = sum(len({op_id for op_id, _ in p["failures"]}) for p in passes)
    problems = ["%s: %s" % tuple(f) for p in passes for f in p["failures"]]
    answers = {tuple(p["digests"]) for p in passes}
    if len(answers) != 1:
        problems.append("answers differ between passes (traced or not) of one seed")

    if trace:
        metrics = per_layer(plain, traced)
        problems += layer_problems(workload, metrics)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(plain, setups + [p["setup_s"] for p in plain])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError("metrics %s do not match BENCHMARK.json"
                         % sorted(set(metrics) ^ set(units)))

    lines = ["workload %s: seed %d, %d passes of %d ops (%d untraced), %d set-up samples"
             % (workload, seed, len(passes), n_ops, len(plain), len(setups) + len(plain))]
    for name in sorted(metrics) if trace else units:
        lines.append("  %-44s %14.6f %s" % (name, metrics[name], units[name]))
    if not trace:
        lines.append("  %-44s %14.6f s (over %d ops)" % (
            "op_p50_s", statistics.median(t for p in plain for t in p["op_s"]),
            n_ops * len(plain)))
        if n_ops > TAIL_OPS:
            lines.append("  %-44s %14.6f s (%d of %d ops above it)" % (
                "op_tail_s", statistics.median(tail_s(p["op_s"]) for p in plain),
                TAIL_OPS, n_ops))
        else:
            lines.append("  %-44s %14s (a pass has %d ops, too few for a tail)"
                         % ("op_tail_s", "-", n_ops))
    lines.append("  pass wall_s: " + " ".join("%.3f" % p["wall_s"] for p in plain))
    if trace:
        lines.append("  traced pass wall_s: " + " ".join("%.3f" % p["wall_s"] for p in traced))
    lines.append("  %-44s %14.6f (%d of %d ops)"
                 % ("fail_ratio", failed_ops / attempted, failed_ops, attempted))
    lines.append("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return result, lines


def main(argv=None):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bingcheck" / "__init__.py").is_file():
        print("error: no src/bingcheck under %s; run from a checkout of the repository"
              % ROOT, file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, lines = run_workload(spec, args.workload, args.seed, args.seconds,
                                         args.trace)
            print("\n".join(lines))
            print(json.dumps(result, sort_keys=True))
            return 0 if result["correct"] else 1
        ok = True
        for workload in workloads:
            result, lines = run_workload(spec, workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            ok = ok and result["correct"]
        return 0 if ok else 1
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
