"""Benchmark of divisor_forge, measured from outside the library.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the library is imported from ./src.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Set-up time
is the median of several fresh processes, each timed from launch until it
is ready for its first operation, some started before and some after the
measuring process.  The other metrics come from one process that runs the
workload's deck of operations in cycles for --seconds.  Each operation of
the deck is timed once per cycle, and its time is the median of these.
ops_per_s is the deck's size over the sum of these medians.  Every time is
scaled to a nominal machine speed by calibrate.py.

--trace 1 reports the per-layer metrics.  It runs a fixed number of
operations twice in fresh processes, untraced and then traced, so counts
repeat exactly for a seed and the tracing overhead is the difference in
throughput between the two.  It fails when a metric that the workload must
exercise reads zero.

--workload all runs every workload untraced and prints a summary.

The lines before the last describe the run (metrics with units, fail_frac,
the tail percentile and its sample count, versions, commit, src/ size);
the last line is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = (4, 3)  # before and after the measuring process
DEADLINE_S = 170
TRACE_OPS = {"sheaf_session": workloads.SHEAF_PAIRS // 2,
             "decompose": 3 * workloads.DECOMPOSE_DECK,
             "cli_scripts": len(workloads.CLI_RUNS)}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics each workload must exercise; a zero means the tracer
# lost a span or the workload stopped reaching the layer.
MUST_BE_NONZERO = {
    "sheaf_session": [
        "engine.buchberger.calls", "engine.buchberger.elim_calls",
        "engine.s_poly.calls", "engine.normal_form.calls",
        "engine.lt_dimension.calls",
        "ideals.quotient.calls", "ideals.colon_by_element.calls",
        "ideals.intersection.calls", "ideals.gb_cache.hit_frac",
        "ideals.colon_fast_path.hit_frac",
        "factorization.factor_terms.calls", "factorization.sympy_import_s",
        "decomposition.certify_prime.calls",
        "fractional.reflexify.calls", "fractional.smallest_generator.calls",
        "correspondence.sheaf_of.calls", "correspondence.effective_ideal.calls",
        "divisors.from_primes.calls", "ring.QuotientRing.calls",
        "ring.normal_form_raw.calls",
    ],
    "decompose": [
        "engine.buchberger.calls", "engine.s_poly.calls",
        "engine.normal_form.calls", "ideals.contains.calls",
        "factorization.factor_terms.calls",
        "factorization.factor_terms.deg_le1_frac",
        "factorization.sympy_import_s",
        "decomposition.minimal_height_one_primes.calls",
        "decomposition.branches", "decomposition.certify_prime.calls",
        "decomposition.max_symbolic_containment.calls",
        "decomposition.symbolic_power.calls",
        "fractional.reflexify.calls", "correspondence.effective_ideal.calls",
        "divisors.of_element.calls", "geometry.pullback.primes.self_s",
        "geometry.pullback.sheaves.self_s", "ring.QuotientRing.calls",
    ],
    "cli_scripts": [
        "engine.buchberger.calls", "ideals.minimal_gens.calls",
        "ideals.saturation.calls", "factorization.factor_terms.calls",
        "factorization.sympy_import_s", "checks.non_cartier_locus.calls",
        "checks.is_cartier.calls", "geometry.base_locus.self_s",
        "geometry.pullback.primes.self_s", "geometry.pullback.sheaves.self_s",
        "cli.import_s", "cli.parse_script.self_s", "cli.execute_script.self_s",
        "cli.render_outputs.text.self_s", "cli.render_outputs.json.self_s",
    ],
}


class RunError(Exception):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(root, deadline, workload, seed, seconds, ops=0, trace=False,
           goldens=None, setup_only=False):
    """Run worker.py in a fresh process; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           "--seed", str(seed), "--seconds", str(seconds), "--ops", str(ops)]
    if trace:
        cmd.append("--trace")
    if goldens:
        cmd += ["--goldens", goldens]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence work, repeats
    launched = now()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)], cwd=root,
                            env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its scripts
        proc.communicate()
        raise RunError("%s worker passed the deadline" % workload)
    if proc.returncode != 0:
        raise RunError("%s worker exited %d" % (workload, proc.returncode))
    return json.loads(out.decode().strip().splitlines()[-1])


def median_times(res):
    """The median scaled time of each operation of the deck that ran."""
    runs = {}
    for index, seconds in zip(res["indices"], res["scaled"]):
        runs.setdefault(index, []).append(seconds)
    return sorted(statistics.median(v) for v in runs.values())


def tail(ordered):
    """Highest percentile with at least ten samples beyond it."""
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def context(root, args, extra):
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    lines = 0
    sha = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as handle:
            data = handle.read()
        lines += data.count(b"\n")
        sha.update(os.path.relpath(path, root).encode() + b"\0" + data)
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "sympy": sympy,
        "commit": commit, "src_sha256": sha.hexdigest()[:16],
        "src_lines": lines,
    }
    info.update(extra)
    return info


def end_to_end(root, args, deadline):
    def probe():
        before = calibrate.loop_time()
        setup_s = launch(root, deadline, args.workload, args.seed,
                         args.seconds, goldens=args.goldens,
                         setup_only=True)["setup_s"]
        return calibrate.scaled(setup_s, before, calibrate.loop_time())

    setups = [probe() for _ in range(SETUP_PROBES[0])]
    res = launch(root, deadline, args.workload, args.seed, args.seconds,
                 ops=args.ops, goldens=args.goldens)
    setups += [probe() for _ in range(SETUP_PROBES[1])]
    medians = median_times(res)
    tail_s, pct = tail(medians)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": 1000.0 * statistics.median(medians),
        "op_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    extra = {
        "fail_frac": res["failed"] / res["attempted"],
        "op_tail_percentile": pct, "samples": len(medians),
        "runs": len(res["times"]),
        "wall_ops_per_s": res["attempted"] / res["elapsed"],
        "slowdown": sum(res["times"]) / sum(res["scaled"]),
        "setup_samples_s": setups,
        "digest": res["digest"], "failures": res["failures"],
    }
    return res, metrics, extra


def per_layer(root, args, deadline):
    ops = args.ops or TRACE_OPS[args.workload]
    ref = launch(root, deadline, args.workload, args.seed, args.seconds,
                 ops=ops, goldens=args.goldens)
    res = launch(root, deadline, args.workload, args.seed, args.seconds,
                 ops=ops, trace=True, goldens=args.goldens)
    layer = tracer.derive(tracer.merge(res["trace"]))
    plain = ref["attempted"] / ref["elapsed"]  # the same operations
    traced = res["attempted"] / res["elapsed"]
    layer["trace.overhead_ops_per_s"] = plain - traced
    layer["trace.overhead_frac"] = (plain - traced) / plain
    units = layer_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    zero = [k for k in MUST_BE_NONZERO[args.workload] if not layer[k]]
    if zero and not args.ops:  # tiny selftest runs reach fewer layers
        raise RunError("traced %s: expected nonzero, read zero: %s"
                       % (args.workload, ", ".join(zero)))
    combined = {"attempted": ref["attempted"] + res["attempted"],
                "failed": ref["failed"] + res["failed"]}
    extra = {
        "ops": ops, "untraced_ops_per_s": plain, "traced_ops_per_s": traced,
        "digest": res["digest"], "untraced_digest": ref["digest"],
        "failures": ref["failures"] + res["failures"],
        "fail_frac": combined["failed"] / combined["attempted"],
    }
    return combined, metrics, extra


def layer_units():
    units = {}
    for name in tracer.derive(tracer.merge([])):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_frac"):
            units[name] = "ratio"
        elif name.endswith("_bits"):
            units[name] = "bits"
        else:
            units[name] = "count"
    units["trace.overhead_ops_per_s"] = "1/s"
    units["trace.overhead_frac"] = "ratio"
    return units


def run_one(root, args):
    deadline = now() + DEADLINE_S
    if args.trace:
        res, metrics, extra = per_layer(root, args, deadline)
    else:
        res, metrics, extra = end_to_end(root, args, deadline)
    shown = " ".join("%s=%.6g %s" % (k, m["value"], m["unit"])
                     for k, m in metrics.items()
                     if args.trace == 0 or k.startswith("trace."))
    print("%s seed=%d: %s fail_frac=%.6g ratio" % (
        args.workload, args.seed, shown, extra["fail_frac"]))
    print("context " + json.dumps(context(root, args, extra)))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for selftest.py: a fixed operation count and substitute goldens
    parser.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--goldens", help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "divisor_forge",
                                       "__init__.py")):
        print("error: run from a checkout of divisor-forge (no "
              "src/divisor_forge here)", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_one(root, args)
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
