"""Smoke self-test of the benchmark at a tiny size.

usage (from the checkout root): python3 perfbench/selftest.py

Checks that:
1. every metric of BENCHMARK.json is emitted with its unit, on every
   workload, traced and untraced;
2. a corrupted golden counts as a failed operation instead of crashing
   the run;
3. two traced runs of one seed give identical counts;
4. the tracer agrees with cProfile on the first 20 pairs of
   test_sheaf_monoid_law_randomized (seed 808, cold rings, counted from
   ring construction on): 2,676 buchberger, 32,399 s_poly and 52,893
   normal_form calls.
Exits 1 when a check fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

TINY_OPS = {"sheaf_session": 2, "decompose": 6, "cli_scripts": 2}
CROSS_CHECK = {"engine.buchberger": 2676, "engine.s_poly": 32399,
               "engine.normal_form": 52893}


def bench(workload, trace, ops, goldens=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--ops", str(ops)]
    if goldens:
        cmd += ["--goldens", goldens]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd[1:]),
                                               proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("result keys %s" % sorted(result))
    return result


def check_metrics(spec):
    for workload, ops in TINY_OPS.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace, ops)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise AssertionError("%s trace %d: metrics differ: %s" % (
                    workload, trace, sorted(set(got) ^ set(want))))
            if not result["correct"] or result["failed"]:
                raise AssertionError("%s trace %d failed" % (workload, trace))


def corrupt(goldens):
    """Every golden of every workload, altered."""
    for entry in goldens["cli_scripts"].values():
        entry["stdout_sha256"] = "0" * 64
    for key in goldens["sheaf_session"]:
        goldens["sheaf_session"][key] = "0" * 16
    for key in goldens["decompose"]["primes"]:
        goldens["decompose"]["primes"][key] = "0" * 16
    return goldens


def check_corrupted_goldens():
    tmp = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        path = os.path.join(tmp, "goldens.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(corrupt(workloads.load_goldens()), handle)
        for workload, ops in TINY_OPS.items():
            result = bench(workload, 0, ops, goldens=path)
            if result["correct"] or result["failed"] != result["attempted"]:
                raise AssertionError("%s: corrupted goldens gave %r" % (
                    workload, {k: result[k] for k in ("correct", "attempted",
                                                      "failed")}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def counts(result):
    """Per-layer metrics other than times, which must repeat exactly."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if not (k.endswith("_s") or k.startswith("trace."))}


def check_repeatable_counts():
    for workload, ops in TINY_OPS.items():
        first, second = (counts(bench(workload, 1, ops)) for _ in range(2))
        if first != second:
            raise AssertionError("%s: counts differ: %s" % (workload, sorted(
                k for k in first if first[k] != second[k])))


CROSS_CHECK_SCRIPT = """
import json, tracer, workloads
t = tracer.Tracer()
t.time_imports()
import divisor_forge
t.install()
pools = workloads.SheafSession.rings()
for pair in workloads.sheaf_pairs(20):
    assert workloads.SheafSession.run_pair(pair, pools)[0]
print(json.dumps(t.calls))
"""


def check_cross_check():
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([os.path.join(os.getcwd(), "src"),
                                           HERE]))
    out = subprocess.run([sys.executable, "-c", CROSS_CHECK_SCRIPT], env=env,
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=170).stdout
    calls = json.loads(out.strip().splitlines()[-1])
    got = {k: calls.get(k, 0) for k in CROSS_CHECK}
    if got != CROSS_CHECK:
        raise AssertionError("cross-check counts %r, cProfile %r" % (
            got, CROSS_CHECK))


def main():
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    checks = [
        ("metrics emitted with units", lambda: check_metrics(spec)),
        ("corrupted golden counts as a failure", check_corrupted_goldens),
        ("traced counts repeat", check_repeatable_counts),
        ("tracer matches cProfile on seed 808", check_cross_check),
    ]
    failed = 0
    for name, check in checks:
        try:
            check()
            print("ok    %s" % name)
        except (AssertionError, subprocess.SubprocessError) as exc:
            failed += 1
            print("FAIL  %s: %s" % (name, exc))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
