"""One workload in one fresh process; started by run.py.

usage: worker.py WORKLOAD --seed N --seconds S --launched T
                 [--ops N] [--trace] [--goldens PATH] [--setup-only]

T is CLOCK_MONOTONIC, which all processes share, read just before this
process was started; set-up time runs from T until the workload is ready
for its first operation.  The last line of stdout is a JSON result.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback

import calibrate
import workloads

MAX_REPORTED_FAILURES = 5
# Every operation of the deck is timed at least this often, so its median
# rests on as many samples on a slow machine as on a fast one.
MIN_REPEATS = 3


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure(workload, seconds, ops):
    """Closed loop over cycles of the deck until `seconds` have passed and
    every operation has run at least MIN_REPEATS times, or until `ops`
    operations when that is set.

    The calibration loop runs before the first operation of a cycle and
    after every operation, so each operation is scaled by the loop times
    just before and after it.  Checks run after each cycle, and their time
    does not count towards `seconds`.  The elapsed time leaves out both."""
    deck = workload.deck()
    repeats = [0] * len(deck)
    times, scaled, indices, failures, digests = [], [], [], [], []
    failed = 0
    check_s = loop_s = 0.0
    done = False
    start = now()
    while not done:
        workload.start_cycle()
        before = calibrate.loop_time()
        loop_s += before
        results = []
        for index, item in enumerate(deck):
            t0 = time.perf_counter()
            try:
                payload, error = workload.run(item), None
            except Exception as exc:  # a failed operation must not stop the run
                payload, error = None, "%s: %s" % (type(exc).__name__, exc)
                if not failures:
                    traceback.print_exc()
            times.append(time.perf_counter() - t0)
            after = calibrate.loop_time()
            loop_s += after
            scaled.append(calibrate.scaled(times[-1], before, after))
            before = after
            indices.append(index)
            repeats[index] += 1
            results.append((item, payload, error))
            if ops:
                done = len(times) >= ops
            else:
                done = (now() - start - check_s >= seconds
                        and min(repeats) >= MIN_REPEATS)
            if done:
                break
        t0 = now()
        if workload.tracer:
            workload.tracer.paused = True
        for item, payload, error in results:
            got = None
            if error is None:
                try:
                    got, error = workload.check(item, payload)
                except Exception as exc:
                    error = "check raised %s: %s" % (type(exc).__name__, exc)
            digests.append(got)
            if error is not None:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append(error)
        if workload.tracer:
            workload.tracer.paused = False
        check_s += now() - t0
    return {
        "attempted": len(times), "failed": failed, "failures": failures,
        "times": times, "scaled": scaled, "indices": indices,
        "elapsed": now() - start - check_s - loop_s,
        "digest": workloads.digest(digests),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--goldens", default=workloads.GOLDENS)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    tracer = workdir = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        if cls is not workloads.CliScripts:  # its scripts trace themselves
            tracer.time_imports()
            import divisor_forge  # noqa: F401

            tracer.install()
        workdir = tempfile.mkdtemp(prefix=".work-", dir=workloads.HERE)
    try:
        workload = cls(args.seed, workloads.load_goldens(args.goldens),
                       tracer, workdir)
        workload.setup()
        setup_s = now() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args.seconds, args.ops)
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if cls.children_rss else resource.RUSAGE_SELF
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer:
        snaps = workload.trace_snapshots() or [tracer.snapshot()]
        result["trace"] = snaps
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
