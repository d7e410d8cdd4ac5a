"""Compare the work counts of two traced benchmark runs, and the speed
and peak memory of two untraced ones.

usage: python .github/trace_counts.py BASE.out HEAD.out [BASE_UNTRACED.out
HEAD_UNTRACED.out]

BASE.out and HEAD.out hold the output of
``perfbench/run.py --workload NAME --seed 1 --seconds 5 --trace 1``, whose
last line is a JSON object with the run's per-layer metrics.  Prints the
``src_lines`` of each run's ``context`` line as base -> head, whether the
two runs gave the same answers (the ``digest`` of their checked results,
from the same line), then every call count (``*.calls``), ``elim_calls``,
``max_basis_len`` and ``max_coeff_bits`` that differs between the two, or
that they all agree.  BASE_UNTRACED.out and HEAD_UNTRACED.out, when
given, hold the output of the same command without ``--trace 1``, since
tracing adds time and memory of its own; their ``ops_per_s``,
``op_p50_ms``, ``op_tail_ms`` and ``peak_rss_mb`` are printed as base ->
head, or None where a run left no result.  One 5-second run per side
shows only a large change in speed.  Only reports: it exits 0 whatever
it finds, also when a run left no result or a file cannot be read.
"""

import json
import sys

COUNTS = (".calls", ".elim_calls", ".max_basis_len", ".max_coeff_bits")
UNTRACED = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def read(path):
    """The context line (a dict) and the metric values of the run in path;
    the metrics are None when it left no result, the context is empty when
    it printed no context line."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
    except (OSError, ValueError):  # missing, unreadable or not UTF-8
        return {}, None
    context = {}
    for line in lines:
        if line.startswith("context "):
            try:
                context = dict(json.loads(line[len("context "):]))
            except (TypeError, ValueError):
                pass
    try:
        metrics = json.loads(lines[-1])["metrics"]
        return context, {name: m["value"] for name, m in metrics.items()}
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return context, None


def main(base_path, head_path, base_untraced=None, head_untraced=None):
    if base_untraced and head_untraced:
        base, head = (read(path)[1] or {}
                      for path in (base_untraced, head_untraced))
        for name in UNTRACED:
            print("%s (untraced): %s -> %s" % (name, base.get(name),
                                               head.get(name)))
    (base_context, base), (head_context, head) = (read(base_path),
                                                  read(head_path))
    print("src_lines: %s -> %s" % (base_context.get("src_lines"),
                                   head_context.get("src_lines")))
    digests = base_context.get("digest"), head_context.get("digest")
    print("digest: %s -> %s, %s" % (digests + (
        "missing" if None in digests
        else "agree" if digests[0] == digests[1] else "differ",)))
    for name, path, got in (("base", base_path, base),
                            ("head", head_path, head)):
        if got is None:
            print("%s: no traced result in %s" % (name, path))
    if base is None or head is None:
        return 0
    base, head = ({name: value for name, value in metrics.items()
                   if name.endswith(COUNTS)} for metrics in (base, head))
    names = sorted(base.keys() | head.keys())
    differ = [name for name in names if base.get(name) != head.get(name)]
    for name in differ:
        print("%s: %s -> %s" % (name, base.get(name), head.get(name)))
    print("%d of %d counts differ" % (len(differ), len(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:5]))
