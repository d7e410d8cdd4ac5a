"""Compare the work counts of two traced benchmark runs.

usage: python .github/trace_counts.py BASE.out HEAD.out

Each file holds the output of
``perfbench/run.py --workload NAME --seed 1 --seconds 5 --trace 1``, whose
last line is a JSON object with the run's per-layer metrics.  Prints the
``src_lines`` of each run's ``context`` line as base -> head, then every
call count (``*.calls``), ``elim_calls``, ``max_basis_len`` and
``max_coeff_bits`` that differs between the two, or that they all agree.
Only reports: it exits 0 whatever it finds, also when a run left no
result.
"""

import json
import sys

COUNTS = (".calls", ".elim_calls", ".max_basis_len", ".max_coeff_bits")


def read(path):
    """The src_lines and the counts of the run in path; the counts are None
    when it left no result, src_lines when it printed no context line."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
    except OSError:
        return None, None
    src_lines = None
    for line in lines:
        if line.startswith("context "):
            try:
                src_lines = json.loads(line[len("context "):])["src_lines"]
            except (KeyError, TypeError, ValueError):
                pass
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, KeyError, TypeError, ValueError):
        return src_lines, None
    return src_lines, {name: m["value"] for name, m in metrics.items()
                       if name.endswith(COUNTS)}


def main(base_path, head_path):
    (base_lines, base), (head_lines, head) = read(base_path), read(head_path)
    print("src_lines: %s -> %s" % (base_lines, head_lines))
    for name, path, got in (("base", base_path, base),
                            ("head", head_path, head)):
        if got is None:
            print("%s: no traced result in %s" % (name, path))
    if base is None or head is None:
        return 0
    names = sorted(base.keys() | head.keys())
    differ = [name for name in names if base.get(name) != head.get(name)]
    for name in differ:
        print("%s: %s -> %s" % (name, base.get(name), head.get(name)))
    print("%d of %d counts differ" % (len(differ), len(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
