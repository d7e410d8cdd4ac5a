"""The divisor_forge CLI with the tracer installed.

usage: cli_launch.py OUT.json run SCRIPT [--json]

Behaves like ``python -m divisor_forge.cli run SCRIPT [--json]``: same
stdout and exit code.  The tracer snapshot of this process, including the
time to import the CLI, is written to OUT.json.
"""

import json
import sys
import time

from tracer import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.time_imports()
    t0 = time.perf_counter()
    import divisor_forge.cli as cli

    tracer.proc["cli.import_s"] = time.perf_counter() - t0
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
