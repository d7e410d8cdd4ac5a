"""Record goldens.json from the current checkout.

usage (from the checkout root): PYTHONPATH=src python3 perfbench/record_goldens.py

Run on the commit whose answers are the reference.  Later commits must
reproduce every golden: the CLI's stdout bytes and exit codes, the
canonical results of each sheaf_session pair, and, for decompose, the
prime of each linear form and the divisor of its image under each chart.
The decompose goldens cover every draw, because div(fg) and pullbacks of
divisors of products are sums over the factors.
"""

import hashlib
import json
import os
import subprocess
import sys

import workloads


def cli_goldens():
    out = {}
    for item in workloads.CLI_RUNS:
        argv = ["run", os.path.join(workloads.HERE, "scripts", item[0])]
        if item[1]:
            argv.append("--json")
        proc = subprocess.run([sys.executable, "-m", "divisor_forge.cli"]
                              + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL,
                              timeout=workloads.CLI_TIMEOUT_S)
        out[workloads.cli_item_key(item)] = {
            "exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return out


def sheaf_goldens():
    w = workloads.SheafSession
    out = {}
    for pair in workloads.sheaf_pairs():
        result = w.run_pair(pair, w.rings())
        if not result[0]:
            raise SystemExit("monoid law fails for %r" % (pair,))
        out[workloads.sheaf_pair_key(pair)] = workloads.digest(w.canon(result))
    return out


def decompose_goldens():
    import divisor_forge as df

    w = workloads.Decompose(0, None)
    w.setup()
    primes = {}
    for name, f in w.forms.items():
        canon = workloads.divisor_canon(df.WeilDivisor.of_element(f))
        if len(canon) != 1 or canon[0][0] != "1":
            raise SystemExit("%s is not a prime form" % name)
        primes[name] = canon[0][1]
    charts = [{name: workloads.divisor_canon(
        df.WeilDivisor.of_element(phi(w.forms[name])))
        for name in workloads.PULLBACK_FORMS} for phi in w.maps]
    return {"primes": primes, "pullback": charts}


def main():
    goldens = {"cli_scripts": cli_goldens(),
               "sheaf_session": sheaf_goldens(),
               "decompose": decompose_goldens()}
    with open(workloads.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
