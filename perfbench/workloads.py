"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  The library sees only the generated
inputs.  An operation's result is checked after it is timed, against an
oracle (a law the answer must satisfy) and against goldens recorded on the
seed commit (``goldens.json``, written by ``record_goldens.py``).

A run has a deck of operations, in an order drawn from the seed, and runs
the whole deck in cycles, so every operation is timed several times at
different moments of the run.  No cache carries over from one cycle to the
next: each operation, or each cycle, builds its own rings, so every cycle
does the same work.

sheaf_session
    The monoid law O(D+E) = (O(D)*O(E))** of ``test_sheaf_monoid_law_randomized``
    on QQ[x,y,z]/(xy-z^2) and QQ[x,y,u,v]/(xy-uv).  Its pairs have a heavy
    tail: the slowest takes forty times the median, so random draws of a
    few dozen pairs per run differ by 20% in total work.  The deck is
    therefore fixed: the first 10 pairs of that test's generator, in 5
    fixed rounds of two consecutive pairs, one per cone.  It holds the
    slowest pair of the first 22, and it is small enough to run six to
    nine times in 30 seconds, so each round's median rests on several
    runs.
decompose
    Alternates div(fg) = div(f) + div(g) on QQ[x,y] with pullbacks along
    two blow-up charts into QQ[a,b], where the ``primes`` and ``sheaves``
    strategies must agree; f and g are products of one to three linear
    forms drawn from the seed.  The deck is 108 such operations.  Its
    shape is fixed: every count of factors of f and g, and of chart and
    factor count for a pullback, occurs equally often, and the seed draws
    only the forms, so decks of different seeds cost about the same.
    Each cycle runs them on freshly built rings, so the rings' Groebner
    caches serve repeats within a cycle only, as in one cold session.
cli_scripts
    One ``python -m divisor_forge.cli run`` in a fresh process per
    operation; stdout bytes and exit code must equal the goldens.  The
    deck is the six script/mode pairs.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def divisor_canon(D):
    """Canonical form of a divisor: sorted (coefficient, prime key digest)."""
    return sorted((str(c), digest(P.key)) for P, (c, _) in D.terms.items())


def sheaf_canon(F):
    """Numerator key and denominator normal form of a fractional ideal."""
    den = sorted((m, (c.numerator, c.denominator))
                 for m, c in F.denominator.nf_terms().items())
    return F.numerator.key, den


def load_goldens(path=GOLDENS):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """Base: subclasses implement the hooks below."""

    children_rss = False

    def __init__(self, seed, goldens, trace=None, workdir=None):
        self.rng = random.Random(seed)
        self.goldens = goldens.get(self.name, {}) if goldens else {}
        self.tracer = trace
        self.workdir = workdir

    def setup(self):
        """Build what the operations share before the first one."""

    def deck(self):
        """The run's operations; each cycle runs every one of them once."""
        raise NotImplementedError

    def start_cycle(self):
        """Untimed preparation before each cycle, the first one too."""

    def run(self, item):
        """The timed operation; returns a payload for check()."""
        raise NotImplementedError

    def check(self, item, payload):
        """(result digest, failure message or None) for one operation."""
        raise NotImplementedError

    def trace_snapshots(self):
        """Tracer snapshots gathered from other processes, if any."""
        return []


# ---------------------------------------------------------------------------

SHEAF_PAIRS = 10


def sheaf_pairs(count=SHEAF_PAIRS):
    """The first pairs of test_sheaf_monoid_law_randomized's generator,
    which alternates the two cones."""
    rng = random.Random(808)
    pairs = []
    while len(pairs) < count:
        cone = "cone3" if len(pairs) % 2 == 0 else "cone4"
        size = 2 if cone == "cone3" else 3
        d = tuple(rng.randint(-2, 2) for _ in range(size))
        e = tuple(rng.randint(-2, 2) for _ in range(size))
        if any(d) and any(e):
            pairs.append((cone, d, e))
    return pairs


def sheaf_pair_key(pair):
    cone, d, e = pair
    return "%s %s / %s" % (cone, ",".join(map(str, d)), ",".join(map(str, e)))


class SheafSession(Workload):
    """An operation is one round, a cone3 pair then a cone4 pair, on freshly
    built rings, so its time does not depend on which operations ran
    before it.  Single pairs would put the median between the cheap
    cone3 pairs and the dear cone4 ones."""

    name = "sheaf_session"

    def setup(self):
        import divisor_forge  # noqa: F401

        pairs = sheaf_pairs()
        self.rounds = list(zip(pairs[0::2], pairs[1::2]))
        self.rng.shuffle(self.rounds)

    @staticmethod
    def rings():
        import divisor_forge as df

        cone3 = df.QuotientRing(("x", "y", "z"), ("x*y - z^2",))
        cone4 = df.QuotientRing(("x", "y", "u", "v"), ("x*y - u*v",))
        return {
            "cone3": [df.ideal(cone3, "x", "z"), df.ideal(cone3, "y", "z")],
            "cone4": [df.ideal(cone4, "x", "u"), df.ideal(cone4, "x", "v"),
                      df.ideal(cone4, "y", "u")],
        }

    def deck(self):
        return self.rounds

    @staticmethod
    def run_pair(pair, pools):
        import divisor_forge as df

        cone, d, e = pair
        pool = pools[cone]
        D = df.WeilDivisor.from_primes(list(d), pool)
        E = df.WeilDivisor.from_primes(list(e), pool)
        S = D + E
        lhs = df.sheaf_of(S)
        sd, se = df.sheaf_of(D), df.sheaf_of(E)
        rhs = sd.product(se)
        return lhs.equals_as_reflexive(rhs), (D, E, S, lhs, sd, se, rhs)

    def run(self, item):
        pools = self.rings()
        return [self.run_pair(pair, pools) for pair in item]

    @staticmethod
    def canon(result):
        D, E, S, lhs, sd, se, rhs = result[1]
        return ([divisor_canon(X) for X in (D, E, S)]
                + [sheaf_canon(F) for F in (lhs, sd, se, rhs)])

    def check(self, item, payload):
        got = [digest(self.canon(result)) for result in payload]
        for pair, result, have in zip(item, payload, got):
            key = sheaf_pair_key(pair)
            if not result[0]:
                return digest(got), "monoid law fails for %s" % key
            if have != self.goldens.get(key):
                return digest(got), "digest %s != golden %s for %s" % (
                    have, self.goldens.get(key), key)
        return digest(got), None


# ---------------------------------------------------------------------------

ADD_FORMS = ["x", "y", "x+y", "x-y", "x+2*y", "2*x-y", "x+1", "y-1"]
PULLBACK_FORMS = ["x", "y", "x+y", "x-y", "x+2*y", "x+1", "y-2"]
CHARTS = [("a*b", "b"), ("a", "a*b")]
DECOMPOSE_DECK = 108  # six times the 9 add shapes and 9 times the 6 pullback ones


class Decompose(Workload):
    name = "decompose"

    def setup(self):
        self.items = [self._item(n) for n in range(DECOMPOSE_DECK)]
        self._build()
        self.built = True

    def _build(self):
        import divisor_forge as df

        self.plane = df.QuotientRing(("x", "y"))
        self.target = df.QuotientRing(("a", "b"))
        self.maps = [df.RingMap(self.plane, self.target, images)
                     for images in CHARTS]
        self.forms = {f: df.polynomial(self.plane, f)
                      for f in sorted(set(ADD_FORMS + PULLBACK_FORMS))}

    def deck(self):
        return self.items

    def start_cycle(self):
        if not self.built:  # setup built the first cycle's rings
            self._build()
        self.built = False

    def _draw(self, forms, count):
        return tuple(self.rng.choice(forms) for _ in range(count))

    def _item(self, n):
        k = n // 2
        if n % 2 == 0:
            return ("add", self._draw(ADD_FORMS, k % 3 + 1),
                    self._draw(ADD_FORMS, k // 3 % 3 + 1))
        # the charts are injective, so no product of the forms maps to zero
        return ("pullback", k % 2, self._draw(PULLBACK_FORMS, k // 2 % 3 + 1))

    def _product(self, forms):
        f = self.plane.one()
        for name in forms:
            f = f * self.forms[name]
        return f

    def run(self, item):
        import divisor_forge as df

        if item[0] == "add":
            f, g = self._product(item[1]), self._product(item[2])
            left = df.WeilDivisor.of_element(f * g)
            right = df.WeilDivisor.of_element(f) + df.WeilDivisor.of_element(g)
            return left.multiset() == right.multiset(), (left,)
        phi = self.maps[item[1]]
        D = df.WeilDivisor.of_element(self._product(item[2]))
        a = df.pullback(phi, D, strategy="primes")
        b = df.pullback(phi, D, strategy="sheaves")
        return a.multiset() == b.multiset(), (D, a)

    def _expected(self, parts):
        """Sum of golden divisors [(coefficient, prime digest), ...]."""
        total = Counter()
        for part in parts:
            for coeff, prime in part:
                total[prime] += int(coeff)
        return sorted((str(c), p) for p, c in total.items() if c)

    def check(self, item, payload):
        ok, results = payload
        canon = [divisor_canon(X) for X in results]
        got = digest(canon)
        if not ok:
            return got, "oracle fails for %r" % (item,)
        primes = self.goldens["primes"]
        if item[0] == "add":
            forms = item[1] + item[2]
            want = [self._expected([[("1", primes[f])] for f in forms])]
        else:
            charts = self.goldens["pullback"][item[1]]
            want = [self._expected([[("1", primes[f])] for f in item[2]]),
                    self._expected([charts[f] for f in item[2]])]
        if canon != want:
            return got, "result differs from golden for %r" % (item,)
        return got, None


# ---------------------------------------------------------------------------

CLI_RUNS = [
    ("determinism.df", False), ("determinism.df", True),
    ("schema.df", False), ("schema.df", True),
    ("refusal.df", False),
    ("geometry.df", False),
]
CLI_TIMEOUT_S = 120


def cli_item_key(item):
    return item[0] + (" --json" if item[1] else "")


class CliScripts(Workload):
    name = "cli_scripts"
    children_rss = True

    def setup(self):
        # the cold path every script pays before its first statement
        import divisor_forge.cli  # noqa: F401

        self.snapshots = []
        self.launched = 0
        self.runs = list(CLI_RUNS)
        self.rng.shuffle(self.runs)

    def deck(self):
        return self.runs

    def run(self, item):
        script, json_mode = item
        argv = ["run", os.path.join(HERE, "scripts", script)]
        if json_mode:
            argv.append("--json")
        out = None
        if self.tracer:
            self.launched += 1
            out = os.path.join(self.workdir, "trace-%d.json" % self.launched)
            cmd = [sys.executable, os.path.join(HERE, "cli_launch.py"), out]
        else:
            cmd = [sys.executable, "-m", "divisor_forge.cli"]
        proc = subprocess.run(cmd + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
        if out is not None:
            with open(out, "r", encoding="utf-8") as handle:
                self.snapshots.append(json.load(handle))
        return proc.returncode, proc.stdout

    def check(self, item, payload):
        code, stdout = payload
        got = hashlib.sha256(stdout).hexdigest()
        want = self.goldens.get(cli_item_key(item), {})
        if code != want.get("exit"):
            return got, "%s exited %d, golden %s" % (
                cli_item_key(item), code, want.get("exit"))
        if got != want.get("stdout_sha256"):
            return got, "%s stdout differs from golden" % cli_item_key(item)
        return got, None

    def trace_snapshots(self):
        return self.snapshots


WORKLOADS = {w.name: w for w in (SheafSession, Decompose, CliScripts)}
