"""Outside-in tracer for divisor_forge.

Wraps the library's functions from outside: nothing under ``src/`` is
patched on disk.  Each wrapped function becomes a span that counts its calls
and accumulates its self time, which is its duration minus the time covered
by the wrapped spans it caused.  A wrapper replaces the original at every
import site: module attributes, ``from .x import f`` bindings in other
modules, the ``divisor_forge`` package namespace and class attributes.

Usage::

    tracer = Tracer()
    tracer.time_imports()     # before importing divisor_forge
    import divisor_forge
    tracer.install()          # after every module to be traced is imported
    ...
    raw = merge([tracer.snapshot()])   # merge() also combines processes
    metrics = derive(raw)              # per-layer metric name -> value
"""

import builtins
import functools
import statistics
import sys
import time

PACKAGE = "divisor_forge"

# (span name, module, attribute path).  "Class.attr" wraps a method,
# classmethod or property on the class, which every import site shares.
SPANS = [
    ("engine.buchberger", "engine", "buchberger"),
    ("engine.s_poly", "engine", "s_poly"),
    ("engine.normal_form", "engine", "normal_form"),
    ("engine.lt_dimension", "engine", "lt_dimension"),
    ("ideals.gb_lookup", "ideals", "Ideal.groebner"),
    ("ideals.quotient", "ideals", "Ideal.quotient"),
    ("ideals.colon_by_element", "ideals", "Ideal._quotient_by_element"),
    ("ideals.colon_fast_path", "ideals", "Ideal._quotient_by_variable_power"),
    ("ideals.intersection", "ideals", "Ideal.intersection"),
    ("ideals.saturation", "ideals", "Ideal.saturation"),
    ("ideals.eliminate", "ideals", "Ideal.eliminate"),
    ("ideals.minimal_gens", "ideals", "Ideal.minimal_gens"),
    ("ideals.contains", "ideals", "Ideal.contains"),
    ("factorization.factor_terms", "factorization", "factor_terms"),
    ("decomposition.minimal_height_one_primes", "ideals",
     "minimal_height_one_primes"),
    ("decomposition.decompose", "ideals", "_decompose"),
    ("decomposition.certify_prime", "ideals", "_certify_prime"),
    ("decomposition.max_symbolic_containment", "ideals",
     "max_symbolic_containment"),
    ("decomposition.symbolic_power", "ideals", "symbolic_power"),
    ("fractional.reflexify", "fractional", "reflexify"),
    ("fractional.smallest_generator", "fractional", "smallest_generator"),
    ("correspondence.sheaf_of", "correspondence", "sheaf_of"),
    ("correspondence.effective_ideal", "correspondence", "effective_ideal"),
    ("divisors.of_element", "divisors", "WeilDivisor.of_element"),
    ("divisors.from_primes", "divisors", "WeilDivisor.from_primes"),
    ("checks.non_cartier_locus", "checks", "non_cartier_locus"),
    ("checks.is_cartier", "checks", "is_cartier"),
    ("geometry.base_locus", "geometry", "base_locus"),
    ("geometry.pullback", "geometry", "pullback"),
    ("ring.QuotientRing", "ring", "QuotientRing.__init__"),
    ("ring.normal_form_raw", "ring", "QuotientRing.normal_form_raw"),
    ("cli.parse_script", "cli", "parse_script"),
    ("cli.execute_script", "cli", "execute_script"),
    ("cli.render_outputs", "cli", "render_outputs"),
]

SYMPY_IMPORT = "factorization.sympy_import"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _bits(basis):
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for g in basis for c in g.values()), default=0)


class Tracer:
    """Span counters for one process; see the module docstring."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        # auxiliary counters (hits, distinct keys), merged by summing
        self.aux = {}
        self.maxed = {}
        self._distinct = {}
        # per-process values (import times), merged as medians
        self.proc = {}
        self._stack = [0.0]
        self.paused = False

    # -- bookkeeping ---------------------------------------------------------

    def _bump(self, name, by=1):
        self.aux[name] = self.aux.get(name, 0) + by

    def _max(self, name, value):
        if value > self.maxed.get(name, 0):
            self.maxed[name] = value

    def _seen(self, name, key):
        """Count key as distinct under name if it was not seen before."""
        seen = self._distinct.setdefault(name, set())
        if key not in seen:
            seen.add(key)
            self._bump(name + ".distinct")

    def snapshot(self):
        proc = {"factorization.sympy_import_s":
                self.self_s.get(SYMPY_IMPORT, 0.0), **self.proc}
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "aux": dict(self.aux), "max": dict(self.maxed),
                "proc": {k: [v] for k, v in proc.items()}}

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, naming=None, observe=None):
        """Wrap fn as a span.  naming(args, kwargs) picks a span name per
        call; observe(args, kwargs, before, result) records extra counters,
        with before the buchberger/reflexify call counts at entry."""
        calls, selfs, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = naming(args, kwargs) if naming else name
            before = None
            if observe is not None:
                before = (calls.get("engine.buchberger", 0),
                          calls.get("fractional.reflexify", 0),
                          getattr(args[0], "_gb", None) if args else None)
            calls[span] = calls.get(span, 0) + 1
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                selfs[span] = selfs.get(span, 0.0) + dt - child
                if observe is not None:
                    t1 = clock()
                    observe(args, kwargs, before, result)
                    # observer time is tracing overhead, not parent work
                    dt += clock() - t1
                stack[-1] += dt

        return functools.update_wrapper(wrapper, fn)

    def _observers(self):
        tr = self

        def buchberger(args, kwargs, before, result):
            key = _arg(args, kwargs, 1, "key")
            if "elim_key" in getattr(key, "__qualname__", ""):
                tr._bump("engine.buchberger.elim_calls")
            if result is not None:
                tr._max("engine.buchberger.max_basis_len", len(result))
                tr._max("engine.buchberger.max_coeff_bits", _bits(result))

        def gb_lookup(args, kwargs, before, result):
            if before[2] is None:  # cold: the Ideal had no stored basis
                tr._bump("ideals.gb_lookup.cold")
                if tr.calls.get("engine.buchberger", 0) == before[0]:
                    tr._bump("ideals.gb_lookup.served")

        def quotient(args, kwargs, before, result):
            me, other = args[0], _arg(args, kwargs, 1, "other")
            tr._seen("ideals.quotient", (
                id(me.ring),
                frozenset(frozenset(g.terms.items()) for g in me.gens),
                frozenset(frozenset(g.terms.items()) for g in other.gens)))

        def fast_path(args, kwargs, before, result):
            if result is not None:
                tr._bump("ideals.colon_fast_path.hits")

        def factor_terms(args, kwargs, before, result):
            terms = _arg(args, kwargs, 0, "terms")
            tr._seen("factorization.factor_terms",
                     (_arg(args, kwargs, 1, "nvars"),
                      frozenset(terms.items())))
            if max(sum(m) for m in terms) <= 1:
                tr._bump("factorization.factor_terms.deg_le1")

        def no_hull(metric):
            def observe(args, kwargs, before, result):
                if tr.calls.get("fractional.reflexify", 0) == before[1]:
                    tr._bump(metric)
            return observe

        return {
            "engine.buchberger": buchberger,
            "ideals.gb_lookup": gb_lookup,
            "ideals.quotient": quotient,
            "ideals.colon_fast_path": fast_path,
            "factorization.factor_terms": factor_terms,
            "decomposition.symbolic_power":
                no_hull("decomposition.symbolic_power.hits"),
            "correspondence.sheaf_of": no_hull("correspondence.sheaf_of.hits"),
        }

    @staticmethod
    def _naming(name):
        if name == "geometry.pullback":
            return lambda a, k: "geometry.pullback." + str(
                _arg(a, k, 2, "strategy", "primes"))
        if name == "cli.render_outputs":
            return lambda a, k: "cli.render_outputs." + (
                "json" if _arg(a, k, 1, "json_mode", False) else "text")
        return None

    # -- installation ----------------------------------------------------------

    def time_imports(self):
        """Time the first import of sympy as its own span.

        Installed before divisor_forge is imported, so the measurement holds
        whether the library imports sympy eagerly or lazily."""
        real = builtins.__import__
        calls, selfs, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def timed_import(name, globals=None, locals=None, fromlist=(),
                         level=0):
            if (level == 0 and name.partition(".")[0] == "sympy"
                    and "sympy" not in sys.modules):
                calls[SYMPY_IMPORT] = calls.get(SYMPY_IMPORT, 0) + 1
                stack.append(0.0)
                t0 = clock()
                try:
                    return real(name, globals, locals, fromlist, level)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    selfs[SYMPY_IMPORT] = selfs.get(SYMPY_IMPORT, 0.0) + dt
                    stack[-1] += dt
            return real(name, globals, locals, fromlist, level)

        builtins.__import__ = timed_import

    def install(self):
        """Wrap every span target of the imported divisor_forge modules.

        Raises RuntimeError when a target is missing, so a renamed function
        cannot silently drop out of the trace."""
        observers = self._observers()
        replaced = {}
        for name, modname, path in SPANS:
            module = sys.modules.get("%s.%s" % (PACKAGE, modname))
            if module is None:
                continue  # e.g. the CLI when a library workload runs
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if attr not in vars(owner):
                raise RuntimeError("trace target %s.%s is missing"
                                   % (modname, path))
            raw = vars(owner)[attr]
            wrap = lambda fn: self._span(  # noqa: E731
                name, fn, self._naming(name), observers.get(name))
            if isinstance(raw, property):
                new = property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            setattr(owner, attr, new)
            if not owner_name:
                replaced[id(raw)] = (raw, new)
        # rebind every other reference to a wrapped module-level function
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and value is hit[0]:
                    namespace[attr] = hit[1]


# ---------------------------------------------------------------------------
# merging and derived metrics

def merge(snapshots):
    """Combine snapshots of several processes: sums, maxima for maxes and
    lists of the per-process values."""
    out = {"calls": {}, "self_s": {}, "aux": {}, "max": {}, "proc": {}}
    for snap in snapshots:
        for part in ("calls", "self_s", "aux"):
            for k, v in snap[part].items():
                out[part][k] = out[part].get(k, 0) + v
        for k, v in snap["max"].items():
            out["max"][k] = max(out["max"].get(k, 0), v)
        for k, v in snap["proc"].items():
            out["proc"].setdefault(k, []).extend(v)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def derive(raw):
    """Per-layer metrics from a merged snapshot.  Import times are the
    median over the traced processes; everything else is a total."""
    calls, selfs, aux, maxed = raw["calls"], raw["self_s"], raw["aux"], raw["max"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return selfs.get(name, 0.0)

    def a(name):
        return aux.get(name, 0)

    def median_of(name):
        values = raw["proc"].get(name)
        return statistics.median(values) if values else 0.0

    m = {}
    m["engine.buchberger.calls"] = c("engine.buchberger")
    m["engine.buchberger.self_s"] = s("engine.buchberger")
    m["engine.buchberger.elim_calls"] = a("engine.buchberger.elim_calls")
    m["engine.buchberger.max_basis_len"] = maxed.get(
        "engine.buchberger.max_basis_len", 0)
    m["engine.buchberger.max_coeff_bits"] = maxed.get(
        "engine.buchberger.max_coeff_bits", 0)
    m["engine.s_poly.calls"] = c("engine.s_poly")
    m["engine.normal_form.calls"] = c("engine.normal_form")
    m["engine.normal_form.self_s"] = s("engine.normal_form")
    m["engine.lt_dimension.calls"] = c("engine.lt_dimension")
    for op in ("quotient", "colon_by_element", "intersection", "saturation",
               "minimal_gens"):
        m["ideals.%s.calls" % op] = c("ideals." + op)
        m["ideals.%s.self_s" % op] = s("ideals." + op)
    m["ideals.quotient.distinct_frac"] = _ratio(
        a("ideals.quotient.distinct"), c("ideals.quotient"))
    m["ideals.colon_fast_path.hit_frac"] = _ratio(
        a("ideals.colon_fast_path.hits"), c("ideals.colon_fast_path"))
    m["ideals.eliminate.calls"] = c("ideals.eliminate")
    m["ideals.gb_cache.hit_frac"] = _ratio(
        a("ideals.gb_lookup.served"), a("ideals.gb_lookup.cold"))
    m["ideals.contains.calls"] = c("ideals.contains")
    m["factorization.factor_terms.calls"] = c("factorization.factor_terms")
    m["factorization.factor_terms.self_s"] = s("factorization.factor_terms")
    m["factorization.factor_terms.distinct_frac"] = _ratio(
        a("factorization.factor_terms.distinct"),
        c("factorization.factor_terms"))
    m["factorization.factor_terms.deg_le1_frac"] = _ratio(
        a("factorization.factor_terms.deg_le1"),
        c("factorization.factor_terms"))
    m["factorization.sympy_import_s"] = median_of(
        "factorization.sympy_import_s")
    m["decomposition.minimal_height_one_primes.calls"] = c(
        "decomposition.minimal_height_one_primes")
    m["decomposition.minimal_height_one_primes.self_s"] = s(
        "decomposition.minimal_height_one_primes")
    m["decomposition.branches"] = c("decomposition.decompose")
    m["decomposition.certify_prime.calls"] = c("decomposition.certify_prime")
    m["decomposition.max_symbolic_containment.calls"] = c(
        "decomposition.max_symbolic_containment")
    m["decomposition.symbolic_power.calls"] = c("decomposition.symbolic_power")
    m["decomposition.symbolic_power.hit_frac"] = _ratio(
        a("decomposition.symbolic_power.hits"),
        c("decomposition.symbolic_power"))
    m["fractional.reflexify.calls"] = c("fractional.reflexify")
    m["fractional.reflexify.self_s"] = s("fractional.reflexify")
    m["fractional.smallest_generator.calls"] = c(
        "fractional.smallest_generator")
    m["correspondence.sheaf_of.calls"] = c("correspondence.sheaf_of")
    m["correspondence.sheaf_of.self_s"] = s("correspondence.sheaf_of")
    m["correspondence.sheaf_of.hit_frac"] = _ratio(
        a("correspondence.sheaf_of.hits"), c("correspondence.sheaf_of"))
    m["correspondence.effective_ideal.calls"] = c(
        "correspondence.effective_ideal")
    for fn in ("of_element", "from_primes"):
        m["divisors.%s.calls" % fn] = c("divisors." + fn)
        m["divisors.%s.self_s" % fn] = s("divisors." + fn)
    m["checks.non_cartier_locus.calls"] = c("checks.non_cartier_locus")
    m["checks.non_cartier_locus.self_s"] = s("checks.non_cartier_locus")
    m["checks.is_cartier.calls"] = c("checks.is_cartier")
    m["geometry.base_locus.self_s"] = s("geometry.base_locus")
    m["geometry.pullback.primes.self_s"] = s("geometry.pullback.primes")
    m["geometry.pullback.sheaves.self_s"] = s("geometry.pullback.sheaves")
    m["ring.QuotientRing.calls"] = c("ring.QuotientRing")
    m["ring.normal_form_raw.calls"] = c("ring.normal_form_raw")
    m["cli.import_s"] = median_of("cli.import_s")
    m["cli.parse_script.self_s"] = s("cli.parse_script")
    m["cli.execute_script.self_s"] = s("cli.execute_script")
    m["cli.render_outputs.text.self_s"] = s("cli.render_outputs.text")
    m["cli.render_outputs.json.self_s"] = s("cli.render_outputs.json")
    return m

