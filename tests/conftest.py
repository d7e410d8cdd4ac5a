"""Shared rings and helpers for the test suite, and criterion 8 of the
acceptance suite.

Rings are session-scoped so Groebner caches are shared across tests.
"""

import os

import pytest

from divisor_forge import Grading, Ideal, QuotientRing


@pytest.fixture(scope="session")
def plane():
    """QQ[x,y], a regular two-dimensional base case."""
    return QuotientRing(("x", "y"))


@pytest.fixture(scope="session")
def space():
    """QQ[x,y,z,w], ambient for the harder decomposition cases."""
    return QuotientRing(("x", "y", "z", "w"))


@pytest.fixture(scope="session")
def cone4():
    """QQ[x,y,u,v]/(xy-uv): affine cone over P^1 x P^1."""
    return QuotientRing(("x", "y", "u", "v"), ("x*y - u*v",))


@pytest.fixture(scope="session")
def cone3():
    """QQ[x,y,z]/(xy-z^2): the quadric cone, A_1 singularity."""
    return QuotientRing(("x", "y", "z"), ("x*y - z^2",))


@pytest.fixture(scope="session")
def cone3b():
    """QQ[x,y,z]/(x^2-yz): the quadric cone in its other presentation."""
    return QuotientRing(("x", "y", "z"), ("x^2 - y*z",))


@pytest.fixture(scope="session")
def elliptic():
    """QQ[x,y,z]/(y^2 z - x(x+z)(x-z)): a smooth plane cubic."""
    return QuotientRing(("x", "y", "z"), ("y^2*z - x*(x+z)*(x-z)",))


@pytest.fixture(scope="session")
def weighted():
    """QQ[x,y] with a nonstandard positive multigrading."""
    return QuotientRing(("x", "y"), (), Grading([(1, 2), (0, 1)]))


def mk_ideal(ring, *gens):
    return Ideal(ring, list(gens))


# -- criterion 8 --------------------------------------------------------------

# The randomized property suites of acceptance criterion 8, by file and test
# name.  They run once, where they are defined; the criterion's verdict is
# printed from their outcomes when all of them have run.
PROPERTY_SUITES = {
    ("test_fractional.py", "test_reflexify_properties_randomized"),
    ("test_divisors.py", "test_group_laws_randomized"),
    ("test_divisors.py", "test_of_element_additivity_randomized"),
    ("test_correspondence.py", "test_sheaf_monoid_law_randomized"),
    ("test_smith.py", "test_smith_validity_randomized"),
    ("test_geometry.py", "test_pullback_strategy_agreement_randomized"),
    ("test_checks.py", "test_snc_depends_only_on_support"),
}


class Criterion8:
    """Outcomes of the property suites in one test run."""

    def __init__(self):
        self.passed = {}  # False once any phase failed, True once it passed

    def pytest_runtest_logreport(self, report):
        path, _, name = report.nodeid.rpartition("::")
        suite = (os.path.basename(path), name)
        if suite not in PROPERTY_SUITES:
            return
        if report.failed:
            self.passed[suite] = False
        elif report.when == "call" and report.passed:
            self.passed.setdefault(suite, True)

    def pytest_terminal_summary(self, terminalreporter):
        if len(self.passed) == len(PROPERTY_SUITES):
            terminalreporter.write_line(
                "criterion 8 (randomized property suites): %s"
                % ("PASS" if all(self.passed.values()) else "FAIL"))


def pytest_configure(config):
    config.pluginmanager.register(Criterion8(), "criterion8")
