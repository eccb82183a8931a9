import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from msat.builtins import builtin_doctrine

# fixture name -> builtin_doctrine arguments of the doctrine it holds
BUILTIN_ARGS = {
    "trivial": ("trivial", {}),
    "monoid": ("monoid", {}),
    "group": ("group", {}),
    "action": ("group-action", {}),
    "ring_module": ("ring-module", {}),
    "operad3": ("operad-nonsigma", {"level_cap": 3}),
    "operad_sym": ("operad-symmetric", {"level_cap": 3}),
    "ocat": ("ocat", {"objects": ("x", "y"), "edges": (("f", "x", "x"),)}),
}


def new_doctrine(name):
    ident, kwargs = BUILTIN_ARGS[name]
    return builtin_doctrine(ident, **kwargs)


@pytest.fixture
def fresh_doctrine():
    """Builds, by fixture name, a new instance of a session doctrine,
    whose memo is empty."""
    return new_doctrine


@pytest.fixture(scope="session")
def trivial():
    return new_doctrine("trivial")


@pytest.fixture(scope="session")
def monoid():
    return new_doctrine("monoid")


@pytest.fixture(scope="session")
def group():
    return new_doctrine("group")


@pytest.fixture(scope="session")
def action():
    return new_doctrine("action")


@pytest.fixture(scope="session")
def ring_module():
    return new_doctrine("ring_module")


@pytest.fixture(scope="session")
def operad3():
    return new_doctrine("operad3")


@pytest.fixture(scope="session")
def operad_sym():
    return new_doctrine("operad_sym")


@pytest.fixture(scope="session")
def ocat():
    return new_doctrine("ocat")
