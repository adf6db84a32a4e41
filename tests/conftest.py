from pathlib import Path

import pytest

from gentlegp import (Arrow, QuiverPresentation, parse_presentation,
                      parse_triangulation, validate_gentle)
from gentlegp.families import (cyclic_nakayama, eight_vertex_example,
                               linear_quiver, projective_line_chain)

DATA = Path(__file__).parent / "data"

# one line per acceptance criterion, echoed after the test summary so the
# pass/fail lines survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def data_path(name):
    return DATA / name


def field_id(p):
    """The test id of the field of characteristic p: QQ or GF(p)."""
    return f"GF({p})" if p else "QQ"


def kronecker():
    """Two parallel arrows 1 => 2, no relations."""
    return QuiverPresentation(
        ("1", "2"),
        (Arrow("alpha", "1", "2"), Arrow("beta", "1", "2")),
        frozenset())


@pytest.fixture(scope="session")
def eightv():
    return validate_gentle(eight_vertex_example())


@pytest.fixture(scope="session")
def a2():
    return validate_gentle(linear_quiver(2))


@pytest.fixture(scope="session")
def i3():
    return validate_gentle(cyclic_nakayama(3))


@pytest.fixture(scope="session")
def kron():
    return validate_gentle(kronecker())


@pytest.fixture(scope="session")
def fan5():
    t = parse_triangulation(data_path("fan5.tri").read_text())
    from gentlegp import algebra_from_triangulation

    return algebra_from_triangulation(t)


@pytest.fixture(scope="session")
def all_fixture_algebras(eightv, a2, fan5):
    """The fixture zoo the acceptance sweeps run over."""
    zoo = {"eight_vertex": eightv, "a2": a2, "fan5": fan5}
    for n in range(2, 6):
        zoo[f"lambda{n}"] = validate_gentle(projective_line_chain(n))
    for n in range(1, 5):
        zoo[f"I{n}"] = validate_gentle(cyclic_nakayama(n))
    return zoo
