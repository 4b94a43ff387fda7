from fractions import Fraction

import pytest

from staircase import (
    Downset,
    Upset,
    cell,
    halfspace,
    interval,
    plset,
)


def hs(normal, offset, strict=False):
    return halfspace(normal, offset, strict)


@pytest.fixture(scope="session")
def half_plane():
    """Open half-plane below the antidiagonal: {x + y < 1}."""
    return Downset(plset(2, cell(2, hs([1, 1], 1, True))))


@pytest.fixture(scope="session")
def triangle_quotient():
    """Downward closure of the open-hypotenuse unit triangle:
    {x < 1, y < 1, x + y < 1}."""
    return Downset(
        plset(2, cell(2, hs([1, 0], 1, True), hs([0, 1], 1, True), hs([1, 1], 1, True)))
    )


@pytest.fixture(scope="session")
def closed_principal():
    """The closed negative quadrant hanging from the origin."""
    return Downset(plset(2, cell(2, hs([1, 0], 0), hs([0, 1], 0))))


@pytest.fixture(scope="session")
def lower_half_plane():
    """{y < 0}: one cogenerator class along the x-axis."""
    return Downset(plset(2, cell(2, hs([0, 1], 0, True))))


@pytest.fixture(scope="session")
def triangle_plus_ray():
    """Closed unit triangle in the first quadrant together with the closed
    horizontal ray {x >= 0, y = 0}, as an interval of R^2_+."""
    u = Upset(plset(2, cell(2, hs([-1, 0], 0), hs([0, -1], 0))))
    d = Downset(plset(2, cell(2, hs([1, 1], 1)), cell(2, hs([0, 1], 0))))
    return interval(u, d)


def rational_grid(lo, hi, step):
    """All grid points of [lo, hi]^n with the given rational step."""
    import itertools

    axes = []
    for l, h in zip(lo, hi):
        vals = []
        x = Fraction(l)
        while x <= h:
            vals.append(x)
            x += Fraction(step)
        axes.append(vals)
    return list(itertools.product(*axes))


def closed_cogenerators_match_scan(d, tau):
    """``closed_cogenerators`` against the pointwise oracle scan
    ``component_cogenerators``: the same classes in the same order off
    ``tau``, and every closed representative pinned at ``B_j + 1`` on ``tau``
    (the scan pins them at ``B_j + 2``)."""
    from staircase.discrete import closed_cogenerators, component_cogenerators

    tau = frozenset(tau)
    bound = d.ideal.bound()
    off = [j for j in range(d.dim) if j not in tau]
    closed = closed_cogenerators(d, tau)
    scanned = component_cogenerators(d.in_interval, d.dim, bound, tau)
    pinned = all(r[j] == bound[j] + 1 for r in closed for j in tau)
    return pinned and [tuple(r[j] for j in off) for r in closed] == [
        tuple(r[j] for j in off) for r in scanned
    ]
