"""evaluate_general_point against its definition on the standard form.

evaluate_general_point measures a general-model point from the model's own
arrays, without building its standard form.  It must give bit for bit what
building that form and measuring the lifted point there gives:
violation_summary(p, reference_lift_point(g, p, fmap, x, y)) with p, fmap =
to_standard_form(g), where reference_lift_point is the loop-based lifting
of test_stdform_reference, written apart from the code under test.  The
summaries are compared by repr, so a sign of zero counts too.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybridlp import (
    EQ,
    GE,
    LE,
    GeneralLp,
    evaluate_general_point,
    parse_mps,
    to_standard_form,
    violation_summary,
)

from _desk import desk_suite
from test_pipeline import DUPLICATE_ENTRY, NONCANONICAL
from test_stdform_reference import reference_lift_point

FIXTURES = Path(__file__).parent / "fixtures"


def reference_evaluate(g: GeneralLp, x, y):
    p, fmap = to_standard_form(g)
    return violation_summary(p, reference_lift_point(g, p, fmap, x, y))


def assert_same_summary(g: GeneralLp, x, y):
    assert repr(evaluate_general_point(g, x, y)) == repr(reference_evaluate(g, x, y))


def _points(g: GeneralLp, rng):
    """Zeros of both signs, points on, inside and outside the bounds, and
    points with negative entries and signed zeros mixed in."""
    n, m = g.n_vars, g.n_rows
    lo = np.where(np.isfinite(g.lower), g.lower, -1.0)
    up = np.where(np.isfinite(g.upper), g.upper, lo + 2.0)
    yield np.zeros(n), np.zeros(m)
    yield np.full(n, -0.0), np.full(m, -0.0)
    for _ in range(4):
        x = rng.uniform(lo - 0.5, up + 0.5)
        pick = rng.integers(5, size=n)
        x = np.where(pick == 0, lo, np.where(pick == 1, up, np.where(pick == 2, -0.0, x)))
        y = rng.normal(size=m)
        y[rng.random(m) < 0.3] = rng.choice([0.0, -0.0])
        yield x, y


def _models():
    models = [(inst.name, inst.model) for inst in desk_suite()]
    models += [(path.name, parse_mps(path.read_text())) for path in sorted(FIXTURES.glob("*.mps"))]
    return models + [("noncanonical", NONCANONICAL), ("duplicate-entry", DUPLICATE_ENTRY)]


MODELS = _models()


@pytest.mark.parametrize("g", [g for _, g in MODELS], ids=[name for name, _ in MODELS])
def test_fixed_models(g):
    rng = np.random.default_rng(g.n_vars + 7 * g.n_rows)
    for x, y in _points(g, rng):
        assert_same_summary(g, x, y)


# per column kind: (lower, upper) as functions of a drawn finite value
_KINDS = {
    "nonnegative": lambda v: (0.0, np.inf),
    "free": lambda v: (-np.inf, np.inf),
    "free-upper": lambda v: (-np.inf, v),
    "shifted": lambda v: (v, np.inf),
    "boxed": lambda v: (v, v + 2.5),
    "fixed": lambda v: (v, v),
    "negative-zero-lower": lambda v: (-0.0, abs(v) + 3.0),
}
_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_random_general_models(data):
    """Free, shifted, upper-bounded and fixed columns, all three senses, and
    an A given with unsorted duplicate entries (some summing to zero)."""
    m = data.draw(st.integers(0, 6), label="m")
    n = data.draw(st.integers(1, 7), label="n")
    entry = st.tuples(st.integers(0, n - 1), st.sampled_from([1.0, -1.0, 0.5, 3.0, -2.25]))
    rows = [data.draw(st.lists(entry, max_size=2 * n), label=f"row {i}") for i in range(m)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j, _ in r], dtype=np.int32)
    values = np.array([v for r in rows for _, v in r], dtype=float)
    A = sp.csr_matrix((values, indices, indptr), shape=(m, n))
    kinds = data.draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=n, max_size=n), label="kinds")
    anchors = data.draw(arrays(float, n, elements=st.floats(-5.0, 5.0)), label="anchors")
    lower, upper = np.array([_KINDS[k](v) for k, v in zip(kinds, anchors)]).T.reshape(2, n)
    g = GeneralLp(
        c=data.draw(arrays(float, n, elements=_SIGNED), label="c"),
        A=A,
        senses=data.draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=m, max_size=m), label="senses"),
        rhs=data.draw(arrays(float, m, elements=_SIGNED), label="rhs"),
        lower=lower,
        upper=upper,
        obj_offset=data.draw(st.floats(-10.0, 10.0), label="offset"),
    )
    x = data.draw(arrays(float, n, elements=_SIGNED), label="x")
    y = data.draw(arrays(float, m, elements=_SIGNED), label="y")
    assert_same_summary(g, x, y)
