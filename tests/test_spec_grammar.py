"""A property test over the spec grammar: every spec the README grammar
admits, with literals near and past every limit, either finishes ``dot``
or exits 2 or 3, within a stated time, and a cap exit names the cap.

The specs are grammar-valid by construction, so that most of them reach
the layers past the parser: ``Z:`` and ``F<p>[x]:`` sums, and ``ring:``
terms over ``Zn``, ``GF``, ``Trunc``, ``Prod`` and ``Ideal``, some nested
past ``rings.NESTING_CAP`` levels.  ``dot`` builds the space but not the
submodule lattice, whose size the element cap does not bound in time."""

import contextlib
import io
import signal

from hypothesis import HealthCheck, given, settings, strategies as st

from qdivtop import cli, rings
from qdivtop.scalars import LONG_DIGITS

SECONDS = 5


class Overrun(Exception):
    pass


# small values (half of the draws, so that most specs build), primes and
# composites near the order cap 4096, and digit strings around the length
# gate and past int()'s 4,300-digit limit
literal = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(0, 70).map(str),
    st.sampled_from([4093, 4095, 4096, 4097, 4099]).map(str),
    st.sampled_from([LONG_DIGITS - 1, LONG_DIGITS, LONG_DIGITS + 1, 4400]).map(
        lambda k: "9" * k
    ),
)
characteristic = st.one_of(st.sampled_from(["2", "3", "5", "7"]), literal)
term = st.one_of(
    literal,
    st.just("x"),
    literal.map(lambda e: f"x^{e}"),
    st.tuples(literal, literal).map(lambda ce: f"{ce[0]}*x^{ce[1]}"),
)
poly = st.tuples(term, st.lists(st.tuples(st.sampled_from("+-"), term), max_size=3)).map(
    lambda t: t[0] + "".join(sign + u for sign, u in t[1])
)
leaf = st.one_of(
    literal.map(lambda n: f"Zn({n})"),
    characteristic.map(lambda p: f"GF({p})"),
    st.tuples(characteristic, poly).map(lambda pf: f"GF({pf[0]},{pf[1]})"),
    st.tuples(characteristic, literal).map(lambda pk: f"Trunc({pk[0]},{pk[1]})"),
)
ring_term = st.recursive(
    leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: f"Prod({ab[0]},{ab[1]})"),
        st.tuples(inner, literal).map(lambda ad: f"Ideal({ad[0]},{ad[1]})"),
    ),
    max_leaves=6,
)


def _wrap(base, levels):
    for level in levels:
        base = f"Prod({base},Zn(2))" if level else f"Ideal({base},1)"
    return base


# chains of Prod and Ideal levels around a term, from just inside the
# nesting cap to past it
chain = st.lists(
    st.booleans(), min_size=rings.NESTING_CAP - 2, max_size=rings.NESTING_CAP + 4
)
nested = st.tuples(ring_term, chain).map(lambda t: _wrap(*t))
spec = st.one_of(
    st.lists(literal, min_size=1, max_size=3).map(lambda ns: "Z:" + ",".join(ns)),
    st.tuples(characteristic, st.lists(poly, min_size=1, max_size=2)).map(
        lambda t: f"F{t[0]}[x]:" + ",".join(t[1])
    ),
    st.one_of(ring_term, nested).map(lambda r: "ring:" + r),
)


def _overrun(signum, frame):
    raise Overrun


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec)
def test_every_admitted_spec_finishes_or_exits_2_or_3_in_time(text):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["dot", text])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), err.getvalue()
    if code == 3:
        assert "cap" in err.getvalue()
