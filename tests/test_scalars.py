import itertools
import math

import pytest
from hypothesis import given, strategies as st

from qdivtop import scalars
from qdivtop.scalars import (
    INTEGERS,
    DomainMismatch,
    ScalarError,
    format_scalar,
    is_irreducible,
    parse_scalar,
    poly_domain,
    reduce_mod,
    scalar,
    scalar_gcd,
    scalar_lcm,
)

F2 = poly_domain(2)
F3 = poly_domain(3)


def s_int(v):
    return scalar(INTEGERS, v)


def s_poly(domain, coeffs):
    return scalar(domain, coeffs)


# -- independent oracles ---------------------------------------------------


def int_divisors(n):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def poly_divisors(f, p, max_deg):
    """All monic divisors found by exhaustive trial division."""
    out = []
    for d in range(0, max_deg + 1):
        for g in scalars.monic_polys(p, d):
            if not scalars.pdivmod(f, g, p)[1]:
                out.append(g)
    return out


def oracle_gcd_int(a, b):
    common = set(int_divisors(a)) & set(int_divisors(b))
    best = [g for g in common if all(g % d == 0 for d in common)]
    assert len(best) == 1
    return best[0]


def oracle_gcd_poly(a, b, p):
    common = [
        g for g in poly_divisors(a, p, scalars.pdeg(a))
        if not scalars.pdivmod(b, g, p)[1]
    ]
    # greatest: the common divisor every common divisor divides
    best = [
        g for g in common if all(not scalars.pdivmod(g, d, p)[1] for d in common)
    ]
    assert len(best) == 1
    return best[0]


def oracle_lcm_poly(a, b, p):
    """Smallest monic polynomial (by degree, then lexicographically) that
    both inputs divide."""
    for deg in range(0, scalars.pdeg(a) + scalars.pdeg(b) + 1):
        for cand in sorted(scalars.monic_polys(p, deg)):
            if (
                not scalars.pdivmod(cand, a, p)[1]
                and not scalars.pdivmod(cand, b, p)[1]
            ):
                return cand
    raise AssertionError("unreachable")


# -- examples ----------------------------------------------------------------


def test_gcd_examples():
    assert scalar_gcd(s_int(4), s_int(6)).value == 2
    assert scalar_gcd(s_int(5), s_int(0)).value == 5
    # over F2: gcd(x^2, x^3+x^2) = x^2, cross-checked by exhaustive divisors
    a = parse_scalar("x^2", F2)
    b = parse_scalar("x^3+x^2", F2)
    got = scalar_gcd(a, b)
    assert got.value == (0, 0, 1)
    assert got.value == oracle_gcd_poly(a.value, b.value, 2)


def test_lcm_examples():
    assert scalar_lcm(s_int(4), s_int(6)).value == 12
    assert scalar_lcm(s_int(7), s_int(7)).value == 7
    a = parse_scalar("x", F2)
    b = parse_scalar("x^2+x", F2)
    got = scalar_lcm(a, b)
    assert got.value == (0, 1, 1)
    assert got.value == oracle_lcm_poly(a.value, b.value, 2)


def test_irreducible_examples():
    assert is_irreducible(s_int(7)) is True
    assert is_irreducible(s_int(6)) is False
    assert is_irreducible(parse_scalar("x^2+x+1", F2)) is True
    # exhaustive root and degree-1 factor search agrees
    f = (1, 1, 1)
    assert all(sum(c * pow(x, k, 2) for k, c in enumerate(f)) % 2 for x in (0, 1))


def test_reduce_examples():
    assert reduce_mod(s_int(14), s_int(6)).value == 2
    assert reduce_mod(parse_scalar("x^3", F2), parse_scalar("x^2", F2)).is_zero()
    assert reduce_mod(s_int(-1), s_int(6)).value == 5


def test_error_cases():
    with pytest.raises(ScalarError):
        scalar_gcd(s_int(0), s_int(0))
    with pytest.raises(DomainMismatch):
        scalar_gcd(s_int(2), parse_scalar("x", F2))
    with pytest.raises(ScalarError):
        scalar_lcm(s_int(0), s_int(3))
    with pytest.raises(ScalarError):
        is_irreducible(s_int(0))
    with pytest.raises(ScalarError):
        is_irreducible(s_int(1))
    with pytest.raises(ScalarError):
        reduce_mod(s_int(3), s_int(1))
    with pytest.raises(ScalarError):
        reduce_mod(s_int(3), s_int(0))


# -- exhaustive invariants ----------------------------------------------------


def test_int_gcd_lcm_exhaustive_small():
    for a in range(1, 101):
        for b in range(1, 101):
            g = scalar_gcd(s_int(a), s_int(b)).value
            assert a % g == 0 and b % g == 0
            common = set(int_divisors(a)) & set(int_divisors(b))
            assert all(g % d == 0 for d in common)
            l = scalar_lcm(s_int(a), s_int(b)).value
            assert l % a == 0 and l % b == 0
            assert l * g == a * b


def test_poly_gcd_exhaustive_deg4_f2():
    polys = [
        scalars.ptrim(c)
        for n in range(1, 6)
        for c in itertools.product(range(2), repeat=n)
        if c[-1] != 0
    ]
    for a in polys:
        for b in polys:
            g = scalar_gcd(s_poly(F2, a), s_poly(F2, b)).value
            assert not scalars.pdivmod(a, g, 2)[1]
            assert not scalars.pdivmod(b, g, 2)[1]
            for d in poly_divisors(a, 2, scalars.pdeg(a)):
                if not scalars.pdivmod(b, d, 2)[1]:
                    assert not scalars.pdivmod(g, d, 2)[1]


def test_poly_lcm_minimality_small():
    polys = [
        scalars.ptrim(c)
        for n in range(2, 4)
        for c in itertools.product(range(2), repeat=n)
        if c[-1] != 0
    ]
    for a in polys:
        for b in polys:
            got = scalar_lcm(s_poly(F2, a), s_poly(F2, b)).value
            want = oracle_lcm_poly(a, b, 2)
            assert scalars.pdeg(got) == scalars.pdeg(want)
            assert not scalars.pdivmod(got, a, 2)[1]
            assert not scalars.pdivmod(got, b, 2)[1]


def test_irreducible_matches_trial_division():
    sieve = [True] * 10001
    sieve[0] = sieve[1] = False
    for i in range(2, 101):
        if sieve[i]:
            for j in range(i * i, 10001, i):
                sieve[j] = False
    for n in range(2, 10001):
        assert is_irreducible(s_int(n)) == sieve[n]


@pytest.mark.parametrize("p,max_deg", [(2, 4), (3, 3)])
def test_poly_irreducible_matches_trial_division(p, max_deg):
    dom = poly_domain(p)
    for deg in range(1, max_deg + 1):
        for f in scalars.monic_polys(p, deg):
            proper = [
                g
                for g in poly_divisors(f, p, deg - 1)
                if scalars.pdeg(g) >= 1
            ]
            assert is_irreducible(s_poly(dom, f)) == (not proper)


# -- property tests ------------------------------------------------------------

nonzero_ints = st.integers(min_value=-(10**9), max_value=10**9).filter(bool)


@given(nonzero_ints, nonzero_ints)
def test_gcd_divides_both(a, b):
    g = scalar_gcd(s_int(a), s_int(b))
    assert g.value > 0
    assert a % g.value == 0 and b % g.value == 0


@given(nonzero_ints, nonzero_ints)
def test_lcm_gcd_product(a, b):
    g = scalar_gcd(s_int(a), s_int(b)).value
    l = scalar_lcm(s_int(a), s_int(b)).value
    assert l * g == abs(a * b)


@given(st.integers(), st.integers(min_value=2, max_value=10**6))
def test_reduce_idempotent(a, m):
    once = reduce_mod(s_int(a), s_int(m))
    assert reduce_mod(once, s_int(m)) == once
    assert 0 <= once.value < m


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
def test_poly_reduce_idempotent(coeffs):
    a = s_poly(F3, coeffs)
    m = parse_scalar("x^2+1", F3)
    once = reduce_mod(a, m)
    assert reduce_mod(once, m) == once
    assert scalars.pdeg(once.value) < 2


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
)
def test_poly_gcd_divides_both(ca, cb):
    a, b = s_poly(F3, ca), s_poly(F3, cb)
    if a.is_zero() and b.is_zero():
        return
    g = scalar_gcd(a, b)
    # g is nonzero, since a or b is, and divides each with remainder zero
    assert scalars.pdivmod(a.value, g.value, 3)[1] == ()
    assert scalars.pdivmod(b.value, g.value, 3)[1] == ()
    assert g.value[-1] == 1  # monic


# -- parsing and formatting -----------------------------------------------------


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("x^3+x+1", (1, 1, 0, 1)),
        ("1+x", (1, 1)),
        ("x", (0, 1)),
        ("0", ()),
        ("2*x^2+1", (1, 0, 2)),
        ("x^2-x", (0, 2, 1)),
    ],
)
def test_poly_parse(text, coeffs):
    assert parse_scalar(text, F3).value == coeffs


def test_parse_format_roundtrip():
    for coeffs in itertools.product(range(3), repeat=4):
        a = s_poly(F3, coeffs)
        assert parse_scalar(format_scalar(a), F3) == a
    for v in (-17, 0, 5, 123456789):
        a = s_int(v)
        assert parse_scalar(format_scalar(a), INTEGERS) == a


def test_parse_errors():
    with pytest.raises(ScalarError):
        parse_scalar("x+y", F2)
    with pytest.raises(ScalarError):
        parse_scalar("", F2)
    with pytest.raises(ScalarError):
        parse_scalar("x^", F2)
    with pytest.raises(ScalarError):
        parse_scalar("2.5", INTEGERS)
    with pytest.raises(ScalarError):
        poly_domain(4)
