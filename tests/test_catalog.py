"""Bi-twist families: frozen formulas, class counts, per-member ramification,
Galois flags, and the mu/nu family cross-check."""

import pytest

from cubica.algebra import Polynomial, PrimeField, RationalFunction
from cubica.analyzer import analyze
from cubica.catalog import (ALL_TAGS, R322, R3322, R3322_MU, R33, R332_CHAR2,
                            R32_CHAR2, R33_CHAR2_AS, R33_PURE3, class_count,
                            enumerate_classes, expected_signature,
                            family_member)
from cubica.models import CubicModel
from cubica.quadratic import (SquareClass, canonical_quadratic_field, classify,
                              purely_cubic_closure)

F2 = PrimeField(2)
F4 = canonical_quadratic_field(F2)
F5 = PrimeField(5)
F7 = PrimeField(7)


def rf(num, den=None):
    return RationalFunction(num, den)


def test_family_member_frozen():
    x5 = Polynomial.x(F5)
    m = family_member(R33, F5, a=0, b=2)
    assert m.alpha == rf(2 * x5 ** 2 + 1, x5 ** 2 + 2)
    m2 = family_member(R322, F5, d=2)
    assert m2.alpha == rf(2 * x5 ** 2 + 3)
    m3 = family_member(R32_CHAR2, F2)
    x2 = Polynomial.x(F2)
    assert m3.alpha == rf(x2)
    assert m3.c.is_one()


def test_family_member_domain_checks():
    with pytest.raises(Exception):
        family_member(R33, F5, a=0, b=-1)     # x^2 - 1 reducible
    with pytest.raises(Exception):
        family_member(R3322, F5, nu=1, d=1)
    with pytest.raises(Exception):
        family_member(R322, F5, d=0)
    with pytest.raises(Exception):
        family_member(R32_CHAR2, F5)
    with pytest.raises(Exception):
        family_member(R3322, F2, nu=1, d=1)


@pytest.mark.parametrize("field,tag,expected", [
    (F5, R33, 2), (F7, R33, 2),
    (F5, R33_PURE3, 3), (F7, R33_PURE3, 9),
    (F5, R322, 2), (F7, R322, 2),
    (F5, R3322, 6), (F7, R3322, 10),
    (F2, R32_CHAR2, 1), (F4, R32_CHAR2, 1),
    (F2, R332_CHAR2, 0), (F4, R332_CHAR2, 4),
    (F2, R33, 2), (F4, R33, 2),
    (F2, R33_PURE3, 3), (F4, R33_PURE3, 9),
])
def test_class_counts_and_enumeration(field, tag, expected):
    assert class_count(tag, field) == expected
    models = enumerate_classes(tag, field)
    assert len(models) == expected
    want_t, want_s, want_g = expected_signature(tag)
    for m in models:
        rep = analyze(m)
        if tag == R33 and m.kind == "pure":
            pass  # the trivial class y^3 = x
        assert rep.total_degree() == want_t, (tag, m)
        assert rep.partial_degree() == want_s, (tag, m)
        assert rep.genus == want_g, (tag, m)


def test_enumerated_members_pairwise_distinct():
    for field, tag in [(F5, R3322), (F7, R3322), (F4, R332_CHAR2)]:
        models = enumerate_classes(tag, field)
        seen = set()
        for m in models:
            key = (hash(m.alpha.num), hash(m.alpha.den))
            assert key not in seen
            seen.add(key)


def test_r33_closure_matches_input_quadratic():
    """The impure R33 member over (a, b) has constant closure of class
    a^2 - 4b (the discriminant of x^2 + ax + b)."""
    for field, a, b in [(F5, 0, 2), (F5, 1, 1), (F7, 0, 1), (F7, 1, 4)]:
        x = Polynomial.x(field)
        if not __import__("cubica.algebra", fromlist=["is_irreducible"]).is_irreducible(
                x * x + field(a) * x + field(b)):
            continue
        m = family_member(R33, field, a=a, b=b)
        closure = purely_cubic_closure(m)
        disc = field(a) * field(a) - field(4) * field(b)
        assert closure == SquareClass.of(disc)
        assert closure.is_constant_class()


@pytest.mark.parametrize("field", [F5, F7, PrimeField(11)])
def test_r33_galois_flags(field):
    """Exactly one R33 class is Galois: the pure one iff q = 1 mod 3."""
    models = enumerate_classes(R33, field)
    flags = [(m.kind == "pure", classify(m)[1]) for m in models]
    galois = [is_pure for is_pure, g in flags if g]
    assert len(galois) == 1
    assert galois[0] == (field.order % 3 == 1)


def test_r3322_mu_matches_nu_form():
    """Substituting x -> (x+1)/(x-1) with mu = 2 - 4/(1-nu) carries the
    mu-family to the nu-family up to y -> -y."""
    for field in (F5, F7):
        x = Polynomial.x(field)
        sub = rf(x + 1, x - 1)
        for nu_int in range(2, field.p):
            nu = field(nu_int)
            if nu.is_zero() or nu.is_one():
                continue
            mu = field(2) - field(4) / (field.one - nu)
            if mu == field(2) or mu == field(-2):
                continue
            m_mu = family_member(R3322_MU, field, mu=mu.val)
            m_nu = family_member(R3322, field, nu=nu.val, d=1)
            pulled = m_mu.alpha.compose(sub)
            assert pulled == m_nu.alpha or pulled == -m_nu.alpha


def test_r332_char2_members_distinct_and_correct():
    models = enumerate_classes(R332_CHAR2, F4)
    assert len(models) == 4
    for m in models:
        rep = analyze(m)
        assert rep.total_degree() == 2
        assert rep.partial_degree() == 1
        assert rep.genus == 1
        assert rep.metadata.get("wild_different_exponent") == 2


def test_r33_char2_member():
    m = family_member(R33_CHAR2_AS, F2, a=1)
    rep = analyze(m)
    assert rep.total_degree() == 2 and not rep.partial and rep.genus == 0
