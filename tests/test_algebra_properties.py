"""Property tests of the multiplication core on random towers: pure and
general monic extensions, quotients, a quotient of a quotient and an
extension of a quotient, over QQ, GF(2), GF(3) and GF(32003)."""

import random

from hypothesis import given, settings, strategies as st

from lefschetz.algebra import ExtensionAlgebra, MonicPoly, monomial_complete_intersection, trivial_algebra
from lefschetz.fields import GF, QQ

import indep

FIELDS = (QQ, GF(2), GF(3), GF(32003))
KINDS = ("pure", "general", "quotient", "quotient of quotient", "extension of quotient")

# A few seconds in all; fixed examples, and no example database on disk.
BUDGET = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def random_element(alg, t, rng):
    f = alg.field
    return alg.element(t, [f.of(rng.randint(-3, 3)) for _ in range(alg.dim(t))])


def nonzero_element(alg, t, rng):
    e = random_element(alg, t, rng)
    if e.is_zero():
        f = alg.field
        e = alg.element(t, [f.one] + [f.zero] * (alg.dim(t) - 1))
    return e


def basis_vector(alg, t, b):
    f = alg.field
    return alg.element(t, [f.one if c == b else f.zero for c in range(alg.dim(t))])


def extend(alg, name, d, rng, pure):
    if pure:
        return alg.extend(name, MonicPoly.pure_power(alg, d))
    return alg.extend(name, MonicPoly(alg, d, [random_element(alg, i, rng) for i in range(1, d + 1)]))


def quotient(alg, rng):
    """Quotient by a nonzero form of degree 1..3, or None when there is none."""
    degrees = [t for t in range(1, min(alg.sigma, 3) + 1) if alg.dim(t)]
    if not degrees:
        return None
    return alg.quotient(nonzero_element(alg, rng.choice(degrees), rng))


@st.composite
def towers(draw):
    """Every algebra of one random tower, base field first."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(KINDS))
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    stages = [trivial_algebra(field)]
    for n, d in enumerate(degrees, start=1):
        stages.append(extend(stages[-1], f"x{n}", d, rng, pure=kind == "pure"))
    for _ in range(kind.count("quotient")):
        q = quotient(stages[-1], rng)
        if q is not None:
            stages.append(q)
    if kind == "extension of quotient":
        stages.append(extend(stages[-1], "y", draw(st.integers(1, 3)), rng, pure=False))
    return stages, rng


@BUDGET
@given(towers())
def test_mult_map_columns_are_products(data):
    stages, rng = data
    for alg in stages:
        for s in range(min(alg.sigma, 2) + 1):
            w = random_element(alg, s, rng)
            for i in range(alg.sigma + 1):
                m = alg.mult_map_matrix(w, i)
                assert (m.nrows, m.ncols) == (alg.dim(i + s), alg.dim(i))
                for b in range(alg.dim(i)):
                    e = basis_vector(alg, i, b)
                    column = tuple(row[b] for row in m.rows)
                    assert (w * e).coeffs == column
                    assert (e * w).coeffs == column


@BUDGET
@given(towers())
def test_products_commute_and_associate(data):
    stages, rng = data
    for alg in stages:
        for _ in range(3):
            u, v, w = (random_element(alg, rng.randint(0, alg.sigma), rng) for _ in range(3))
            assert u * v == v * u
            assert (u * v) * w == u * (v * w)


@BUDGET
@given(towers())
def test_extensions_include_a_ring_and_satisfy_their_relation(data):
    stages, rng = data
    for alg in stages:
        if not isinstance(alg, ExtensionAlgebra):
            continue
        a = alg.base
        assert alg.include(a.one()) == alg.one()
        for _ in range(3):
            s, t = rng.randint(0, a.sigma), rng.randint(0, a.sigma)
            u, v, u2 = random_element(a, s, rng), random_element(a, t, rng), random_element(a, s, rng)
            assert alg.include(u * v) == alg.include(u) * alg.include(v)
            assert alg.include(u + u2) == alg.include(u) + alg.include(u2)
        x, f = alg.generator(alg.var), alg.relation
        value = x**f.d
        for i, ai in enumerate(f.lower, start=1):
            value = value + alg.include(ai) * x ** (f.d - i)
        assert value.is_zero()
        # x**n multiplies by x once at a time; x^a * x^b reduces x^{a+b} in one step.
        for m in range(f.d):
            for n in range(f.d):
                assert x**m * x**n == x ** (m + n)


@BUDGET
@given(
    st.sampled_from(FIELDS),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(0, 2**32),
)
def test_monomial_maps_match_independent_model(field, caps, seed):
    caps = tuple(caps)
    rng = random.Random(seed)
    alg = monomial_complete_intersection(field, caps)
    p = getattr(field, "p", 2**31 - 1)

    def exponents(t):
        return [indep.label_to_exponents(label, len(caps)) for label in alg.basis_labels(t)]

    for s in range(min(alg.sigma, 3) + 1):
        w = random_element(alg, s, rng)
        wdict = {e: int(c) % p for e, c in zip(exponents(s), w.coeffs) if int(c) % p}
        for i in range(alg.sigma + 1):
            ours = alg.mult_map_matrix(w, i).rows
            theirs = indep.mult_matrix(caps, wdict, s, i, p)
            rows = [indep.monomials_of_degree(caps, i + s).index(e) for e in exponents(i + s)]
            cols = [indep.monomials_of_degree(caps, i).index(e) for e in exponents(i)]
            assert [[int(x) % p for x in row] for row in ours] == [
                [theirs[r][c] for c in cols] for r in rows
            ]
