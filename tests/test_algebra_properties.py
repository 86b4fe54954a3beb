"""Property tests of the multiplication core, its compiled tables and the
strong Lefschetz check on random towers: pure and general monic extensions,
quotients, a quotient of a quotient and an extension of a quotient, over QQ,
GF(2), GF(3) and GF(32003), GF(3037000493) for the tables and GF(4294967291)
for algebras without them."""

import math
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from lefschetz.algebra import (
    IMAGE_PRIME,
    ExtensionAlgebra,
    MonicPoly,
    QuotientAlgebra,
    TrivialAlgebra,
    monomial_complete_intersection,
    trivial_algebra,
)
from lefschetz import certify
from lefschetz.certify import _profile_for_power, is_lefschetz, is_strong_lefschetz
from lefschetz.fields import GF, QQ, PrimeField
from lefschetz.linalg import Matrix

import indep
from test_certify import exact_grid, exact_profile

FIELDS = (QQ, GF(2), GF(3), GF(32003))
# GF(4294967291) is above _NP_MAX_P: no tables and no image, every rank exact.
ALL_FIELDS = FIELDS + (GF(4294967291),)
# Every field on the compiled path: 3037000493 is the largest prime <= _NP_MAX_P.
TABLE_FIELDS = FIELDS[1:] + (GF(3037000493),)
KINDS = ("pure", "general", "quotient", "quotient of quotient", "extension of quotient")
QUOTIENT_KINDS = KINDS[2:]

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


def with_quotients(stages, rng):
    """The tower's algebras and a quotient of each by a random form, whose
    Hilbert function is mostly not symmetric."""
    return stages + [q for q in (quotient(alg, rng) for alg in stages) if q is not None]


@st.composite
def towers(draw, fields=FIELDS, kinds=KINDS):
    """Every algebra of one random tower, base field first."""
    field = draw(st.sampled_from(fields))
    kind = draw(st.sampled_from(kinds))
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
def test_socle_is_the_kernel_of_the_exact_generator_stack(data):
    stages, _ = data
    for alg in stages:
        gens = alg.generators()
        socle = [n - Matrix.vstack(alg.field, [alg.mult_map_matrix(g, t) for g in gens], n).rank()
                 for t, n in enumerate(alg.dims)]
        assert alg.socle_dimensions() == (socle, sum(socle) == 1)


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
@given(towers(fields=(QQ, GF(4294967291)), kinds=QUOTIENT_KINDS))
def test_quotient_products_are_projected_parent_products(data):
    # Fields whose tables are not the maps (QQ's are the maps mod q): quotient products
    # come from the generic product through the quotient's block map, held here to the
    # projected parent product.
    stages, rng = data
    for b in stages:
        if not isinstance(b, QuotientAlgebra):
            continue
        assert not b.image_is_exact and (b.field == QQ or b._tables is None)
        for s in range(min(b.sigma, 2) + 1):
            for t in range(min(b.sigma, 2) + 1):
                u, v = random_element(b, s, rng), random_element(b, t, rng)
                assert b.multiply(u, v) == b.project(b.parent.multiply(b.lift(u), b.lift(v)))


@BUDGET
@given(towers(fields=ALL_FIELDS, kinds=QUOTIENT_KINDS))
def test_projections_split_the_lifts_in_every_degree(data):
    stages, rng = data
    for b in stages:
        if not isinstance(b, QuotientAlgebra):
            continue
        assert all(t >= b.form.degree for t in b._pi)  # below the form's degree pi is the identity
        for t in range(b.sigma + 1):
            u = random_element(b, t, rng)
            assert b.project(b.lift(u)) == u
            pi, iota = indep.projection_matrix(b, t), indep.section_matrix(b, t)
            assert (pi.nrows, pi.ncols) == (b.dim(t), b.parent.dim(t))
            assert pi @ iota == indep.identity(b.field, b.dim(t))


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


def mci_caps(alg):
    """The exponents of alg when it is a tower of pure powers in x1, x2, ...
    over the field, as tests/indep.py models it, else None."""
    caps, names = [], alg.variable_names()
    while isinstance(alg, ExtensionAlgebra) and alg.relation.is_pure_power():
        caps.insert(0, alg.d)
        alg = alg.base
    pure = isinstance(alg, TrivialAlgebra) and names == tuple(f"x{n}" for n in range(1, len(caps) + 1))
    return tuple(caps) if pure else None


@BUDGET
@given(towers(fields=ALL_FIELDS))
def test_strong_check_equals_full_rank_grid(data):
    # Rows that longer powers or the row before decide are not ranked; every
    # profile still equals plain exact elimination of every map.  Coefficients
    # in -3..3, sparse forms and single basis elements also give forms that
    # fail; quotients by random forms give non-symmetric Hilbert functions.
    stages, rng = data
    for alg in with_quotients(stages, rng):
        f, n = alg.field, alg.dim(1)
        sparse = alg.element(1, [f.of(rng.choice((0, 0, 1, -1, 2))) for _ in range(n)])
        for l in [random_element(alg, 1, rng), sparse] + [basis_vector(alg, 1, b) for b in range(n)]:
            ok, profiles = is_strong_lefschetz(alg, l)
            assert profiles == exact_grid(alg, l)
            assert ok == all(p.is_maximal for p in profiles)
            caps = mci_caps(alg)
            if not caps or not isinstance(alg.field, PrimeField):
                continue
            p = alg.field.p
            exponents = [indep.label_to_exponents(label, len(caps)) for label in alg.basis_labels(1)]
            ldict = {e: int(c) % p for e, c in zip(exponents, l.coeffs) if int(c) % p}
            for profile in profiles:
                lr = indep.poly_power(caps, ldict, profile.power, p)
                for row in profile.rows:
                    assert row.rank == indep.rank_mod(indep.mult_matrix(caps, lr, profile.power, row.i, p), p)


@BUDGET
@given(towers(fields=ALL_FIELDS))
def test_maximal_rank_profiles_are_exact(data):
    stages, rng = data
    seen, profile_for_power = [], _profile_for_power

    def recording(a, w, k, r, *args):
        profile = profile_for_power(a, w, k, r, *args)
        seen.append((a, w, profile))
        return profile

    with mock.patch.object(certify, "_profile_for_power", recording):
        for alg in with_quotients(stages, rng):
            certify.maximal_rank_property(alg, trials=2, seed=rng.randint(0, 99))
    for a, w, profile in seen:
        assert profile == exact_profile(a, w, 1)


@BUDGET
@given(towers(fields=ALL_FIELDS))
def test_algebras_are_generated_in_degree_one(data):
    # The premise of deriving w onto A_(i+deg w) from w onto A_(i-1+deg w):
    # A_(t+1) is spanned by the products g*b of generators g and a basis b of A_t.
    stages, rng = data
    for alg in with_quotients(stages, rng):
        for t in range(alg.sigma):
            products = [(g * basis_vector(alg, t, b)).coeffs for g in alg.generators() for b in range(alg.dim(t))]
            assert Matrix.from_rows(alg.field, products).rank() == alg.dim(t + 1)


@BUDGET
@given(towers(fields=(QQ,)))
def test_image_maps_reduce_the_exact_maps_and_weak_checks_are_exact(data):
    # Every image map mod q, read off the algebra's own tables, is the reduction
    # of the exact map, and the weak check over QQ, which asks the image first,
    # gives the exact ranks.
    stages, rng = data
    mod_q = GF(IMAGE_PRIME)
    for alg in stages:
        for s in range(min(alg.sigma, 2) + 1):
            w = random_element(alg, s, rng)
            for i in range(alg.sigma - s + 1):
                exact = alg.mult_map_matrix(w, i).rows
                assert alg.image_map(w, i).tolist() == [list(map(mod_q.of, row)) for row in exact]
        l = random_element(alg, 1, rng)
        ok, profile = is_lefschetz(alg, l)
        exact = [alg.mult_map_matrix(l, i).rank() for i in range(alg.sigma + 1)]
        assert [row.rank for row in profile.rows] == exact
        assert ok == all(row.rank == min(row.dim_source, row.dim_target) for row in profile.rows)


@BUDGET
@given(towers())
def test_monic_evaluation_is_the_polynomial_value(data):
    stages, rng = data
    for alg in stages:
        for pure in (True, False):
            d = rng.randint(1, 4)
            f = MonicPoly.pure_power(alg, d) if pure else MonicPoly(
                alg, d, [random_element(alg, i, rng) for i in range(1, d + 1)])
            l = random_element(alg, 1, rng)
            value = l**d
            for i, ai in enumerate(f.lower, start=1):
                value = value + ai * l ** (d - i)
            assert f.evaluate(l) == value


@st.composite
def small_exponents(draw):
    """Exponent tuples of 1 to 4 entries with product at most 60."""
    caps = [draw(st.integers(1, 60))]
    while len(caps) < 4 and 2 * math.prod(caps) <= 60 and draw(st.booleans()):
        caps.append(draw(st.integers(1, 60 // math.prod(caps))))
    return tuple(caps)


@BUDGET
@given(st.sampled_from(FIELDS[1:]), small_exponents(), st.integers(0, 2**32))
def test_hilbert_function_and_socle_match_independent_model(field, caps, seed):
    rng = random.Random(seed)
    alg = monomial_complete_intersection(field, caps)
    sigma, p = sum(caps) - len(caps), field.p
    assert alg.hilbert_function() == [len(indep.monomials_of_degree(caps, t)) for t in range(sigma + 1)]
    for t in range(sigma + 1):
        labels = alg.basis_labels(t)
        exponents = sorted(indep.label_to_exponents(label, len(caps)) for label in labels)
        assert exponents == indep.monomials_of_degree(caps, t)
    assert alg.socle_dimensions() == ([0] * sigma + [1], True)
    if sigma == 0:
        return
    d = rng.randint(1, sigma)
    g = nonzero_element(alg, d, rng)
    gdict = {indep.label_to_exponents(label, len(caps)): c
             for label, c in zip(alg.basis_labels(d), g.coeffs) if c}
    quotient = alg.quotient(g)
    for t in range(sigma + 1):
        image = indep.rank_mod(indep.mult_matrix(caps, gdict, d, t - d, p), p)
        assert quotient.dim(t) == alg.dim(t) - image


def block_map(alg, w, i):
    """The defining block map of w from degree i, over all of A_i."""
    return tuple(alg._map(w, i, range(alg.dim(i))))


@BUDGET
@given(towers(TABLE_FIELDS))
def test_compiled_tables_equal_the_block_map(data):
    stages, rng = data
    for alg in stages:
        tables, _ = alg._tables
        assert len(tables) == len(alg.generators())
        for g, table in zip(alg.generators(), tables):
            assert [tuple(map(tuple, table[t].tolist())) for t in range(alg.sigma + 1)] == [
                block_map(alg, g, t) for t in range(alg.sigma + 1)
            ]
        for s in range(alg.sigma + 1):
            w = random_element(alg, s, rng)
            # Shuffled degrees: the kept chain is extended and read back out of order.
            for i in rng.sample(range(alg.sigma + 1), alg.sigma + 1):
                m = alg.mult_map_matrix(w, i)
                assert m.rows == block_map(alg, w, i)
                assert all(type(x) is int for row in m.rows for x in row)
        for _ in range(3):
            u, v = (random_element(alg, rng.randint(0, alg.sigma), rng) for _ in range(2))
            product = u * v
            assert all(type(x) is int for x in product.coeffs)
            if product.degree <= alg.sigma:
                rows = block_map(alg, u, v.degree)
                assert product.coeffs == Matrix(alg.field, len(rows), alg.dim(v.degree), rows).mul_vec(v.coeffs)


def test_quotient_chains_past_the_form_degree():
    # Chains of forms of degree >= 2 read factor tables that a nontrivial
    # projection pi_{i-1} has rewritten; few random towers reach them.
    rng = random.Random(3)
    for field in TABLE_FIELDS:
        b = monomial_complete_intersection(field, (4, 4, 4))
        b = b.quotient(nonzero_element(b, 2, rng))
        for alg in (b, b.quotient(nonzero_element(b, 1, rng)), extend(b, "y", 2, rng, pure=False)):
            for s in range(2, alg.sigma + 1):
                w = random_element(alg, s, rng)
                for i in range(alg.sigma + 1 - s):
                    assert alg.mult_map_matrix(w, i).rows == block_map(alg, w, i)


def test_block_map_path_above_the_numpy_bound():
    # GF(4294967291) is above _NP_MAX_P: maps and products come from _map,
    # and no table is built.
    rng = random.Random(7)
    field = GF(4294967291)
    a = monomial_complete_intersection(field, (2, 3))
    b = extend(a, "y", 2, rng, pure=False)
    c = b.quotient(nonzero_element(b, 2, rng))
    for alg in (a, b, c):
        for s in range(alg.sigma + 1):
            w = nonzero_element(alg, s, rng)
            for i in range(alg.sigma + 1 - s):
                assert alg.mult_map_matrix(w, i).rows == block_map(alg, w, i)
                e = basis_vector(alg, i, 0)
                assert (w * e).coeffs == tuple(row[0] for row in block_map(alg, w, i))
        assert alg._tables is None
