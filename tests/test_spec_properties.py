"""Property tests of the forms a spec file describes: quotient forms and the
lower terms of extension relations must equal the sum of c times the product
of the generators, over QQ, GF(7), GF(32003) and GF(4294967291).  The random
specs have general monic relations (d = 1 included), monomials at or above a
relation's degree, labels that an earlier quotient does not keep and x^0
factors; their variable names sort differently from the adjunction order."""

import random

from hypothesis import given, settings, strategies as st

from lefschetz.algebra import QuotientAlgebra
from lefschetz.fields import GF, QQ
from lefschetz.specfile import SpecError, parse_spec

import indep

FIELDS = (QQ, GF(7), GF(32003), GF(4294967291))
NAMES = ("x2", "x10", "b", "a")  # x10 sorts before x2, a before b

BUDGET = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def field_line(field):
    return "field rational" if field is QQ else f"field prime {field.p}"


def monomial_text(names, t, rng, x0=True):
    """A random monomial of degree t: a pure power or a spread, maybe with an x^0 factor."""
    exps = dict.fromkeys(names, 0)
    if rng.random() < 0.3:
        exps[rng.choice(names)] = t
    else:
        for _ in range(t):
            exps[rng.choice(names)] += 1
    factors = [v if e == 1 else f"{v}^{e}" for v, e in exps.items() if e]
    if x0 and rng.random() < 0.3:
        factors.append(f"{rng.choice(names)}^0")
    rng.shuffle(factors)
    return "*".join(factors) or "1"


def polynomial_text(monomials, rng):
    return "".join(f" {rng.choice('+-')} {rng.choice([1, 2, 3, 5])}*{m}" for m in monomials)


def product_of_generators(alg, terms):
    """sum c * prod g^e, one generator product at a time."""
    out = alg.zero(sum(e for _, e in terms[0][1]))
    for c, exps in terms:
        m = alg.one()
        for v, e in exps:
            for _ in range(e):
                m = alg.multiply(m, alg.generator(v))
        out = out + m.scale(alg.field.of(c))
    return out


def parse_terms(text, names):
    """The terms of a polynomial over names, as the spec reader parses them."""
    header = "field rational\n" + "".join(f"extend {v} : {v}\n" for v in names)
    return parse_spec(header + f"quotient : {text}\n").steps[-1].terms


@st.composite
def spec_plans(draw):
    """A field, the kinds of a random tower's steps and a random source."""
    field = draw(st.sampled_from(FIELDS))
    plan = ["extend"] + draw(st.lists(st.sampled_from(["extend", "quotient", "quotient"]), min_size=1, max_size=5))
    return field, plan, random.Random(draw(st.integers(0, 2**32)))


def relation_text(var, names, alg, rng):
    """A monic relation var^d + sum a_i var^{d-i}, d = 1..3, with a_i of degree i
    in the earlier variables; var^0 factors where i = d."""
    d = rng.randint(1, 3)
    lower = [f"{monomial_text(names, i, rng)}*{var}^{d - i}"
             for i in range(1, min(d, alg.sigma) + 1) if names and rng.random() < 0.7
             for _ in range(rng.randint(1, 3))]
    return f"{var}^{d}" + polynomial_text(lower, rng)


@BUDGET
@given(spec_plans())
def test_spec_forms_are_products_of_generators(data):
    field, plan, rng = data
    names, lines = [], [field_line(field)]
    alg = parse_spec(lines[0]).build()
    for kind in plan:
        if kind == "extend" and len(names) < len(NAMES):
            var = NAMES[len(names)]
            line = f"extend {var} : {relation_text(var, names, alg, rng)}"
            spec = parse_spec("\n".join(lines + [line]))
            b, (step,) = spec.build(), spec.steps[-1:]
            d = b.relation.d
            for i, ai in enumerate(b.relation.lower, start=1):
                bucket = [(c, tuple((v, e) for v, e in exps if v != var))
                          for c, exps in step.terms if dict(exps).get(var, 0) == d - i]
                assert ai == (product_of_generators(b.base, bucket) if bucket else b.base.zero(i))
            names.append(var)
        elif kind == "quotient" and alg.sigma >= 1:
            t = rng.randint(1, min(alg.sigma, 4))
            # Basis labels of a quotient's parent include those the quotient drops.
            labels = (alg.parent if isinstance(alg, QuotientAlgebra) else alg).basis_labels(t)
            monomials = [rng.choice(labels) if rng.random() < 0.4 else monomial_text(names, t, rng)
                         for _ in range(rng.randint(1, 6))]
            line = "quotient :" + polynomial_text(monomials, rng)
            try:
                spec = parse_spec("\n".join(lines + [line]))
            except SpecError as exc:
                assert "quotient form is zero" in str(exc)  # the terms cancelled
                continue
            terms = spec.steps[-1].terms
            try:
                b = spec.build()
            except SpecError as exc:
                assert "quotient form is zero in the algebra" in str(exc)
                assert product_of_generators(alg, terms).is_zero()
                continue
            assert b.form == product_of_generators(b.parent, terms)
        else:
            continue
        lines.append(line)
        alg = b


@BUDGET
@given(
    st.sampled_from(FIELDS),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(0, 2**32),
)
def test_spec_forms_of_monomial_complete_intersections_match_independent_model(field, caps, seed):
    rng = random.Random(seed)
    sigma = sum(caps) - len(caps)
    if sigma == 0:
        return
    names = [f"x{n}" for n in range(1, len(caps) + 1)]
    t = rng.randint(1, sigma)
    form = polynomial_text([monomial_text(names, t, rng, x0=False) for _ in range(rng.randint(1, 8))], rng)
    header = field_line(field) + "\n" + "".join(f"extend {v} : {v}^{a}\n" for v, a in zip(names, caps))
    p = getattr(field, "p", 2**31 - 1)
    theirs = {}
    try:
        terms = parse_terms(form, names)
    except SpecError:  # the terms cancelled
        return
    for c, exps in terms:
        e = dict(exps)
        monomial = {tuple(e.get(v, 0) for v in names): c % p}
        for key, value in indep.poly_mul(tuple(caps), {(0,) * len(caps): 1}, monomial, p).items():
            theirs[key] = (theirs.get(key, 0) + value) % p
    theirs = {key: value for key, value in theirs.items() if value}
    try:
        b = parse_spec(header + f"quotient : {form}\n").build()
    except SpecError as exc:
        assert not theirs
        assert "quotient form is zero in the algebra" in str(exc)
        return
    labels = b.parent.basis_labels(t)
    ours = {indep.label_to_exponents(label, len(caps)): int(c) % p for label, c in zip(labels, b.form.coeffs)}
    assert {key: value for key, value in ours.items() if value} == theirs
