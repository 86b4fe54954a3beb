"""Line-oriented algebra description files.

Grammar (one directive per line; blank lines and `#` comments are ignored):

    field rational
    field prime <p>
    extend <var> : <monic polynomial>
    quotient : <polynomial>
    quotient random degree=<d> seed=<s>

Polynomials use integer coefficients, `*` products, `^` powers and `+`/`-`;
no parentheses.  Every extension relation must be monic in its new variable
with homogeneous lower terms; quotient forms must be homogeneous in the
variables already introduced.  A form is read in the algebra built so far: a
basis monomial of it is read as its coordinate, and any other monomial is
multiplied out from the generators.  The constructed algebra is a pure
function of the file: random quotient forms carry their own seeds.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union

from .algebra import GradedAlgebra, HomogeneousElement, MonicPoly, monomial_label, trivial_algebra
from .fields import GF, QQ, Field

Term = tuple[int, tuple[tuple[str, int], ...]]  # (coefficient, sorted ((var, exp), ...))


class SpecError(ValueError):
    """Parse or build failure, carrying the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")
_RANDOM_RE = re.compile(r"^random\s+degree=(\d+)\s+seed=(-?\d+)$")


def _parse_polynomial(text: str, line: int, known: set[str]) -> list[Term]:
    """Parse into combined, canonically sorted terms; validates variables."""
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise SpecError(line, "empty polynomial")
    if compact[0] not in "+-":
        compact = "+" + compact
    chunks = re.findall(r"[+-][^+-]+", compact)
    if "".join(chunks) != compact:
        raise SpecError(line, f"cannot parse polynomial {text!r}")
    acc: dict[tuple[tuple[str, int], ...], int] = {}
    for chunk in chunks:
        sign = -1 if chunk[0] == "-" else 1
        body = chunk[1:]
        if not body:
            raise SpecError(line, "dangling sign in polynomial")
        coeff = sign
        exps: dict[str, int] = {}
        for factor in body.split("*"):
            if not factor:
                raise SpecError(line, "empty factor (doubled '*'?)")
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise SpecError(line, f"bad factor {factor!r}")
            var, exp = m.group(1), int(m.group(2) or 1)
            if var not in known:
                raise SpecError(line, f"unknown variable {var!r}")
            exps[var] = exps.get(var, 0) + exp
        key = tuple(sorted((v, e) for v, e in exps.items() if e))  # x^0 is 1
        acc[key] = acc.get(key, 0) + coeff
    return [(acc[key], key) for key in sorted(acc) if acc[key] != 0]


def _term_degree(term: Term) -> int:
    return sum(e for _, e in term[1])


def _render_term(term: Term) -> str:
    coeff, exps = term
    factors = [f"{v}^{e}" if e > 1 else v for v, e in exps]
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    if coeff == -1:
        return "-" + "*".join(factors)
    return "*".join([str(coeff)] + factors)


def _render_polynomial(terms: list[Term]) -> str:
    if not terms:
        return "0"
    out = _render_term(terms[0])
    for term in terms[1:]:
        rendered = _render_term(term)
        if rendered.startswith("-"):
            out += " - " + rendered[1:]
        else:
            out += " + " + rendered
    return out


@dataclass(frozen=True)
class ExtendStep:
    var: str
    terms: tuple[Term, ...]
    line: int

    def render(self) -> str:
        return f"extend {self.var} : {_render_polynomial(list(self.terms))}"


@dataclass(frozen=True)
class QuotientFormStep:
    terms: tuple[Term, ...]
    line: int

    def render(self) -> str:
        return f"quotient : {_render_polynomial(list(self.terms))}"


@dataclass(frozen=True)
class QuotientRandomStep:
    degree: int
    seed: int
    line: int

    def render(self) -> str:
        return f"quotient random degree={self.degree} seed={self.seed}"


Step = Union[ExtendStep, QuotientFormStep, QuotientRandomStep]


@dataclass
class AlgebraSpec:
    field: Field
    steps: list[Step]

    def canonical_text(self) -> str:
        if self.field is QQ or self.field.kind == "rationals":
            lines = ["field rational"]
        else:
            lines = [f"field prime {self.field.char}"]
        lines.extend(step.render() for step in self.steps)
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def build(self) -> GradedAlgebra:
        algebra: GradedAlgebra = trivial_algebra(self.field)
        for step in self.steps:
            if isinstance(step, ExtendStep):
                algebra = algebra.extend(step.var, _monic_from_terms(algebra, step))
            elif isinstance(step, QuotientFormStep):
                form = _element_from_terms(algebra, step.terms, step.line)
                if form.is_zero():
                    raise SpecError(step.line, "quotient form is zero in the algebra")
                algebra = algebra.quotient(form)
            else:
                if algebra.dim(step.degree) == 0:
                    raise SpecError(step.line, f"no nonzero forms of degree {step.degree}")
                rng = random.Random(step.seed)
                form = algebra.random_element(step.degree, rng)
                if form.is_zero():
                    raise SpecError(step.line, "random form came out zero; change the seed")
                algebra = algebra.quotient(form)
        return algebra


def parse_spec(text: str) -> AlgebraSpec:
    field: Optional[Field] = None
    field_seen = False
    steps: list[Step] = []
    known: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("field"):
            if field_seen:
                raise SpecError(line_no, "duplicate field declaration")
            rest = line[len("field"):].strip()
            if rest == "rational":
                field = QQ
            elif rest.startswith("prime"):
                spec = rest[len("prime"):].strip()
                if not spec.isdigit():
                    raise SpecError(line_no, f"bad prime {spec!r}")
                try:
                    field = GF(int(spec))
                except ValueError as exc:
                    raise SpecError(line_no, str(exc)) from None
            else:
                raise SpecError(line_no, f"unknown field {rest!r}")
            field_seen = True
            continue
        if field is None:
            raise SpecError(line_no, "field declaration must come first")
        if line.startswith("extend"):
            rest = line[len("extend"):].strip()
            if ":" not in rest:
                raise SpecError(line_no, "expected `extend <var> : <polynomial>`")
            var, poly_text = (part.strip() for part in rest.split(":", 1))
            if not _VAR_RE.match(var):
                raise SpecError(line_no, f"bad variable name {var!r}")
            if var in known:
                raise SpecError(line_no, f"variable {var!r} already introduced")
            terms = _parse_polynomial(poly_text, line_no, known | {var})
            _validate_extension(terms, var, line_no)
            steps.append(ExtendStep(var, tuple(terms), line_no))
            known.add(var)
            continue
        if line.startswith("quotient"):
            rest = line[len("quotient"):].strip()
            m = _RANDOM_RE.match(rest)
            if m:
                degree, seed = int(m.group(1)), int(m.group(2))
                if degree < 1:
                    raise SpecError(line_no, "quotient degree must be >= 1")
                steps.append(QuotientRandomStep(degree, seed, line_no))
                continue
            if not rest.startswith(":"):
                raise SpecError(line_no, "expected `quotient : <polynomial>` or `quotient random degree=<d> seed=<s>`")
            terms = _parse_polynomial(rest[1:].strip(), line_no, known)
            if not terms:
                raise SpecError(line_no, "quotient form is zero")
            degrees = {_term_degree(t) for t in terms}
            if len(degrees) != 1:
                raise SpecError(line_no, f"quotient form is not homogeneous (degrees {sorted(degrees)})")
            if degrees == {0}:
                raise SpecError(line_no, "quotient form must have degree >= 1")
            steps.append(QuotientFormStep(tuple(terms), line_no))
            continue
        raise SpecError(line_no, f"unknown directive {line.split()[0]!r}")
    if field is None:
        raise SpecError(1, "missing field declaration")
    return AlgebraSpec(field, steps)


def _validate_extension(terms: list[Term], var: str, line: int) -> None:
    if not terms:
        raise SpecError(line, "empty extension relation")
    degrees = {_term_degree(t) for t in terms}
    if len(degrees) != 1:
        raise SpecError(line, f"relation is not homogeneous (degrees {sorted(degrees)})")
    d = degrees.pop()
    if d < 1:
        raise SpecError(line, "relation must have degree >= 1")
    leading = [(c, exps) for c, exps in terms if dict(exps).get(var, 0) == d]
    if not leading:
        raise SpecError(line, f"relation is not monic in {var}: no {var}^{d} term")
    if len(leading) > 1 or leading[0][1] != ((var, d),) or leading[0][0] != 1:
        raise SpecError(line, f"relation is not monic in {var}: leading term must be {var}^{d} with coefficient 1")
    for _, exps in terms:
        if dict(exps).get(var, 0) > d:
            raise SpecError(line, f"term exceeds {var}^{d}")


def _element_from_terms(algebra: GradedAlgebra, terms: tuple[Term, ...], line: int) -> HomogeneousElement:
    """The form sum c*m.  A monomial whose label, in adjunction order, is a
    basis label of its degree is that basis element.  The others share their
    prefixes: each is its prefix one variable shorter times that variable."""
    degree = _term_degree(terms[0])
    if degree > algebra.sigma:
        raise SpecError(line, f"degree {degree} exceeds the socle degree {algebra.sigma}")
    f, names = algebra.field, algebra.variable_names()
    basis = {label: c for c, label in enumerate(algebra.basis_labels(degree))}
    gens = dict(zip(names, algebra.generators()))
    coeffs, monomials, out = [f.zero] * algebra.dim(degree), {(): algebra.one()}, algebra.zero(degree)
    for coeff, exps in terms:
        powers = dict(exps)
        c = basis.get(reduce(lambda label, v: monomial_label(label, v, powers.get(v, 0)), names, "1"))
        if c is not None:
            coeffs[c] = f.add(coeffs[c], f.of(coeff))
            continue
        word = tuple(var for var, e in exps for _ in range(e))
        for k in range(1, len(word) + 1):
            if word[:k] not in monomials:
                monomials[word[:k]] = algebra.multiply(monomials[word[:k - 1]], gens[word[k - 1]])
        out = out + monomials[word].scale(f.of(coeff))
    return out + HomogeneousElement(algebra, degree, tuple(coeffs))


def _monic_from_terms(algebra: GradedAlgebra, step: ExtendStep) -> MonicPoly:
    d = _term_degree(step.terms[0])
    buckets: dict[int, list[Term]] = {}
    for coeff, exps in step.terms:
        exp_map = dict(exps)
        var_exp = exp_map.pop(step.var, 0)
        if var_exp == d:
            continue  # the leading term
        buckets.setdefault(d - var_exp, []).append((coeff, tuple(sorted(exp_map.items()))))
    lower = []
    for i in range(1, d + 1):
        terms = buckets.get(i)
        if not terms:
            lower.append(algebra.zero(i))
            continue
        if algebra.dim(i) == 0:
            raise SpecError(step.line, f"coefficient of degree {i} cannot be nonzero (component vanishes)")
        lower.append(_element_from_terms(algebra, tuple(terms), step.line))
    return MonicPoly(algebra, d, lower)
