from pathlib import Path

import pytest

from lefschetz.algebra import ExtensionAlgebra, GradedAlgebra
from lefschetz.fields import GF, QQ
from lefschetz.specfile import MAX_MULTIPLICITY, MAX_SOCLE_DEGREE, AlgebraSpec, SpecError, _element_from_terms, parse_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"

STANLEY22 = """field rational
extend x : x^2
extend y : y^2
"""

COUNTEREXAMPLE = """field prime 32003
extend x1 : x1^4
extend x2 : x2^4
extend x3 : x3^4
extend x4 : x4^4
extend x5 : x5^2
quotient random degree=8 seed=1
"""


class TestParsing:
    def test_stanley_two_variables(self):
        spec = parse_spec(STANLEY22)
        assert spec.field == QQ
        algebra = spec.build()
        assert algebra.hilbert_function() == [1, 2, 1]

    def test_counterexample_spec(self):
        spec = parse_spec(COUNTEREXAMPLE)
        assert spec.field == GF(32003)
        algebra = spec.build()
        assert algebra.hilbert_function() == [1, 5, 14, 30, 51, 71, 84, 84, 70, 46, 16]

    def test_comments_and_blank_lines(self):
        spec = parse_spec("# a comment\n\nfield rational\nextend x : x^3\n")
        assert spec.build().hilbert_function() == [1, 1, 1]

    def test_coefficients_and_products(self):
        spec = parse_spec(
            "field rational\nextend u : u^4\nextend y : y^2 + 2*u*y + 3*u^2\n"
        )
        algebra = spec.build()
        assert algebra.hilbert_function() == [1, 2, 2, 2, 1]

    def test_quotient_form(self):
        spec = parse_spec("field rational\nextend x : x^2\nextend y : y^2\nquotient : x*y\n")
        assert spec.build().hilbert_function() == [1, 2]

    def test_random_quotient_deterministic(self):
        first = parse_spec(COUNTEREXAMPLE).build()
        second = parse_spec(COUNTEREXAMPLE).build()
        assert first.hilbert_function() == second.hilbert_function()
        assert first.fingerprint() == second.fingerprint()


def read_form(monkeypatch, spec, terms):
    """The quotient form with the given terms over the spec's tower, and the
    (degree, degree) of each ExtensionAlgebra product made while it is read."""
    tower, calls = AlgebraSpec(spec.field, spec.steps[:-1]).build(), []

    def counting(self, u, v):
        calls.append((u.degree, v.degree))
        return GradedAlgebra.multiply(self, u, v)

    with monkeypatch.context() as patch:
        patch.setattr(ExtensionAlgebra, "multiply", counting)
        return _element_from_terms(tower, terms, spec.steps[-1].line), calls


class TestFormReading:
    def test_basis_monomials_are_read_without_products(self, monkeypatch):
        # The form is read in the tower, an ExtensionAlgebra: its 71 basis
        # monomials are coordinates, and only the three monomials outside the
        # basis are multiplied out, by 8 prefix products each (none is shared).
        spec = parse_spec((SPECS / "form512.spec").read_text())
        terms = spec.steps[-1].terms
        caps = {f"x{i}": a for i, a in enumerate((4, 4, 4, 4, 2), start=1)}
        inside = tuple(t for t in terms if all(e < caps[v] for v, e in t[1]))
        assert len(inside) == 71 and len(terms) == 74
        basis_form, calls = read_form(monkeypatch, spec, inside)
        assert calls == []
        form, calls = read_form(monkeypatch, spec, terms)
        assert form.coeffs == basis_form.coeffs  # the three others are zero
        assert len(calls) == 24

    def test_basis_monomials_are_matched_in_adjunction_order(self, monkeypatch):
        # x10 sorts before x2, but the basis label is x2^2*x10.
        spec = parse_spec("field rational\nextend x2 : x2^3\nextend x10 : x10^3 + x2*x10^2\n"
                          "quotient : x10*x2^2 - 2*x10^2*x2\n")
        form, calls = read_form(monkeypatch, spec, spec.steps[-1].terms)
        assert calls == []
        assert str(form) == "x2^2*x10 + -2*x2*x10^2"


class TestParseErrors:
    def test_unknown_variable_with_line(self):
        with pytest.raises(SpecError) as err:
            parse_spec("field rational\nextend x : x^2 + y\n")
        assert err.value.line == 2

    def test_inhomogeneous(self):
        with pytest.raises(SpecError) as err:
            parse_spec("field rational\nextend x : x^2 + x\n")
        assert "homogeneous" in str(err.value)

    def test_not_monic(self):
        with pytest.raises(SpecError):
            parse_spec("field rational\nextend x : 2*x^2\n")

    def test_bad_prime(self):
        with pytest.raises(SpecError) as err:
            parse_spec("field prime 32004\nextend x : x^2\n")
        assert err.value.line == 1

    def test_missing_field(self):
        with pytest.raises(SpecError):
            parse_spec("extend x : x^2\n")

    def test_unknown_directive(self):
        with pytest.raises(SpecError) as err:
            parse_spec("field rational\nfrobnicate\n")
        assert err.value.line == 2

    def test_multiplicity_above_the_cap(self):
        # The caps are checked as the relations are read, before any algebra is built.
        for text, line, message in (
            ("field rational\nextend x : x^4097\n", 2, "multiplicity 4097 exceeds the cap of 4096"),
            ("field prime 7\nextend x : x^64\n# 64 * 65 = 4160\nextend y : y^65 + x*y^64\n", 4,
             "multiplicity 4160 exceeds the cap of 4096"),
            ("field rational\nextend x : x^514\n", 2, "socle degree 513 exceeds the cap of 512"),
            ("field rational\nextend x : x^513\nextend y : y^2\n", 3, "socle degree 513 exceeds the cap of 512"),
        ):
            with pytest.raises(SpecError) as err:
                parse_spec(text)
            assert err.value.line == line and message in str(err.value)

    def test_multiplicity_at_the_cap_parses(self):
        assert (MAX_MULTIPLICITY, MAX_SOCLE_DEGREE) == (2**12, 2**9)
        for text in (
            "field rational\nextend x : x^64\nextend y : y^64\n",
            "field rational\nextend x : x^513\n",
            "field rational\nextend x : x^512\nextend y : y^2\n",
        ):
            assert len(parse_spec(text).steps) == text.count("extend")

    def test_integers_past_the_digit_limit(self):
        # int() refuses more than 4300 digits with a plain ValueError.
        digits = "1" * 5000
        for text, line in (
            (f"field rational\nextend x : x^{digits}\n", 2),
            (f"field rational\nextend x : x^2\n\nquotient : {digits}*x\n", 4),
            (f"field rational\nextend x : x^2\nquotient random degree=1 seed={digits}\n", 3),
        ):
            with pytest.raises(SpecError) as err:
                parse_spec(text)
            assert err.value.line == line and "integer of more than 4300 digits" in str(err.value)

    def test_superscript_digit_is_a_bad_factor(self):
        # '²'.isdigit() holds but int('²') raises a plain ValueError.
        with pytest.raises(SpecError) as err:
            parse_spec("field rational\nextend x : x^2\nquotient : ²*x^2\n")
        assert err.value.line == 3 and "bad factor '²'" in str(err.value)

    def test_zero_quotient_form(self):
        with pytest.raises(SpecError):
            parse_spec("field rational\nextend x : x^2\nquotient : x - x\n")

    def test_algebra_zero_quotient_detected_at_build(self):
        spec = parse_spec("field rational\nextend x : x^2\nquotient : x^2\n")
        with pytest.raises(SpecError):
            spec.build()

    def test_duplicate_variable(self):
        with pytest.raises(SpecError):
            parse_spec("field rational\nextend x : x^2\nextend x : x^3\n")


class TestRoundTrip:
    def test_canonical_fingerprint_stable(self):
        for text in (STANLEY22, COUNTEREXAMPLE):
            spec = parse_spec(text)
            reparsed = parse_spec(spec.canonical_text())
            assert reparsed.fingerprint() == spec.fingerprint()
            assert reparsed.canonical_text() == spec.canonical_text()

    def test_term_order_irrelevant(self):
        a = parse_spec("field rational\nextend u : u^2\nextend y : y^2 + u*y\n")
        b = parse_spec("field rational\nextend u : u^2\nextend y : u*y + y^2\n")
        assert a.fingerprint() == b.fingerprint()

    def test_like_terms_combined(self):
        a = parse_spec("field rational\nextend u : u^2\nextend y : y^2 + u*y + u*y\n")
        b = parse_spec("field rational\nextend u : u^2\nextend y : y^2 + 2*u*y\n")
        assert a.fingerprint() == b.fingerprint()

    def test_zero_exponent_is_one(self):
        # x^0*y is the monomial y: same canonical text and fingerprint, and the
        # canonical text parses again (it once rendered x^0 as x).
        base = "field rational\nextend x : x^2\nextend y : y^2\n"
        a = parse_spec(base + "quotient : x^0*y + x\n")
        b = parse_spec(base + "quotient : y + x\n")
        assert a.canonical_text() == b.canonical_text()
        assert a.fingerprint() == b.fingerprint()
        assert parse_spec(a.canonical_text()).fingerprint() == a.fingerprint()
        assert a.build().dims == b.build().dims
