import random
from fractions import Fraction
from pathlib import Path

import pytest

from lefschetz import certify
from lefschetz.algebra import (
    IMAGE_PRIME,
    ExtensionAlgebra,
    GradedAlgebra,
    MonicPoly,
    QuotientAlgebra,
    TrivialAlgebra,
    monomial_complete_intersection,
)
from lefschetz.certify import (
    ProfileRow,
    RankProfile,
    Verdict,
    certify_element,
    is_lefschetz,
    is_strong_lefschetz,
    maximal_rank_property,
    rank_profile,
    search_strong,
    search_weak,
)
from lefschetz.fields import GF, QQ, PrimeField
from lefschetz.linalg import rank_of
from lefschetz.theorems import certified_slp_disproof
from lefschetz.sweeps import counterexample_base, generic_form_quotient, HILBERT_GENERIC_QUOTIENT
from test_algebra import exact_socle


def stanley22(field=QQ):
    return monomial_complete_intersection(field, (2, 2))


class TestRankProfile:
    def test_square_power_over_rationals(self):
        a = stanley22()
        x, y = a.generators()
        profile = rank_profile(a, x + y, 2)
        row0 = profile.rows[0]
        assert (row0.dim_source, row0.dim_target, row0.rank) == (1, 1, 1)
        assert profile.is_maximal

    def test_square_power_char_two(self):
        a = stanley22(GF(2))
        x, y = a.generators()
        profile = rank_profile(a, x + y, 2)
        row0 = profile.rows[0]
        assert row0.rank == 0 and not row0.is_maximal

    def test_zero_element(self):
        a = stanley22()
        profile = rank_profile(a, a.zero(1), 1)
        for row in profile.rows:
            assert row.rank == 0
            assert row.is_maximal == (min(row.dim_source, row.dim_target) == 0)

    def test_power_must_be_positive(self):
        a = stanley22()
        with pytest.raises(ValueError):
            rank_profile(a, a.generators()[0], 0)


class TestLefschetz:
    def test_one_variable_powers(self):
        a = monomial_complete_intersection(QQ, (5,))
        x = a.generators()[0]
        ok, _ = is_lefschetz(a, x)
        assert ok

    def test_single_generator_is_weak_lefschetz(self):
        # x: A_0 -> A_1 has rank 1 = min(1,2); x: A_1 -> A_2 rank 1 = min(2,1)
        a = stanley22()
        x, _ = a.generators()
        ok, profile = is_lefschetz(a, x)
        assert ok and profile.is_maximal

    def test_single_generator_fails_strong_at_square(self):
        a = stanley22()
        x, _ = a.generators()
        ok, profiles = is_strong_lefschetz(a, x)
        assert not ok
        failing = profiles[1]  # r = 2: x^2 = 0 but dims (1, 1) demand rank 1
        assert failing.power == 2
        assert failing.rows[0].rank == 0 and not failing.rows[0].is_maximal

    def test_strong_one_variable(self):
        for n in range(2, 21):
            a = monomial_complete_intersection(QQ, (n,))
            ok, _ = is_strong_lefschetz(a, a.generators()[0])
            assert ok

    def test_strong_sum_of_generators(self):
        a = stanley22()
        x, y = a.generators()
        ok, _ = is_strong_lefschetz(a, x + y)
        assert ok

    def test_strong_fails_char_two(self):
        a = stanley22(GF(2))
        x, y = a.generators()
        ok, profiles = is_strong_lefschetz(a, x + y)
        assert not ok
        assert not profiles[1].is_maximal  # fails at r = 2

    def test_strong_fails_at_the_middle_map(self):
        # B = QQ[x]/(x^3)[y]/(y^2 + x*y), H = 1 2 2 1: y^3 = x^2*y spans B_3,
        # but y: B_1 -> B_2 sends x and y to xy and -xy.
        a = monomial_complete_intersection(QQ, (3,))
        x = a.generators()[0]
        b = a.extend("y", MonicPoly(a, 2, [x, a.zero(2)]))
        y = b.generator("y")
        ok, profiles = is_strong_lefschetz(b, y)
        assert not (y**3).is_zero()
        assert not ok
        assert [(p.power, p.first_failure()) for p in profiles] == [
            (1, ProfileRow(1, 2, 2, 1, False)), (2, None), (3, None)
        ]

    def test_strong_success_ranks_only_the_central_maps(self, monkeypatch):
        # GF(4294967291) has no tables and so no image: a success builds the
        # central maps of positive power and nothing else, not the identity l^0
        # on A_4.  Over QQ the central maps are ranked on the image mod q, and a
        # success builds no exact map and no power.
        built, products = [], []
        build, multiply = ExtensionAlgebra.mult_map_matrix, ExtensionAlgebra.multiply

        def counting_build(self, w, i):
            built.append((self.field, w.degree, i))
            return build(self, w, i)

        def counting_multiply(self, u, v):
            products.append(self.field)
            return multiply(self, u, v)

        monkeypatch.setattr(ExtensionAlgebra, "mult_map_matrix", counting_build)
        monkeypatch.setattr(ExtensionAlgebra, "multiply", counting_multiply)
        big = GF(4294967291)
        for field in (big, QQ):
            a = monomial_complete_intersection(field, (3, 4, 4))  # sigma = 8
            x, y, z = a.generators()
            ok, profiles = is_strong_lefschetz(a, x + y.scale(field.of(2)) + z.scale(field.of(3)))
            assert ok
            assert all(row.rank == min(row.dim_source, row.dim_target) for p in profiles for row in p.rows)
        assert built == [(big, 8 - 2 * i, i) for i in range(4)]
        assert QQ not in products

    def test_strong_fallback_reuses_the_central_ranks(self, monkeypatch):
        # The example above: l^3 on A_0 is bijective, l on A_1 is not, and they
        # decide the other 4 maps of the grid.  After the central C_1 = l on A_1,
        # two maps are ranked on the image mod q: l^3 on A_0, full, and l on
        # A_1, deficient.  Only l on A_1 is then built exactly.
        a = monomial_complete_intersection(QQ, (3,))
        b = a.extend("y", MonicPoly(a, 2, [a.generators()[0], a.zero(2)]))
        built, ranked = [], []
        original, rank_of = type(b).mult_map_matrix, certify.rank_of

        def counting(self, w, i):
            built.append((self.field, w.degree, i))
            return original(self, w, i)

        def counting_rank(image, q, exact, bound):
            ranked.append((image.shape, bound, exact is not None))
            return rank_of(image, q, exact, bound)

        monkeypatch.setattr(type(b), "mult_map_matrix", counting)
        monkeypatch.setattr(certify, "rank_of", counting_rank)
        ok, _ = is_strong_lefschetz(b, b.generator("y"))
        assert not ok and built == [(QQ, 1, 1)]
        assert ranked == [((2, 2), 2, False), ((1, 1), 1, True), ((2, 2), 2, True)]

    def test_over_gf_p_ranks_build_no_matrix(self, monkeypatch):
        # Over GF(p) the compiled tables are the image and its ranks are the
        # ranks: a failing strong check and the socle build no `Matrix`.
        a = monomial_complete_intersection(GF(32003), (3,))
        b = a.extend("y", MonicPoly(a, 2, [a.generators()[0], a.zero(2)]))
        y = b.generator("y")
        c = b.quotient(y * y)
        grid, socles = exact_grid(b, y), [exact_socle(alg) for alg in (b, c)]
        built = []

        def counting(self, w, i):
            built.append((w.degree, i))

        for cls in (GradedAlgebra, QuotientAlgebra):
            monkeypatch.setattr(cls, "mult_map_matrix", counting)
        ok, profiles = is_strong_lefschetz(b, y)
        assert not ok and profiles == grid
        assert [alg.socle_dimensions()[0] for alg in (b, c)] == socles
        assert built == []

    def test_degree_one_required_for_strong(self):
        a = stanley22()
        x, y = a.generators()
        with pytest.raises(ValueError):
            is_strong_lefschetz(a, x * y)

    @pytest.mark.parametrize("field", [GF(32003), QQ])
    def test_elements_of_another_algebra_are_refused(self, field):
        # In C = K[x]/(x^2)[y]/(y^2 + 2xy), (x + y)^2 = 0; in A = K[x, y]/(x^2, y^2) it is 2xy.
        a = monomial_complete_intersection(field, (2, 2))
        b = monomial_complete_intersection(field, (2,))
        c = b.extend("y", MonicPoly(b, 2, [b.generator("x1").scale(field.of(2)), b.zero(2)]))
        la, lc = a.generator("x1") + a.generator("x2"), c.generator("x1") + c.generator("y")
        assert (lc * lc).is_zero() and not (la * la).is_zero()
        for check in (lambda: is_strong_lefschetz(c, la), lambda: certify_element(c, la, "strong"),
                      lambda: is_lefschetz(c, la), lambda: rank_profile(a, lc, 2),
                      lambda: certified_slp_disproof(a, lc, 2, 0)):
            with pytest.raises(ValueError, match="different algebra"):
                check()

    def test_scaling_invariance(self):
        rng = random.Random(5)
        a = monomial_complete_intersection(QQ, (3, 2))
        for _ in range(5):
            l = a.random_element(1, rng)
            base, _ = is_strong_lefschetz(a, l)
            scaled, _ = is_strong_lefschetz(a, l.scale(QQ.of(rng.choice([2, -3, 7]))))
            assert base == scaled


def exact_profile(a, w, r):
    """The profile of w^r by plain exact elimination: no image and no witness."""
    wr, rows = w**r, []
    for i in range(a.sigma + 1):
        src, tgt = a.dim(i), a.dim(i + wr.degree)
        rank = a.mult_map_matrix(wr, i).rank()
        rows.append(ProfileRow(i, src, tgt, rank, rank == min(src, tgt)))
    return RankProfile(w.degree, r, tuple(rows))


def exact_grid(a, l):
    return [exact_profile(a, l, r) for r in range(1, max(a.sigma, 1) + 1)]


class TestImage:
    """Ranks over QQ are asked first of the image mod q = IMAGE_PRIME, the
    algebra's own tables; only a full rank mod q decides, and an algebra whose
    tables would not reduce the exact maps has none."""

    def test_element_deficient_mod_q_is_ranked_exactly(self, monkeypatch):
        # l = x + q(y + z) is x mod q, neither weak nor strong Lefschetz on
        # (2, 2, 2); over QQ it is both, through the exact fallback.
        a = monomial_complete_intersection(QQ, (2, 2, 2))
        x, y, z = a.generators()
        l = x + (y + z).scale(QQ.of(IMAGE_PRIME))
        images = [a.image_map(l, i) for i in range(a.sigma)]
        assert all((m == a.image_map(x, i)).all() for i, m in enumerate(images))
        assert [rank_of(m, IMAGE_PRIME, None, 3) for m in images] == [1, 2, 1]  # x: A_1 -> A_2 is deficient
        exact = []
        build = ExtensionAlgebra.mult_map_matrix

        def counting(self, w, i):
            exact.extend([(w.degree, i)] * (self.field == QQ))
            return build(self, w, i)

        monkeypatch.setattr(ExtensionAlgebra, "mult_map_matrix", counting)
        ok, profile = is_lefschetz(a, l)
        assert ok and exact == [(1, 1)]  # x: A_1 -> A_2 has rank 2 < 3
        del exact[:]
        strong, profiles = is_strong_lefschetz(a, l)
        assert strong and exact == [(3, 0), (1, 1)]  # the exact central maps, and no other
        assert profile == exact_profile(a, l, 1) and profiles == exact_grid(a, l)

    def test_denominator_q_gives_no_image(self):
        a = monomial_complete_intersection(QQ, (3,))
        x = a.generators()[0]
        b = a.extend("y", MonicPoly(a, 2, [x.scale(Fraction(1, IMAGE_PRIME)), a.zero(2)]))
        c = b.extend("z", MonicPoly.pure_power(b, 2))
        assert a.image_map(x, 0) is not None and a.image_map(x.scale(Fraction(2, IMAGE_PRIME)), 0) is None
        y = b.generator("y")
        for alg, l in ((b, y), (b, y + b.include(x)), (c, c.include(y))):
            assert alg._tables is None and alg.image_map(l, 0) is None
            ok, profiles = is_strong_lefschetz(alg, l)
            assert profiles == exact_grid(alg, l) and ok == all(p.is_maximal for p in profiles)
            weak, profile = is_lefschetz(alg, l)
            assert profile == exact_profile(alg, l, 1) and weak == profile.is_maximal
        assert not is_strong_lefschetz(b, y)[0]  # y on B_1 -> B_2 has rank 1, as with x*y mod q
        assert is_strong_lefschetz(b, y + b.include(x))[0]

    def test_quotient_whose_projection_is_not_q_integral_has_no_image(self):
        # (q x + y) kills x with pi = (-1/q, 1) on A_1: no tables.  (q x) is 0 mod q
        # but kills x too, with pi = (0, 1): q-integral, so its tables reduce the maps.
        a = stanley22()
        x, y = a.generators()
        b, c = a.quotient(x.scale(QQ.of(IMAGE_PRIME)) + y), a.quotient(x.scale(QQ.of(IMAGE_PRIME)))
        assert b._pi[1].rows == ((Fraction(-1, IMAGE_PRIME), 1),) and c._pi[1].rows == ((0, 1),)
        assert b._tables is None and c._tables is not None
        for alg, l in ((b, b.generators()[0]), (c, c.generators()[1])):
            ok, profiles = is_strong_lefschetz(alg, l)
            assert ok and profiles == exact_grid(alg, l)

    def test_a_linear_form_is_reduced_mod_q_once(self, monkeypatch):
        # Its reduced coefficients are kept, as a chain's are: asking again reduces nothing.
        a = monomial_complete_intersection(QQ, (2, 3, 2))
        x, y, z = a.generators()
        l = x.scale(Fraction(1, 3)) + y - z.scale(2)
        first = [a.image_map(l, t) for t in range(a.sigma)]
        reduced, of = [], PrimeField.of
        monkeypatch.setattr(PrimeField, "of", lambda self, c: (reduced.append(c), of(self, c))[1])
        assert all((a.image_map(l, t) == m).all() for t, m in enumerate(first)) and reduced == []

    def test_checking_a_quotient_builds_no_algebra(self, monkeypatch):
        # The image mod q is read off the algebra's own tables: no tower is replayed mod q.
        a = monomial_complete_intersection(QQ, (2, 2, 3))
        x, y, z = a.generators()
        b = a.quotient(x * y + z * z)
        l = b.project(x + y + z)
        socle, grid = exact_socle(b), exact_grid(b, l)
        built = []
        for cls in (TrivialAlgebra, ExtensionAlgebra, QuotientAlgebra):
            monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__: (
                built.append(type(self).__name__), init(self, *args))[1])
        assert b.socle_dimensions() == (socle, sum(socle) == 1)
        ok, profiles = is_strong_lefschetz(b, l)
        assert profiles == grid and ok == all(p.is_maximal for p in profiles)
        assert built == [] and b._tables is not None


class TestSearch:
    def test_stanley_cube_certifies(self):
        a = monomial_complete_intersection(QQ, (2, 2, 2))
        report = search_strong(a, trials=5, seed=0)
        assert report.verdict is Verdict.CERTIFIED_SUCCESS
        assert report.element is not None and report.trials_used >= 1

    def test_weak_follows_from_strong(self):
        a = monomial_complete_intersection(QQ, (3, 3))
        strong = search_strong(a, trials=8, seed=1)
        weak = search_weak(a, trials=8, seed=1)
        assert strong.certified and weak.certified

    def test_deterministic_given_seed(self):
        a = monomial_complete_intersection(QQ, (3, 2, 2))
        first = search_strong(a, trials=8, seed=11)
        second = search_strong(a, trials=8, seed=11)
        assert first.element == second.element
        assert first.profiles == second.profiles
        assert first.trials_used == second.trials_used

    def test_inconclusive_never_claims_disproof(self):
        a = stanley22(GF(2))
        report = search_strong(a, trials=6, seed=0)
        assert report.verdict is Verdict.SEARCH_INCONCLUSIVE
        assert report.failure is not None
        assert report.probabilistic_field

    def test_inconclusive_search_reports_its_best_form_and_every_trial(self):
        # Over GF(2) neither search certifies (2, 2, 2) in 5 trials at seed 3; x3 is
        # the first of the forms with the most maximal rows, and the search used all 5.
        a = monomial_complete_intersection(GF(2), (2, 2, 2))
        for search in (search_strong, search_weak):
            report = search(a, trials=5, seed=3)
            assert report.verdict is Verdict.SEARCH_INCONCLUSIVE
            assert (report.element, report.trials_used, report.failure) == ("x3", 5, (1, 1))

    def test_trivial_algebra(self):
        from lefschetz.algebra import trivial_algebra

        report = search_weak(trivial_algebra(QQ), trials=3, seed=0)
        assert report.certified

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            search_weak(stanley22(), trials=0, seed=0)


class TestCertifyElement:
    def test_success_report(self):
        a = stanley22()
        x, y = a.generators()
        report = certify_element(a, x + y, mode="strong")
        assert report.verdict is Verdict.CERTIFIED_SUCCESS and report.failure is None

    def test_element_failure_carries_witness(self):
        a = stanley22(GF(2))
        x, y = a.generators()
        report = certify_element(a, x + y, mode="strong")
        assert report.verdict is Verdict.ELEMENT_FAILURE
        assert report.failure == (2, 0)  # (x+y)^2 = 0 yet dims (1,1) demand rank 1


class TestMaximalRankProperty:
    def test_small_stanley_all_degrees(self):
        report = maximal_rank_property(stanley22(), trials=8, seed=0)
        assert report.all_certified
        assert [v.degree for v in report.per_degree] == [1, 2]

    def test_counterexample_quotient_all_degrees(self):
        a = counterexample_base()
        b, _, matched = generic_form_quotient(a, 8, 1, HILBERT_GENERIC_QUOTIENT)
        assert matched
        report = maximal_rank_property(b, trials=3, seed=7)
        assert report.all_certified
        assert [v.degree for v in report.per_degree] == list(range(1, 11))

    def test_inconclusive_degree_reports_the_trial_of_its_best_form(self):
        # One seeded stream across degrees; a zero draw counts as a trial, and
        # the one-dimensional A_3 over GF(2) draws zero three times first.
        report = maximal_rank_property(monomial_complete_intersection(GF(2), (2, 2, 2)), trials=5, seed=3)
        assert [(v.degree, v.verdict, v.element, v.trials_used) for v in report.per_degree] == [
            (1, Verdict.SEARCH_INCONCLUSIVE, "x3", 1),
            (2, Verdict.CERTIFIED_SUCCESS, "x1*x3", 1),
            (3, Verdict.CERTIFIED_SUCCESS, "x1*x2*x3", 4),
        ]

    def test_reruns_reproduce(self):
        a = monomial_complete_intersection(QQ, (3, 2))
        first = maximal_rank_property(a, trials=4, seed=3)
        second = maximal_rank_property(a, trials=4, seed=3)
        assert [v.element for v in first.per_degree] == [v.element for v in second.per_degree]


class TestCounterexampleQuotientSearch:
    """Certification behavior on the big quotient algebra: the computed truth
    is that random degree-8 quotients admit strong Lefschetz elements."""

    def test_weak_certifies(self):
        a = counterexample_base()
        b, _, _ = generic_form_quotient(a, 8, 1, HILBERT_GENERIC_QUOTIENT)
        report = search_weak(b, trials=10, seed=2)
        assert report.certified

    def test_strong_certifies(self):
        a = counterexample_base()
        b, _, _ = generic_form_quotient(a, 8, 1, HILBERT_GENERIC_QUOTIENT)
        report = search_strong(b, trials=10, seed=2)
        assert report.certified
        assert report.trials_used == 1


def test_one_sampling_loop_and_one_report_constructor():
    # Both searches and the maximal-rank check draw forms in `_sample`, and `_report` builds every report.
    text = (Path(__file__).resolve().parents[1] / "src" / "lefschetz" / "certify.py").read_text()
    assert (text.count("random_element("), text.count("LefschetzReport(")) == (1, 1)
