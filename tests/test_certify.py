import random
from fractions import Fraction

import pytest

from lefschetz.algebra import IMAGE_PRIME, ExtensionAlgebra, MonicPoly, monomial_complete_intersection
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
from lefschetz.fields import GF, QQ
from lefschetz.sweeps import counterexample_base, generic_form_quotient, HILBERT_GENERIC_QUOTIENT


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
        # decide the other 4 maps of the grid.  l on A_1 is built twice: on the
        # image mod q, where it is deficient, and exactly.
        a = monomial_complete_intersection(QQ, (3,))
        b = a.extend("y", MonicPoly(a, 2, [a.generators()[0], a.zero(2)]))
        built = []
        original = type(b).mult_map_matrix

        def counting(self, w, i):
            built.append((w.degree, i))
            return original(self, w, i)

        monkeypatch.setattr(type(b), "mult_map_matrix", counting)
        ok, _ = is_strong_lefschetz(b, b.generator("y"))
        assert not ok and sorted(built) == [(1, 1), (1, 1), (3, 0)]

    def test_degree_one_required_for_strong(self):
        a = stanley22()
        x, y = a.generators()
        with pytest.raises(ValueError):
            is_strong_lefschetz(a, x * y)

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
    """Ranks over QQ are asked of the image mod q = IMAGE_PRIME first; only a
    full rank mod q decides, and an algebra with no sound image has none."""

    def test_element_deficient_mod_q_is_ranked_exactly(self, monkeypatch):
        # l = x + q(y + z) is x mod q, neither weak nor strong Lefschetz on
        # (2, 2, 2); over QQ it is both, through the exact fallback.
        a = monomial_complete_intersection(QQ, (2, 2, 2))
        x, y, z = a.generators()
        l = x + (y + z).scale(QQ.of(IMAGE_PRIME))
        image = a.image_of(l)
        assert image == a.image_of(x)
        assert not is_lefschetz(image.algebra, image)[0] and not is_strong_lefschetz(image.algebra, image)[0]
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
        assert a.image_of(x) is not None and a.image_of(x.scale(Fraction(2, IMAGE_PRIME))) is None
        y = b.generator("y")
        for alg, l in ((b, y), (b, y + b.include(x)), (c, c.include(y))):
            assert alg.image_of(l) is None
            ok, profiles = is_strong_lefschetz(alg, l)
            assert profiles == exact_grid(alg, l) and ok == all(p.is_maximal for p in profiles)
            weak, profile = is_lefschetz(alg, l)
            assert profile == exact_profile(alg, l, 1) and weak == profile.is_maximal
        assert not is_strong_lefschetz(b, y)[0]  # y on B_1 -> B_2 has rank 1, as with x*y mod q
        assert is_strong_lefschetz(b, y + b.include(x))[0]

    def test_quotient_whose_pivots_move_has_no_image(self):
        # (q x + y) kills x over QQ and y mod q: equal dimensions, other kept coordinates.
        a = stanley22()
        x, y = a.generators()
        g = x.scale(QQ.of(IMAGE_PRIME)) + y
        b = a.quotient(g)
        mod_q = a.image_of(g).algebra.quotient(a.image_of(g))
        assert mod_q.dims == b.dims == (1, 1) and mod_q._kept != b._kept
        assert b.image_of(b.one()) is None
        assert a.quotient(x.scale(QQ.of(IMAGE_PRIME))).image_of(a.one()) is None  # g is 0 mod q
        l = b.generators()[0]
        ok, profiles = is_strong_lefschetz(b, l)
        assert ok and profiles == exact_grid(b, l)


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
