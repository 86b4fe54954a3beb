import random

import pytest

from lefschetz.algebra import MonicPoly, monomial_complete_intersection
from lefschetz.certify import (
    ProfileRow,
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
        a = monomial_complete_intersection(QQ, (3, 4, 4))  # sigma = 8
        x, y, z = a.generators()
        built = []
        original = type(a).mult_map_matrix

        def counting(self, w, i):
            built.append((w.degree, i))
            return original(self, w, i)

        monkeypatch.setattr(type(a), "mult_map_matrix", counting)
        ok, profiles = is_strong_lefschetz(a, x + y.scale(QQ.of(2)) + z.scale(QQ.of(3)))
        assert ok and built == [(8 - 2 * i, i) for i in range(5)]
        assert all(row.rank == min(row.dim_source, row.dim_target) for p in profiles for row in p.rows)

    def test_strong_fallback_reuses_the_central_ranks(self, monkeypatch):
        # The example above: l^3 on A_0 is bijective, l on A_1 is not, and the
        # full grid of 6 maps ranks neither of them again.
        a = monomial_complete_intersection(QQ, (3,))
        b = a.extend("y", MonicPoly(a, 2, [a.generators()[0], a.zero(2)]))
        built = []
        original = type(b).mult_map_matrix

        def counting(self, w, i):
            built.append((w.degree, i))
            return original(self, w, i)

        monkeypatch.setattr(type(b), "mult_map_matrix", counting)
        ok, _ = is_strong_lefschetz(b, b.generator("y"))
        assert not ok and sorted(built) == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]

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
