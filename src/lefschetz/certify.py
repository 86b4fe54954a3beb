"""Lefschetz-property certification via exact rank profiles.

A homogeneous element is Lefschetz when every multiplication map it induces
between graded components has maximal rank.  Success of a single random
element certifies the property for the algebra (the good locus is Zariski
open), so the searches report three-valued verdicts and never claim disproof
from failed sampling alone.  Both searches and the maximal-rank check draw their
forms through one sampling loop, `_sample`.

Rank values are always exact.  Every map is ranked by one rule, `linalg.rank_of`,
asked first of its image (`GradedAlgebra.image_map`): the exact map reduced mod q,
read off the algebra's own tables, with q = 268435399 over QQ.  A rank mod q equal
to the bound is then the rank over QQ; other ranks come from exact elimination
over the algebra's field.  Over GF(p) the tables are the maps, and their rank is
the rank.

A strong check needs only the central maps l^(sigma-2i): A_i -> A_(sigma-i).
When they are all bijective, l^r: A_i -> A_(i+r) is injective if i+r <= sigma-i,
as a first factor of l^(sigma-2i), and else surjective, as a second factor of
l^(sigma-2j) with j = sigma-i-r < i, or maps to zero: its rank is
min(dim A_i, dim A_(i+r)) over any field (Harima et al., The Lefschetz
Properties, LNM 2080, 2013).  Their images are the chains
C_i = L_(sigma-i-1) C_(i+1) L_i of the image maps L_t of l.  If one is not
bijective, the powers are ranked from l^sigma down to l, and earlier ranks decide
a map without building it: l^r is injective on A_i where a longer power is, onto
A_t where a longer power is, and w is onto A_(i+deg w) where it maps A_(i-1) onto
A_(i-1+deg w), as A_(i+deg w) = A_1 w A_(i-1) = w A_i (A is generated by A_1).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .algebra import GradedAlgebra, HomogeneousElement
from .fields import PrimeField
from .linalg import _matmul_modp, exact_rank, rank_of  # exact_rank: found here by bench/tracer.py


class Verdict(str, enum.Enum):
    CERTIFIED_SUCCESS = "certified_success"
    ELEMENT_FAILURE = "element_failure"
    SEARCH_INCONCLUSIVE = "search_inconclusive"

    def __str__(self):
        return self.value


class ProfileRow(NamedTuple):
    i: int
    dim_source: int
    dim_target: int
    rank: int
    is_maximal: bool


@dataclass(frozen=True)
class RankProfile:
    """Per-degree ranks of multiplication by the r-th power of an element of
    degree k: rows cover the maps from every component 0 <= i <= sigma."""

    element_degree: int
    power: int
    rows: tuple[ProfileRow, ...]

    @property
    def is_maximal(self) -> bool:
        return all(row.is_maximal for row in self.rows)

    def first_failure(self) -> Optional[ProfileRow]:
        for row in self.rows:
            if not row.is_maximal:
                return row
        return None

    def maximal_count(self) -> int:
        return sum(1 for row in self.rows if row.is_maximal)


def _profile_for_power(a: GradedAlgebra, w_power: HomogeneousElement, k: int, r: int,
                       facts: Optional[tuple] = None) -> RankProfile:
    """Ranks of w_power = w^r, w of degree k, on every component.
    facts: (injective sources, onto targets) of longer powers of w."""
    rows, dims, deg, (injective, onto) = [], a.dims, k * r, facts or (set(), set())
    zero = w_power.is_zero()
    # A closure over the loop's i, called only in the iteration that ranks row i.
    exact = None if a.image_is_exact else lambda: a.mult_map_matrix(w_power, i)
    for i, src in enumerate(dims):
        tgt = dims[i + deg] if i + deg < len(dims) else 0
        bound = min(src, tgt)
        if zero or bound == 0:
            rank = 0
        else:
            derived = i in injective or i + deg in onto or i and rows[i - 1].rank == rows[i - 1].dim_target
            rank = bound if derived else rank_of(a.image_map(w_power, i), a.modulus, exact, bound)
            if rank == src:
                injective.add(i)
            if rank == tgt:
                onto.add(i + deg)
        rows.append(ProfileRow(i, src, tgt, rank, rank == bound))
    return RankProfile(k, r, tuple(rows))


def rank_profile(a: GradedAlgebra, w: HomogeneousElement, r: int) -> RankProfile:
    """Profile of multiplication by w^r on every graded component."""
    if r < 1:
        raise ValueError("power must be >= 1")
    if w.algebra is not a:
        raise ValueError("element belongs to a different algebra")
    return _profile_for_power(a, w**r, w.degree, r)


def is_lefschetz(a: GradedAlgebra, w: HomogeneousElement) -> tuple[bool, RankProfile]:
    """Whether every map w: A_i -> A_{i+deg w} has maximal rank."""
    if w.degree < 1:
        raise ValueError("Lefschetz elements have degree >= 1")
    profile = rank_profile(a, w, 1)
    return profile.is_maximal, profile


def is_strong_lefschetz(a: GradedAlgebra, l: HomogeneousElement) -> tuple[bool, list[RankProfile]]:
    """Whether every power l^r (r = 1..sigma) multiplies with maximal rank (higher
    powers act on zero spaces), as the module docstring says."""
    if l.degree != 1:
        raise ValueError("strong Lefschetz elements have degree 1")
    if l.algebra is not a:
        raise ValueError("element belongs to a different algebra")
    h, s = a.hilbert_function(), a.sigma
    if h == h[::-1] and _central_maps_bijective_on_image(a, l):
        return True, [RankProfile(1, r, tuple([ProfileRow(i, n, m, min(n, m), True)  # every rank is its bound
                                               for i, (n, m) in enumerate(zip(h, h[r:] + [0] * r))]))
                      for r in range(1, max(s, 1) + 1)]
    powers = list(accumulate([l] * max(s, 1), a.multiply, initial=a.one()))
    facts = (set(), set())  # shared by all powers, longest first
    profiles = [_profile_for_power(a, powers[r], 1, r, facts=facts) for r in range(len(powers) - 1, 0, -1)]
    return all(p.is_maximal for p in profiles), profiles[::-1]


def _central_maps_bijective_on_image(a: GradedAlgebra, l: HomogeneousElement) -> bool:
    """Whether every image C_i = L_(sigma-i-1) C_(i+1) L_i of l^(sigma-2i) on A_i is bijective."""
    s, q = a.sigma, a.modulus
    L = [a.image_map(l, t) for t in range(s)]
    if any(m is None for m in L):
        return False
    c = L[s // 2] if s % 2 else np.eye(a.dim(s // 2), dtype=np.int64)  # l^0 on A_(s/2) is the identity
    for i in range(s // 2, -1, -1):
        if i < s // 2:
            c = _matmul_modp(L[s - i - 1], _matmul_modp(c, L[i], q), q)
        if s > 2 * i and rank_of(c, q, None, a.dim(i)) < a.dim(i):
            return False
    return True


@dataclass
class LefschetzReport:
    """Outcome of testing or searching for a (strong) Lefschetz element."""

    algebra: str
    mode: str  # "weak" | "strong"
    verdict: Verdict
    element: Optional[str]
    trials_used: int
    seed: Optional[int]
    profiles: list[RankProfile] = dc_field(default_factory=list)
    failure: Optional[tuple[int, int]] = None  # (power r, degree i) of a non-maximal row
    probabilistic_field: bool = False  # openness argument assumes an infinite field

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED_SUCCESS


def _element_profiles(a: GradedAlgebra, w: HomogeneousElement, mode: str) -> list[RankProfile]:
    if mode == "weak":
        return [is_lefschetz(a, w)[1]]
    if mode == "strong":
        return is_strong_lefschetz(a, w)[1]
    raise ValueError(f"unknown mode {mode!r}")


def _report(a: GradedAlgebra, mode: str, verdict: Verdict, element: Optional[str], trials_used: int,
            seed: Optional[int], profiles: list[RankProfile]) -> LefschetzReport:
    """The report, with the (power, degree) of the first non-maximal row unless the verdict is a success."""
    failure = None if verdict is Verdict.CERTIFIED_SUCCESS else next(
        ((p.power, p.first_failure().i) for p in profiles if not p.is_maximal), None)
    return LefschetzReport(a.fingerprint(), mode, verdict, element, trials_used, seed, profiles, failure,
                           isinstance(a.field, PrimeField))


def _sample(a: GradedAlgebra, degree: int, trials: int, rng: random.Random, profiles_of):
    """(ok, trial, str(w), profiles_of(w)) for the first of `trials` random forms w of `degree` whose
    profiles are all maximal, else for the earliest with the most maximal rows, or (False, 0, None, [])
    if every draw was zero.  A zero draw is skipped but counts as a trial."""
    best, best_score = (False, 0, None, []), -1
    for trial in range(1, trials + 1):
        w = a.random_element(degree, rng)
        if w.is_zero():
            continue
        profiles = profiles_of(w)
        if all(p.is_maximal for p in profiles):
            return True, trial, str(w), profiles
        score = sum(p.maximal_count() for p in profiles)
        if score > best_score:
            best, best_score = (False, trial, str(w), profiles), score
    return best


def certify_element(a: GradedAlgebra, w: HomogeneousElement, mode: str = "weak") -> LefschetzReport:
    """Report for one specific element: certified success or a concrete
    element failure with its witness (power, degree)."""
    profiles = _element_profiles(a, w, mode)
    ok = all(p.is_maximal for p in profiles)
    return _report(a, mode, Verdict.CERTIFIED_SUCCESS if ok else Verdict.ELEMENT_FAILURE, str(w), 1, None, profiles)


def _search(a: GradedAlgebra, trials: int, seed: int, mode: str) -> LefschetzReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if a.sigma == 0:  # every map is empty: the zero element of degree 1 certifies the property vacuously
        return _report(a, mode, Verdict.CERTIFIED_SUCCESS, "0", 0, seed, [])
    ok, trial, element, profiles = _sample(a, 1, trials, random.Random(seed), lambda w: _element_profiles(a, w, mode))
    verdict = Verdict.CERTIFIED_SUCCESS if ok else Verdict.SEARCH_INCONCLUSIVE
    return _report(a, mode, verdict, element, trial if ok else trials, seed, profiles)  # a failed search used them all


def search_weak(a: GradedAlgebra, trials: int = 8, seed: int = 0) -> LefschetzReport:
    """Sample degree-1 elements until one is Lefschetz; one witness certifies."""
    return _search(a, trials, seed, "weak")


def search_strong(a: GradedAlgebra, trials: int = 8, seed: int = 0) -> LefschetzReport:
    """Sample degree-1 elements until one is strong Lefschetz."""
    return _search(a, trials, seed, "strong")


@dataclass
class DegreeVerdict:
    degree: int
    verdict: Verdict
    element: Optional[str]
    trials_used: int


@dataclass
class MaximalRankReport:
    """Per-degree outcome of sampling forms and checking all their
    multiplication maps for maximal rank."""

    algebra: str
    seed: int
    trials: int
    per_degree: list[DegreeVerdict]
    probabilistic_field: bool

    @property
    def all_certified(self) -> bool:
        return all(v.verdict is Verdict.CERTIFIED_SUCCESS for v in self.per_degree)


def maximal_rank_property(a: GradedAlgebra, trials: int = 8, seed: int = 0) -> MaximalRankReport:
    """For each form degree d = 1..sigma, sample random forms of degree d and
    check every induced map for maximal rank."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)  # one stream across all degrees
    per_degree = []
    for d in range(1, a.sigma + 1):
        ok, trial, element, _ = _sample(a, d, trials, rng, lambda w: [_profile_for_power(a, w, d, 1)])
        verdict = Verdict.CERTIFIED_SUCCESS if ok else Verdict.SEARCH_INCONCLUSIVE
        per_degree.append(DegreeVerdict(d, verdict, element, trial))
    return MaximalRankReport(a.fingerprint(), seed, trials, per_degree, isinstance(a.field, PrimeField))
