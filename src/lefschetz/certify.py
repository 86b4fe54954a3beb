"""Lefschetz-property certification via exact rank profiles.

A homogeneous element is Lefschetz when every multiplication map it induces
between graded components has maximal rank.  Success of a single random
element certifies the property for the algebra (the good locus is Zariski
open), so the searches report three-valued verdicts and never claim disproof
from failed sampling alone.

Rank values are always exact.  Over the rationals a maximality check first
tries a fixed-prime modular reduction: a full-rank reduction certifies full
rank over the rationals, anything else falls back to exact elimination.

A strong check ranks only the central maps l^(sigma-2i): A_i -> A_(sigma-i)
when they are all bijective: every other l^r: A_i -> A_(i+r) is a first
(injective) or second (surjective) factor of one of them, so its rank is
min(dim A_i, dim A_(i+r)) exactly, over any field (Harima et al., The
Lefschetz Properties, LNM 2080, 2013).  Otherwise every map is ranked.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

from .algebra import GradedAlgebra, HomogeneousElement
from .fields import QQ, PrimeField
from .linalg import Matrix, modular_rank_lower_bound


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


def exact_rank(m: Matrix) -> int:
    """Exact rank; certifies full rank via a modular witness when possible."""
    bound = min(m.nrows, m.ncols)
    if bound == 0:
        return 0
    if bound == 1:
        return 0 if m.is_zero() else 1
    if m.field == QQ and m.nrows * m.ncols > 16:
        lb = modular_rank_lower_bound(m)
        if lb == bound:
            return lb
    return m.rank()


def _profile_for_power(a: GradedAlgebra, w_power: HomogeneousElement, k: int, r: int,
                       maximal: bool = False, known: Optional[dict] = None) -> RankProfile:
    """Ranks of w_power on every component; with maximal, each rank is known
    to be the bound and no map is built.  known[(r, i)] is a rank computed before."""
    rows, known = [], known or {}
    deg = w_power.degree
    power_is_zero = w_power.is_zero()
    for i in range(a.sigma + 1):
        src = a.dim(i)
        tgt = a.dim(i + deg)
        bound = min(src, tgt)
        if bound == 0 or power_is_zero:
            rows.append(ProfileRow(i, src, tgt, 0, bound == 0))
            continue
        rank = bound if maximal else known[r, i] if (r, i) in known else exact_rank(a.mult_map_matrix(w_power, i))
        rows.append(ProfileRow(i, src, tgt, rank, rank == bound))
    return RankProfile(k, r, tuple(rows))


def rank_profile(a: GradedAlgebra, w: HomogeneousElement, r: int) -> RankProfile:
    """Profile of multiplication by w^r on every graded component."""
    if r < 1:
        raise ValueError("power must be >= 1")
    return _profile_for_power(a, w**r, w.degree, r)


def is_lefschetz(a: GradedAlgebra, w: HomogeneousElement) -> tuple[bool, RankProfile]:
    """Whether every map w: A_i -> A_{i+deg w} has maximal rank."""
    if w.degree < 1:
        raise ValueError("Lefschetz elements have degree >= 1")
    profile = rank_profile(a, w, 1)
    return profile.is_maximal, profile


def is_strong_lefschetz(a: GradedAlgebra, l: HomogeneousElement) -> tuple[bool, list[RankProfile]]:
    """Whether every power l^r (r = 1..sigma) multiplies with maximal rank.

    Powers beyond the socle degree act on zero spaces, so r = 1..sigma decides
    the property.  It holds when every central map l^(sigma-2i): A_i ->
    A_(sigma-i), i <= sigma/2, is bijective (Harima-Maeno-Morita-Numata-
    Wachi-Watanabe, The Lefschetz Properties, LNM 2080, 2013): l^r: A_i ->
    A_(i+r) is injective if i+r <= sigma-i, as a factor of l^(sigma-2i), and
    else surjective, as a factor of l^(sigma-2j) with j = sigma-i-r < i, or
    maps to zero.  Only when a central map is not bijective is every map ranked.
    """
    if l.degree != 1:
        raise ValueError("strong Lefschetz elements have degree 1")
    powers = [a.one()]
    for _ in range(max(a.sigma, 1)):
        powers.append(a.multiply(powers[-1], l))
    # A non-symmetric Hilbert function or a zero l^sigma fails before any map
    # is built; the full grid reuses the central ranks computed before a failure.
    h, s, known = a.hilbert_function(), a.sigma, {}
    central = h == h[::-1] and all(
        not powers[s - 2 * i].is_zero()
        and known.setdefault((s - 2 * i, i), exact_rank(a.mult_map_matrix(powers[s - 2 * i], i))) == h[i]
        for i in range(s // 2 + 1)
    )
    profiles = [_profile_for_power(a, powers[r], 1, r, central, known) for r in range(1, len(powers))]
    return all(p.is_maximal for p in profiles), profiles


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


def _element_profiles(a: GradedAlgebra, w: HomogeneousElement, mode: str):
    if mode == "weak":
        ok, profile = is_lefschetz(a, w)
        return ok, [profile]
    if mode == "strong":
        return is_strong_lefschetz(a, w)
    raise ValueError(f"unknown mode {mode!r}")


def _first_failure(profiles) -> Optional[tuple[int, int]]:
    for profile in profiles:
        row = profile.first_failure()
        if row is not None:
            return (profile.power, row.i)
    return None


def certify_element(a: GradedAlgebra, w: HomogeneousElement, mode: str = "weak") -> LefschetzReport:
    """Report for one specific element: certified success or a concrete
    element failure with its witness (power, degree)."""
    ok, profiles = _element_profiles(a, w, mode)
    return LefschetzReport(
        algebra=a.fingerprint(),
        mode=mode,
        verdict=Verdict.CERTIFIED_SUCCESS if ok else Verdict.ELEMENT_FAILURE,
        element=str(w),
        trials_used=1,
        seed=None,
        profiles=profiles,
        failure=None if ok else _first_failure(profiles),
        probabilistic_field=isinstance(a.field, PrimeField),
    )


def _search(a: GradedAlgebra, trials: int, seed: int, mode: str) -> LefschetzReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prime = isinstance(a.field, PrimeField)
    if a.dim(1) == 0:
        if a.sigma > 0:
            raise ValueError("no degree-1 elements to sample")
        # The zero algebra component case: every map is empty, the zero
        # element of degree 1 certifies the property vacuously.
        return LefschetzReport(a.fingerprint(), mode, Verdict.CERTIFIED_SUCCESS, "0", 0, seed,
                               probabilistic_field=prime)
    rng = random.Random(seed)
    best_profiles: list[RankProfile] = []
    best_element: Optional[str] = None
    best_score = -1
    for trial in range(1, trials + 1):
        w = a.random_element(1, rng)
        if w.is_zero():
            continue
        ok, profiles = _element_profiles(a, w, mode)
        if ok:
            return LefschetzReport(a.fingerprint(), mode, Verdict.CERTIFIED_SUCCESS, str(w),
                                   trial, seed, profiles, None, prime)
        score = sum(p.maximal_count() for p in profiles)
        if score > best_score:
            best_score, best_profiles, best_element = score, profiles, str(w)
    return LefschetzReport(a.fingerprint(), mode, Verdict.SEARCH_INCONCLUSIVE, best_element,
                           trials, seed, best_profiles, _first_failure(best_profiles), prime)


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
    rng = random.Random(seed)
    per_degree = []
    for d in range(1, a.sigma + 1):
        verdict = Verdict.SEARCH_INCONCLUSIVE
        element = None
        used = 0
        best_score = -1
        for trial in range(1, trials + 1):
            w = a.random_element(d, rng)
            if w.is_zero():
                continue
            profile = _profile_for_power(a, w, d, 1)
            if profile.is_maximal:
                verdict, element, used = Verdict.CERTIFIED_SUCCESS, str(w), trial
                break
            score = profile.maximal_count()
            if score > best_score:
                best_score, element, used = score, str(w), trial
        per_degree.append(DegreeVerdict(d, verdict, element, used))
    return MaximalRankReport(a.fingerprint(), seed, trials, per_degree,
                             isinstance(a.field, PrimeField))
