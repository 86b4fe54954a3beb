"""Lefschetz-property certification via exact rank profiles.

A homogeneous element is Lefschetz when every multiplication map it induces
between graded components has maximal rank.  Success of a single random
element certifies the property for the algebra (the good locus is Zariski
open), so the searches report three-valued verdicts and never claim disproof
from failed sampling alone.

Rank values are always exact.  Every full-rank question is asked first of the
algebra's image (`GradedAlgebra.image_of`): over QQ the tower replayed over
GF(268435399), which exists when no denominator vanishes and no quotient's
pivots move mod q.  Every map of the image is then the reduction of the exact
map, so a rank mod q equal to the bound is the rank over QQ.  Other ranks
come from exact elimination over the algebra's field.  Over GF(p) the image
is the algebra.

A strong check needs only the central maps l^(sigma-2i): A_i -> A_(sigma-i).
When they are all bijective, l^r: A_i -> A_(i+r) is injective if i+r <= sigma-i,
as a first factor of l^(sigma-2i), and else surjective, as a second factor of
l^(sigma-2j) with j = sigma-i-r < i, or maps to zero: its rank is
min(dim A_i, dim A_(i+r)) over any field (Harima et al., The Lefschetz
Properties, LNM 2080, 2013).  Their images are the chains
C_i = L_(sigma-i-1) C_(i+1) L_i of the image's maps L_t of l.  If one is not
bijective the exact central maps are ranked, and every map if need be.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

import numpy as np

from .algebra import GradedAlgebra, HomogeneousElement
from .fields import PrimeField
from .linalg import Matrix, _matmul_modp, _rref_modp


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
    """Exact rank, by elimination unless a side is at most 1."""
    if min(m.nrows, m.ncols) <= 1:
        return 0 if m.is_zero() else 1
    return m.rank()


def _rank(a: GradedAlgebra, w: HomogeneousElement, image: Optional[HomogeneousElement], i: int, bound: int) -> int:
    """Rank of w from degree i: its image's if that is the bound, or exact (image is w), else exact."""
    rank = -1 if image is None else exact_rank(image.algebra.mult_map_matrix(image, i))
    return rank if rank == bound or image is w else exact_rank(a.mult_map_matrix(w, i))


def _profile_for_power(a: GradedAlgebra, w_power: Optional[HomogeneousElement], k: int, r: int,
                       maximal: bool = False, known: Optional[dict] = None) -> RankProfile:
    """Ranks of w_power = w^r, w of degree k, on every component; with maximal each rank is
    the bound and w_power is not needed.  known[(r, i)] is a rank computed before."""
    rows, known, dims, deg = [], known or {}, a.dims, k * r
    zero = not maximal and w_power.is_zero()
    image = None if maximal or zero else a.image_of(w_power)
    for i, src in enumerate(dims):
        tgt = dims[i + deg] if i + deg < len(dims) else 0
        bound = min(src, tgt)
        if bound == 0 or zero:
            rows.append(ProfileRow(i, src, tgt, 0, bound == 0))
            continue
        rank = bound if maximal else known[r, i] if (r, i) in known else _rank(a, w_power, image, i, bound)
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
    """Whether every power l^r (r = 1..sigma) multiplies with maximal rank (higher
    powers act on zero spaces), from the central maps as the module docstring says."""
    if l.degree != 1:
        raise ValueError("strong Lefschetz elements have degree 1")
    h, s = a.hilbert_function(), a.sigma
    if h == h[::-1] and _central_maps_bijective_on_image(a, l):
        return True, [_profile_for_power(a, None, 1, r, True) for r in range(1, max(s, 1) + 1)]
    powers = [a.one()]
    for _ in range(max(s, 1)):
        powers.append(a.multiply(powers[-1], l))
    # A non-symmetric Hilbert function or a zero l^sigma fails before any map
    # is built; the full grid reuses the central ranks computed before a failure.
    known = {}
    central = h == h[::-1] and all(
        not powers[s - 2 * i].is_zero()
        and known.setdefault((s - 2 * i, i), exact_rank(a.mult_map_matrix(powers[s - 2 * i], i))) == h[i]
        for i in range(s // 2 + 1)
    )
    profiles = [_profile_for_power(a, powers[r], 1, r, central, known) for r in range(1, len(powers))]
    return all(p.is_maximal for p in profiles), profiles


def _central_maps_bijective_on_image(a: GradedAlgebra, l: HomogeneousElement) -> bool:
    """Whether every image C_i = L_(sigma-i-1) C_(i+1) L_i of l^(sigma-2i) on A_i is bijective."""
    image = a.image_of(l)
    if image is None:
        return False
    b, s, p = image.algebra, a.sigma, image.algebra.field.p
    L = [b._table_map(image, t) for t in range(s)]
    c = L[s // 2] if s % 2 else np.eye(a.dim(s // 2), dtype=np.int64)  # l^0 on A_(s/2) is the identity
    for i in range(s // 2, -1, -1):
        if i < s // 2:
            c = _matmul_modp(L[s - i - 1], _matmul_modp(c, L[i], p), p)
        if s > 2 * i and len(_rref_modp(c, p, full=False)[1]) < a.dim(i):
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
