"""Batch verification sweeps and the counterexample reproduction pipeline.

These drivers back both the CLI `verify`/`reproduce` subcommands and the
acceptance test suite.  Each sweep returns a `SweepResult` listing any
failures; an empty failure list is the certificate that the whole range
checked out.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Optional

from .algebra import GradedAlgebra, MonicPoly, monomial_complete_intersection, trivial_algebra
from .certify import (
    LefschetzReport,
    MaximalRankReport,
    maximal_rank_property,
    search_strong,
)
from .fields import GF, QQ, Field
from .theorems import (
    DisproofCertificate,
    binomial_power_extension,
    build_block_matrix,
    c_coefficient,
    _disproof_from_quotient,
    power_reduction_table,
    s_matrix_nonsingular,
    verify_binomial_identity,
    verify_duality_instance,
)


@dataclass
class SweepResult:
    name: str
    total: int
    failures: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.passed else f"{len(self.failures)} FAILED"
        return f"{self.name}: {self.total} checks, {status}"


def sweep_coefficient_identities(k_max: int = 8, r_max: int = 25) -> SweepResult:
    """Closed-form reduction coefficients against the rewriting oracle, plus
    the binomial identity, over 1 <= k <= k_max, 0 <= r <= r_max."""
    result = SweepResult("coefficients", 0)
    for k in range(1, k_max + 1):
        table = power_reduction_table(k, r_max)
        for r in range(r_max + 1):
            for j in range(k):
                result.total += 1
                closed = c_coefficient(r, j, k)
                oracle = table.row(r)[j]
                if closed != oracle:
                    result.failures.append(f"c({r},{j},{k}): closed {closed} != oracle {oracle}")
                if r >= k:
                    result.total += 1
                    if not verify_binomial_identity(r, j, k):
                        result.failures.append(f"binomial identity fails at (r,j,k)=({r},{j},{k})")
    return result


def sweep_s_matrices(r_max: int = 30) -> SweepResult:
    """Nonsingularity and elimination-vs-closed-form agreement of the shifted
    reciprocal matrices, for all 0 <= t < r <= r_max."""
    result = SweepResult("smatrix", 0)
    for r in range(1, r_max + 1):
        for t in range(r):
            result.total += 1
            try:
                nonsingular, det = s_matrix_nonsingular(r, t)
            except RuntimeError as exc:
                result.failures.append(str(exc))
                continue
            if not nonsingular:
                result.failures.append(f"singular at r={r}, t={t} (det {det})")
    return result


# -- randomized instances ------------------------------------------------------


def random_monic(a: GradedAlgebra, d: int, rng: random.Random) -> MonicPoly:
    """Monic degree-d polynomial with random homogeneous lower coefficients."""
    lower = [
        a.random_element(i, rng) if a.dim(i) > 0 else a.zero(i) for i in range(1, d + 1)
    ]
    return MonicPoly(a, d, lower)


def random_tower(
    field: Field,
    rng: random.Random,
    max_depth: int = 3,
    max_sigma: int = 10,
    degree_choices: tuple[int, ...] = (2, 3, 4),
    pure_prob: float = 0.5,
    var_prefix: str = "u",
) -> GradedAlgebra:
    """Random iterated monic extension of the base field."""
    algebra: GradedAlgebra = trivial_algebra(field)
    depth = rng.randint(1, max_depth)
    for idx in range(1, depth + 1):
        room = max_sigma - algebra.sigma
        choices = [d for d in degree_choices if d - 1 <= room]
        if not choices:
            break
        d = rng.choice(choices)
        if rng.random() < pure_prob:
            f = MonicPoly.pure_power(algebra, d)
        else:
            f = random_monic(algebra, d, rng)
        algebra = algebra.extend(f"{var_prefix}{idx}", f)
    return algebra


def sweep_duality(instances: int = 50, seed: int = 0) -> SweepResult:
    """Randomized instances of the two-sided Lefschetz test (monic towers of
    depth <= 2, socle degree <= 8, over the rationals)."""
    result = SweepResult("duality", instances)
    rng = random.Random(seed)
    for n in range(instances):
        a = random_tower(QQ, rng, max_depth=2, max_sigma=8)
        d = rng.randint(1, min(a.sigma + 1, 4))
        f = random_monic(a, d, rng)
        elem = a.random_element(1, rng)
        outcome = verify_duality_instance(a, f, elem)
        if not outcome.agree:
            result.failures.append(
                f"instance {n}: lhs={outcome.lhs} rhs={outcome.rhs} on {a.describe()}"
            )
    return result


_BLOCK_BASE_TOWERS = ((), (2,), (3,), (2, 2), (2, 3))


def sweep_block_matrices(seed: int = 0, k_max: int = 3, q_max: int = 4) -> SweepResult:
    """rank(block matrix) == rank of multiplication by x^q computed directly
    on the extension, over a grid of small towers and all relevant degrees."""
    result = SweepResult("blockmatrix", 0)
    rng = random.Random(seed)
    for exponents in _BLOCK_BASE_TOWERS:
        a = monomial_complete_intersection(QQ, exponents, var_prefix="u")
        if a.dim(1) > 0:
            elem = a.random_element(1, rng)
        else:
            elem = a.zero(1)
        for k in range(1, k_max + 1):
            b = binomial_power_extension(a, elem, k)
            x_class = b.generators()[-1]
            for q in range(1, q_max + 1):
                xq = x_class**q
                for t in range(b.sigma + 1):
                    result.total += 1
                    blocked = build_block_matrix(a, elem, k, q, t)
                    direct = b.mult_map_matrix(xq, t)
                    if (blocked.nrows, blocked.ncols) != (direct.nrows, direct.ncols):
                        result.failures.append(
                            f"shape mismatch at base={exponents}, k={k}, q={q}, t={t}"
                        )
                    elif blocked.rank() != direct.rank():
                        result.failures.append(
                            f"rank mismatch at base={exponents}, k={k}, q={q}, t={t}: "
                            f"{blocked.rank()} != {direct.rank()}"
                        )
    return result


# -- monomial complete intersection corpus --------------------------------------


def stanley_exponents(dim_cap: int, max_vars: int = 4) -> Iterator[tuple[int, ...]]:
    """Nondecreasing exponent tuples (a_1 <= ... <= a_n), a_i >= 2, with at
    most max_vars entries and product <= dim_cap."""

    def rec(prefix: list[int], min_a: int, prod: int):
        if prefix:
            yield tuple(prefix)
        if len(prefix) == max_vars:
            return
        a = min_a
        while prod * a <= dim_cap:
            yield from rec(prefix + [a], a, prod * a)
            a += 1

    yield from rec([], 2, 1)


def sweep_stanley(dim_cap: int = 256, max_vars: int = 4, trials: int = 8, seed: int = 0) -> SweepResult:
    """Strong-Lefschetz search over every monomial complete intersection with
    multiplicity up to dim_cap, over the rationals."""
    result = SweepResult("stanley", 0)
    for exps in stanley_exponents(dim_cap, max_vars):
        result.total += 1
        a = monomial_complete_intersection(QQ, exps)
        report = search_strong(a, trials=trials, seed=seed)
        if not report.certified:
            result.failures.append(f"no strong element found for exponents {exps}")
    return result


def sweep_random_extensions(
    towers: int = 20,
    seed: int = 0,
    trials: int = 8,
    max_depth: int = 3,
    max_sigma: int = 10,
) -> SweepResult:
    """Random Gorenstein towers extended by one more random monic relation:
    the extension must admit a certified strong Lefschetz element."""
    result = SweepResult("extensions", towers)
    rng = random.Random(seed)
    for n in range(towers):
        a = random_tower(QQ, rng, max_depth=max_depth, max_sigma=max_sigma)
        d = rng.randint(2, 4)
        b = a.extend("z", random_monic(a, d, rng))
        report = search_strong(b, trials=trials, seed=rng.randrange(2**31))
        if not report.certified:
            result.failures.append(f"tower {n} ({b.describe()}): {report.verdict}")
    return result


# -- the counterexample pipeline -------------------------------------------------

COUNTEREXAMPLE_PRIME = 32003
COUNTEREXAMPLE_EXPONENTS = (4, 4, 4, 4, 2)
HILBERT_BASE = (1, 5, 14, 30, 51, 71, 84, 84, 71, 51, 30, 14, 5, 1)
HILBERT_GENERIC_QUOTIENT = (1, 5, 14, 30, 51, 71, 84, 84, 70, 46, 16)
HILBERT_POWER_QUOTIENT = (1, 5, 14, 30, 51, 71, 84, 84, 70, 45, 12)
DISPROOF_POWER = 9
DISPROOF_DEGREE = 1


@dataclass
class CounterexamplePipeline:
    """Build the 512-dimensional monomial complete intersection, quotient by a
    random degree-8 form, certify the failure of the 9th power of a random
    linear form by quotient dimensions, and check the maximal rank property."""

    prime: int
    seed: int
    hilb_base: list[int]
    base_ok: bool
    hilb_b: Optional[list[int]] = None
    seed_b: Optional[int] = None
    b_ok: bool = False
    hilb_c: Optional[list[int]] = None
    seed_c: Optional[int] = None
    c_ok: bool = False
    certificate: Optional[DisproofCertificate] = None
    certificate_ok: bool = False
    maxrank: Optional[MaximalRankReport] = None
    maxrank_ok: bool = False
    strong_search: Optional[LefschetzReport] = None
    elapsed_b: float = 0.0
    elapsed_c: float = 0.0
    elapsed_maxrank: float = 0.0

    @property
    def ok(self) -> bool:
        return self.base_ok and self.b_ok and self.c_ok and self.certificate_ok and self.maxrank_ok


def counterexample_base(prime: int = COUNTEREXAMPLE_PRIME) -> GradedAlgebra:
    return monomial_complete_intersection(GF(prime), COUNTEREXAMPLE_EXPONENTS)


def generic_form_quotient(a: GradedAlgebra, degree: int, seed: int, expected: tuple[int, ...], attempts: int = 3):
    """Quotient by a random form of the given degree, retrying over a small
    seed window until the Hilbert function matches the expected values.
    Returns (quotient, seed_used, matched); on no match the last quotient and
    seed are returned with matched=False."""
    quot = None
    seed_used = None
    for offset in range(attempts):
        rng = random.Random(seed + offset)
        form = a.random_element(degree, rng)
        if form.is_zero():
            continue
        quot = a.quotient(form)
        seed_used = seed + offset
        if tuple(quot.hilbert_function()) == expected:
            return quot, seed_used, True
    return quot, seed_used, False


def reproduce_counterexample(
    seed: int = 1,
    prime: int = COUNTEREXAMPLE_PRIME,
    trials: int = 8,
    attempts: int = 3,
    run_maxrank: bool = True,
    run_strong_search: bool = False,
    strong_trials: int = 10,
) -> CounterexamplePipeline:
    a = counterexample_base(prime)
    hilb_a = a.hilbert_function()
    pipe = CounterexamplePipeline(
        prime=prime, seed=seed, hilb_base=hilb_a, base_ok=tuple(hilb_a) == HILBERT_BASE
    )

    t0 = time.perf_counter()
    b, seed_b, matched = generic_form_quotient(a, 8, seed, HILBERT_GENERIC_QUOTIENT, attempts)
    pipe.elapsed_b = time.perf_counter() - t0
    if b is None:
        return pipe
    pipe.hilb_b = b.hilbert_function()
    pipe.seed_b = seed_b
    pipe.b_ok = matched
    if not matched:
        return pipe

    # Quotient by the ninth power of a random linear form; computed values are
    # recorded even when they disagree with the documented reference values.
    t0 = time.perf_counter()
    for offset in range(attempts):
        rng = random.Random(seed + 1000 + offset)
        candidate = b.random_element(1, rng)
        power = candidate**DISPROOF_POWER
        if power.is_zero():
            continue
        c_alg = b.quotient(power)
        pipe.hilb_c = c_alg.hilbert_function()
        pipe.seed_c = seed + 1000 + offset
        pipe.certificate = _disproof_from_quotient(b, candidate, DISPROOF_POWER, DISPROOF_DEGREE, c_alg)
        if tuple(pipe.hilb_c) == HILBERT_POWER_QUOTIENT:
            pipe.c_ok = True
            break
    expected_rank = HILBERT_GENERIC_QUOTIENT[10] - HILBERT_POWER_QUOTIENT[10]
    pipe.certificate_ok = pipe.certificate is not None and pipe.certificate.rank == expected_rank
    pipe.elapsed_c = time.perf_counter() - t0

    if run_strong_search:
        pipe.strong_search = search_strong(b, trials=strong_trials, seed=seed)

    if run_maxrank:
        t0 = time.perf_counter()
        pipe.maxrank = maximal_rank_property(b, trials=trials, seed=seed)
        pipe.maxrank_ok = pipe.maxrank.all_certified
        pipe.elapsed_maxrank = time.perf_counter() - t0
    return pipe
