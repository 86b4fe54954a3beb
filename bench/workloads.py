"""The benchmark's three workloads.

Each workload turns a seed and a round number into one round of operations:
the same operations, with the same shapes, in every round, on inputs drawn
afresh for each round from `random.Random(f"{seed}.{round}")`.  An operation
builds its own algebras and calls the public API of `lefschetz` (or its CLI
in-process), and returns plain data that a check from `reference.py` judges.
The benchmark generates every input itself: exponent tuples, tower shapes,
relation and form coefficients, spec text, linear forms and search seeds.
Nothing is taken from `lefschetz.sweeps`, so a change there cannot change
what is measured.

Package functions are looked up on their modules at call time, so the traced
run sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import lefschetz as L
from lefschetz import cli, theorems

import reference as R


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[int, int, Path], list]  # (seed, round, scratch directory) -> ops
    min_rounds: int  # so that a run has at least 40 ops, whatever its length


def _round_rng(seed: int, round_index: int) -> random.Random:
    return random.Random(f"{seed}.{round_index}")


def _rows(profiles) -> list:
    return [[p.power, row.i, row.dim_source, row.dim_target, row.rank] for p in profiles for row in p.rows]


# -- mci-qq: the monomial complete intersection corpus over QQ ------------------

MCI_CAP = 64  # multiplicity cap: 193 algebras
MCI_MAX_VARS = 4


def mci_exponents(cap: int, max_vars: int = MCI_MAX_VARS) -> list[tuple[int, ...]]:
    """Nondecreasing (a_1, ..., a_n), n <= max_vars, a_i >= 2, prod a_i <= cap."""
    out = []

    def grow(prefix, low, prod):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_vars:
            return
        a = low
        while prod * a <= cap:
            grow(prefix + [a], a, prod * a)
            a += 1

    grow([], 2, 1)
    return out


_MCI_CORPUS = tuple(mci_exponents(MCI_CAP))


def _mci_op(exponents, search_seed: int) -> dict:
    a = L.monomial_complete_intersection(L.QQ, exponents)
    hilbert = a.hilbert_function()
    socle, _ = a.socle_dimensions()
    search = L.search_strong(a, trials=8, seed=search_seed)
    control = L.certify_element(a, a.generators()[0], "strong")
    return {
        "hilbert": hilbert,
        "socle": socle,
        "search": {"certified": search.certified, "rows": _rows(search.profiles)},
        "control": {"certified": control.certified, "rows": _rows(control.profiles)},
    }


def mci_round(seed: int, round_index: int, scratch: Path) -> list[Op]:
    rng = _round_rng(seed, round_index)
    corpus = list(_MCI_CORPUS)
    rng.shuffle(corpus)
    return [
        Op("mci", lambda e=e, s=rng.randrange(2**31): _mci_op(e, s), lambda out, e=e: R.check_mci(e, out))
        for e in corpus
    ]


# -- quotient512-gf: the 512-dimensional tower over GF(32003) --------------------

Q_PRIME = 32003
Q_EXPONENTS = (4, 4, 4, 4, 2)
Q_FORM_DEGREE = 8
Q_POWER = 9
Q_FORMS = 2  # random degree-8 forms per round, five ops each
# Two library quotients per form, with different linear forms: with equal
# numbers of fast and slow op kinds the median would fall in the gap between
# them; this way it falls among the `hilbert` ops.
Q_LINEAR_FORMS = 2


def _monomial_text(m) -> str:
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m, start=1) if e)


def _label_exponents(label: str, nvars: int) -> tuple[int, ...]:
    e = [0] * nvars
    for part in label.split("*"):
        var, _, power = part.partition("^")
        e[int(var[1:]) - 1] = int(power or 1)
    return tuple(e)


def spec_text(form: dict) -> str:
    """Spec file of the tower quotiented by the given degree-8 form."""
    lines = [f"field prime {Q_PRIME}"]
    lines += [f"extend x{i} : x{i}^{a}" for i, a in enumerate(Q_EXPONENTS, start=1)]
    lines.append("quotient : " + " + ".join(f"{c}*{_monomial_text(m)}" for m, c in form.items()))
    return "\n".join(lines) + "\n"


def _cli_json(args) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--format", "json", *args])
    return rc, json.loads(out.getvalue())


def _cli_hilbert(path: str) -> dict:
    rc, rep = _cli_json(["hilbert", path])
    return {"rc": rc, "values": rep["hilbert"]["values"], "socle": rep["hilbert"]["socle"]}


def _cli_strong(path: str, seed: int) -> dict:
    rc, rep = _cli_json(["check", path, "--mode", "strong", "--trials", "8", "--seed", str(seed)])
    rows = [[p["power"], row["i"], row["dim_source"], row["dim_target"], row["rank"]]
            for p in rep["profiles"] for row in p["rows"]]
    return {"rc": rc, "values": rep["hilbert"]["values"], "status": rep["verdicts"][0]["status"], "rows": rows}


def _cli_maxrank(path: str, seed: int) -> dict:
    rc, rep = _cli_json(["check", path, "--mode", "maxrank", "--trials", "8", "--seed", str(seed)])
    per_degree = [(v["degree"], v["verdict"]) for v in rep["extras"]["maxrank"]["per_degree"]]
    return {"rc": rc, "values": rep["hilbert"]["values"], "per_degree": per_degree}


def _power_quotient(form: dict, l_coeffs) -> dict:
    """B = A/(g) through the library, then C = B/(l^9)."""
    a = L.monomial_complete_intersection(L.GF(Q_PRIME), Q_EXPONENTS)
    labels = a.basis_labels(Q_FORM_DEGREE)
    g = a.element(Q_FORM_DEGREE, [form[_label_exponents(lb, len(Q_EXPONENTS))] for lb in labels])
    b = a.quotient(g)
    terms = [x.scale(c) for x, c in zip(b.generators(), l_coeffs)]
    l = terms[0]
    for t in terms[1:]:
        l = l + t
    c = b.quotient(l**Q_POWER)
    return {"hilbert_b": b.hilbert_function(), "hilbert_c": c.hilbert_function()}


def quotient_round(seed: int, round_index: int, scratch: Path) -> list[Op]:
    rng = _round_rng(seed, round_index)
    h_b = R.generic_quotient(R.hilbert_product(Q_EXPONENTS), Q_FORM_DEGREE)
    monomials = R.monomials(Q_EXPONENTS, Q_FORM_DEGREE)
    ops = []
    for k in range(Q_FORMS):
        form = {m: rng.randrange(1, Q_PRIME) for m in monomials}
        path = scratch / f"form{k}.spec"
        path.write_text(spec_text(form))
        p = str(path)
        search_seed = rng.randrange(2**31)
        ops += [
            Op("cli_hilbert", lambda p=p: _cli_hilbert(p), lambda out: R.check_quotient_hilbert(h_b, out)),
            Op("cli_strong", lambda p=p, s=search_seed: _cli_strong(p, s),
               lambda out: R.check_quotient_strong(h_b, out)),
            Op("cli_maxrank", lambda p=p, s=search_seed: _cli_maxrank(p, s),
               lambda out: R.check_quotient_maxrank(h_b, out)),
        ]
        for _ in range(Q_LINEAR_FORMS):
            l_coeffs = [rng.randrange(1, Q_PRIME) for _ in Q_EXPONENTS]
            ops.append(Op("power_quotient", lambda f=form, c=l_coeffs: _power_quotient(f, c),
                          lambda out: R.check_power_quotient(h_b, Q_POWER, out)))
    rng.shuffle(ops)
    return ops


# -- extension-qq: random towers with general monic relations over QQ -----------

# Every depth-3 tower over {2, 3, 4} and every depth-4 tower over {2, 3}: the
# shapes are fixed so that only coefficients change with the seed.
TOWER_SHAPES = [(a, b, c) for a in (2, 3, 4) for b in (2, 3, 4) for c in (2, 3, 4)] + [
    (a, b, c, d) for a in (2, 3) for b in (2, 3) for c in (2, 3) for d in (2, 3)
]
CAUCHY_SIZES = range(1, 29)
COEFF_RANGE = 10


def _coeffs(rng, n: int, nonzero: bool = False) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(n))
        if not nonzero or not n or any(v):
            return v


def _monic(a, coeffs):
    return L.MonicPoly(a, len(coeffs), [a.element(i, c) for i, c in enumerate(coeffs, start=1)])


def _tower_op(relations, dual, elem, search_seed: int) -> dict:
    a = L.trivial_algebra(L.QQ)
    for k, rel in enumerate(relations, start=1):
        a = a.extend(f"u{k}", _monic(a, rel))
    search = L.search_strong(a, trials=8, seed=search_seed)
    outcome = theorems.verify_duality_instance(a, _monic(a, dual), a.element(1, elem))
    return {
        "hilbert": a.hilbert_function(),
        "certified": search.certified,
        "rows": _rows(search.profiles),
        "duality": (outcome.lhs, outcome.rhs),
    }


def _cauchy_op(r: int) -> list:
    out = []
    for t in range(r):
        nonsingular, det = theorems.s_matrix_nonsingular(r, t)
        out.append((t, det, nonsingular))
    return out


def extension_round(seed: int, round_index: int, scratch: Path) -> list[Op]:
    rng = _round_rng(seed, round_index)
    ops = []
    for n, degrees in enumerate(TOWER_SHAPES):
        relations = []
        for k, d in enumerate(degrees):
            h = R.hilbert_product(degrees[:k])
            # a_1 is nonzero wherever A_1 is, so every relation past the
            # first is general rather than a pure power.
            relations.append([_coeffs(rng, R.at(h, i), nonzero=i == 1) for i in range(1, d + 1)])
        h = R.hilbert_product(degrees)
        dual_degree = min(1 + n % 4, len(h))
        dual = [_coeffs(rng, R.at(h, i)) for i in range(1, dual_degree + 1)]
        elem = _coeffs(rng, h[1], nonzero=True)
        search_seed = rng.randrange(2**31)
        ops.append(Op(
            "tower",
            lambda rel=relations, du=dual, e=elem, s=search_seed: _tower_op(rel, du, e, s),
            lambda out, d=degrees: R.check_tower(d, out),
        ))
    ops += [Op("cauchy", lambda r=r: _cauchy_op(r), lambda out, r=r: R.check_cauchy(r, out)) for r in CAUCHY_SIZES]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "mci-qq": Workload(mci_round, min_rounds=1),
    "quotient512-gf": Workload(quotient_round, min_rounds=4),
    "extension-qq": Workload(extension_round, min_rounds=1),
}
