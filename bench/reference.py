"""Independent reference values and output checks for the benchmark.

Nothing here imports `lefschetz`: every expected value is computed from a
closed formula, so a fault in the program cannot hide in its own reference.

* Hilbert functions of towers of degree-d_i extensions: coefficients of
  prod_i (1 + t + ... + t^{d_i - 1}).
* Rank of x1^r: A_i -> A_{i+r} on a monomial complete intersection
  K[x_1..x_n]/(x_i^{a_i}): sum_k h'(i-k) over 0 <= k <= min(i, a_1-1-r),
  where h' is the Hilbert function without x_1.
* Hilbert function of a quotient by a general form of degree d:
  max(0, h_t - h_{t-d}).
* The Cauchy closed form of det(1/(u_i + v_j)), from Fraction products.

Each `check_*` function takes the plain-data outputs of one benchmark
operation and returns a list of problems; an empty list means the outputs
are correct.  `python3 bench/reference.py` runs the self-test, which feeds
every check a correct answer and then corrupted Hilbert functions, ranks and
determinants, and fails unless each corruption is rejected.
"""

from __future__ import annotations

import sys
from fractions import Fraction

STRONG_CERTIFIED = "certified_success"


# -- closed forms ---------------------------------------------------------------


def hilbert_product(degrees) -> list[int]:
    """Coefficients of prod (1 + t + ... + t^{d-1}) over the given degrees."""
    h = [1]
    for d in degrees:
        out = [0] * (len(h) + d - 1)
        for i, c in enumerate(h):
            for j in range(d):
                out[i + j] += c
        h = out
    return h


def at(h, t: int) -> int:
    """h_t, zero outside the stored range."""
    return h[t] if 0 <= t < len(h) else 0


def x1_power_rank(exponents, r: int, i: int) -> int:
    """Rank of x1^r: A_i -> A_{i+r} on K[x_1..x_n]/(x_1^{a_1}, ..., x_n^{a_n})."""
    rest = hilbert_product(exponents[1:])
    return sum(at(rest, i - k) for k in range(min(i, exponents[0] - 1 - r) + 1))


def generic_quotient(h, d: int) -> list[int]:
    """Hilbert function max(0, h_t - h_{t-d}) of a quotient by a general
    degree-d form, without trailing zeros."""
    out = [max(0, h[t] - at(h, t - d)) for t in range(len(h))]
    while out and out[-1] == 0:
        out.pop()
    return out


def cauchy_closed_form(u, v) -> Fraction:
    """prod_{i<k} (u_k - u_i)(v_k - v_i) / prod_{i,j} (u_i + v_j)."""
    num = Fraction(1)
    for i in range(len(u)):
        for k in range(i + 1, len(u)):
            num *= (u[k] - u[i]) * (v[k] - v[i])
    den = Fraction(1)
    for ui in u:
        for vj in v:
            den *= ui + vj
    return num / den


def s_matrix_det(r: int, t: int) -> Fraction:
    """Determinant of the (t+1)x(t+1) matrix (1/(r-i+j)): u_i = r-i, v_j = j."""
    return cauchy_closed_form([Fraction(r - i) for i in range(t + 1)], [Fraction(j) for j in range(t + 1)])


def monomials(exponents, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-d monomials of K[x_1..x_n]/(x_i^{a_i})."""
    out = [()]
    for a in exponents:
        out = [m + (e,) for m in out for e in range(a)]
    return [m for m in out if sum(m) == degree]


def elimination_det(rows) -> Fraction:
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    m = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


# -- checks ---------------------------------------------------------------------


def _check_rows(label, rows, h, powers, rank_of) -> list[str]:
    """Rows are (r, i, dim_source, dim_target, rank); they must cover every
    power in `powers` and every degree 0 <= i < len(h), with dimensions from
    `h` and the rank `rank_of(r, i, bound)` (None: any rank up to the bound)."""
    problems = []
    want = {(r, i) for r in powers for i in range(len(h))}
    seen = {(r, i) for r, i, *_ in rows}
    if seen != want or len(rows) != len(want):
        problems.append(f"{label}: rows cover {len(seen)} of {len(want)} (power, degree) pairs")
    for r, i, src, tgt, rank in rows:
        if (src, tgt) != (at(h, i), at(h, i + r)):
            problems.append(f"{label}: r={r} i={i} dims {src}x{tgt}, expected {at(h, i)}x{at(h, i + r)}")
            continue
        bound = min(src, tgt)
        expected = rank_of(r, i, bound)
        if not 0 <= rank <= bound or (expected is not None and rank != expected):
            problems.append(f"{label}: r={r} i={i} rank {rank}, expected {expected if expected is not None else f'<= {bound}'}")
    return problems


def _full(r, i, bound):
    return bound


def _at_most(r, i, bound):
    return None


def _strong_powers(h):
    return range(1, max(len(h) - 1, 1) + 1)


def check_mci(exponents, out) -> list[str]:
    """One monomial complete intersection: Hilbert function, socle (a line in
    the top degree: Gorenstein), a certified strong search with full-rank
    rows, and the x1 control profile against the combinatorial ranks."""
    h = hilbert_product(exponents)
    problems = []
    if out["hilbert"] != h:
        problems.append(f"hilbert {out['hilbert']} != {h}")
    if out["socle"] != [0] * (len(h) - 1) + [1]:
        problems.append(f"socle {out['socle']} is not [0, ..., 0, 1]")
    if not out["search"]["certified"]:
        problems.append("strong search not certified")
    problems += _check_rows("search", out["search"]["rows"], h, _strong_powers(h), _full)
    control_rows = out["control"]["rows"]
    problems += _check_rows("x1 control", control_rows, h, _strong_powers(h),
                            lambda r, i, bound: x1_power_rank(exponents, r, i))
    all_maximal = all(rank == min(src, tgt) for _, _, src, tgt, rank in control_rows)
    if out["control"]["certified"] != all_maximal:
        problems.append(f"x1 control verdict {out['control']['certified']} contradicts its ranks")
    return problems


def check_quotient_hilbert(h_b, out) -> list[str]:
    """`hilbert` on B: exit 0, the general-form Hilbert function, and a top
    socle degree equal to h_B(sigma)."""
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit status {out['rc']}")
    if out["values"] != h_b:
        problems.append(f"hilbert {out['values']} != {h_b}")
    socle = out["socle"]
    if len(socle) != len(h_b) or socle[-1] != h_b[-1]:
        problems.append(f"socle {socle} does not end in h_B(sigma) = {h_b[-1]}")
    return problems


def check_quotient_strong(h_b, out) -> list[str]:
    """`check --mode strong` on B: exit 0, certified, every row within its
    bound and with the formula dimensions."""
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit status {out['rc']}")
    if out["values"] != h_b:
        problems.append(f"hilbert {out['values']} != {h_b}")
    if out["status"] != STRONG_CERTIFIED:
        problems.append(f"strong search {out['status']}")
    problems += _check_rows("strong", out["rows"], h_b, _strong_powers(h_b), _at_most)
    return problems


def check_quotient_maxrank(h_b, out) -> list[str]:
    """`check --mode maxrank` on B: exit 0 and every degree 1..sigma certified."""
    problems = []
    if out["rc"] != 0:
        problems.append(f"exit status {out['rc']}")
    if out["values"] != h_b:
        problems.append(f"hilbert {out['values']} != {h_b}")
    want = [(d, STRONG_CERTIFIED) for d in range(1, len(h_b))]
    if out["per_degree"] != want:
        problems.append(f"maxrank per degree {out['per_degree']}")
    return problems


def check_power_quotient(h_b, power, out) -> list[str]:
    """Library quotient C = B/(l^power): both Hilbert functions from the
    general-form formula (for B/(l^9) on the 512-dimensional tower this ends
    ..., 45, 11)."""
    problems = []
    if out["hilbert_b"] != h_b:
        problems.append(f"hilbert of B {out['hilbert_b']} != {h_b}")
    h_c = generic_quotient(h_b, power)
    if out["hilbert_c"] != h_c:
        problems.append(f"hilbert of B/(l^{power}) {out['hilbert_c']} != {h_c}")
    return problems


def check_tower(degrees, out) -> list[str]:
    """Random monic tower: product Hilbert function, a certified strong search
    with full-rank rows, and agreeing sides of the duality instance."""
    h = hilbert_product(degrees)
    problems = []
    if out["hilbert"] != h:
        problems.append(f"hilbert {out['hilbert']} != {h}")
    if not out["certified"]:
        problems.append("strong search not certified")
    problems += _check_rows("search", out["rows"], h, _strong_powers(h), _full)
    lhs, rhs = out["duality"]
    if lhs != rhs:
        problems.append(f"duality sides disagree: {lhs} != {rhs}")
    return problems


def check_cauchy(r: int, out) -> list[str]:
    """Shifted reciprocal matrices of size r: each determinant equals the
    closed form and is nonzero, for every t < r."""
    problems = []
    if [t for t, _, _ in out] != list(range(r)):
        problems.append(f"r={r}: determinants for t={[t for t, _, _ in out]}")
    for t, det, nonsingular in out:
        expected = s_matrix_det(r, t)
        if det != expected:
            problems.append(f"r={r} t={t}: det {det} != {expected}")
        if det == 0 or not nonsingular:
            problems.append(f"r={r} t={t}: reported singular (det {det})")
    return problems


# -- self-test ------------------------------------------------------------------


def _rows(h, rank_of):
    return [[r, i, at(h, i), at(h, i + r), rank_of(r, i, min(at(h, i), at(h, i + r)))]
            for r in _strong_powers(h) for i in range(len(h))]


def _corrupt_rank(rows, index, delta):
    rows = [list(row) for row in rows]
    rows[index][4] += delta
    return rows


def _formula_mismatches() -> list[str]:
    """The closed forms against brute force on small cases: monomial counts,
    images of x1^r on monomials, and determinants by elimination."""
    bad = []
    for exps in [(2,), (2, 2), (2, 3, 4), (3, 3), (3, 4, 5)]:
        h = hilbert_product(exps)
        sigma = sum(a - 1 for a in exps)
        if h != [len(monomials(exps, t)) for t in range(sigma + 1)]:
            bad.append(f"hilbert {exps}")
        for r in range(1, sigma + 1):
            for i in range(sigma + 1):
                images = sum(1 for m in monomials(exps, i) if m[0] + r < exps[0])
                if x1_power_rank(exps, r, i) != images:
                    bad.append(f"x1 rank {exps} r={r} i={i}")
    for r in range(1, 8):
        for t in range(r):
            rows = [[Fraction(1, r - i + j) for j in range(t + 1)] for i in range(t + 1)]
            if s_matrix_det(r, t) != elimination_det(rows):
                bad.append(f"cauchy r={r} t={t}")
    return bad


def self_test() -> list[str]:
    """Returns the names of the cases that were not handled as expected."""
    cases = [("closed forms against brute force", _formula_mismatches, True)]  # (name, check, should_pass)

    exps = (2, 3, 3)
    h = hilbert_product(exps)
    control = _rows(h, lambda r, i, bound: x1_power_rank(exps, r, i))
    mci = {
        "hilbert": h,
        "socle": [0] * (len(h) - 1) + [1],
        "search": {"certified": True, "rows": _rows(h, _full)},
        "control": {"certified": False, "rows": control},
    }
    cases.append(("mci correct", lambda: check_mci(exps, mci), True))
    deficient = next(n for n, row in enumerate(control) if row[4] < min(row[2], row[3]))
    for name, bad in [
        ("mci hilbert", {**mci, "hilbert": h[:-1] + [h[-1] + 1]}),
        ("mci socle", {**mci, "socle": [0] * (len(h) - 2) + [1, 1]}),
        ("mci search verdict", {**mci, "search": {**mci["search"], "certified": False}}),
        ("mci search rank", {**mci, "search": {"certified": True, "rows": _corrupt_rank(mci["search"]["rows"], 3, -1)}}),
        ("mci search row missing", {**mci, "search": {"certified": True, "rows": mci["search"]["rows"][1:]}}),
        ("mci control rank", {**mci, "control": {"certified": False, "rows": _corrupt_rank(control, deficient, 1)}}),
        ("mci control verdict", {**mci, "control": {"certified": True, "rows": control}}),
    ]:
        cases.append((name, lambda bad=bad: check_mci(exps, bad), False))

    h_b = generic_quotient(hilbert_product((4, 4, 4, 4, 2)), 8)
    hilb = {"rc": 0, "values": h_b, "socle": [0] * (len(h_b) - 1) + [h_b[-1]]}
    strong = {"rc": 0, "values": h_b, "status": STRONG_CERTIFIED, "rows": _rows(h_b, _full)}
    maxrank = {"rc": 0, "values": h_b, "per_degree": [(d, STRONG_CERTIFIED) for d in range(1, len(h_b))]}
    power = {"hilbert_b": h_b, "hilbert_c": generic_quotient(h_b, 9)}
    cases += [
        ("quotient hilbert correct", lambda: check_quotient_hilbert(h_b, hilb), True),
        ("quotient hilbert values", lambda: check_quotient_hilbert(h_b, {**hilb, "values": h_b[:-1] + [17]}), False),
        ("quotient hilbert socle", lambda: check_quotient_hilbert(h_b, {**hilb, "socle": hilb["socle"][:-1] + [15]}), False),
        ("quotient hilbert exit", lambda: check_quotient_hilbert(h_b, {**hilb, "rc": 1}), False),
        ("quotient strong correct", lambda: check_quotient_strong(h_b, strong), True),
        ("quotient strong rank", lambda: check_quotient_strong(h_b, {**strong, "rows": _corrupt_rank(strong["rows"], 5, 1)}), False),
        ("quotient strong verdict", lambda: check_quotient_strong(h_b, {**strong, "status": "search_inconclusive"}), False),
        ("quotient maxrank correct", lambda: check_quotient_maxrank(h_b, maxrank), True),
        ("quotient maxrank degree", lambda: check_quotient_maxrank(h_b, {**maxrank, "per_degree": maxrank["per_degree"][:-1]}), False),
        ("power quotient correct", lambda: check_power_quotient(h_b, 9, power), True),
        # The documented reference value ..., 45, 12 must be rejected: the
        # formula gives ..., 45, 11.
        ("power quotient ends 45, 12", lambda: check_power_quotient(h_b, 9, {**power, "hilbert_c": power["hilbert_c"][:-1] + [12]}), False),
        ("power quotient hilbert of B", lambda: check_power_quotient(h_b, 9, {**power, "hilbert_b": h_b[:-1] + [15]}), False),
    ]

    degs = (3, 2, 4)
    h_t = hilbert_product(degs)
    tower = {"hilbert": h_t, "certified": True, "rows": _rows(h_t, _full), "duality": (True, True)}
    cases += [
        ("tower correct", lambda: check_tower(degs, tower), True),
        ("tower hilbert", lambda: check_tower(degs, {**tower, "hilbert": [1] + h_t}), False),
        ("tower rank", lambda: check_tower(degs, {**tower, "rows": _corrupt_rank(tower["rows"], 2, -1)}), False),
        ("tower duality", lambda: check_tower(degs, {**tower, "duality": (True, False)}), False),
    ]

    r = 6
    dets = [(t, s_matrix_det(r, t), True) for t in range(r)]
    cases += [
        ("cauchy correct", lambda: check_cauchy(r, dets), True),
        ("cauchy det", lambda: check_cauchy(r, dets[:2] + [(2, 2 * dets[2][1], True)] + dets[3:]), False),
        ("cauchy zero det", lambda: check_cauchy(r, dets[:-1] + [(r - 1, Fraction(0), False)]), False),
        ("cauchy size missing", lambda: check_cauchy(r, dets[:-1]), False),
    ]

    return [name for name, run, should_pass in cases if (not run()) != should_pass]


if __name__ == "__main__":
    wrong = self_test()
    for name in wrong:
        print(f"not handled as expected: {name}")
    print("reference self-test:", "FAILED" if wrong else "ok")
    sys.exit(1 if wrong else 0)
