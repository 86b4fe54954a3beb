"""The benchmark's traced run (`bench/run.py --trace 1`) wraps package names
that `bench/tracer.py` looks up by hand.  Install those wrappers and trace one
operation of each kind, so that renaming or deleting a wrapped name fails
here.  A subprocess keeps the wrappers out of the other tests."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from lefschetz import QQ, algebra, certify, cli

t = tracer.Tracer().install()
with t.op(0):
    a = algebra.monomial_complete_intersection(QQ, (2, 2, 3))
    assert certify.search_strong(a, trials=4, seed=1).verdict == certify.Verdict.CERTIFIED_SUCCESS
    assert a.socle_dimensions() == ([0, 0, 0, 0, 1], True)
    x, y, z = a.generators()
    assert a.quotient(x * y + z * z).hilbert_function()[:2] == [1, 3]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["hilbert", sys.argv[3]]) == 0
t.end_first_round()
print(json.dumps({k: v["value"] for k, v in t.metrics(1, 1.0, 1.0).items()}))
"""


def test_traced_run_wraps_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "specs" / "two_squares.spec")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout)
    for name in ("algebra.mult_map.calls", "algebra.multiply.calls", "algebra.quotient.calls", "certify.search.trials"):
        assert m[name] > 0, name
    for name in ("algebra.socle", "certify.search", "specfile.parse_build", "cli", "op"):
        assert m[f"{name}.self_s"] > 0, name
