"""Golden reports: the CLI's JSON reports, `timing_seconds` removed, must stay
byte-identical to the files under tests/golden/.

The files hold `hilbert` and `check --mode weak|strong|maxrank --seed 0` for
every spec in specs/, and `reproduce gegen --seed 1`.  Regenerate them only
from a commit whose reports are known to be right:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from lefschetz.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = sorted(p.name for p in (ROOT / "specs").glob("*.spec"))

COMMANDS = {
    **{f"hilbert-{s[:-5]}": ["hilbert", f"specs/{s}"] for s in SPECS},
    **{
        f"check-{mode}-{s[:-5]}": ["check", f"specs/{s}", "--mode", mode, "--seed", "0"]
        for s in SPECS
        for mode in ("weak", "strong", "maxrank")
    },
    "reproduce-gegen": ["reproduce", "gegen", "--seed", "1"],
}


def report_without_timing(argv, out_path) -> str:
    main(["--format", "json", "--output", str(out_path), *argv])
    payload = json.loads(out_path.read_text())
    payload.pop("timing_seconds", None)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # reports name the spec path as given
    expected = (GOLDEN / f"{name}.json").read_text()
    assert report_without_timing(COMMANDS[name], tmp_path / "report.json") == expected


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(COMMANDS.items()):
            (GOLDEN / f"{name}.json").write_text(report_without_timing(argv, Path(tmp) / "r.json"))
            print(name, file=sys.stderr)
