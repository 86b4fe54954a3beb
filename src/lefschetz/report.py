"""Deterministic structured reports.

A report is a fixed-schema tree rendered either as human-readable text or as
JSON with sorted keys.  Identical inputs and seeds produce byte-identical
output once the timing field is excluded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .certify import LefschetzReport, MaximalRankReport, RankProfile


def profile_to_dict(profile: RankProfile) -> dict:
    return {
        "element_degree": profile.element_degree,
        "power": profile.power,
        "maximal": profile.is_maximal,
        "rows": [
            {
                "i": row.i,
                "dim_source": row.dim_source,
                "dim_target": row.dim_target,
                "rank": row.rank,
                "maximal": row.is_maximal,
            }
            for row in profile.rows
        ],
    }


def lefschetz_report_to_dict(rep: LefschetzReport, include_profiles: bool = True) -> dict:
    out = {
        "algebra": rep.algebra,
        "mode": rep.mode,
        "verdict": str(rep.verdict),
        "element": rep.element,
        "trials_used": rep.trials_used,
        "seed": rep.seed,
        "probabilistic_field": rep.probabilistic_field,
    }
    if rep.failure is not None:
        out["failure"] = {"power": rep.failure[0], "i": rep.failure[1]}
    if include_profiles:
        out["profiles"] = [profile_to_dict(p) for p in rep.profiles]
    return out


def maxrank_report_to_dict(
    rep: MaximalRankReport, include_profiles: bool = True, include_elements: bool = True
) -> dict:
    out = {
        "algebra": rep.algebra,
        "seed": rep.seed,
        "trials": rep.trials,
        "all_certified": rep.all_certified,
        "probabilistic_field": rep.probabilistic_field,
        "per_degree": [
            {
                "degree": v.degree,
                "verdict": str(v.verdict),
                "trials_used": v.trials_used,
                **({"element": v.element} if include_elements else {}),
                **({"profile": profile_to_dict(v.profile)} if include_profiles and v.profile else {}),
            }
            for v in rep.per_degree
        ],
    }
    return out


@dataclass
class Report:
    """Everything a command run produced, in presentation-ready form."""

    command: str
    field: Optional[str] = None
    spec_fingerprint: Optional[str] = None
    seeds: dict = dc_field(default_factory=dict)
    hilbert: Optional[dict] = None
    verdicts: list = dc_field(default_factory=list)  # [{"name", "status", "detail"?}]
    profiles: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)
    timing_seconds: Optional[float] = None

    def to_dict(self, include_timing: bool = True) -> dict:
        out: dict = {"command": self.command}
        if self.field is not None:
            out["field"] = self.field
        if self.spec_fingerprint is not None:
            out["spec_fingerprint"] = self.spec_fingerprint
        if self.seeds:
            out["seeds"] = dict(sorted(self.seeds.items()))
        if self.hilbert is not None:
            out["hilbert"] = self.hilbert
        if self.verdicts:
            out["verdicts"] = self.verdicts
        if self.profiles:
            out["profiles"] = self.profiles
        if self.extras:
            out["extras"] = self.extras
        if include_timing and self.timing_seconds is not None:
            out["timing_seconds"] = round(self.timing_seconds, 6)
        return out


def _hilbert_lines(h: dict) -> list[str]:
    lines = [f"hilbert: {' '.join(str(v) for v in h['values'])}"]
    lines.append(f"sigma: {h['sigma']}  multiplicity: {h['multiplicity']}")
    flags = []
    for key in ("symmetric", "unimodal", "gorenstein"):
        if key in h:
            flags.append(f"{key}={str(h[key]).lower()}")
    if flags:
        lines.append("flags: " + " ".join(flags))
    if "socle" in h:
        lines.append(f"socle: {' '.join(str(v) for v in h['socle'])}")
    return lines


def _profile_lines(p: dict) -> list[str]:
    head = f"profile power={p['power']} (element degree {p['element_degree']}): " + (
        "maximal" if p["maximal"] else "NOT maximal"
    )
    rows = [
        f"  i={row['i']:>2}  {row['dim_source']:>3} -> {row['dim_target']:>3}  rank {row['rank']:>3}  "
        + ("max" if row["maximal"] else "DEFECT")
        for row in p["rows"]
    ]
    return [head] + rows


def render_text(report: Report, include_timing: bool = True) -> str:
    lines = [f"command: {report.command}"]
    if report.field is not None:
        lines.append(f"field: {report.field}")
    if report.spec_fingerprint is not None:
        lines.append(f"spec: {report.spec_fingerprint}")
    for name, value in sorted(report.seeds.items()):
        lines.append(f"seed {name}: {value}")
    if report.hilbert is not None:
        lines.extend(_hilbert_lines(report.hilbert))
    for v in report.verdicts:
        detail = f"  ({v['detail']})" if v.get("detail") else ""
        lines.append(f"verdict {v['name']}: {v['status']}{detail}")
    for p in report.profiles:
        lines.extend(_profile_lines(p))
    for key in sorted(report.extras):
        value = report.extras[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    if include_timing and report.timing_seconds is not None:
        lines.append(f"timing: {report.timing_seconds:.3f}s")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str = "text", include_timing: bool = True) -> bytes:
    if fmt == "text":
        return render_text(report, include_timing).encode()
    if fmt == "json":
        return (json.dumps(report.to_dict(include_timing), indent=2, sort_keys=True) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")
