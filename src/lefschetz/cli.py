"""Command-line front end.

Subcommands:

* ``hilbert <spec>`` -- Hilbert function, symmetry/unimodality, socle data.
* ``check <spec> --mode weak|strong|maxrank`` -- randomized certification.
* ``verify coefficients|smatrix|duality|blockmatrix|stanley`` -- identity sweeps.
* ``reproduce gegen`` -- the full quotient-counterexample pipeline.

Exit status: 0 when every verdict is as expected, 1 when a verification
failed or a search stayed inconclusive, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .algebra import check_symmetric_unimodal
from .certify import maximal_rank_property, search_strong, search_weak
from .report import (
    Report,
    emit_report,
    lefschetz_report_to_dict,
    maxrank_report_to_dict,
    profile_to_dict,
)
from .specfile import AlgebraSpec, SpecError, parse_spec
from .sweeps import (
    HILBERT_GENERIC_QUOTIENT,
    HILBERT_POWER_QUOTIENT,
    reproduce_counterexample,
    sweep_block_matrices,
    sweep_coefficient_identities,
    sweep_duality,
    sweep_s_matrices,
    sweep_stanley,
)


def _field_label(spec: AlgebraSpec) -> str:
    return "rational" if spec.field.kind == "rationals" else f"prime {spec.field.char}"


def _load_spec(path: str) -> AlgebraSpec:
    return parse_spec(Path(path).read_text())


def _hilbert_payload(algebra) -> dict:
    h = algebra.hilbert_function()
    symmetric, unimodal = check_symmetric_unimodal(h)
    socle, gorenstein = algebra.socle_dimensions()
    return {
        "values": h,
        "sigma": algebra.sigma,
        "multiplicity": algebra.multiplicity(),
        "symmetric": symmetric,
        "unimodal": unimodal,
        "gorenstein": gorenstein,
        "socle": socle,
    }


def _cmd_hilbert(args) -> tuple[Report, int]:
    spec = _load_spec(args.spec)
    algebra = spec.build()
    report = Report(
        command=f"hilbert {args.spec}",
        field=_field_label(spec),
        spec_fingerprint=spec.fingerprint(),
        hilbert=_hilbert_payload(algebra),
    )
    return report, 0


def _cmd_check(args) -> tuple[Report, int]:
    spec = _load_spec(args.spec)
    algebra = spec.build()
    report = Report(
        command=f"check {args.spec} --mode {args.mode} --trials {args.trials} --seed {args.seed}",
        field=_field_label(spec),
        spec_fingerprint=spec.fingerprint(),
        seeds={"search": args.seed},
        hilbert={"values": algebra.hilbert_function(),
                 "sigma": algebra.sigma,
                 "multiplicity": algebra.multiplicity()},
    )
    if args.mode == "maxrank":
        rep = maximal_rank_property(algebra, trials=args.trials, seed=args.seed)
        report.verdicts = [
            {"name": f"maxrank_degree_{v.degree}", "status": str(v.verdict),
             "detail": f"trials {v.trials_used}"}
            for v in rep.per_degree
        ]
        report.extras["maxrank"] = maxrank_report_to_dict(rep, include_profiles=False, include_elements=False)
        return report, 0 if rep.all_certified else 1
    search = search_weak if args.mode == "weak" else search_strong
    rep = search(algebra, trials=args.trials, seed=args.seed)
    detail = f"element {rep.element}, trials {rep.trials_used}" if rep.element else None
    report.verdicts = [{"name": f"search_{args.mode}", "status": str(rep.verdict), "detail": detail}]
    report.profiles = [profile_to_dict(p) for p in rep.profiles]
    report.extras["search"] = lefschetz_report_to_dict(rep, include_profiles=False)
    return report, 0 if rep.certified else 1


def _sweep_report(command: str, result, seeds: dict | None = None) -> tuple[Report, int]:
    report = Report(command=command, seeds=seeds or {})
    report.verdicts = [{
        "name": result.name,
        "status": "ok" if result.passed else "failed",
        "detail": f"{result.total} checks",
    }]
    if result.failures:
        report.extras["failures"] = result.failures[:50]
    return report, 0 if result.passed else 1


def _cmd_verify(args) -> tuple[Report, int]:
    if args.target == "coefficients":
        result = sweep_coefficient_identities(k_max=args.kmax, r_max=args.rmax)
        return _sweep_report(f"verify coefficients --kmax {args.kmax} --rmax {args.rmax}", result)
    if args.target == "smatrix":
        result = sweep_s_matrices(r_max=args.rmax)
        return _sweep_report(f"verify smatrix --rmax {args.rmax}", result)
    if args.target == "duality":
        result = sweep_duality(instances=args.instances, seed=args.seed)
        return _sweep_report(
            f"verify duality --instances {args.instances} --seed {args.seed}",
            result, {"sampling": args.seed},
        )
    if args.target == "blockmatrix":
        result = sweep_block_matrices(seed=args.seed)
        return _sweep_report(f"verify blockmatrix --seed {args.seed}", result, {"sampling": args.seed})
    if args.target == "stanley":
        result = sweep_stanley(dim_cap=args.dimcap, trials=args.trials, seed=args.seed)
        return _sweep_report(
            f"verify stanley --dimcap {args.dimcap} --trials {args.trials} --seed {args.seed}",
            result, {"search": args.seed},
        )
    raise AssertionError(f"unhandled verify target {args.target}")


def _cmd_reproduce(args) -> tuple[Report, int]:
    pipe = reproduce_counterexample(seed=args.seed, trials=args.trials)
    report = Report(
        command=f"reproduce gegen --seed {args.seed}",
        field=f"prime {pipe.prime}",
        seeds={"pipeline": pipe.seed},
    )

    def stage(name, ok, detail):
        report.verdicts.append({"name": name, "status": "ok" if ok else "failed", "detail": detail})

    stage("base_hilbert", pipe.base_ok, " ".join(str(v) for v in pipe.hilb_base))
    report.extras["hilbert_base"] = pipe.hilb_base
    if pipe.hilb_b is not None:
        stage(
            "generic_quotient_hilbert",
            pipe.b_ok,
            f"computed {' '.join(str(v) for v in pipe.hilb_b)} (form seed {pipe.seed_b}), "
            f"reference {' '.join(str(v) for v in HILBERT_GENERIC_QUOTIENT)}",
        )
        report.extras["hilbert_generic_quotient"] = pipe.hilb_b
    if pipe.hilb_c is not None:
        stage(
            "power_quotient_hilbert",
            pipe.c_ok,
            f"computed {' '.join(str(v) for v in pipe.hilb_c)} (form seed {pipe.seed_c}), "
            f"reference {' '.join(str(v) for v in HILBERT_POWER_QUOTIENT)}",
        )
        report.extras["hilbert_power_quotient"] = pipe.hilb_c
    if pipe.certificate is not None:
        stage("rank_defect_certificate", pipe.certificate_ok, pipe.certificate.summary())
    else:
        stage("rank_defect_certificate", False,
              "no certificate: the degree-10 map of the sampled ninth power has maximal rank")
    if pipe.maxrank is not None:
        stage("maximal_rank_property", pipe.maxrank_ok,
              f"degrees 1..{len(pipe.maxrank.per_degree)}")
        report.extras["maxrank"] = maxrank_report_to_dict(pipe.maxrank, include_profiles=False, include_elements=False)
    return report, 0 if pipe.ok else 1


def _at_least(low: int):
    """Argument type: an integer no smaller than low, else a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description="Exact Lefschetz-property certification for graded Artinian algebras.",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hilbert = sub.add_parser("hilbert", help="Hilbert function and socle data of a spec file")
    p_hilbert.add_argument("spec", help="algebra spec file")
    p_hilbert.set_defaults(func=_cmd_hilbert)

    p_check = sub.add_parser("check", help="randomized Lefschetz / maximal-rank certification")
    p_check.add_argument("spec", help="algebra spec file")
    p_check.add_argument("--mode", choices=["weak", "strong", "maxrank"], required=True)
    p_check.add_argument("--trials", type=_at_least(1), default=8)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="exhaustive identity sweeps")
    v_sub = p_verify.add_subparsers(dest="target", required=True)
    v_coeff = v_sub.add_parser("coefficients", help="reduction coefficients vs rewriting oracle")
    v_coeff.add_argument("--kmax", type=_at_least(1), default=8)
    v_coeff.add_argument("--rmax", type=_at_least(0), default=25)
    v_smatrix = v_sub.add_parser("smatrix", help="Cauchy-type nonsingularity sweep")
    v_smatrix.add_argument("--rmax", type=_at_least(1), default=30)
    v_duality = v_sub.add_parser("duality", help="two-sided Lefschetz duality instances")
    v_duality.add_argument("--instances", type=_at_least(1), default=50)
    v_duality.add_argument("--seed", type=int, default=0)
    v_block = v_sub.add_parser("blockmatrix", help="block matrix rank vs direct rank")
    v_block.add_argument("--seed", type=int, default=0)
    v_stanley = v_sub.add_parser("stanley", help="strong Lefschetz over monomial complete intersections")
    v_stanley.add_argument("--dimcap", type=_at_least(1), default=256)
    v_stanley.add_argument("--trials", type=_at_least(1), default=8)
    v_stanley.add_argument("--seed", type=int, default=0)
    for p in (v_coeff, v_smatrix, v_duality, v_block, v_stanley):
        p.set_defaults(func=_cmd_verify)

    p_repro = sub.add_parser("reproduce", help="reproduce a documented computation end to end")
    p_repro.add_argument("target", choices=["gegen"],
                         help="gegen: quotient counterexample pipeline")
    p_repro.add_argument("--seed", type=int, default=1)
    p_repro.add_argument("--trials", type=_at_least(1), default=8)
    p_repro.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, status = args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.timing_seconds = time.perf_counter() - started
    payload = emit_report(report, fmt=args.format)
    if args.output:
        Path(args.output).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())
    return status


if __name__ == "__main__":
    sys.exit(main())
