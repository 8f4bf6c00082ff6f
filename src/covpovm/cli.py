"""Command-line surface.

Construct observables, analyze POVM files for (pure-state) informational
completeness, inspect groups, and print the embedded minimal-outcome tables.
Machine-readable reports go to stdout as JSON; one-line human summaries go to
stderr.  Exit codes: 0 the command ran to completion (verdicts live in the
report), 2 invalid input or violated construction condition, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import povm as pv
from .errors import CovPovmError, DomainError, UnknownDimensionError
from .linalg import decode_complex, encode_complex


@dataclass
class Report:
    command: str
    inputs: dict
    verdicts: dict
    provenance: dict = field(default_factory=dict)
    tool_version: str = __version__


def _emit(report: Report, summary: str) -> None:
    print(json.dumps(asdict(report), indent=2))
    print(summary, file=sys.stderr)


def _parse_floats(text: str, n: int, what: str) -> list:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != n:
        raise CovPovmError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise CovPovmError(f"{what}: {exc}") from exc
    for part, value in zip(parts, values):
        if not math.isfinite(value):
            raise CovPovmError(f"{what}: {part!r} is not a finite number")
    return values


def _finite_float(text: str) -> float:
    """argparse type of the single-number options: a float, but not nan or inf."""
    try:
        value = float(text)
    except ValueError:  # argparse's own wording for a bad float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _verdict_dict(verdict: pv.PicVerdict) -> dict:
    out = {
        "status": verdict.status,
        "complement_dim": verdict.complement_dim,
        "residual": verdict.residual,
    }
    if verdict.witness is not None:
        psi, phi = verdict.witness
        out["witness"] = {"psi": encode_complex(psi), "phi": encode_complex(phi)}
    else:
        out["witness"] = None
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate
    return out


def _validation_dict(report: pv.PovmValidation) -> dict:
    return {
        "hermiticity_defect": report.hermiticity_defect,
        "min_eigenvalue": report.min_eigenvalue,
        "normalization_defect": report.normalization_defect,
        "passed": report.passed,
    }


def _write_povm(povm: pv.Povm, path: str) -> None:
    """Write the POVM document with one outcome per line.

    Each outcome is encoded and dumped on its own, on the C encoder
    (``indent`` would select the pure-Python one), so only one outcome's
    lists and line are held at a time; the bytes parse to ``povm_to_json``.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"dim": {povm.dim}, "outcomes": [\n')
            for pos, (label, op) in enumerate(zip(povm.labels, povm.ops)):
                fh.write(json.dumps(pv.outcome_to_json(label, op)))
                fh.write(",\n" if pos < len(povm) - 1 else "\n")
            fh.write("]}\n")
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc}") from exc


class _IoFailure(Exception):
    pass


# --- construct -----------------------------------------------------------------
# each kind's builder returns its observable, construction name and own report inputs

def _build_wh(args) -> tuple:
    from . import constructions as cx

    if args.mixed:
        seed = np.eye(args.dim, dtype=complex) / args.dim ** 2
    else:
        seed = cx.default_wh_seed(args.dim, args.rng_seed)
    # the representation is not kept: its arrays are freed before the write
    povm = cx.build_weyl_heisenberg(cx.WhParams(args.dim, seed, require_ic=not args.mixed))[0]
    return povm, "weyl-heisenberg", {"dim": args.dim, "rng_seed": args.rng_seed,
                                     "mixed": args.mixed}


def _build_pic3(args) -> tuple:
    from . import constructions as cx

    params = cx.default_pic3_params("quaternion" if args.kind == "quat3" else "dihedral")
    if args.alpha is not None:
        params.alpha = tuple(_parse_floats(args.alpha, 3, "--alpha"))
    if args.v is not None:
        parts = _parse_floats(args.v, 4, "--v")
        params.v = tuple(decode_complex([parts[:2], parts[2:]], "--v"))
    povm = cx.build_pic3(params, enforce_conditions=not args.bypass_conditions)[0]
    return povm, args.kind, {"alpha": list(params.alpha), "v": encode_complex(params.v),
                             "bypass_conditions": args.bypass_conditions}


def _build_rank1(args) -> tuple:
    from . import constructions as cx

    alpha = (1 / np.sqrt(192),) * 3
    if args.alpha is not None:
        alpha = tuple(_parse_floats(args.alpha, 3, "--alpha"))
    povm = cx.build_rank1_pic3(args.gamma, alpha)
    return povm, "rank1", {"gamma": args.gamma, "alpha": list(alpha)}


def _cmd_construct(args) -> int:
    # every kind takes --rng-seed, and checks it whether or not it draws a seed
    if args.rng_seed < 0:
        raise DomainError(f"the rng seed must be non-negative, got {args.rng_seed}")
    povm, construction, own = args.build(args)
    inputs = {"kind": args.kind, "out": args.out, **own}
    _write_povm(povm, args.out)
    verdicts = {"outcomes": len(povm), "dim": povm.dim, "span_dim": pv.operator_span(povm).dim,
                "validation": _validation_dict(pv.validate(povm))}
    provenance = {"construction": construction, "parameters": dict(inputs)}
    report = Report(command="construct", inputs=inputs, verdicts=verdicts, provenance=provenance)
    _emit(report, f"wrote {len(povm)}-outcome observable to {args.out}")
    return 0


# --- analyze -------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    # checked before the file is read, whether or not a search runs
    settings = pv.FalsifierSettings(restarts=args.falsifier_restarts, rng_seed=args.rng_seed)
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _IoFailure(f"cannot read {args.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CovPovmError(
            f"{args.file} is not valid JSON: line {exc.lineno}, column {exc.colno}"
        ) from exc
    povm = pv.povm_from_json(doc)
    span = pv.operator_span(povm)
    verdicts: dict = {
        "dim": povm.dim,
        "outcomes": len(povm),
        "span_dim": span.dim,
        "complement_dim": povm.dim ** 2 - span.dim,
        "validation": _validation_dict(povm.validation),
        "ic": span.dim == povm.dim ** 2,
    }
    summary = f"{args.file}: span {span.dim}/{povm.dim ** 2}, ic={verdicts['ic']}"
    if args.pic:
        verdict = pv._pic_verdict(span, settings)
        verdicts["pic"] = _verdict_dict(verdict)
        summary += f", pic={verdict.status}"
    report = Report(
        command="analyze",
        inputs={
            "file": args.file,
            "pic": args.pic,
            "rng_seed": args.rng_seed,
            "falsifier_restarts": args.falsifier_restarts,
        },
        verdicts=verdicts,
        provenance={"source": args.file},
    )
    _emit(report, summary)
    return 0


# --- group ---------------------------------------------------------------------

def _cmd_group(args) -> int:
    from . import constructions as cx
    from . import group as grp
    from . import rep as rp

    group = grp.build_group(args.kind)
    verdicts: dict = {
        "order": group.order,
        "abelian": group.is_abelian(),
        "names": list(group.names),
        "order_census": {str(k): v for k, v in sorted(group.order_census().items())},
    }
    try:
        dual = rp.irreps_of(group)
        verdicts["irreps"] = [
            {
                "name": irr.name,
                "dim": irr.dim,
                "character": encode_complex(irr.character),
            }
            for irr in dual
        ]
    except NotImplementedError:
        verdicts["irreps"] = None
    summary = f"{args.kind}: order {group.order}, abelian={group.is_abelian()}"
    exit_code = 0
    if args.cosets is not None:
        # product elements are named "(a,b)": split at top-level commas only
        members = [
            group.index_of(name.strip()) for name in grp._split_product_args(args.cosets)
        ]
        sub = grp.subgroup_generated(group, members)
        cosets = grp.coset_space(group, sub)
        verdicts["subgroup"] = list(sub.names())
        verdicts["coset_count"] = cosets.size
        summary += f", {cosets.size} cosets"
        if args.obstruction:
            try:
                report = cx.prime_index_obstruction(group, sub)
                verdicts["obstruction"] = asdict(report)
                summary += f", obstruction generator {report.generator_name}"
            except CovPovmError as exc:
                scan = grp.find_cyclic_transitive_subgroup(group, sub)
                found = None if scan is None else list(scan.names())
                verdicts["obstruction"] = {
                    "error": str(exc),
                    "cyclic_transitive_subgroup": found,
                }
                index = group.order // sub.order
                summary += f"; index {index} not prime"
                if scan is None:
                    summary += "; no cyclic transitive subgroup"
                exit_code = 2
    elif args.obstruction:
        raise CovPovmError("--obstruction needs --cosets to fix the subgroup")
    report = Report(
        command="group",
        inputs={"kind": args.kind, "cosets": args.cosets, "obstruction": args.obstruction},
        verdicts=verdicts,
        provenance={"construction": "group-table"},
    )
    _emit(report, summary)
    return exit_code


# --- tables ----------------------------------------------------------------------

def _cmd_tables(args) -> int:
    from . import constructions as cx

    if args.dim is not None:
        try:
            rec = cx.minimal_pic_outcomes(args.dim)
            verdicts = {"record": asdict(rec), "known": True}
            summary = f"dim {args.dim}: minimal outcomes {rec.min_outcomes}"
        except UnknownDimensionError as exc:
            low, high = exc.bound
            verdicts = {
                "record": None,
                "known": False,
                "general_bound": [low, high],
            }
            summary = f"dim {args.dim}: not tabulated, bound [{low}, {high}]"
    else:
        verdicts = {
            "min_outcomes": {
                str(d): list(v) if isinstance(v, tuple) else v
                for d, v in sorted(cx.MIN_OUTCOMES_BY_DIM.items())
            },
            "prime_dimensions": {
                str(d): v for d, v in sorted(cx.PRIME_MIN_OUTCOMES_BY_DIM.items())
            },
        }
        summary = (
            f"{len(cx.MIN_OUTCOMES_BY_DIM)} tabulated dimensions, "
            f"{len(cx.PRIME_MIN_OUTCOMES_BY_DIM)} with prime minima"
        )
    report = Report(
        command="tables",
        inputs={"dim": args.dim},
        verdicts=verdicts,
        provenance={"construction": "embedded-tables"},
    )
    _emit(report, summary)
    return 0


# --- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covpovm",
        description="construct and analyze finite-group-covariant quantum observables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build an observable and write it to a file")
    kinds = c.add_subparsers(dest="kind", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--out", required=True, help="output POVM JSON path")
    common.add_argument("--rng-seed", type=int, default=0)

    wh = kinds.add_parser("wh", parents=[common], help="d^2-outcome shift/clock observable")
    wh.add_argument("--dim", type=int, required=True, help="dimension")
    wh.add_argument("--mixed", action="store_true", help="use the maximally mixed seed (not IC)")
    wh.set_defaults(func=_cmd_construct, build=_build_wh)

    for kind, group in (("quat3", "quaternion"), ("dihedral3", "dihedral")):
        k = kinds.add_parser(kind, parents=[common], help=f"8-outcome {group} observable, d = 3")
        k.add_argument("--alpha", default=None, help="comma-separated alpha components")
        k.add_argument("--v", default=None, help="v as re1,im1,re2,im2")
        k.add_argument("--bypass-conditions", action="store_true",
                       help="skip the parameter preconditions")
        k.set_defaults(func=_cmd_construct, build=_build_pic3)

    r = kinds.add_parser("rank1", parents=[common], help="rank-1 quaternion observable, d = 3")
    r.add_argument("--alpha", default=None, help="comma-separated alpha components")
    r.add_argument("--gamma", type=_finite_float, default=0.0, help="phase")
    r.set_defaults(func=_cmd_construct, build=_build_rank1)

    a = sub.add_parser("analyze", help="analyze a POVM file")
    a.add_argument("file")
    a.add_argument("--pic", action="store_true", help="run the pure-state analysis")
    a.add_argument("--rng-seed", type=int, default=pv.FalsifierSettings.rng_seed)
    a.add_argument("--falsifier-restarts", type=int, default=pv.FalsifierSettings.restarts,
                   help="witness-search starts")
    a.set_defaults(func=_cmd_analyze)

    g = sub.add_parser("group", help="inspect a group and its representations")
    g.add_argument("kind", help="cyclic:N, quaternion, dihedral8, or product(A,B)")
    g.add_argument("--cosets", default=None,
                   help="comma-separated element names generating the subgroup")
    g.add_argument("--obstruction", action="store_true",
                   help="run the prime-index obstruction for the chosen subgroup")
    g.set_defaults(func=_cmd_group)

    t = sub.add_parser("tables", help="print the minimal-outcome tables")
    t.add_argument("--dim", type=int, default=None)
    t.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_IoFailure, CovPovmError, NotImplementedError) as exc:
        print(str(exc), file=sys.stderr)
        print(json.dumps({"command": args.command, "error": str(exc)}, indent=2))
        return 3 if isinstance(exc, _IoFailure) else 2


if __name__ == "__main__":
    sys.exit(main())
