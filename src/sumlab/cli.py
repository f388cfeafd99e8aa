"""Command-line surface: subcommands over the library with bit-stable JSON output.

Exit codes: 0 success, 1 a claim counterexample was found (or a verify check
failed), 2 usage error, 3 budget or input-validation error, 4 internal error
(the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
import traceback

from ._version import __version__
from .bounds import (
    CLAIM_IDS,
    COUNTEREXAMPLE,
    _radical_coefficient,
    asym_error_constant,
    bound_value,
    check_claim,
    structure_diagnose,
)
from .compression import CompressionSpec, TraceStep, _slide, reduce as reduce_lines
from .constructions import CONSTRUCTIONS
from .incidence import Direction, Hyperplane, line_partition, min_line_cover
from .pointset import (
    _INTEGER_RE,
    PointSet,
    affine_dimension,
    apply_affine,
    difference_set,
    parse_rational,
    sumset,
    sumset_count,
)
from .search import EXHAUSTIVE, RANDOM, SearchSpec, exhaustive_min_diff, random_probe
from .verify import SUITES, VerifySuite, verify_battery


def _load_pointset(path: str, hashes: dict) -> PointSet:
    with open(path, "rb") as fh:
        data = fh.read()
    hashes[path] = hashlib.sha256(data).hexdigest()
    return PointSet.from_json(json.loads(data))


def _parse_ints(text: str) -> tuple[int, ...]:
    items = text.split(",")
    if not all(_INTEGER_RE.fullmatch(x) for x in items):
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    return tuple(int(x) for x in items)


# read as text by argparse, whose type=int also takes "1_0", " 2" and "+2"
_INT_FLAGS = ("d", "n", "k", "m", "r1", "r2", "a1", "seed", "trials", "budget")


def _parse_int_flags(args) -> None:
    """Replace each integer flag given as text by its value, with the grammar of _parse_ints."""
    for key in _INT_FLAGS:
        text = getattr(args, key, None)
        if isinstance(text, str):
            if not _INTEGER_RE.fullmatch(text):
                raise ValueError(f"--{key} expects an integer, got {text!r}")
            setattr(args, key, int(text))


def _emit(report: dict | str, args) -> None:
    """Write a report to --out or stdout; dicts as indented JSON, strings (CSV) as they are."""
    if isinstance(report, str):
        text = report
    else:
        if args.timestamps:
            report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(hashes: dict) -> dict:
    return {"version": __version__, "input_sha256": hashes}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sumlab", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to a file instead of stdout")
    common.add_argument("--timestamps", action="store_true", help="embed a wall-clock timestamp")

    for name, doc in (("sum", "sumset A + B"), ("diff", "difference set A - B")):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.add_argument("--input", required=True, help="point-set JSON for A")
        p.add_argument("--b", required=True, help="point-set JSON for B")

    p = sub.add_parser("dim", parents=[common], help="affine dimension of a set")
    p.add_argument("--input", required=True)

    p = sub.add_parser("lines", parents=[common], help="line partition or minimal line cover")
    p.add_argument("--input", required=True)
    p.add_argument("--direction", help="comma-separated integers; omit for the minimal cover")

    p = sub.add_parser("compress", parents=[common], help="one compression step")
    p.add_argument("--input", required=True)
    p.add_argument("--b", help="optional second operand, compressed with the same spec")
    p.add_argument("--normal", required=True, help="hyperplane normal, comma-separated integers")
    p.add_argument("--offset", required=True, help="hyperplane offset, integer or p/q")
    p.add_argument("--direction", required=True)

    p = sub.add_parser("reduce", parents=[common], help="compress A to slab-plus-point form")
    p.add_argument("--input", required=True)
    p.add_argument("--b", help="second operand; defaults to a single origin point")
    p.add_argument("--direction", required=True)
    p.add_argument(
        "--denormalize",
        action="store_true",
        help="apply the inverse of the initial affine map to the outputs",
    )

    p = sub.add_parser("construct", parents=[common], help="emit a named construction")
    p.add_argument("name", choices=sorted(CONSTRUCTIONS))
    p.add_argument("--d", required=True)
    p.add_argument("--k")
    p.add_argument("--n")
    p.add_argument("--lengths", help="comma-separated AP lengths")

    p = sub.add_parser("bounds", parents=[common], help="evaluate a bound formula")
    p.add_argument("--claim", required=True, choices=CLAIM_IDS)
    p.add_argument("--d")
    p.add_argument("--n")
    p.add_argument("--m")
    p.add_argument("--r1")
    p.add_argument("--r2")
    p.add_argument("--a1")
    p.add_argument("--eps")
    p.add_argument("--cd")

    p = sub.add_parser("claims", parents=[common], help="check one claim on an instance")
    p.add_argument("--claim", required=True, choices=CLAIM_IDS)
    p.add_argument("--input", required=True)
    p.add_argument("--b")
    p.add_argument("--direction")
    p.add_argument("--as-conjecture", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("search", parents=[common], help="exhaustive or random difference-set search")
    p.add_argument("--mode", choices=("exhaustive", "random"), required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--box", required=True, help="per-axis max coordinate, one int or comma-separated")
    p.add_argument("--trials")
    p.add_argument("--seed")
    p.add_argument("--claim", choices=CLAIM_IDS)
    p.add_argument("--as-conjecture", action="store_true")
    p.add_argument("--require-full-dim", action="store_true")
    p.add_argument("--budget", default=10**8)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--trials", default=100)
    p.add_argument("--seed")
    p.add_argument("--dims", default="2,3,4,5")

    p = sub.add_parser("diagnose", parents=[common], help="near-extremal structure report")
    p.add_argument("--input", required=True)
    return top


def _cmd_setops(args, a, b) -> tuple[dict, int]:
    result = sumset(a, b) if args.command == "sum" else difference_set(a, b)
    return result.to_json(), 0


def _cmd_dim(args, a, b) -> tuple[dict, int]:
    return {"ambient": a.dim, "affine_dimension": affine_dimension(a)}, 0


def _cmd_lines(args, a, b) -> tuple[dict, int]:
    if args.direction:
        part = line_partition(a, Direction.of(_parse_ints(args.direction)))
        report = {
            "direction": part.direction.to_json(),
            "count": part.count,
            "class_sizes": list(part.class_sizes()),
        }
    else:
        direction, count = min_line_cover(a)
        report = {"direction": direction.to_json(), "count": count}
    return report, 0


def _cmd_compress(args, a, b) -> tuple[dict, int]:
    spec = CompressionSpec(
        Hyperplane.of(_parse_ints(args.normal), args.offset),
        Direction.of(_parse_ints(args.direction)),
    )
    step = TraceStep(spec, a)
    image = step._slid[0]
    report = {
        "spec": spec.to_json(),
        "result": image.to_json(),
        "map": step.to_json()["map"],
    }
    if b is not None:
        b_image = _slide(b, spec)[0]
        report["b_result"] = b_image.to_json()
        report["sum_before"] = sumset_count(a, b)
        report["sum_after"] = sumset_count(image, b_image)
    return report, 0


def _cmd_reduce(args, a, b) -> tuple[dict, int]:
    if b is None:
        b = PointSet.of(a.dim, [(0,) * a.dim])
    a2, b2, trace = reduce_lines(a, b, Direction.of(_parse_ints(args.direction)))
    if args.denormalize:
        a2, b2 = (apply_affine(x, trace.initial_affine.inverse) for x in (a2, b2))
    report = {
        "a": a2.to_json(),
        "b": b2.to_json(),
        "normalized_frame": not args.denormalize,
        "trace": trace.to_json(),
    }
    return report, 0


def _cmd_construct(args, a, b) -> tuple[dict, int]:
    builder, wanted = CONSTRUCTIONS[args.name]
    params = {}
    for key in wanted:
        value = getattr(args, key)
        if value is None:
            raise ValueError(f"construction {args.name} needs --{key}")
        params[key] = list(_parse_ints(value)) if key == "lengths" else value
    out = builder(**params)
    report = out.to_json()
    report["meta"] = {"construction": args.name, "params": params, "version": __version__}
    return report, 0


def _cmd_bounds(args, a, b) -> tuple[dict, int]:
    params = {
        "d": args.d,
        "n": args.n,
        "m": args.m,
        "r1": args.r1,
        "r2": args.r2,
        "a1": args.a1,
        "eps": parse_rational(args.eps) if args.eps else None,
        "c_d": parse_rational(args.cd) if args.cd else None,
    }
    value = bound_value(args.claim, **params)
    report = {
        "claim": args.claim,
        "params": {k: str(v) for k, v in params.items() if v is not None},
        "value": str(value),
    }
    coefficient = _radical_coefficient(args.claim, args.d)
    if coefficient is not None:
        report["subtracted_radical"] = {"coefficient": str(coefficient), "sqrt_of": "n"}
    if args.claim == "ASYM_THM":
        report["error_constant"] = str(asym_error_constant(args.d))
    return report, 0


def _cmd_claims(args, a, b) -> tuple[dict | str, int]:
    l = Direction.of(_parse_ints(args.direction)) if args.direction else None
    report = check_claim(args.claim, a, b, l, as_conjecture=args.as_conjecture)
    code = 1 if report.verdict == COUNTEREXAMPLE else 0
    if args.format == "csv":
        lines = ["claim,d,n,lhs,rhs,margin,verdict"]
        lines.append(
            f"{report.claim},{a.dim},{len(a)},{report.lhs},{report.rhs},{report.margin},{report.verdict}"
        )
        return "\n".join(lines) + "\n", code
    return report.to_json(), code


def _cmd_search(args, a, b) -> tuple[dict, int]:
    if args.seed is None:
        raise ValueError("search requires --seed (no silent nondeterminism)")
    box = _parse_ints(args.box)
    if len(box) == 1 and args.d > 1:
        box = box * args.d
    spec = SearchSpec(
        d=args.d,
        n=args.n,
        box=box,
        mode=EXHAUSTIVE if args.mode == "exhaustive" else RANDOM,
        seed=args.seed,
        trials=args.trials,
        claim=args.claim,
        as_conjecture=args.as_conjecture,
        require_full_dim=args.require_full_dim,
        budget=args.budget,
    )
    if spec.mode == EXHAUSTIVE:
        result = exhaustive_min_diff(spec)
    else:
        result = random_probe(spec)
    return result.to_json(), 1 if result.violations else 0


def _cmd_verify(args, a, b) -> tuple[dict, int]:
    if args.seed is None:
        raise ValueError("verify requires --seed (no silent nondeterminism)")
    cfg = VerifySuite(args.suite, args.trials, args.seed, _parse_ints(args.dims))
    report = verify_battery(cfg)
    return report, 0 if report["pass"] else 1


def _cmd_diagnose(args, a, b) -> tuple[dict, int]:
    return structure_diagnose(a), 0


_HANDLERS = {
    "sum": _cmd_setops,
    "diff": _cmd_setops,
    "dim": _cmd_dim,
    "lines": _cmd_lines,
    "compress": _cmd_compress,
    "reduce": _cmd_reduce,
    "construct": _cmd_construct,
    "bounds": _cmd_bounds,
    "claims": _cmd_claims,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "diagnose": _cmd_diagnose,
}


def cli_dispatch(argv: list[str]) -> int:
    # argparse reads "-1/2" as a flag, so a token that starts with "-" and a digit (no flag does) joins its flag
    joined: list[str] = []
    for tok in argv:
        if joined and re.match(r"-[0-9]", tok) and re.fullmatch(r"--\w[\w-]*", joined[-1]):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    args = build_parser().parse_args(joined)
    hashes: dict[str, str] = {}
    try:
        _parse_int_flags(args)
        # --input is read before --b, so input_sha256 lists them in that order
        a = None if getattr(args, "input", None) is None else _load_pointset(args.input, hashes)
        b = None if getattr(args, "b", None) is None else _load_pointset(args.b, hashes)
        report, code = _HANDLERS[args.command](args, a, b)
        # every JSON report records its inputs, except verify's, which reads no file
        if isinstance(report, dict) and args.command != "verify":
            report.setdefault("meta", _provenance(hashes))
        _emit(report, args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception:
        # a fault of sumlab itself, not of its input; exit 1 would read as a counterexample
        traceback.print_exc()
        return 4
    return code


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
