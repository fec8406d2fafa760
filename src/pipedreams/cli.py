"""Command line interface.

Subcommands operate on permutations given as comma or space separated
one-line notation, and on diagrams given as JSON files ('-' reads stdin).
Output is JSON by default; --pretty switches to plain-text drawings.  Each
subcommand's handler returns its output, the text or the JSON payload, and
main writes it.  Exit codes: 0 success, 1 a verification reported a failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .bijection import phi, phi_inverse
from .bumpless import BumplessPipeDream, bpd_insert
from .perm import Permutation
from .pipedream import PipeDream
from .poly import schubert_polynomial
from .render import render
from .verify import CHECK_GROUPS, MODELS, model_of, run_checks

# Grids grow with a move's arguments and with a pd cross's diagonal
# r + c - 1, and a bpd payload is a grid; refusing larger values keeps time
# and output bounded.
_MAX_COORD = 64
# enum of a permutation of size 9 writes about 240 MB at 1.75 GB peak RSS,
# and schubert of one of size 10 takes about 3.5 s; both sizes are refused.
_MAX_ENUM_SIZE = 8
_MAX_SCHUBERT_SIZE = 9
# verify of group 6 takes 62-63 s at about 111 MB peak RSS under -O on a
# shared 2-vCPU host, and CI runs it on every push; of group 7, with seven
# times the permutations, only poly runs, weekly, so the CLI refuses it.
_MAX_GROUP = 6
# The JSON encoder yields one chunk per token; _emit joins them into writes
# of at most this many characters.
_WRITE_BATCH = 64 * 1024


def _check_bound(what: str, value: int | None) -> None:
    if value is not None and value > _MAX_COORD:
        raise ValueError(f"{what} = {value} exceeds the bound {_MAX_COORD}")


def _parse_perm(text: str, bound: int) -> Permutation:
    pi = Permutation.parse(text)
    if pi.size > bound:
        raise ValueError(f"the permutation size {pi.size} exceeds the bound {bound}")
    return pi


def _read_diagram(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("the JSON input is nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError(
            f"a diagram must be a JSON object, not {type(data).__name__}"
        )
    model = data.get("model")
    if not isinstance(model, str) or model not in MODELS:
        raise ValueError(f"unknown diagram model {model!r}")
    diagram = MODELS[model].cls.from_json(data)
    if isinstance(diagram, BumplessPipeDream):
        _check_bound("the grid size n", diagram.n)
    for r, c in getattr(diagram, "crosses", ()):
        _check_bound(f"r + c - 1 of the cross {[r, c]}", r + c - 1)
    return diagram


def _emit(payload) -> None:
    # The whole document is never held as one string, and an unbuffered
    # stdout gets one write per batch rather than one per token.
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    batch, size = [], 0
    for chunk in itertools.chain(encoder.iterencode(payload), ("\n",)):
        if size + len(chunk) > _WRITE_BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
        batch.append(chunk)
        size += len(chunk)
    sys.stdout.write("".join(batch))


def _cmd_schubert(args):
    pi = _parse_perm(args.perm, _MAX_SCHUBERT_SIZE)
    poly = schubert_polynomial(pi)
    if args.pretty:
        return str(poly)
    return {
        "perm": str(pi),
        "method": "dd",
        "polynomial": poly.to_json(),
        "display": str(poly),
    }


def _cmd_enum(args):
    pi = _parse_perm(args.perm, _MAX_ENUM_SIZE)
    diagrams = sorted(
        MODELS[args.model].enumerate(pi),
        key=lambda d: json.dumps(d.to_json(), sort_keys=True),
    )
    if args.pretty:
        return "\n\n".join(render(d, pretty=True) for d in diagrams)
    return {
        "model": args.model,
        "perm": str(pi),
        "count": len(diagrams),
        "diagrams": [d.to_json() for d in diagrams],
    }


def _cmd_phi(args):
    diagram = args.diagram
    if args.inverse:
        if not isinstance(diagram, PipeDream):
            raise ValueError("the inverse map expects a pipe dream")
        out = phi_inverse(diagram)
        return render(out, pretty=True) if args.pretty else out.to_json()
    if not isinstance(diagram, BumplessPipeDream):
        raise ValueError("the forward map expects a bumpless diagram")
    res = phi(diagram)
    pd = res.pipe_dream()
    if args.pretty:
        a, r = (",".join(map(str, seq)) for seq in (res.sequence.a, res.sequence.r))
        return f"a: {a}\nr: {r}\n" + render(pd, pretty=True)
    return {"sequence": res.sequence.to_json(), "pipe_dream": pd.to_json()}


def _cmd_pop(args):
    diagram = args.diagram
    # Only a reduced diagram pops; a bpd pop validates its input anyway.
    diagram.perm()
    res = model_of(diagram).pop(diagram)
    if args.pretty:
        return f"a={res.a} r={res.r}\n" + render(res.result, pretty=True)
    payload = {"a": res.a, "r": res.r, "result": res.result.to_json()}
    if res.footprints is not None:
        payload["footprints"] = res.footprints
    return payload


def _cmd_insert(args):
    diagram = args.diagram
    if not isinstance(diagram, BumplessPipeDream):
        raise ValueError("insertion applies to bumpless diagrams")
    out = bpd_insert(diagram, args.a, args.r)
    if args.pretty:
        return render(out, pretty=True) if out is not None else "no preimage"
    return {"result": out.to_json() if out is not None else None}


def _cmd_monk(args):
    diagram = args.diagram
    model = model_of(diagram)
    if args.variant == "x":
        if args.alpha is None:
            raise ValueError("the x move needs --alpha")
        out, tr = model.x(diagram, args.alpha)
    else:
        if args.s is None or args.beta is None:
            raise ValueError("the m move needs --s and --beta")
        out, tr = model.m(diagram, args.s, args.beta)
    if args.pretty:
        return render(out, pretty=True) + f"\nl={tr.result_l}"
    return {
        "result": out.to_json(),
        "l": tr.result_l,
        "steps": tr.steps,
        "footprints": tr.footprints,
        "complete_footprints": tr.complete_footprints,
    }


def _cmd_verify(args):
    if args.group < 1:
        raise ValueError("group size must be positive")
    if args.group > _MAX_GROUP:
        raise ValueError(
            f"the group size {args.group} exceeds the bound {_MAX_GROUP}"
        )
    return _verify_payload(args.group, args.check, args.seed)


def _verify_payload(n: int, check: str, seed=None) -> dict:
    """The JSON payload of verify for run_checks(n, check, seed); the S7
    workflow calls it past the cap on n."""
    results = run_checks(n, check, seed=seed)
    return {
        "group": n,
        "check": check,
        "results": {
            name: {"passed": ok, "detail": detail}
            for name, (ok, detail) in results.items()
        },
    }


def _cmd_render(args):
    return render(args.diagram, pretty=args.pretty)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipedreams",
        description="Schubert polynomials and pipe dream combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schubert", help="compute a Schubert polynomial")
    p.add_argument("perm")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("enum", help="enumerate the diagrams of a permutation")
    p.add_argument("perm")
    p.add_argument("--model", choices=list(MODELS), required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("phi", help="map between the two diagram models")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("pop", help="remove the first crossing or blank")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_pop)

    p = sub.add_parser("insert", help="invert a pop step on a bumpless diagram")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_insert)

    p = sub.add_parser("monk", help="apply an insertion move")
    p.add_argument("variant", choices=["x", "m"])
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--alpha", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_monk)

    p = sub.add_parser("verify", help="run exhaustive checks over S_n")
    p.add_argument("--group", type=int, required=True)
    p.add_argument(
        "--check",
        choices=sorted(CHECK_GROUPS) + ["all"],
        default="all",
    )
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw a diagram as text")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for option in ("a", "r", "alpha", "s", "beta"):
            _check_bound("--" + option, getattr(args, option, None))
        if hasattr(args, "file"):
            args.diagram = _read_diagram(args.file)
        out = args.func(args)
        if isinstance(out, str):
            print(out)
        else:
            _emit(out)
        results = out["results"].values() if args.command == "verify" else ()
        return 0 if all(r["passed"] for r in results) else 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
