"""Command line front end: enumeration, characteristics, graphs, verification.

Exit codes: 0 on success, 1 when a verified property fails (the report
with its witness is printed as JSON), 2 for usage errors (including a
`verify --max-n` or `--jobs` below 1, and a `--out` or `--dot` path that
cannot be written, which is opened before any work is done) and exceeded
size bounds, and 3 for an internal error: a `RuntimeError` raised when a
computation finds its own invariant broken (say, ``generator 1 is not
idempotent`` from a module's composition factors), or any other
exception a claim's case raises, is
printed as one ``error: internal: ...`` line, with no traceback.  When
the reader of stdout goes away first (say, ``spcthecke verify thm-3.1 |
head -1``), the command stops quietly and exits 141, the code a shell
gives a process ended by SIGPIPE, so the cut output is not read as a
failed claim.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .compositions import BoundExceeded
from . import modules
from . import qsym
from . import tableaux
from .verify import CLAIMS, run_claim

USAGE_ERROR = 2
PROPERTY_FAILURE = 1
INTERNAL_ERROR = 3
BROKEN_PIPE = 141


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of a flag's value.

    A blank value is the empty tuple, the composition and the type of
    degree 0; an empty field (``2,,1``, ``2,1,``, ``,``) is refused.
    """
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}; expected comma-separated integers")


def _cmd_enumerate(args) -> int:
    shape = _parse_ints(args.shape, "--shape")
    if args.kind == "spct":
        if args.sigma is None:
            print("error: enumerate spct requires --sigma", file=sys.stderr)
            return USAGE_ERROR
        sigma = _parse_ints(args.sigma, "--sigma")
        items = [t.to_json() for t in tableaux.enumerate_spct(shape, sigma, args.bound)]
    else:
        items = [t.to_json() for t in tableaux.enumerate_srt(shape, args.bound)]
    print(json.dumps(items))
    return 0


def _cmd_char(args) -> int:
    shape = _parse_ints(args.shape, "--shape")
    sigma = _parse_ints(args.sigma, "--sigma")
    if args.basis == "QS" and sum(shape) > qsym.DEFAULT_QSYM_BOUND:
        # the transition matrix is built at the default bound, whatever --bound says
        raise BoundExceeded(
            f"n = {sum(shape)} exceeds bound {qsym.DEFAULT_QSYM_BOUND} of the QS conversion"
        )
    elt = qsym.ch_spct(shape, sigma, args.bound)
    if args.basis == "QS":
        elt = qsym.f_to_qs(elt)
        formula = qsym.qschur_expansion(shape, sigma)
        if elt != formula:
            report = {
                "error": "QS expansion differs from the bubble-fiber formula",
                "computed": elt.to_json(),
                "bubble_fiber": formula.to_json(),
            }
            print(json.dumps(report, indent=2))
            return PROPERTY_FAILURE
    payload = elt.to_json()
    if args.json:
        print(json.dumps(payload))
    else:
        print(repr(elt))
    return 0


def _cmd_graph(args) -> int:
    shape = _parse_ints(args.shape, "--shape")
    sigma = _parse_ints(args.sigma, "--sigma")
    if args.dot and args.dot != "-":
        with open(args.dot, "w") as fh:
            fh.write(modules.graph_dot(shape, sigma, args.bound) + "\n")
    else:
        print(modules.graph_dot(shape, sigma, args.bound))
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for claim, (desc, *_) in CLAIMS.items():
            print(f"{claim:22s} {desc}")
        return 0
    if args.claim is None:
        print("error: verify requires a claim id (or --list)", file=sys.stderr)
        return USAGE_ERROR
    if args.claim not in CLAIMS:
        print(f"error: unknown claim id {args.claim!r}; try --list", file=sys.stderr)
        return USAGE_ERROR
    # opened first, so an unwritable path fails before the claim runs
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        report = run_claim(args.claim, max_n=args.max_n, jobs=args.jobs)
        text = json.dumps(report, default=str, indent=2)
        if out:
            out.write(text + "\n")
    print(text)
    return 0 if report["status"] == "pass" else PROPERTY_FAILURE


def _cmd_basis_cert(args) -> int:
    report = qsym.z_basis_certificate(args.n)
    print(json.dumps(report, default=str, indent=2))
    return 0 if report["ok"] else PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcthecke",
        description="0-Hecke modules on permuted composition tableaux, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list tableaux of a shape")
    p_enum.add_argument("kind", choices=["spct", "srt"])
    p_enum.add_argument("--shape", required=True, help="composition, e.g. 2,1")
    p_enum.add_argument("--sigma", help="type in one-line notation, e.g. 2,1")
    p_enum.add_argument("--bound", type=int, default=tableaux.DEFAULT_TABLEAU_BOUND)
    p_enum.set_defaults(fn=_cmd_enumerate)

    p_char = sub.add_parser("char", help="characteristic of a tableau module")
    p_char.add_argument("--shape", required=True)
    p_char.add_argument("--sigma", required=True)
    p_char.add_argument("--basis", choices=["F", "QS"], default="F")
    p_char.add_argument("--json", action="store_true")
    p_char.add_argument("--bound", type=int, default=tableaux.DEFAULT_TABLEAU_BOUND)
    p_char.set_defaults(fn=_cmd_char)

    p_graph = sub.add_parser("graph", help="action graph of a tableau module")
    p_graph.add_argument("--shape", required=True)
    p_graph.add_argument("--sigma", required=True)
    p_graph.add_argument("--dot", nargs="?", const="-", help="write DOT here ('-' = stdout)")
    p_graph.add_argument("--bound", type=int, default=tableaux.DEFAULT_TABLEAU_BOUND)
    p_graph.set_defaults(fn=_cmd_graph)

    p_verify = sub.add_parser("verify", help="run a registered claim suite")
    p_verify.add_argument("claim", nargs="?", help="claim id; see --list")
    p_verify.add_argument("--list", action="store_true", help="list claim ids")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", help="also write the JSON report to this path")
    p_verify.set_defaults(fn=_cmd_verify)

    p_cert = sub.add_parser("basis-cert", help="lattice-basis certificate for one degree")
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.set_defaults(fn=_cmd_basis_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; with stdout on devnull, the
        # flush at exit stays quiet too
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return BROKEN_PIPE
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # an --out or --dot path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
