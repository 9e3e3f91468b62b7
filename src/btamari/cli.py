"""Command-line surface.

Exit codes: 0 success, 1 failed verification check, 2 usage or parse error,
3 enumeration cap exceeded, or out of memory within it; ``run`` sets them
for ``btamari`` and both experiment scripts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lattice as lat
from .alignment import aligned_rows
from .enumeration import (
    check_conjecture_t,
    check_type_d_count,
    cover_enumerator,
    t_sequence,
)
from .errors import (
    CapExceededError,
    CompositionError,
    NotALatticeError,
    out_of_memory,
)
from .parabolic import (
    Composition,
    check_cap,
    lex_sorted,
    quotient_rows,
    quotient_size,
    resolve_cap,
)
from .projection import project_down, project_up, theta_classes
from .signed_perm import SignedPermutation, format_long, format_right
from .tamari import CHECKS, build_tamari, verify_theorems

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_CAP = 0, 1, 2, 3
FORMATS = ["text", "json", "csv"]


def _alpha_values(args) -> list[Composition]:
    if args.batch:
        with open(args.batch, encoding="utf-8") as handle:
            specs = [line.strip() for line in handle if line.strip()]
    elif args.alpha is not None:
        specs = [args.alpha]
    else:
        raise CompositionError("one of --alpha or --batch is required")
    return [Composition.parse(s) for s in specs]


def _cmd_enumerate(args) -> int:
    # Every composition is enumerated before anything is written, so a
    # refused one writes nothing; rows are then formatted a chunk at a time.
    tables = [
        lex_sorted(aligned_rows(alpha, args.cap))
        if args.aligned
        else quotient_rows(alpha, args.cap)
        for alpha in _alpha_values(args)
    ]
    chunks = (
        list(map(format_right, rows[block].tolist()))
        for rows in tables
        for block in lat.blocks(len(rows), rows.itemsize * rows.shape[1])
    )
    if args.format == "json":
        _write_json_list(line for lines in chunks for line in lines)
    else:
        for lines in chunks:
            sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _write_json_list(items) -> None:
    """Print ``json.dumps(list(items))`` one item at a time."""
    write = sys.stdout.write
    write("[")
    for k, item in enumerate(items):
        if k:
            write(", ")
        write(json.dumps(item))
    write("]\n")


def _cmd_project(args) -> int:
    alpha = Composition.parse(args.alpha)
    if args.classes:
        _write_json_list(c.to_json() for c in theta_classes(alpha, args.cap))
        return EXIT_OK
    pi = SignedPermutation.parse(args.perm)
    image = (project_down if args.dir == "down" else project_up)(alpha, pi)
    if args.format == "json":
        print(json.dumps({"alpha": alpha.format(), "result": image.format()}))
    else:
        print(image.format())
    return EXIT_OK


def _cmd_lattice(args) -> int:
    names = CHECKS if args.check in (None, "all") else [
        name.strip() for name in args.check.split(",")
    ]
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}")
    alphas = _alpha_values(args)
    if args.out and len(alphas) > 1:
        raise ValueError(f"--out names one file but there are {len(alphas)} compositions")
    status = EXIT_OK
    for alpha in alphas:
        built = None
        # --check refuses a quotient above the cap before anything is built.
        if args.check:
            check_cap(quotient_size(alpha), args.cap)
        if args.export:
            built = build_tamari(alpha, cap=args.cap)
            label = lambda row: format_long(row.tolist())
            stem = args.out or f"tamari_{alpha.format().replace(',', '_')}"
            path = f"{stem}.{args.export}"
            if args.export == "dot":
                text = lat.lattice_to_dot(built, label)
            else:
                text = json.dumps(lat.lattice_to_json(built, label), indent=2)
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {path}")
        if args.check:
            # An export's lattice is the one the checks need; reuse it.
            report = verify_theorems(alpha, cap=args.cap, tam=built)
            if args.format == "json":
                print(json.dumps(report.to_json()))
            else:
                print(report.summary())
            if not all(report.checks[name] for name in names):
                status = EXIT_CHECK_FAILED
    return status


def _cmd_sequence(args) -> int:
    values = t_sequence(args.max_n, args.cap)
    if args.format == "json":
        print(json.dumps(values))
    elif args.format == "csv":
        print("n,total")
        for n, v in enumerate(values, start=1):
            print(f"{n},{v}")
    else:
        print(",".join(str(v) for v in values))
    return EXIT_OK


def _cmd_cover_enum(args) -> int:
    outputs = []
    for alpha in _alpha_values(args):
        poly = cover_enumerator(alpha, args.cap)
        outputs.append((alpha, poly))
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "alpha": a.format(),
                        "size": p(1),
                        "coefficients": list(p.coefficients),
                    }
                    for a, p in outputs
                ]
            )
        )
    elif args.format == "csv":
        for a, p in outputs:
            print(f"{a.format()},{p(1)},{p.format()}")
    else:
        for a, p in outputs:
            print(p.format())
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    reports = []
    for n in range(args.min_n, args.max_n + 1):
        if args.type_d:
            if n < 2:
                continue
            reports.append(check_type_d_count(n, args.cap))
        else:
            if args.t > n:
                continue
            reports.append(check_conjecture_t(args.t, n, args.cap))
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.summary())
    mismatches = [r for r in reports if not r.ok]
    for r in mismatches:
        print(f"MISMATCH for alpha={r.alpha.format()}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btamari",
        description="Type-B parabolic quotients, aligned elements, and Tamari lattices",
    )
    # Global flags also parse after the subcommand, overriding the top-level
    # value there; absent there, they leave that value (and default) alone.
    late = argparse.ArgumentParser(add_help=False)
    for flag, options in (
        ("--cap", dict(type=int, default=None, help="enumeration cap")),
        ("--format", dict(choices=FORMATS, default="text")),
    ):
        parser.add_argument(flag, **options)
        late.add_argument(flag, **{**options, "default": argparse.SUPPRESS})
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[late], help="list quotient members")
    p.add_argument("--alpha")
    p.add_argument("--batch", help="file with one composition per line")
    p.add_argument("--aligned", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "project",
        parents=[late],
        help="project onto pattern-avoiding representatives",
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--perm")
    p.add_argument("--dir", choices=["down", "up"])
    p.add_argument(
        "--classes", action="store_true", help="list all projection fibers as JSON"
    )
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser(
        "lattice", parents=[late], help="verify or export a Tamari lattice"
    )
    p.add_argument("--alpha")
    p.add_argument("--batch")
    p.add_argument("--check", help="'all' or comma-separated check names")
    p.add_argument("--export", choices=["dot", "json"])
    p.add_argument("--out", help="output path stem for exports")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser(
        "sequence", parents=[late], help="aligned-count totals per degree"
    )
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser(
        "cover-enum", parents=[late], help="cover enumerator polynomial"
    )
    p.add_argument("--alpha")
    p.add_argument("--batch")
    p.set_defaults(func=_cmd_cover_enum)

    p = sub.add_parser(
        "conjecture", parents=[late], help="compare counts against closed forms"
    )
    p.add_argument("--t", type=int)
    p.add_argument("--type-d", action="store_true")
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "batch", None) is not None and args.alpha is not None:
        parser.error(f"{args.command} takes --alpha or --batch, not both")
    if args.command == "conjecture" and not args.type_d and args.t is None:
        parser.error("conjecture needs --t or --type-d")
    if args.command == "conjecture" and args.type_d and args.t is not None:
        parser.error("conjecture takes --t or --type-d, not both")
    if args.command == "project" and not args.classes and not (args.perm and args.dir):
        parser.error("project needs --perm and --dir (or --classes)")
    if args.command == "project" and args.classes and (args.perm, args.dir) != (None, None):
        parser.error("project --classes takes no --perm or --dir")
    if args.command == "lattice" and not (args.check or args.export):
        parser.error("lattice needs --check or --export")
    if args.command == "lattice" and args.out is not None and not args.export:
        parser.error("lattice --out needs --export")

    def command(cap: int) -> int:
        args.cap = cap
        return args.func(args)

    return run(command, args.cap)


def run(command, cap: int | None = None) -> int:
    """Run ``command(cap)`` with the resolved cap and flush stdout.

    Returns the command's exit status, or prints one ``error:`` line for
    what it or the flush raised and returns 3 for the cap or memory, 1 for
    a failed check, 2 for a bad value or a failed read or write.
    """
    if sys.stdout is None:  # the process started with stdout closed
        sys.stdout = open(os.devnull, "w")
    try:
        try:
            cap = resolve_cap(cap)
            return command(cap)
        finally:
            _flush_stdout()
    except CapExceededError as exc:
        message, status = exc, EXIT_CAP
    except MemoryError:
        message, status = out_of_memory(cap), EXIT_CAP
    except (NotALatticeError, AssertionError) as exc:
        # NotALatticeError subclasses ValueError, so it must come first.
        message, status = exc, EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:  # the package's value errors too
        message, status = exc, EXIT_USAGE
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:  # stderr unwritable: discard it as _flush_stdout does stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return status


def _flush_stdout() -> None:
    """Flush stdout; if that fails, point it at os.devnull and re-raise.

    What stays buffered then goes nowhere, so the interpreter's own flush
    at exit cannot fail a second time.
    """
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


if __name__ == "__main__":
    sys.exit(main())
