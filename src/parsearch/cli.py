"""Command-line driver.

Subcommands: ``search``, ``maxload``, ``bounds``, ``adversary``.  Every run
is fully determined by its arguments, its randomness by ``--seed``;
identical invocations produce byte-identical output.  Exit codes: 0
success, 1 usage error, 2 infeasible instance.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import warnings

from .adversary import InfeasibleInstanceError
from .experiments import (
    ExperimentConfig,
    run_adversary_check,
    run_bound_table,
    run_maxload_check,
    run_search_experiment,
)
from .schemas import BOUNDS_SCHEMA

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parsearch",
        description="Quantum multi-item parallel search: simulation, "
                    "the exact max-load law, and query-complexity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run seeded parallel-search trials")
    search.add_argument("--n", type=int, required=True, help="address bits, N=2**n")
    search.add_argument("--d", type=int, default=1, help="database copies")
    search.add_argument("--k", type=int, default=1, help="target items")
    search.add_argument("--t", type=int, default=None, help="override per-cell cap")
    search.add_argument("--trials", type=int, default=100)
    search.add_argument("--seed", type=int, default=0)

    maxload = sub.add_parser("maxload", help="exact max-load law vs the union bound")
    maxload.add_argument("--n", type=int, default=None, help="address bits")
    maxload.add_argument("--d", type=int, required=True)
    maxload.add_argument("--k", type=int, required=True)
    maxload.add_argument("--t", type=int, required=True, help="per-cell cap")

    bounds = sub.add_parser("bounds", help="measured rounds vs bound formulas")
    bounds.add_argument("--n", type=_int_list, default=[], metavar="N1,N2,...",
                        help="comma-separated address-bit values")
    bounds.add_argument("--d", type=_int_list, default=[], metavar="D1,D2,...")
    bounds.add_argument("--k", type=_int_list, default=[], metavar="K1,K2,...")
    bounds.add_argument("--trials", type=int, default=50)
    bounds.add_argument("--seed", type=int, default=0)

    adv = sub.add_parser("adversary", help="brute-force adversary-graph check")
    adv.add_argument("--n", type=int, required=True)
    adv.add_argument("--m", type=int, required=True)
    adv.add_argument("--d", type=int, required=True)
    adv.add_argument("--k", type=int, required=True)

    for command in (search, maxload, bounds, adv):
        command.add_argument("--out", default=None)
        command.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _csv_rows(record: dict) -> tuple:
    """Flatten a record to (header, rows) with aggregate-level detail only."""
    cmd = record["command"]
    if cmd == "search":
        row = dict(record["config"])
        row.update({
            "regime": record["regime"]["tag"],
            "t": record["regime"]["t"],
            **record["aggregates"],
            "lower_bound": record["reference"]["lower_bound"],
            "upper_envelope": record["reference"]["upper_envelope"],
        })
        return list(row), [row]
    if cmd == "maxload":
        row = dict(record["config"])
        row.update({
            "exceedance": record["exceedance"],
            "union_bound": record["union_bound"],
            "within_bound": record["within_bound"],
        })
        return list(row), [row]
    if cmd == "bounds":
        # the schema names the fields, so a sweep with no cell has a header too
        fields = BOUNDS_SCHEMA["properties"]["rows"]["items"]["properties"]
        return list(fields), record["rows"]
    # adversary
    row = dict(record["config"])
    row.update(record["stats"])
    row.update(record["claims"])
    row.update({
        "ambainis_bound": record["ambainis_bound"],
        "closed_form_bound": record["closed_form_bound"],
    })
    return list(row), [row]


def _write(record: dict, fh, fmt: str) -> None:
    """Write *record* to the text stream *fh*.  JSON is streamed, so a
    many-trial record is never held a second time as one string."""
    if fmt == "json":
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
        return
    header, rows = _csv_rows(record)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    fh.write(buf.getvalue())


def _out_error(out, exc: OSError) -> int:
    print(f"parsearch: error: cannot write --out {out}: {exc.strerror}",
          file=sys.stderr)
    return EXIT_USAGE


def _open_out(out) -> bool:
    """Check that *out* can be written, before any run: returns True when
    this created the file, and raises OSError when it cannot be written.
    An existing file is left as it is."""
    try:
        open(out, "x").close()
        return True
    except FileExistsError:
        open(out, "a").close()
        return False


def _emit(record: dict, out, fmt: str) -> int:
    if not out:
        _write(record, sys.stdout, fmt)
        return EXIT_OK
    try:
        with open(out, "w") as fh:
            _write(record, fh, fmt)
    except OSError as exc:
        return _out_error(out, exc)
    return EXIT_OK


def _warn_once(shown: set):
    """A ``warnings.showwarning`` that prints each distinct message once,
    as a ``parsearch: warning:`` line with no source file or line."""
    def show(message, category, filename, lineno, file=None, line=None):
        if str(message) not in shown:
            shown.add(str(message))
            print(f"parsearch: warning: {message}", file=sys.stderr)
    return show


def main(argv=None) -> int:
    with warnings.catch_warnings():   # the filters stay as they are
        warnings.showwarning = _warn_once(set())
        return _main(argv)


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        created = bool(args.out) and _open_out(args.out)
    except OSError as exc:
        return _out_error(args.out, exc)
    record = None
    try:
        if args.command == "search":
            cfg = ExperimentConfig(
                n=args.n, d=args.d, k=args.k, trials=args.trials,
                seed=args.seed, t_override=args.t,
            )
            record = run_search_experiment(cfg)
        elif args.command == "maxload":
            record = run_maxload_check(k=args.k, d=args.d, t=args.t, n=args.n)
        elif args.command == "bounds":
            record = run_bound_table(
                ns=args.n, ds=args.d, ks=args.k, trials=args.trials,
                seed=args.seed,
            )
        else:
            record = run_adversary_check(n=args.n, m=args.m, d=args.d, k=args.k)
    except InfeasibleInstanceError as exc:
        print(f"parsearch: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"parsearch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if record is None and created:  # no empty --out left by a failed run
            with contextlib.suppress(OSError):
                os.remove(args.out)

    return _emit(record, args.out, args.format)


if __name__ == "__main__":
    sys.exit(main())
