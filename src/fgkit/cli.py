"""Command-line front end: word arithmetic, verification, sweeps.

Exit codes are a stable contract: 0 success, 1 a mathematical check
failed, 2 usage or parse error.  Reports are deterministic once timings
are stripped (``--no-timings``), regardless of the ``--parallel`` level.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from .abelian import INFINITE
from .family import (
    DEFAULT_G_VALUES,
    DEFAULT_L_VALUES,
    REPORT_SCHEMA,
    FamilyParams,
    VerificationReport,
    _CHECKS,
    _boundary_letters_bound,
    _derived_quotient_order,
    class_distinctness,
    first_shuffle_failure,
    verify,
)
from .words import (
    _INTEGER,
    Alphabet,
    canonical_class,
    parse_word,
    render_word,
)

# a distinctness row's verdicts: (name, table label)
_DISTINCTNESS = (
    ("distinct_unoriented", "unoriented"), ("distinct_oriented", "oriented"),
    ("all_nontrivial", "nontrivial"),
)
_CSV_COLUMNS = [
    "kind", "g", "l", *(name for name, heading, _, _ in _CHECKS if heading), "hard_pass",
    *(name for name, _ in _DISTINCTNESS), "boundary_class",
]


# _int_list refuses a --g-list/--l-list of more values than this; each l
# keeps one entry in family's and abelian's per-l caches, which are as large
# (tests/test_cli.py::test_per_l_caches_hold_a_whole_l_list)
_MAX_LIST_VALUES = 4096
# sweep refuses a grid whose boundary images may spell more letters than
# this in all; it admits even g from 2 to 128 at l = 12 (14,934,400
# letters, 147 MB peak RSS)
_MAX_GRID_LETTERS = 1 << 24
# an integer option's value, and a --g-list/--l-list item (an integer or
# a..b); each integer is spelled as a word's exponent is
_INTEGER_RE = re.compile(_INTEGER)
_RANGE_RE = re.compile(rf"({_INTEGER})(?:\.\.({_INTEGER}))?")


def _int_list(
    text: str | None, default: Sequence[int], name: str, distinct: bool = False
) -> list[int]:
    """Comma-separated integers, ``a..b`` items expanding to inclusive
    ranges; ``default`` when ``text`` is None.  An empty list, one of more
    than ``_MAX_LIST_VALUES`` values, or, with ``distinct``, one that names
    a value twice is an error; the values are counted and compared as
    spans, before any range is expanded."""
    if text is None:
        return list(default)
    spans: list[tuple[int, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _RANGE_RE.fullmatch(chunk)
        if m is None:
            raise ValueError(f"not an integer or a..b range: {chunk!r}")
        spans.append((int(m[1]), int(m[2] or m[1])))
    nonempty = sorted(span for span in spans if span[0] <= span[1])
    for (_, prev_hi), (lo, _) in zip(nonempty, nonempty[1:]):
        if distinct and lo <= prev_hi:
            raise ValueError(f"{name} list repeats the value {lo}")
    count = sum(hi - lo + 1 for lo, hi in nonempty)
    if count == 0:
        raise ValueError(f"empty {name} list")
    if count > _MAX_LIST_VALUES:
        raise ValueError(f"{name} list has {count} values; the limit is {_MAX_LIST_VALUES}")
    return [v for lo, hi in spans for v in range(lo, hi + 1)]


# Every command's options: flag -> (attribute, kind, default, help).  The
# kind is int, str, a tuple of the choices, or bool for a flag that takes
# no value; a default of _REQUIRED makes the option required.
_REQUIRED = object()
_REPORT_OPTIONS = {
    "--format": ("format", ("json", "csv", "table"), "json", "report format"),
    "--out": ("out", str, None, "write the report to this path, not stdout"),
    "--no-timings": ("no_timings", bool, False, "leave timings out of the report"),
}
_WORD_OPS = ("reduce", "invert", "concat", "cyclic", "canon")
# command -> (its heading in the help, its options)
_COMMANDS = {
    "word": (f"word OP WORD...: word arithmetic, OP one of {', '.join(_WORD_OPS)}", {
        "--alphabet": ("alphabet", str, "y1,y2,y3", "comma-separated generator names"),
        "--oriented": ("oriented", bool, False, "canon: keep the orientation of the class"),
    }),
    "verify": ("verify: verify one (g, l) instance", {
        "--g": ("g", int, _REQUIRED, "even genus, at least 2"),
        "--l": ("l", int, _REQUIRED, "at least 3"),
        **_REPORT_OPTIONS,
    }),
    "sweep": ("sweep: verify a grid of instances", {
        "--g-list": ("g_list", str, None, "e.g. 2,4,6,8 (the default)"),
        "--l-list": ("l_list", str, None, "e.g. 3..12 (the default) or 3,4,5"),
        "--parallel": ("parallel", int, 1, "worker processes"),
        **_REPORT_OPTIONS,
    }),
    "identities": ("identities: check the shuffle identities", {
        "--i-max": ("i_max", int, 6, "largest i"),
        "--j-max": ("j_max", int, 6, "largest j"),
        "--l-list": ("l_list", str, None, "e.g. 3..12 (the default) or 3,4,5"),
    }),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The command and options that ``argv`` names, each option missing
    from it set to its default; None when it asks for help.  An option's
    value is the rest of its token after ``=``, or else the next token,
    even one that starts with ``-``.  Any usage error is a ValueError."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    command = _choose("the command", argv[0] if argv else "", _COMMANDS)
    options = _COMMANDS[command][1]
    values, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-") or token == "-":
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise ValueError(f"{command} has no option {flag}")
        attr, kind, _, _ = options[flag]
        if kind is bool:
            if eq:
                raise ValueError(f"{flag} takes no value")
            values[attr] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{flag} needs a value")
        if kind is int:
            if _INTEGER_RE.fullmatch(value) is None:
                raise ValueError(f"{flag}: not an integer: {value!r}")
            value = int(value)
        elif kind is not str:
            _choose(flag, value, kind)
        values[attr] = value
    for flag, (attr, _, default, _) in options.items():
        if attr not in values:
            if default is _REQUIRED:
                raise ValueError(f"{command} needs {flag}")
            values[attr] = default
    if command == "word":
        # _cmd_word checks the number of WORDs
        values["op"] = _choose("word's OP", positionals[0] if positionals else "", _WORD_OPS)
        values["texts"] = positionals[1:]
    elif positionals:
        raise ValueError(f"{command} takes no argument {positionals[0]!r}")
    return SimpleNamespace(command=command, **values)


def _choose(what: str, value: str, choices) -> str:
    """``value``, if it is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{what} must be one of {', '.join(choices)}, not {value!r}")
    return value


def _usage() -> str:
    """The help text: every command and its options, from ``_COMMANDS``."""
    lines = [
        "usage: fgkit COMMAND [OPTION ...]",
        "Free-group word arithmetic and embedding-family verification.",
    ]
    for heading, options in _COMMANDS.values():
        lines += ["", heading]
        for flag, (attr, kind, default, text) in options.items():
            if kind is int:
                flag += " N"
            elif kind is str:
                flag += " " + attr.upper()
            elif kind is not bool:
                flag += " {" + ",".join(kind) + "}"
            if default is _REQUIRED:
                text += " (required)"
            elif default not in (None, False):
                text += f" (default {default})"
            lines.append(f"  {flag:<26} {text}")
    lines += ["", "An option is --flag value or --flag=value; -h or --help prints this help."]
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(_usage())
            return 0
        if args.command == "word":
            return _cmd_word(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_identities(args)
    except (ValueError, OSError) as exc:  # every usage error, or unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_word(args) -> int:
    names = tuple(n.strip() for n in args.alphabet.split(",") if n.strip())
    alphabet = Alphabet(names)
    op = args.op
    if op == "concat" and len(args.texts) < 2:
        raise ValueError("concat needs at least two words")
    if op != "concat" and len(args.texts) != 1:
        raise ValueError(f"{op} takes exactly one word")
    # one parse of all operands, so its letter limit bounds their total;
    # an operand "1" is the empty word, but an atom "1" in a longer text
    # is malformed
    word = parse_word(" ".join(t for t in args.texts if t.strip() != "1"), alphabet)
    if op == "invert":
        result = word.inverse()
    elif op == "cyclic":
        result, _ = word.cyclic_reduce()
    elif op == "canon":
        result = canonical_class(word, oriented=args.oriented)
    else:  # reduce, concat
        result = word
    print(render_word(result))
    return 0


def _print_warnings(reports: list[VerificationReport]) -> None:
    for r in reports:
        for w in r.warnings:
            print(f"WARNING: g={r.params.g} l={r.params.l}: {w}", file=sys.stderr)


def _print_sweep_warnings(reports: list[VerificationReport]) -> None:
    """Each report's warnings, except the quotient-order mismatch, which is
    one line for the run: the reference order differs at every l >= 3
    (README), and the mismatch is the only warning ``verify`` gives then."""
    mismatched = []
    for r in reports:
        if r.quotient_finite and not r.reference_order_match:
            mismatched.append(r)
        else:
            _print_warnings([r])
    if mismatched:
        first = mismatched[0]
        line = (
            f"WARNING: quotient order != reference closed form at {len(mismatched)} "
            f"points, first g={first.params.g} l={first.params.l} "
            f"({first.quotient_order} != {first.reference_order})"
        )
        if all(r.quotient_order == _derived_quotient_order(r.params.l) for r in mismatched):
            line += "; each is 12(l-1) != 4l+4, equal only at l = 2"
        print(line, file=sys.stderr)


def _cmd_verify(args) -> int:
    report = verify(FamilyParams(args.g, args.l))
    _print_warnings([report])
    _write(args, [report], [], report.to_json_dict)
    return 0 if report.hard_pass else 1


def _run_grid(jobs: list[FamilyParams], parallel: int) -> list[VerificationReport]:
    """One report per job, in the order of ``jobs`` whatever ``parallel`` is."""
    # the pool starts all its workers up front; never more than can be busy
    # on the CPUs this process may use (its affinity mask, where there is one)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(parallel, len(jobs), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = pool.map(verify, jobs)  # starts the workers, submits every job
        except (OSError, BrokenProcessPool) as exc:  # no subprocesses, or one died
            failure = exc
        else:
            try:
                return list(results)  # a job's own error, OSError or not, surfaces once
            except BrokenProcessPool as exc:  # a worker died
                failure = exc
        print(f"note: falling back to serial execution ({failure})", file=sys.stderr)
    return [verify(params) for params in jobs]


def _distinctness_rows(reports: list[VerificationReport]) -> list[dict]:
    """One row per genus; ``reports`` must be sorted by (g, l)."""
    rows = []
    for g, group in itertools.groupby(reports, key=lambda r: r.params.g):
        group = list(group)
        distinct_unoriented, nontrivial = class_distinctness(
            [r.boundary_class for r in group]
        )
        distinct_oriented, _ = class_distinctness(
            [r.boundary_class_oriented for r in group]
        )
        rows.append(
            {
                "g": g,
                "l_values": [r.params.l for r in group],
                "distinct_unoriented": distinct_unoriented,
                "distinct_oriented": distinct_oriented,
                "all_nontrivial": nontrivial,
            }
        )
    return rows


def _cmd_sweep(args) -> int:
    # a repeated value would verify one point twice and read as two equal slopes
    g_values = _int_list(args.g_list, DEFAULT_G_VALUES, "g", distinct=True)
    l_values = _int_list(args.l_list, DEFAULT_L_VALUES, "l", distinct=True)
    # the grid's size before any point is built, stopping at the first
    # point that passes the limit.  A valid point may spell at least as
    # many letters as (2, 3), and FamilyParams refuses any other point, so
    # counting each point as at least that refuses no valid grid and
    # stops within _MAX_GRID_LETTERS / 88 points whatever the values.
    least = _boundary_letters_bound(2, 3)
    letters = 0
    for g, l in itertools.product(g_values, l_values):
        letters += max(_boundary_letters_bound(g, l), least)
        if letters > _MAX_GRID_LETTERS:
            raise ValueError(
                f"the grid's boundary images may have more than "
                f"{_MAX_GRID_LETTERS} letters"
            )
    # FamilyParams checks every point before any verification starts
    jobs = sorted(
        (FamilyParams(g, l) for g in g_values for l in l_values),
        key=lambda p: (p.g, p.l),
    )
    if args.parallel < 1:
        raise ValueError("--parallel must be >= 1")

    reports = _run_grid(jobs, args.parallel)
    distinct = _distinctness_rows(reports)
    _print_sweep_warnings(reports)
    ok = all(r.hard_pass for r in reports) and all(
        row["distinct_unoriented"] and row["all_nontrivial"] for row in distinct
    )
    _write(args, reports, distinct, lambda include_timings: {
        "schema": REPORT_SCHEMA,
        "grid": {"g_values": g_values, "l_values": l_values},
        "reports": [r.to_json_dict(include_timings) for r in reports],
        "distinctness": distinct,
        "ok": ok,
    })
    return 0 if ok else 1


def _cmd_identities(args) -> int:
    l_values = _int_list(args.l_list, DEFAULT_L_VALUES, "l")
    # first_shuffle_failure rejects a negative bound, l < 3 or an l too
    # large to spell v
    for l in l_values:
        failure = first_shuffle_failure(args.i_max, args.j_max, l)
        if failure is not None:
            branch, i, j = failure
            print(f"FAIL: branch={branch} i={i} j={j} l={l}")
            return 1
    # with both bounds >= 1 the three equalities certify every exponent
    # (README lemma); with a zero bound the ones in reach certify the grid
    # up to the bounds
    if min(args.i_max, args.j_max) >= 1:
        scope = "all i, j >= 0"
    else:
        scope = f"i<={args.i_max}, j<={args.j_max}"
    print(f"OK: all identity branches hold for {scope}, l in {l_values}")
    return 0


def _write(args, reports, distinct, to_json: Callable[[bool], dict]) -> None:
    """Write the reports in ``--format`` to ``--out``, or to stdout.  JSON
    is ``to_json(include_timings)``, indented; CSV and the table have a row
    per report, then one per genus in ``distinct``."""
    if args.format == "json":
        text = json.dumps(to_json(not args.no_timings), indent=2) + "\n"
    elif args.format == "csv":
        text = _reports_csv(reports, distinct)
    else:
        text = _reports_table(reports, distinct)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _reports_csv(reports: list[VerificationReport], distinct: list[dict]) -> str:
    import csv  # only --format csv needs it

    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=_CSV_COLUMNS, lineterminator="\n", extrasaction="ignore"
    )
    writer.writeheader()
    for r in reports:
        d = r.to_json_dict(include_timings=False)
        writer.writerow({**d, "kind": "report", "g": r.params.g, "l": r.params.l})
    for row in distinct:
        ls = ";".join(str(l) for l in row["l_values"])
        writer.writerow({**row, "kind": "distinctness", "l": ls})
    return buf.getvalue()


def _reports_table(reports: list[VerificationReport], distinct: list[dict]) -> str:
    checks = [(name, heading, width) for name, heading, width, _ in _CHECKS if heading]
    widths = [3, 3, *(width for _, _, width in checks), 5]

    def line(cells) -> str:
        return " ".join(f"{cell:>{width}}" for cell, width in zip(cells, widths))

    header = line(["g", "l", *(heading for _, heading, _ in checks), "pass"])
    lines = [header, "-" * len(header)]
    for r in reports:
        values = [getattr(r, name) for name, _, _ in checks]
        lines.append(line(map(_cell, [r.params.g, r.params.l, *values, r.hard_pass])))
    for row in distinct:
        ls = ",".join(str(l) for l in row["l_values"])
        verdicts = " ".join(f"{label}={_cell(row[name])}" for name, label in _DISTINCTNESS)
        lines.append(f"distinctness g={row['g']} over l={ls}: {verdicts}")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    """A table cell: yes or NO for a verdict, INF for an infinite order."""
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return "INF" if value is INFINITE else str(value)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
