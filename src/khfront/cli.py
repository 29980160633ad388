"""Command-line interface.

Commands
--------
analyze   full bound report for one front
trees     spanning-tree records of the Tait graph
homology  integer Khovanov homology table (oracle)
jones     unreduced Jones polynomial (oracle)
certify   sharpness verdict only
corpus    batch run over a directory of .front files

Front input is either an event word ("L1 L2 X1 X1 X1 R2 R1") or @path to
a .front file.  Exit codes: 0 success, 2 convention tripwire, 64 usage,
65 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .bounds import sharpness_report
from .corpus import BUNDLED, _read_front_file, read_corpus_file
from .errors import ConventionError, KhfrontError
from .front import FrontDiagram, parse_front
from .oracle import DEFAULT_MAX_CROSSINGS, kauffman_jones, khovanov_homology
from .tait import tait_graph
from .trees import (
    _CLASS,
    _LABEL_OF_CODE,
    _ON_TREE,
    PRETTY,
    _bigrading,
    generator_ij,
    sorted_tree_codes,
)

EXIT_OK = 0
EXIT_CONVENTION = 2
EXIT_USAGE = 64
EXIT_INVALID = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(least: int):
    """The type of a count option: a whole number, ``least`` or more."""

    def parse(text: str) -> int:
        try:
            count = int(text)
        except ValueError:
            count = least - 1
        if count < least:
            raise argparse.ArgumentTypeError(
                f"needs a count of {least} or more, not {text!r}"
            )
        return count

    return parse


@cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused by every call
    of ``main`` in the process."""
    p = _Parser(prog="khfront", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    limit = {"type": _count(0), "default": DEFAULT_MAX_CROSSINGS}

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="JSON output")
        sp.add_argument("--out", type=Path, help="write output to this path")
        return sp

    def add_front(sp, orient=False):
        sp.add_argument("front", help="event word or @path to a .front file")
        if orient:
            sp.add_argument(
                "--orient",
                help="per-component orientation signs, e.g. '+,-' (canonical order)",
            )

    for name in ("analyze", "certify"):
        sp = add(name, f"{name} a front")
        add_front(sp)
        sp.add_argument("--oracle", action="store_true", help="run the homology oracle")
        sp.add_argument("--max-crossings", **limit)

    sp = add("trees", "spanning-tree records")
    add_front(sp)
    sp.add_argument(
        "--coloring",
        choices=("canonical", "reversed", "both"),
        default="canonical",
    )

    sp = add("homology", "Khovanov homology table")
    add_front(sp, orient=True)
    sp.add_argument("--max-crossings", **limit)

    sp = add("jones", "unreduced Jones polynomial")
    add_front(sp, orient=True)
    sp.add_argument("--max-crossings", **limit)

    sp = add("corpus", "batch run over a directory of .front files")
    sp.add_argument(
        "directory",
        nargs="?",
        type=Path,
        help="directory of .front files (omit to use the bundled corpus)",
    )
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--max-crossings", **limit)
    sp.add_argument("--jobs", type=_count(1), default=4)
    return p


def _load_front(arg: str) -> FrontDiagram:
    """The front of an event word, or of the file ``@path`` names; a tb
    the file records goes unchecked."""
    if arg.startswith("@"):
        return _read_front_file(Path(arg[1:]))[0]
    return parse_front(arg)


def _flips(front: FrontDiagram, orient: Optional[str]) -> Optional[list[bool]]:
    if orient is None:
        return None
    signs = [s.strip() for s in orient.split(",")]
    n_comp = front.desingularize().component_count()
    if len(signs) != n_comp or any(s not in ("+", "-") for s in signs):
        raise KhfrontError(
            f"--orient needs {n_comp} comma-separated +/- signs"
        )
    return [s == "-" for s in signs]


def _report_text(r) -> str:
    lines = [
        f"tb           = {r.tb}",
        f"cusp pairs C = {r.C}",
        f"min u(T)     = {r.min_u}  over {r.tree_count} spanning trees",
    ]
    if r.min_delta is not None:
        eq = "=" if r.tb == r.min_delta else "<"
        lines.append(f"min delta    = {r.min_delta}  (tb {eq} min delta)")
    lines.append("census (v: good/bad): " + ", ".join(
        f"{v}: {g}/{b}" for v, (g, b) in sorted(r.census.items())
    ))
    lines.append(f"verdict      = {r.verdict}")
    return "\n".join(lines)


#: what a command returns: functions building its JSON text and its text
#: report, so each run builds only the one it prints
_Output = tuple[Callable[[], str], Callable[[], str]]


def _dumps(payload) -> str:
    """The JSON text of a payload, as every command but ``trees`` writes
    it."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_analyze(args) -> _Output:
    """``analyze`` and ``certify``: one report, printed in full or as its
    verdict."""
    front = _load_front(args.front)
    r = sharpness_report(
        front, with_oracle=args.oracle, max_crossings=args.max_crossings
    )
    if args.command == "analyze":
        return lambda: _dumps(r.to_json_dict()), lambda: _report_text(r)
    payload = {"schema": 1, "verdict": r.verdict, "tb": r.tb, "min_delta": r.min_delta}
    return lambda: _dumps(payload), lambda: f"verdict = {r.verdict}"


#: one ``trees --json`` record as ``_dumps`` writes it inside the listing:
#: sorted keys, with fields for class, coloring, edges, the generators'
#: (i, j) pairs, labels, u and v
_TREE_RECORD = """\
    {{
      "class": "{}",
      "coloring": "{}",
      "edges": {},
      "generators": [
        [
          {},
          {}
        ],
        [
          {},
          {}
        ]
      ],
      "labels": {},
      "u": {},
      "v": {}
    }}"""


def _tree_fields(rows: list, n: int, w: int, cusp_count: int) -> Iterator[tuple]:
    """Per row (coloring, label codes) of a diagram with n crossings and
    writhe w on a front with ``cusp_count`` cusp pairs: its coloring, its
    codes, its edge ids as strings, u, v, its class and its generators'
    (i, j) pairs, each read off the codes."""
    ids = [str(k) for k in range(n)]
    for col, codes in rows:
        u, v = _bigrading(codes)
        yield (
            col,
            codes,
            list(compress(ids, codes.translate(_ON_TREE))),
            u,
            v,
            _CLASS.get(u + cusp_count, "neither"),
            generator_ij(u, v, n, w),
        )


def _trees_json(trees: Iterable[tuple], n: int) -> str:
    """The ``trees --json`` text of the ``_tree_fields`` of a diagram with
    n crossings: byte for byte ``_dumps({"schema": 1, "trees": [...]})``
    of the records, written from ``_TREE_RECORD`` without building them
    as dicts."""
    label_json = [json.dumps(PRETTY[lab]) for lab in _LABEL_OF_CODE]
    # the labels object with field k for edge k, in JSON's key order, which
    # compares keys as strings: "10" comes before "2"
    labels = "{{}}" if n == 0 else "{{\n" + ",\n".join(
        f'        "{k}": {{{k}}}' for k in sorted(range(n), key=str)
    ) + "\n      }}"
    records = []
    for col, codes, edges, u, v, cls, ((i0, j0), (i1, j1)) in trees:
        records.append(_TREE_RECORD.format(
            cls,
            col,
            "[\n        " + ",\n        ".join(edges) + "\n      ]" if edges else "[]",
            i0, j0, i1, j1,
            labels.format(*map(label_json.__getitem__, codes)),
            u,
            v,
        ))
    return '{\n  "schema": 1,\n  "trees": [\n' + ",\n".join(records) + "\n  ]\n}"


def _cmd_trees(args) -> _Output:
    """``trees``: the listed label codes of each tree, written as JSON or
    text with no record built in between."""
    front = _load_front(args.front)
    n = front.crossing_count
    rows = [
        (name, codes)
        for name, reverse in (("canonical", False), ("reversed", True))
        if args.coloring in (name, "both")
        for codes in sorted_tree_codes(tait_graph(front, reverse))
    ]

    def trees() -> Iterator[tuple]:
        return _tree_fields(rows, n, front.writhe, front.cusp_count)

    def text() -> str:
        pretty = [PRETTY[lab] for lab in _LABEL_OF_CODE]
        return "\n".join(
            f"[{col}] edges=[{', '.join(edges)}] labels="
            + "".join(map(pretty.__getitem__, codes))
            + f" u={u} v={v} class={cls} generators={ij}"
            for col, codes, edges, u, v, cls, ij in trees()
        )

    return lambda: _trees_json(trees(), n), text


def _cmd_homology(args) -> _Output:
    front = _load_front(args.front)
    flips = _flips(front, args.orient)
    table = khovanov_homology(
        front.desingularize(), flips=flips, max_crossings=args.max_crossings
    )
    payload = {"schema": 1, **table.to_json_dict(), "min_delta": table.min_delta()}
    return lambda: _dumps(payload), table.pretty


def _cmd_jones(args) -> _Output:
    front = _load_front(args.front)
    flips = _flips(front, args.orient)
    poly = kauffman_jones(
        front.desingularize(), flips=flips, max_crossings=args.max_crossings
    )
    payload = {
        "schema": 1,
        "variable": "q",
        "terms": [[e, c] for e, c in poly.items()],
    }
    return lambda: _dumps(payload), lambda: repr(poly)


def _cmd_corpus(args) -> _Output:
    """Every .front file of the directory, in file-name order, or every
    bundled entry in the order of its file name ``{name}.front``."""

    def report(front: FrontDiagram):
        return sharpness_report(
            front, with_oracle=args.oracle, max_crossings=args.max_crossings
        )

    def run_entry(e):
        return e.name, report(e.front()), e.tb

    def run_file(path: Path):
        front, tb = read_corpus_file(path)
        return path.stem, report(front), tb

    if args.directory is None:
        run_one, items = run_entry, sorted(BUNDLED, key=lambda e: f"{e.name}.front")
    else:
        run_one, items = run_file, sorted(args.directory.glob("*.front"))
        if not items:
            print(f"error: no .front files in {args.directory}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(run_one, items))

    violations = sum(tb is not None and r.tb != tb for _, r, tb in results)
    payload = {
        "schema": 1,
        "items": [{"name": name, **r.to_json_dict()} for name, r, _ in results],
        "violations": violations,
    }

    def text() -> str:
        width = max(len(name) for name, _, _ in results)
        lines = [
            f"{name:<{width}}  tb={r.tb:>3}  "
            + (f"min_delta={r.min_delta:>3}  " if r.min_delta is not None else "")
            + f"verdict={r.verdict}"
            for name, r, _ in results
        ]
        lines.append(f"{len(results)} fronts, {violations} violations")
        return "\n".join(lines)

    return lambda: _dumps(payload), text


_COMMANDS = {
    "analyze": _cmd_analyze,
    "certify": _cmd_analyze,
    "trees": _cmd_trees,
    "homology": _cmd_homology,
    "jones": _cmd_jones,
    "corpus": _cmd_corpus,
}


def _join_orient(argv: list[str]) -> list[str]:
    """Rewrite ``--orient VALUE`` as ``--orient=VALUE``: argparse reads a
    separate value that starts with '-', such as '-,+', as an option and
    would report the value missing."""
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            out.append(arg)
            out.extend(rest)
        elif arg == "--orient":
            value = next(rest, None)
            out.append(arg if value is None else f"--orient={value}")
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    argv = _join_orient(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
        if args.out and (not args.out.name or args.out.is_dir()):
            raise KhfrontError(f"--out {args.out} names no file")
        json_text, text = _COMMANDS[args.command](args)
        body = json_text() if args.json else text()
        if args.out:
            tmp = args.out.with_suffix(args.out.suffix + ".tmp")
            try:
                tmp.write_text(body + "\n")
                tmp.replace(args.out)
            except OSError as exc:
                raise KhfrontError(
                    f"cannot write --out {args.out}: {exc.strerror or exc}"
                ) from exc
            finally:
                tmp.unlink(missing_ok=True)
        else:
            print(body)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except ConventionError as exc:
        print(f"convention tripwire: {exc}", file=sys.stderr)
        return EXIT_CONVENTION
    except (KhfrontError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
