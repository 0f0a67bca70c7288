"""Command-line front end.

Every subcommand reads gems either from GEM v1 files or from the
built-in catalog (file paths win when a name is both).  A report
subcommand builds one record of the library's own values
(`typing.NamedTuple` records, tuples, exact rationals).  With --json the
record is printed as a versioned JSON object ("schema": 1) with
deterministically ordered keys;
otherwise the subcommand's renderer turns the same record into plain
text lines.  Either way identical inputs produce byte-identical output.
Construction subcommands write GEM v1 text instead.

The JSON text is written by `_dump` in one walk over the record.  It
matches `json.dumps(..., sort_keys=True, indent=2)` of the record's JSON
form byte for byte, and that call stays the test oracle.  `json.dumps`
itself is not used: before Python 3.13 it falls back to its pure-Python
encoder whenever `indent` is set, and it needs a converted copy of the
record.

Exit codes: 0 success, 1 at least one verification check failed,
2 bad input (unknown file/name, malformed gem, wrong dimension),
141 (128 + SIGPIPE) stdout closed by its reader before all was written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .catalog import catalog_get, catalog_list
from .constructions import (
    connected_sum,
    crystallize_double,
    double,
    interval_product,
    sphere_connector_sum,
)
from .core import (
    ColoredGraph,
    GemError,
    boundary_graph,
    census,
    face_vector,
    validate,
)
from .gemfile import export_gem, load_gem
from .genus import (
    ManifoldMeta,
    boundary_genus_cap,
    rank_upper_bound,
    regular_genus,
    weak_semi_simple,
)
from .verify import verify_bounds, verify_identities


def _load_input(token: str) -> ColoredGraph:
    path = Path(token)
    if path.is_file():
        return load_gem(path)
    try:
        return catalog_get(token).graph
    except GemError:
        raise GemError(
            f"{token!r} is neither a readable file nor a catalog entry"
        )


# sorted field names of each record type `_dump` has met
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _dump(value, out: list[str], newline: str) -> None:
    """Append the JSON text of `value` to `out`, in the layout of
    `json.dumps(..., sort_keys=True, indent=2)`; `newline` is a line
    break plus the indentation of the line `value` starts on.

    A record's JSON form: records (`typing.NamedTuple` types, found by
    their `_fields`) become objects of their fields, plain tuples become
    lists, and rationals become ints or "p/q" strings.  Keys are sorted
    and must be strings.  Types are matched exactly, so a subclass (an
    `IntEnum` member, say) raises `TypeError` like any other type
    without a JSON form.
    """
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(repr(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is Fraction:
        if value.denominator == 1:
            out.append(repr(value.numerator))
        else:
            out.append(f'"{value.numerator}/{value.denominator}"')
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _dump(item, out, inner)
        out.append(newline + "]")
    elif kind is dict:
        _dump_object(sorted(value.items()), out, newline)
    else:
        names = _FIELD_NAMES.get(kind)
        if names is None:
            fields = getattr(kind, "_fields", None)
            if fields is None:
                raise TypeError(
                    f"Object of type {kind.__name__} is not JSON serializable"
                )
            names = _FIELD_NAMES[kind] = tuple(sorted(fields))
        _dump_object([(n, getattr(value, n)) for n in names], out, newline)


def _dump_object(items: list, out: list[str], newline: str) -> None:
    """`_dump` of a JSON object whose (key, value) items are sorted."""
    if not items:
        out.append("{}")
        return
    inner = newline + "  "
    sep = "{" + inner
    for key, item in items:
        out.append(sep + _quote(key) + ": ")
        sep = "," + inner
        _dump(item, out, inner)
    out.append(newline + "}")


def _emit(record: dict, as_json: bool, render) -> None:
    """Print `record` as JSON, or as the text lines `render(record)`."""
    if as_json:
        out: list[str] = []
        _dump({"schema": 1, **record}, out, "\n")
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        for line in render(record):
            print(line)


def _assignments(mapping) -> str:
    return " ".join(f"{k}={v}" for k, v in mapping.items())


def _write_graph(g: ColoredGraph, out: str | None) -> None:
    text = export_gem(g)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _meta_from_args(g: ColoredGraph, args) -> ManifoldMeta:
    if args.rank is None:
        raise GemError("this subcommand needs --rank (fundamental group "
                       "rank of the represented manifold)")
    return ManifoldMeta.for_graph(
        g,
        m=args.rank,
        boundary_genus=args.boundary_genus,
        double_rank=args.double_rank,
    )


def _ledger(report) -> dict:
    return {
        "passed": report.passed,
        "checks": report.checks,
        "skipped": report.skipped,
    }


def _ledger_lines(title: str, ledger: dict) -> list[str]:
    lines = [title]
    for c in ledger["checks"]:
        mark = "PASS" if c.passed else "FAIL"
        sharp = "  (sharp)" if c.sharp else ""
        lines.append(
            f"  [{mark}] {c.name}: {c.statement}  "
            f"[{c.left} {c.relation} {c.right}]{sharp}"
        )
    for s in ledger["skipped"]:
        lines.append(f"  [skip] {s.name}: {s.reason}")
    lines.append("overall: " + ("PASS" if ledger["passed"] else "FAIL"))
    return lines


# -- subcommand handlers and their text renderers ----------------------------


def _cmd_info(args) -> int:
    g = _load_input(args.input)
    report = validate(g)
    fv = face_vector(g)
    counts = census(g)
    tally = g.vertex_tally()
    record = {
        "command": "info",
        "dimension": g.dimension,
        "vertices": tally.total,
        "boundary_vertices": tally.boundary,
        "connected": report.connected,
        "bipartite": report.bipartite,
        "contracted": report.contracted,
        "closed": report.closed,
        "boundary_components": report.h,
        "is_crystallization": report.is_crystallization,
        "f_vector": fv.f,
        "euler_characteristic": fv.euler_characteristic,
        "pair_cycle_counts": {
            f"g_{i}{j}": counts.g_of(i, j)
            for i, j in itertools.combinations(g.colors, 2)
        },
        "boundary_cycle_counts": {} if report.closed else {
            f"bd_g_{i}{j}": counts.boundary_g_of(i, j)
            for i, j in itertools.combinations(range(g.dimension), 2)
        },
    }
    _emit(record, args.json, _info_lines)
    return 0


def _info_lines(r: dict) -> list[str]:
    lines = [
        f"dimension {r['dimension']}, {r['vertices']} vertices "
        f"({r['boundary_vertices']} on the boundary)",
        f"connected={r['connected']} bipartite={r['bipartite']} "
        f"contracted={r['contracted']}",
        f"closed={r['closed']} boundary components={r['boundary_components']} "
        f"crystallization={r['is_crystallization']}",
        f"f-vector {list(r['f_vector'])}  chi={r['euler_characteristic']}",
        "pair cycle counts: " + _assignments(r["pair_cycle_counts"]),
    ]
    if r["boundary_cycle_counts"]:
        lines.append(
            "boundary cycle counts: " + _assignments(r["boundary_cycle_counts"])
        )
    return lines


def _cmd_genus(args) -> int:
    profile = regular_genus(_load_input(args.input))
    record = {
        "command": "genus",
        "rho": profile.rho,
        "argmin_scheme": profile.argmin,
        "diagnostics": profile.diagnostics,
    }
    if args.all_permutations:
        record["schemes"] = profile.entries
    _emit(record, args.json, _genus_lines)
    return 0


def _genus_lines(r: dict) -> list[str]:
    lines = [f"rho(Gamma) = {r['rho']}  at scheme {r['argmin_scheme']}"]
    if "schemes" in r:
        lines.append("scheme                 chi_eps  holes  rho_eps")
        for e in r["schemes"]:
            lines.append(
                f"{str(e.scheme):22s} {e.chi:7d} {e.holes:6d}  {e.rho}"
            )
    lines.extend(f"warning: {diag}" for diag in r["diagnostics"])
    return lines


def _cmd_bounds(args) -> int:
    g = _load_input(args.input)
    meta = _meta_from_args(g, args)
    report = verify_bounds(g, meta, k_boundary=args.boundary_complexity)
    record = {"command": "bounds", **_ledger(report)}
    _emit(record, args.json,
          lambda r: _ledger_lines("bounds vs attained values:", r))
    return 0 if report.passed else 1


def _cmd_construct(args) -> int:
    """`double`, `crystallize-double` and `product`: one construction
    applied to one input."""
    _write_graph(args.construction(_load_input(args.input)), args.output)
    return 0


def _first_internal_vertex(g: ColoredGraph) -> int:
    for v in g.vertices:
        if g.mate(v, g.dimension) is not None:
            return v
    raise GemError("gem has no internal vertex to sum at")


def _cmd_connect(args) -> int:
    g1 = _load_input(args.input)
    g2 = _load_input(args.other)
    v1 = args.at[0] if args.at else _first_internal_vertex(g1)
    v2 = args.at[1] if args.at else _first_internal_vertex(g2)
    if args.via_sphere:
        out = sphere_connector_sum(g1, v1, g2, v2)
    else:
        out = connected_sum(g1, v1, g2, v2)
    _write_graph(out, args.output)
    return 0


def _cmd_boundary(args) -> int:
    g = _load_input(args.input)
    bg = boundary_graph(g)
    if bg.is_empty():
        raise GemError("gem is closed: empty boundary")
    for q in range(bg.component_count()):
        sub = bg.component_subgraph(q)
        if args.output:
            path = Path(f"{args.output}.{q + 1}.gem")
            path.write_text(export_gem(sub))
        else:
            print(f"# boundary component {q + 1} of {bg.component_count()}")
            sys.stdout.write(export_gem(sub))
    return 0


def _cmd_verify(args) -> int:
    g = _load_input(args.input)
    ledgers = {"identities": _ledger(verify_identities(g))}
    # any meta flag asks for the bounds ledger, so a flag that ledger
    # cannot use (one without --rank, any on a closed gem) is bad input
    if any(
        value is not None
        for value in (args.rank, args.boundary_genus, args.double_rank,
                      args.boundary_complexity)
    ):
        meta = _meta_from_args(g, args)
        ledgers["bounds"] = _ledger(
            verify_bounds(g, meta, k_boundary=args.boundary_complexity)
        )
    passed = all(ledger["passed"] for ledger in ledgers.values())
    record = {"command": "verify", "passed": passed, "reports": ledgers}
    _emit(record, args.json, _verify_lines)
    return 0 if passed else 1


def _verify_lines(r: dict) -> list[str]:
    lines: list[str] = []
    for name, ledger in r["reports"].items():
        lines.extend(_ledger_lines(f"{name}:", ledger))
    return lines


def _cmd_recognize(args) -> int:
    g = _load_input(args.input)
    report = weak_semi_simple(g, _meta_from_args(g, args))
    record = {
        "command": "recognize",
        "weak_semi_simple_type_one": report.type_one,
        "weak_semi_simple_type_two": report.type_two,
        "rank_upper_bound": rank_upper_bound(g),
        "boundary_genus_cap": boundary_genus_cap(g),
    }
    _emit(record, args.json, _recognize_lines)
    return 0


def _recognize_lines(r: dict) -> list[str]:
    type_one = r["weak_semi_simple_type_one"]
    return [
        f"weak semi-simple, type I:  {type_one}"
        + ("  (supply --boundary-genus to decide)" if type_one is None else ""),
        f"weak semi-simple, type II: {r['weak_semi_simple_type_two']}",
        f"fundamental group rank <= {r['rank_upper_bound']}",
        f"summed boundary genus  <= {r['boundary_genus_cap']}",
    ]


def _cmd_catalog(args) -> int:
    if args.action == "list":
        record = {"command": "catalog-list", "entries": catalog_list()}
        _emit(record, args.json, lambda r: r["entries"])
        return 0
    entry = catalog_get(args.name)
    if args.action == "export":
        _write_graph(entry.graph, args.output)
        return 0
    record = {
        "command": "catalog-show",
        "name": entry.name,
        "note": entry.note,
        "dimension": entry.graph.dimension,
        "vertices": entry.graph.vertex_count,
        "meta": entry.meta,
        "expected": dict(sorted(entry.expected.items())),
        "connector_vertices": entry.connector_vertices,
    }
    _emit(record, args.json, _show_lines)
    return 0


def _show_lines(r: dict) -> list[str]:
    lines = [
        f"{r['name']}: dimension {r['dimension']}, {r['vertices']} vertices",
        r["note"],
    ]
    if r["meta"] is not None:
        lines.append("meta: " + _assignments(r["meta"]._asdict()))
    if r["expected"]:
        lines.append("expected: " + _assignments(r["expected"]))
    if r["connector_vertices"]:
        lines.append(f"connector vertices: {r['connector_vertices']}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemkit",
        description="Invariants, constructions and verification for "
        "edge-colored gem graphs of PL manifolds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_meta_flags(p):
        p.add_argument("--rank", type=int, default=None,
                       help="fundamental group rank m of the manifold")
        p.add_argument("--boundary-genus", type=int, default=None,
                       help="summed regular genus of the boundary")
        p.add_argument("--double-rank", type=int, default=None,
                       help="fundamental group rank of the double")
        p.add_argument("--boundary-complexity", type=int, default=None,
                       help="gem-complexity of the boundary manifold")

    def add_common(p, output=False):
        p.add_argument("input", help="GEM v1 file or catalog entry name")
        p.add_argument("--json", action="store_true",
                       help="emit a versioned JSON record")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="write the resulting gem to this file")

    p = sub.add_parser("info", help="validation flags, tallies, censuses")
    add_common(p)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("genus", help="regular genus over all schemes")
    add_common(p)
    p.add_argument("--all-permutations", action="store_true",
                   help="print the per-scheme table")
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("bounds", help="lower bounds vs attained values")
    add_common(p)
    add_meta_flags(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("double", help="double along the boundary")
    add_common(p, output=True)
    p.set_defaults(handler=_cmd_construct, construction=double)

    p = sub.add_parser("crystallize-double",
                       help="double, then contract to a crystallization")
    add_common(p, output=True)
    p.set_defaults(handler=_cmd_construct, construction=crystallize_double)

    p = sub.add_parser("connect", help="connected sum of two gems")
    add_common(p, output=True)
    p.add_argument("other", help="second GEM v1 file or catalog name")
    p.add_argument("--via-sphere", action="store_true",
                   help="route the sum through the built-in sphere connector")
    p.add_argument("--at", type=int, nargs=2, metavar=("V1", "V2"),
                   help="summing vertices (default: first internal vertex "
                   "of each input)")
    p.set_defaults(handler=_cmd_connect)

    p = sub.add_parser("product",
                       help="interval product of a closed 3-manifold gem")
    add_common(p, output=True)
    p.set_defaults(handler=_cmd_construct, construction=interval_product)

    p = sub.add_parser("boundary", help="export each boundary component")
    add_common(p, output=True)
    p.set_defaults(handler=_cmd_boundary)

    p = sub.add_parser("verify", help="identity and bound ledger")
    add_common(p)
    add_meta_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("recognize",
                       help="weak semi-simplicity and combinatorial caps")
    add_common(p)
    add_meta_flags(p)
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("catalog", help="built-in gem catalog")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused by later
    ones in the same process; each parse still returns a fresh
    namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.subcommand == "catalog" and args.action != "list" and not args.name:
        parser.error("catalog show/export need an entry name")
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`gemkit verify X | head -1`).
        # Point stdout at devnull so the flush at interpreter exit does
        # not raise again; see the note on SIGPIPE in the `signal` docs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process it killed
    except (GemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
