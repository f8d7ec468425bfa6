"""Command-line front end.

Two styles of use: `steencalc run FILE` evaluates a source file (ring and
bundle blocks plus queries), and the other subcommands build a single query
from arguments.  Query subcommands resolve ring names against a file given
with --rings first, then against the built-in scenario rings, so

    steencalc apply "Sq^3 Sq^1" x1*x2 --ring CLASSIFYING2

works out of the box.  argparse reads only a command's shape; its values
are checked by execute_query, as for the same query in a file.  Exit
status: 0 when everything ran and every expectation held, 1 when an
expectation failed or an obstruction fired with no expectation recording
that it should, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import lru_cache

from . import corpus, dsl
from .errors import SteencalcError
from .runner import QueryResult, execute_query

_FORMATS = ("text", "json", "json-like-structured")


@lru_cache(maxsize=1)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="steencalc",
        description="mod-l operation calculus on presented graded rings",
    )
    parser.add_argument(
        "--format", choices=_FORMATS, default="text",
        help="output format (json-like-structured is an alias of json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a source file")
    run.add_argument("file")

    def with_ring(p):
        p.add_argument("--ring", required=True, help="ring name")
        p.add_argument("--rings", help="source file declaring extra rings")

    apply_p = sub.add_parser("apply", help="apply an operation word")
    apply_p.set_defaults(query=dsl.ApplyQuery)
    apply_p.add_argument(
        "op_text", metavar="op", help='operation text, e.g. "Sq^3 Sq^1" or "b P^1 b"'
    )
    apply_p.add_argument("poly")
    with_ring(apply_p)
    apply_p.add_argument("--expect", help="expected polynomial")

    norm = sub.add_parser("normalize", help="normal form of a polynomial")
    norm.set_defaults(query=dsl.NormalizeQuery)
    norm.add_argument("poly")
    with_ring(norm)
    norm.add_argument("--expect", help="expected polynomial")

    adem = sub.add_parser("adem", help="admissible form of an operation word")
    adem.set_defaults(query=dsl.AdemQuery)
    adem.add_argument("op_text", metavar="op")
    adem.add_argument("--prime", type=int)
    adem.add_argument("--expect", help="expected operation text")

    obstruct = sub.add_parser("obstruct", help="run one obstruction test")
    obstruct.set_defaults(query=dsl.ObstructQuery)
    obstruct.add_argument("kind", choices=("odd", "weird", "frobenius", "hs"))
    obstruct.add_argument("poly")
    with_ring(obstruct)
    obstruct.add_argument("--codim", type=int)
    obstruct.add_argument("--which", type=int, help="1 or 2, for the weird kind")
    obstruct.add_argument("--q", type=int, help="size of the ground field")
    obstruct.add_argument("--max-degree", type=int)
    obstruct.add_argument("--twist", type=int)
    obstruct.add_argument(
        "--expect",
        help="verdict (vanishes, nonvanishing, in-image, not-in-image), "
        "or a polynomial for the weird kind",
    )

    wu = sub.add_parser("wu-check", help="verify the pushforward identity")
    wu.set_defaults(query=dsl.WuQuery)
    wu.add_argument("--n", type=int, required=True, help="fiber dimension")
    wu.add_argument("--m", type=int, required=True, help="cycle dimension over the base")
    with_ring(wu)
    wu.add_argument("--y", help="base class (default 1)")
    wu.add_argument("--hyperplane")
    wu.add_argument("--expect", help="true or false")

    cc = sub.add_parser("charclass", help="total class of a declared bundle")
    cc.set_defaults(query=dsl.CharclassQuery)
    cc.add_argument("kind", choices=("w", "wet"))
    cc.add_argument("bundle")
    cc.add_argument("--rings", required=True, help="source file declaring the bundle")
    cc.add_argument("--expect", help="expected rendered class")

    corp = sub.add_parser("corpus", help="list or run built-in scenarios")
    corp.set_defaults(query=dsl.CorpusQuery)
    corp.add_argument("action", choices=("list", "run"))
    corp.add_argument("name", nargs="?", help="scenario name, or all")

    return parser


# ------------------------------------------------------------ source files


def _load_program(path):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return _build_source(source)


@lru_cache(maxsize=8)
def _build_source(source):
    """The program of a source text, built once per distinct text, so a
    long-lived process reuses its presentations and their caches."""
    return dsl.build_program(dsl.parse(source))


def _corpus_answer(query):
    """The answer to a corpus verb, which only the command line runs."""
    label = dsl.render_query(query)
    lines = [label]
    record = {"query": label, "verb": "corpus-" + query.action}
    if query.action == "list":
        names = corpus.scenario_names()
        lines.extend("  " + n for n in names)
        record["result"] = names
        return QueryResult(label, lines, record)
    names = corpus.scenario_names() if query.name in (None, "all") else [query.name]
    ok = True
    out = []
    for name in names:
        report = corpus.run_scenario(corpus.get_scenario(name))
        ok = ok and report.ok
        out.append(
            {
                "scenario": report.name,
                "ok": report.ok,
                "steps": [{"label": s.label, "ok": s.ok} for s in report.steps],
            }
        )
        lines.extend("  " + line for line in report.render().splitlines())
    record.update({"result": out, "ok": ok})
    return QueryResult(label, lines, record, expected=ok)


# ---------------------------------------------------------------- dispatch


def _query_from_args(args):
    """The query class the subcommand names, built from the fields given in
    args, so an option left out takes the class's default; execute_query
    checks the values.  poly and y are polynomials, and so is the
    expectation of a query on a polynomial, except an obstruction verdict."""
    values = {f.name: v for f in fields(args.query)
              if (v := getattr(args, f.name, None)) is not None}
    polys = ["poly", "y"]
    if "poly" in values and values.get("kind") in (None, "weird"):
        polys.append("expect")
    for name in polys:
        if name in values:
            values[name] = dsl.parse_poly(values[name])
    return args.query(**values)


def _dispatch(args):
    if args.command == "run":
        program = _load_program(args.file)
        queries = program.queries
    else:
        queries = [_query_from_args(args)]
        rings_path = getattr(args, "rings", None)
        program = _load_program(rings_path) if rings_path else None
    resolve_ring, resolve_bundle = corpus.resolvers(program)
    return [_corpus_answer(q) if isinstance(q, dsl.CorpusQuery)
            else execute_query(q, resolve_ring, resolve_bundle) for q in queries]


def _emit(results, fmt, ok):
    if fmt == "text":
        for r in results:
            for line in r.lines:
                print(line)
        return
    payload = {"ok": ok, "results": [r.record for r in results]}
    print(json.dumps(payload, sort_keys=True, indent=2))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        results = _dispatch(args)
    except SteencalcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    passed = all(r.passed for r in results)
    _emit(results, args.format, passed)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
