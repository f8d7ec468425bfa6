"""Command-line front end.

Two styles of use: `steencalc run FILE` evaluates a source file (ring and
bundle blocks plus queries), and the other subcommands build a single query
from arguments.  Query subcommands resolve ring names against a file given
with --rings first, then against the built-in scenario rings, so

    steencalc apply "Sq^3 Sq^1" x1*x2 --ring CLASSIFYING2

works out of the box.  Each verb's positionals, options, types, choices and
help are written once, in the table _verbs: a plain argv is read from it
directly, and argparse, whose parser is built from it, reads every other
argv and writes help, usage and usage errors.  Both read only a command's
shape; execute_query checks its values, as for the same query in a file,
and answers every verb, corpus list and corpus run included.
Exit status: 0 when everything ran and every expectation held, 1 when an
expectation failed or an obstruction fired with no expectation recording
that it should, 2 on input errors, CLOSED_PIPE (141) with nothing on stderr
when standard output closes before everything is written.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from types import SimpleNamespace

from . import corpus, dsl
from .errors import SteencalcError
from .runner import execute_query

_FORMATS = ("text", "json", "json-like-structured")
CLOSED_PIPE = 141  # a shell's status for a process that SIGPIPE ended


@lru_cache(maxsize=1)
def _verbs():
    """Each verb once: its query class (None for run), its help, and its
    arguments in order, each name with the keywords of its add_argument."""
    ring = {"--ring": dict(required=True, help="ring name"),
            "--rings": dict(help="source file declaring extra rings")}
    number = dict(type=int)
    return {
        "run": (None, "evaluate a source file", {"file": {}}),
        "apply": (dsl.ApplyQuery, "apply an operation word", {
            "op_text": dict(metavar="op",
                            help='operation text, e.g. "Sq^3 Sq^1" or "b P^1 b"'),
            "poly": {}, **ring, "--expect": dict(help="expected polynomial")}),
        "normalize": (dsl.NormalizeQuery, "normal form of a polynomial", {
            "poly": {}, **ring, "--expect": dict(help="expected polynomial")}),
        "adem": (dsl.AdemQuery, "admissible form of an operation word", {
            "op_text": dict(metavar="op"), "--prime": number,
            "--expect": dict(help="expected operation text")}),
        "obstruct": (dsl.ObstructQuery, "run one obstruction test", {
            "kind": dict(choices=("odd", "weird", "frobenius", "hs")), "poly": {}, **ring,
            "--codim": number, "--which": dict(type=int, help="1 or 2, for the weird kind"),
            "--q": dict(type=int, help="size of the ground field"),
            "--max-degree": number, "--twist": number,
            "--expect": dict(help="verdict (vanishes, nonvanishing, in-image, not-in-image), "
                             "or a polynomial for the weird kind")}),
        "wu-check": (dsl.WuQuery, "verify the pushforward identity", {
            "--n": dict(type=int, required=True, help="fiber dimension"),
            "--m": dict(type=int, required=True, help="cycle dimension over the base"),
            **ring, "--y": dict(help="base class (default 1)"), "--hyperplane": {},
            "--expect": dict(help="true or false")}),
        "charclass": (dsl.CharclassQuery, "total class of a declared bundle", {
            "kind": dict(choices=("w", "wet")), "bundle": {},
            "--rings": dict(required=True, help="source file declaring the bundle"),
            "--expect": dict(help="expected rendered class")}),
        "corpus": (dsl.CorpusQuery, "list or run built-in scenarios", {
            "action": dict(choices=("list", "run")),
            "name": dict(nargs="?", help="scenario name, or all")}),
    }


@lru_cache(maxsize=1)
def _build_parser():
    """The argparse parser of _verbs(): help, usage, errors, and every argv
    _read_argv declines.  argparse is imported here, its only user, so a
    plain argv never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="steencalc", description="mod-l operation calculus on presented graded rings")
    parser.add_argument("--format", choices=_FORMATS, default="text",
                        help="output format (json-like-structured is an alias of json)")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (query, text, arguments) in _verbs().items():
        p = sub.add_parser(verb, help=text)
        if query is not None:
            p.set_defaults(query=query)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
    return parser


def _read_argv(argv):
    """The namespace argparse gives for a plain argv, read from _verbs(); None
    for any other, which argparse then reads or refuses.  Plain: --format
    first if at all, the verb, then its positionals in order and its options
    by full name, each once, with a value that does not start with - and
    converts by its type into its choices."""
    fmt = "text"
    if len(argv) > 1 and argv[0] == "--format" and argv[1] in _FORMATS:
        fmt, argv = argv[1], argv[2:]
    if not argv or argv[0] not in _verbs():
        return None
    query, _, arguments = _verbs()[argv[0]]
    positionals = [name for name in arguments if name[0] != "-"]
    given, words = {}, iter(argv[1:])
    for word in words:
        option = word[:1] == "-"
        name = word if option else positionals.pop(0) if positionals else None
        value = next(words, "-") if option else word
        keywords = None if name in given else arguments.get(name)
        if keywords is None or value[:1] == "-":
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[name] = value
    if any(name not in given and kw.get("required", name[0] != "-" and "nargs" not in kw)
           for name, kw in arguments.items()):
        return None
    values = {name.lstrip("-").replace("-", "_"): given.get(name) for name in arguments}
    if query is not None:
        values["query"] = query
    return SimpleNamespace(format=fmt, command=argv[0], **values)


# ------------------------------------------------------------ source files


def _load_program(path):
    return _build_source(corpus.read_source(path))


@lru_cache(maxsize=8)
def _build_source(source):
    """The program of a source text, built once per distinct text, so a
    long-lived process reuses its presentations and their caches."""
    return dsl.build_program(dsl.parse(source))


# ---------------------------------------------------------------- dispatch


def _query_from_args(args):
    """The query class the subcommand names, built from the fields given in
    args, so an option left out takes the class's default; the argv reader
    has checked that each required field is given, and execute_query checks
    the values.  poly and y are polynomials, and so is the
    expectation of a query on a polynomial, except an obstruction verdict."""
    values = {name: v for name in args.query._fields
              if (v := getattr(args, name, None)) is not None}
    polys = ["poly", "y"]
    if "poly" in values and values.get("kind") in (None, "weird"):
        polys.append("expect")
    for name in polys:
        if name in values:
            values[name] = dsl.parse_poly(values[name])
    return args.query._from(values)


def _dispatch(args):
    if args.command == "run":
        program = _load_program(args.file)
        queries = program.queries
    else:
        queries = [_query_from_args(args)]
        rings_path = getattr(args, "rings", None)
        program = _load_program(rings_path) if rings_path else None
    resolve_ring, resolve_bundle = corpus.resolvers(program)
    return [execute_query(q, resolve_ring, resolve_bundle) for q in queries]


def _emit(results, fmt, ok):
    if fmt == "text":
        sys.stdout.writelines(line + "\n" for r in results for line in r.lines)
        return
    # the text of json.dumps({"ok": ok, "results": records}, sort_keys=True,
    # indent=2), each record's own text indented to its depth
    items = ",\n".join("    " + r.record_json().replace("\n", "\n    ") for r in results)
    print('{\n  "ok": %s,\n  "results": %s\n}'
          % (json.dumps(ok), "[\n%s\n  ]" % items if items else "[]"))


def _stdout_to_devnull():
    """Point stdout's descriptor at os.devnull once its reader has gone, so
    what is left in its buffer goes there when the interpreter flushes it
    at exit, with no traceback."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # a stdout with no descriptor, such as a StringIO
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        results = _dispatch(args)
    except (SteencalcError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    passed = all(r.passed for r in results)
    try:
        _emit(results, args.format, passed)
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()
        return CLOSED_PIPE
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
