"""Execution of parsed queries against presentations.

Shared by the command-line front end and the scenario regression runner.
Each query produces a QueryResult holding the rendered text lines, a
structured record for machine output, whether an expectation was attached
and met, and whether an obstruction fired.  QueryResult.passed is the pass
rule both front ends apply.  Output is deterministic: term order comes from
the ring's renderers, never from dict iteration.

An answer has one tail.  _wanted first parses the expectation into the
value it names and the text a failure shows, so a bad one fails before any
computation; _evaluate then computes what a verb shows, its record fields,
the value its expectation is compared with and whether it fired.  _answer
alone builds the QueryResult: the label, record["ok"], the expectation line
and, for a ring element, record["expected"] and a diff.

Answers are cached.  execute_query resolves what a query reads on every
call, then looks the answer up in one functools.lru_cache of at most
_ANSWERS_MAX entries, keyed by the query and those objects: the ring's
presentation, for charclass also the bundle declaration, and for corpus the
scenario names it lists or the scenarios it runs.  The key is sound because
AST nodes are frozen records (record.FrozenRecord) whose source spans, the
fields named span or ending in _span, are left out of equality and hashing,
presentations are immutable and hash by identity, scenarios
hash by identity and are loaded once per directory and name, and neither
labels nor results carry spans.  So a switched corpus directory
or an added scenario file gets a fresh corpus answer, and a repeated one is
a hit (the scenario queries it runs go through the cache too).  A caller
gets a fresh QueryResult with its own copy of the lines; its record is
copied from the cached one on its first read, and record_json encodes the
cached record once per cached answer, so mutating a result changes no later
answer.  Errors are left out: a failing query raises again, with its own
line:col.  A cached entry keeps what it reads alive until it is evicted or
the table is cleared.
"""

from __future__ import annotations

import json
from functools import lru_cache

from . import corpus, dsl
from .charclasses import (
    VirtualBundle,
    fiber_dimension,
    verify_relative_wu_projective,
    w_bro,
    w_et,
)
from .errors import (DslSyntaxError, InvalidArgument, MissingCodim, NonHomogeneousInput,
                     SteencalcError)
from .obstructions import (hs_scripted_check, in_image_F_minus_Id, odd_vanishing_check,
                           weird_operator)
from .record import Record
from .rings import RingElement
from .steenrod import parse_operation


class QueryResult(Record):
    label: str
    lines: list
    record: dict
    expected: bool | None = None  # None: no expectation attached
    fired: bool = False

    def __init__(self, label, lines, record, expected=None, fired=False):  # one per answer
        self.label, self.lines, self.record = label, lines, record
        self.expected, self.fired = expected, fired

    @property
    def ok(self):
        return self.expected is not False

    @property
    def passed(self):
        """ok, and no obstruction fired without an expectation recording it."""
        return self.ok and not (self.fired and self.expected is None)

    def __getattr__(self, name):
        """The record of a result from the cache, which has none of its own
        until this first read copies the cached answer's record into it."""
        if name != "record" or "_cached" not in vars(self):
            raise AttributeError(name)
        self.record = record = _fresh(self._cached.record)
        return record

    def record_json(self):
        """json.dumps(self.record, sort_keys=True, indent=2); while the
        record of a result from the cache is unread, the cached answer's
        text, encoded once."""
        if "record" in vars(self):
            return json.dumps(self.record, sort_keys=True, indent=2)
        answer = self._cached
        if "_json" not in vars(answer):
            answer._json = json.dumps(answer.record, sort_keys=True, indent=2)
        return answer._json


def element_record(x):
    """Structured form of a ring element: list of (exponent map, coeff)."""
    parent = x.parent
    terms = x.terms
    out = []
    for m in sorted(terms):
        out.append(
            {
                "monomial": {
                    g.name: e for g, e in zip(parent.generators, m) if e
                },
                "coeff": terms[m] % parent.prime,
            }
        )
    return out


def diff_elements(got, want):
    """Monomial-level difference summary between two ring elements."""
    parent = got.parent
    got, want = got.terms, want.terms
    missing = [m for m in want if want[m] != got.get(m, 0)]
    extra = [m for m in got if m not in want]
    bits = []
    key = lambda m: (parent.monomial_degree(m), m)
    if missing:
        bits.append(
            "missing " + ", ".join(parent.render_monomial(m) for m in sorted(missing, key=key))
        )
    if extra:
        bits.append(
            "extra " + ", ".join(parent.render_monomial(m) for m in sorted(extra, key=key))
        )
    return "; ".join(bits) or "coefficient mismatch"


def _operation(text, prime, at):
    """parse_operation, with a syntax error inside a quoted string of a
    source file moved to its file line:col; at is the (line, col) of the
    opening quote, None for a command-line argument."""
    try:
        return parse_operation(text, prime)
    except DslSyntaxError as exc:
        if at is None:
            raise
        raise DslSyntaxError(exc.message, at[0], at[1] + exc.col, exc.expected) from exc


_ANSWERS_MAX = 1024


def execute_query(query, resolve_ring, resolve_bundle=None) -> QueryResult:
    """Run one query.  resolve_ring(name) -> RingPresentation (raising
    UnknownGenerator for unknown names); resolve_bundle(name) ->
    (BundleDecl, RingPresentation).  Corpus verbs read the corpus directory."""
    if isinstance(query, dsl.CorpusQuery):
        names = corpus.scenario_names() if query.name in (None, "all") else [query.name]
        scope = names if query.action == "list" else map(corpus.get_scenario, names)
        answer = _answer(query, tuple(scope))
    elif isinstance(query, dsl.AdemQuery):
        answer = _answer(query, None)
    elif isinstance(query, dsl.CharclassQuery):
        if resolve_bundle is None:
            raise SteencalcError("no bundles in scope")
        decl, pres = resolve_bundle(query.bundle)
        answer = _answer(query, pres, decl)
    elif isinstance(query, (dsl.ApplyQuery, dsl.NormalizeQuery, dsl.WuQuery, dsl.ObstructQuery)):
        answer = _answer(query, resolve_ring(query.ring))
    else:
        raise TypeError("unhandled query %r" % (query,))
    result = object.__new__(QueryResult)  # no record until its first read
    vars(result).update(label=answer.label, lines=list(answer.lines), expected=answer.expected,
                        fired=answer.fired, _cached=answer)
    return result


def _fresh(value):
    """A copy of a record: its dicts and lists copied, all the way down."""
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_fresh(v) for v in value]
    return value


@lru_cache(maxsize=_ANSWERS_MAX)
def _answer(query, pres, decl=None) -> QueryResult:
    """The answer to a query on what execute_query resolved for it: its
    presentation (None for adem; for corpus, the scenario names or the
    scenarios) and, for charclass, its bundle declaration; callers get
    copies."""
    label = dsl.render_query(query)
    want, named = _wanted(query, pres)  # first: a bad expectation costs no computation
    text, fields, value, fired = _evaluate(query, pres, decl)
    lines = [label] + ["  " + line for line in text.splitlines()]
    record = {"query": label, **fields}
    expected = fields.get("ok")  # None but for a corpus run, which passes or fails itself
    if query.expect is not None:
        if isinstance(want, RingElement):
            record["expected"] = element_record(want)
        expected = record["ok"] = value == want
        lines.append("  expected: ok" if expected else "  EXPECTATION FAILED: wanted %s" % named)
        if not expected and isinstance(want, RingElement):
            lines.append("  diff: %s" % diff_elements(value, want))
    return QueryResult(label, lines, record, expected, fired)


def _wanted(query, pres):
    """The value a query's expectation names, and the text a failure shows:
    an Adem-normalised word, a ring element, a verdict, or literal text.
    The one reader of an expectation: a verdict its verb cannot give is an
    InvalidArgument, from a file and from the command line alike.  None
    for a query without an expectation."""
    if query.expect is None:
        return None, None
    if isinstance(query, dsl.AdemQuery):
        want = _operation(query.expect, query.prime, query.expect_span).adem_normalize()
        return want, want.render()
    if isinstance(query, dsl.CharclassQuery):
        return query.expect, query.expect
    if isinstance(query, dsl.WuQuery):
        verb, words, named = "wu-check", ("true", "false"), query.expect
    elif isinstance(query, dsl.ObstructQuery) and query.kind != "weird":
        verb, named = "obstruct " + query.kind, "verdict " + query.expect
        words = (("in-image", "not-in-image") if query.kind == "frobenius"
                 else ("vanishes", "nonvanishing"))
    else:
        want = dsl.poly_to_element(pres, query.expect, query.span)
        return want, want.render()
    if query.expect not in words:
        raise InvalidArgument("%s cannot give %r (expected %s)"
                              % (verb, query.expect, " or ".join(words)))
    return query.expect, named


def _evaluate(query, pres, decl):
    """What a query computes: the text after its label, its record fields,
    the value an expectation is compared with, and whether it fired."""
    if isinstance(query, dsl.CorpusQuery):
        if query.action == "list":
            if query.name is not None:
                raise InvalidArgument("corpus list takes no scenario name")
            return "\n".join(pres), {"verb": "corpus-list", "result": list(pres)}, None, False
        reports = [corpus.run_scenario(s) for s in pres]
        ok = all(r.ok for r in reports)
        result = [{"scenario": r.name, "ok": r.ok,
                   "steps": [{"label": s.label, "ok": s.ok} for s in r.steps]} for r in reports]
        text = "\n".join(r.render() for r in reports)
        return text, {"verb": "corpus-run", "result": result, "ok": ok}, ok, False

    if isinstance(query, dsl.AdemQuery):
        normal = _operation(query.op_text, query.prime, query.op_span).adem_normalize()
        rendered = normal.render()
        return "= " + rendered, {"verb": "adem", "result": rendered}, normal, False

    if isinstance(query, dsl.CharclassQuery):
        chern = [dsl.poly_to_element(pres, p, decl.span) for p in decl.chern]
        denom = [dsl.poly_to_element(pres, p, decl.span) for p in decl.denom]
        v = VirtualBundle(decl.rank, chern, denom, decl.trunc)
        total = w_bro(pres, v) if query.kind == "w" else w_et(pres, v)
        rendered = total.render()
        result = {str(d): element_record(e) for d, e in sorted(total.components.items())}
        fields = {"verb": "charclass", "kind": query.kind, "result": result}
        return "= " + rendered, fields, rendered, False

    if isinstance(query, (dsl.ApplyQuery, dsl.NormalizeQuery)):
        result = dsl.poly_to_element(pres, query.poly, query.span)
        verb = "normalize"
        if isinstance(query, dsl.ApplyQuery):
            verb = "apply"
            op = _operation(query.op_text, pres.prime, query.op_span)
            result = pres.apply_op_value(op, result)
        fields = {"verb": verb, "result": element_record(result)}
        return "= " + result.render(), fields, result, False

    if isinstance(query, dsl.WuQuery):
        y = dsl.poly_to_element(pres, query.y, query.span) if query.y else pres.one()
        n = fiber_dimension(pres, query.hyperplane)
        if n != query.n:
            raise SteencalcError("ring %s presents a fiber of dimension %d, not %d"
                                 % (query.ring, n, query.n))
        holds = verify_relative_wu_projective(y, query.m, query.hyperplane)
        verdict = "true" if holds else "false"
        return "= " + verdict, {"verb": "wu-check", "result": verdict}, verdict, not holds

    if query.kind == "weird" and query.codim is None:
        raise MissingCodim("obstruct weird needs --codim")
    if query.kind in ("frobenius", "hs") and query.q is None:
        raise SteencalcError("obstruct %s needs --q" % query.kind)
    unread = [flag for flag, given, kinds in (
        ("--codim", query.codim is not None, ("weird",)),
        ("--which", query.which != dsl.ObstructQuery.which, ("weird",)),
        ("--q", query.q is not None, ("frobenius", "hs")),
        ("--max-degree", query.max_degree != dsl.ObstructQuery.max_degree, ("odd",)),
    ) if given and query.kind not in kinds]
    if unread:
        raise InvalidArgument("obstruct %s does not read %s" % (query.kind, ", ".join(unread)))
    value = dsl.poly_to_element(pres, query.poly, query.span)
    if not value.is_homogeneous():
        raise NonHomogeneousInput("query input must be degree-homogeneous")
    if pres.prime > 2:
        twist = query.twist if query.twist is not None else min(
            (pres.monomial_twist(m) for m in value.terms), default=0)
        for m in value.terms:
            if (pres.monomial_twist(m) - twist) % (pres.prime - 1):
                raise NonHomogeneousInput(
                    "monomial %s has twist %d != %d mod %d"
                    % (pres.render_monomial(m), pres.monomial_twist(m), twist, pres.prime - 1)
                )

    if query.kind == "weird":
        out = weird_operator(value, query.which, query.codim)
        text = "= %s (NONZERO: obstruction fires)" % out.render() if out else "= 0 (vanishes)"
        fields = {"verb": "obstruct-weird", "result": element_record(out), "fired": bool(out)}
        return text, fields, out, bool(out)

    test = {"odd": odd_vanishing_check, "frobenius": in_image_F_minus_Id,
            "hs": hs_scripted_check}[query.kind]
    report = test(value, query.max_degree if query.kind == "odd" else query.q)
    fields = {"verb": "obstruct-" + query.kind, "verdict": report.verdict, "fired": report.fires}
    return report.render(), fields, report.verdict, report.fires
