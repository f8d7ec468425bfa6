"""Execution of parsed queries against presentations.

Shared by the command-line front end and the scenario regression runner.
Each query produces a QueryResult holding the rendered text lines, a
structured record for machine output, whether an expectation was attached
and met, and whether an obstruction fired.  Output is deterministic: term
order comes from the ring's renderers, never from dict iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import dsl
from .charclasses import (
    VirtualBundle,
    fiber_dimension,
    verify_relative_wu_projective,
    w_bro,
    w_et,
)
from .errors import MissingCodim, NonHomogeneousInput, SteencalcError
from .obstructions import (
    FrobeniusContext,
    HsInput,
    hs_scripted_check,
    in_image_F_minus_Id,
    odd_vanishing_check,
    weird_operator,
)
from .rings import TwistedClass
from .steenrod import parse_operation


@dataclass
class QueryResult:
    label: str
    lines: list
    record: dict
    expected: Optional[bool] = None  # None: no expectation attached
    fired: bool = False

    @property
    def ok(self):
        return self.expected is not False


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


def _class_of(pres, query, poly, twist, codim=None):
    value = dsl.poly_to_element(pres, poly, query.span)
    if not value.is_homogeneous():
        raise NonHomogeneousInput("query input must be degree-homogeneous")
    degree = value.degree() or 0
    if twist is None:
        twist = min(
            (pres.monomial_twist(m) for m in value.terms), default=0
        )
    return TwistedClass(value, degree, twist, codim)


def _expect_element(result, pres, query, expect_poly, lines, record):
    want = dsl.poly_to_element(pres, expect_poly, query.span)
    ok = result == want
    record["expected"] = element_record(want)
    record["ok"] = ok
    if ok:
        lines.append("  expected: ok")
    else:
        lines.append("  EXPECTATION FAILED: wanted %s" % want.render())
        lines.append("  diff: %s" % diff_elements(result, want))
    return ok


def execute_query(query, resolve_ring: Callable, resolve_bundle=None,
                  corpus_hook=None) -> QueryResult:
    """Run one query.  resolve_ring(name) -> RingPresentation (raising
    UnknownGenerator for unknown names); resolve_bundle(name) ->
    (BundleDecl, RingPresentation); corpus_hook(query) handles corpus verbs."""
    label = dsl.render_query(query)
    lines = [label]
    record = {"query": label}

    if isinstance(query, dsl.AdemQuery):
        op = parse_operation(query.op_text, query.prime)
        normal = op.adem_normalize()
        rendered = normal.render()
        lines.append("  = %s" % rendered)
        record.update({"verb": "adem", "result": rendered})
        expected = None
        if query.expect is not None:
            want = parse_operation(query.expect, query.prime).adem_normalize()
            expected = normal == want
            record["ok"] = expected
            lines.append(
                "  expected: ok" if expected
                else "  EXPECTATION FAILED: wanted %s" % want.render()
            )
        return QueryResult(label, lines, record, expected)

    if isinstance(query, dsl.CorpusQuery):
        if corpus_hook is None:
            raise SteencalcError("corpus queries are not available here")
        return corpus_hook(query)

    if isinstance(query, dsl.CharclassQuery):
        if resolve_bundle is None:
            raise SteencalcError("no bundles in scope")
        decl, pres = resolve_bundle(query.bundle)
        chern = [dsl.poly_to_element(pres, p, decl.span) for p in decl.chern]
        denom = [dsl.poly_to_element(pres, p, decl.span) for p in decl.denom]
        v = VirtualBundle(decl.rank, chern, denom, decl.trunc)
        total = w_bro(pres, v) if query.kind == "w" else w_et(pres, v)
        rendered = total.render()
        lines.append("  = %s" % rendered)
        record.update(
            {
                "verb": "charclass",
                "kind": query.kind,
                "result": {
                    str(d): element_record(e) for d, e in sorted(total.components.items())
                },
            }
        )
        expected = None
        if query.expect is not None:
            expected = rendered == query.expect
            record["ok"] = expected
            lines.append(
                "  expected: ok" if expected
                else "  EXPECTATION FAILED: wanted %s" % query.expect
            )
        return QueryResult(label, lines, record, expected)

    pres = resolve_ring(query.ring)

    if isinstance(query, dsl.ApplyQuery):
        x = dsl.poly_to_element(pres, query.poly, query.span)
        op = parse_operation(query.op_text, pres.prime)
        result = pres.apply_op_value(op, x)
        lines.append("  = %s" % result.render())
        record.update({"verb": "apply", "result": element_record(result)})
        expected = None
        if query.expect is not None:
            expected = _expect_element(result, pres, query, query.expect, lines, record)
        return QueryResult(label, lines, record, expected)

    if isinstance(query, dsl.NormalizeQuery):
        result = dsl.poly_to_element(pres, query.poly, query.span)
        lines.append("  = %s" % result.render())
        record.update({"verb": "normalize", "result": element_record(result)})
        expected = None
        if query.expect is not None:
            expected = _expect_element(result, pres, query, query.expect, lines, record)
        return QueryResult(label, lines, record, expected)

    if isinstance(query, dsl.WuQuery):
        y = dsl.poly_to_element(pres, query.y, query.span) if query.y else pres.one()
        n = fiber_dimension(pres, query.hyperplane)
        if n != query.n:
            raise SteencalcError(
                "ring %s presents a fiber of dimension %d, not %d"
                % (query.ring, n, query.n)
            )
        holds = verify_relative_wu_projective(pres, y, query.m, query.hyperplane)
        verdict = "true" if holds else "false"
        lines.append("  = %s" % verdict)
        record.update({"verb": "wu-check", "result": verdict})
        expected = None
        if query.expect is not None:
            expected = verdict == query.expect
            record["ok"] = expected
            if not expected:
                lines.append("  EXPECTATION FAILED: wanted %s" % query.expect)
            else:
                lines.append("  expected: ok")
        return QueryResult(label, lines, record, expected, fired=not holds)

    if isinstance(query, dsl.ObstructQuery):
        return _execute_obstruct(query, pres, label, lines, record)

    raise TypeError("unhandled query %r" % (query,))


def _execute_obstruct(query, pres, label, lines, record):
    record["verb"] = "obstruct-" + query.kind
    expected = None

    if query.kind == "weird":
        if query.codim is None:
            raise MissingCodim("obstruct weird needs --codim")
        x = _class_of(pres, query, query.poly, query.twist, query.codim)
        out = weird_operator(x, query.codim, query.which)
        fired = bool(out.value)
        if fired:
            lines.append("  = %s (NONZERO: obstruction fires)" % out.value.render())
        else:
            lines.append("  = 0 (vanishes)")
        record.update({"result": element_record(out.value), "fired": fired})
        if query.expect_poly is not None:
            expected = _expect_element(out.value, pres, query, query.expect_poly, lines, record)
        return QueryResult(label, lines, record, expected, fired)

    if query.kind == "odd":
        x = _class_of(pres, query, query.poly, query.twist, query.codim)
        report = odd_vanishing_check(x, query.max_degree)
    elif query.kind == "frobenius":
        if query.q is None:
            raise SteencalcError("obstruct frobenius needs --q")
        x = _class_of(pres, query, query.poly, query.twist, query.codim)
        report = in_image_F_minus_Id(x, FrobeniusContext(pres, query.q))
    else:  # hs
        if query.q is None:
            raise SteencalcError("obstruct hs needs --q")
        x = _class_of(pres, query, query.poly, query.twist, query.codim)
        report = hs_scripted_check(HsInput(pres, x, query.q))

    for line in report.render().splitlines():
        lines.append("  " + line)
    record.update({"verdict": report.verdict, "fired": report.fires})
    if query.expect is not None:
        expected = report.verdict == query.expect
        record["ok"] = expected
        if not expected:
            lines.append("  EXPECTATION FAILED: wanted verdict %s" % query.expect)
        else:
            lines.append("  expected: ok")
    return QueryResult(label, lines, record, expected, report.fires)
