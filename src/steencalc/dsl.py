"""Input language for rings, bundles, and queries.

A source file is a sequence of ring blocks, bundle blocks, and queries:

    ring P2R {
      prime = 2;
      gen w deg=1;
      gen l deg=2 twist=1;
      rule l^3 = 0;
      action Sq^1(l) = w*l;
      omega = w;
    }
    apply "Sq^2" to l^2 in P2R expect w^2*l^2;

Queries name either a ring from the same file or a built-in one.  Parsing is
split from meaning: parse() builds the syntax tree (every node carries a
line:col span, excluded from equality so rendered trees round-trip), then
build_program, the semantic pass, checks names and homogeneity and builds
the presentations.
Parenthesized subpolynomials are expanded at parse time; factor order inside
a term is preserved, since at odd primes x2*x1 is not x1*x2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .errors import (
    DslSyntaxError,
    DuplicateGenerator,
    InvalidArgument,
    NonHomogeneous,
    NonHomogeneousInput,
    UnknownGenerator,
)
from .rings import _FIELD_LIMIT, GeneratorSpec, RewriteRule, RingPresentation, check_generators

# ----------------------------------------------------------------- lexing

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<flag>--[a-z][a-z-]*)
  | (?P<kw>wu-check)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"[^"\n]*")
  | (?P<sym>[{}();=^*+\-,])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # int | ident | string | sym | flag | eof
    value: str
    line: int
    col: int


def _lex(source):
    """One pass of the token pattern; every character matches some group,
    so the matches tile the source.  Only whitespace crosses lines."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rfind("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            raise DslSyntaxError("unexpected character %r" % m.group(), line, col)
        tokens.append(Token("ident" if kind == "kw" else kind, m.group(), line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# -------------------------------------------------------------------- ast

Span = tuple  # (line, col)


@dataclass(frozen=True)
class Poly:
    """Flat sum of terms; each term is (coefficient, ((gen, exp), ...)) with
    factor order as written."""

    terms: tuple

    def render(self):
        if not self.terms:
            return "0"
        chunks = []
        for i, (coeff, factors) in enumerate(self.terms):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = "*".join(
                name if e == 1 else "%s^%d" % (name, e) for name, e in factors
            )
            if mag != 1 or not body:
                body = str(mag) if not body else "%d*%s" % (mag, body)
            if i == 0:
                chunks.append(body if coeff >= 0 else "-" + body)
            else:
                chunks.append("%s %s" % (sign, body))
        return " ".join(chunks)


@dataclass(frozen=True)
class GenDecl:
    name: str
    degree: int
    twist: int = 0
    odd: bool = False
    frob: Optional[int] = None
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class RuleDecl:
    gen: str
    power: int
    rhs: Poly
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class ActionDecl:
    kind: str  # Sq | P | b
    index: Optional[int]
    gen: str
    rhs: Poly
    span: Optional[Span] = field(default=None, compare=False)

    def op_text(self):
        return self.kind if self.kind == "b" else "%s^%d" % (self.kind, self.index)


@dataclass(frozen=True)
class RingBlock:
    name: str
    prime: int
    gens: tuple = ()
    rules: tuple = ()
    actions: tuple = ()
    omega: Optional[str] = None
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class BundleDecl:
    name: str
    ring: str
    rank: int
    trunc: int = 10
    chern: tuple = ()  # Poly for c_1, c_2, ... in order
    denom: tuple = ()
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class ApplyQuery:
    op_text: str
    poly: Poly
    ring: str
    twist: Optional[int] = None
    expect: Optional[Poly] = None
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class NormalizeQuery:
    poly: Poly
    ring: str
    expect: Optional[Poly] = None
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class AdemQuery:
    op_text: str
    prime: int = 2
    expect: Optional[str] = None
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class ObstructQuery:
    kind: str  # odd | weird | frobenius | hs
    poly: Poly
    ring: str
    codim: Optional[int] = None
    which: int = 2
    q: Optional[int] = None
    max_degree: int = 7
    twist: Optional[int] = None
    expect: Optional[Union[Poly, str]] = None  # Poly for weird, else a verdict word
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class WuQuery:
    n: int
    m: int
    ring: str
    y: Optional[Poly] = None
    hyperplane: str = "l"
    expect: Optional[str] = None  # "true" | "false"
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class CharclassQuery:
    kind: str  # w | wet
    bundle: str
    expect: Optional[str] = None  # rendered TotalClass
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class CorpusQuery:
    action: str  # list | run
    name: Optional[str] = None
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class FileAst:
    rings: tuple = ()
    bundles: tuple = ()
    queries: tuple = ()


# ----------------------------------------------------------------- parser


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        # next() never moves past the eof token, so pos is always in range
        return self.tokens[self.pos]

    def next(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, expected=()):
        tok = self.peek()
        raise DslSyntaxError(message, tok.line, tok.col, expected)

    def expect_sym(self, sym):
        tok = self.peek()
        if tok.kind != "sym" or tok.value != sym:
            self.fail("found %r" % (tok.value or "end of input"), (sym,))
        return self.next()

    def expect_word(self, word):
        tok = self.peek()
        if tok.kind != "ident" or tok.value != word:
            self.fail("found %r" % (tok.value or "end of input"), (word,))
        return self.next()

    def expect_int(self, what="an integer"):
        tok = self.peek()
        if tok.kind != "int":
            self.fail("found %r" % (tok.value or "end of input"), (what,))
        return int(self.next().value)

    def expect_ident(self, what="a name"):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("found %r" % (tok.value or "end of input"), (what,))
        return self.next().value

    def expect_string(self):
        tok = self.peek()
        if tok.kind != "string":
            self.fail("found %r" % (tok.value or "end of input"), ('"..."',))
        return self.next().value[1:-1]

    def at_word(self, *words):
        tok = self.peek()
        return tok.kind == "ident" and tok.value in words

    def at_sym(self, *syms):
        tok = self.peek()
        return tok.kind == "sym" and tok.value in syms

    def eat_word(self, word):
        if self.at_word(word):
            self.next()
            return True
        return False

    # -------- polynomials

    def parse_poly(self):
        terms = []
        negate = False
        if self.at_sym("-"):
            self.next()
            negate = True
        terms.extend(self._parse_term(negate))
        while self.at_sym("+", "-"):
            neg = self.next().value == "-"
            terms.extend(self._parse_term(neg))
        return Poly(tuple(terms))

    def _starts_factor(self):
        tok = self.peek()
        return tok.kind == "ident" or (tok.kind == "sym" and tok.value == "(")

    def _parse_term(self, negate):
        coeff = 1
        if self.peek().kind == "int":
            coeff = int(self.next().value)
            if self.at_sym("*"):
                self.next()
                if not self._starts_factor():
                    self.fail("found %r" % self.peek().value, ("a generator", "("))
            elif not self._starts_factor():
                return [(-coeff if negate else coeff, ())]
        elif not self._starts_factor():
            self.fail(
                "found %r" % (self.peek().value or "end of input"),
                ("a generator", "an integer", "("),
            )
        terms = [(coeff, ())]
        while True:
            terms = self._apply_factor(terms)
            if self.at_sym("*"):
                self.next()
                continue
            break
        if negate:
            terms = [(-c, f) for c, f in terms]
        return terms

    def _apply_factor(self, terms):
        if self.at_sym("("):
            self.next()
            sub = self.parse_poly()
            self.expect_sym(")")
            return [
                (c1 * c2, f1 + f2)
                for c1, f1 in terms
                for c2, f2 in sub.terms
            ]
        name = self.expect_ident("a generator")
        exp = 1
        if self.at_sym("^"):
            self.next()
            exp = self.expect_int("an exponent")
        if exp == 0:
            return terms
        return [(c, f + ((name, exp),)) for c, f in terms]

    # -------- operation names like Sq^2, P^1, b

    def parse_opname(self):
        name = self.expect_ident("Sq, P, or b")
        if name == "b":
            return ("b", None)
        if name not in ("Sq", "P"):
            self.fail("found %r" % name, ("Sq", "P", "b"))
        self.expect_sym("^")
        return (name, self.expect_int("an exponent"))

    # -------- declarations

    def parse_ring(self):
        span = (self.peek().line, self.peek().col)
        self.expect_word("ring")
        name = self.expect_ident("a ring name")
        self.expect_sym("{")
        self.expect_word("prime")
        self.expect_sym("=")
        prime = self.expect_int("a prime")
        self.expect_sym(";")
        gens, rules, actions, omega = [], [], [], None
        while not self.at_sym("}"):
            ispan = (self.peek().line, self.peek().col)
            if self.eat_word("gen"):
                gname = self.expect_ident("a generator name")
                self.expect_word("deg")
                self.expect_sym("=")
                deg = self.expect_int("a degree")
                twist, odd, frob = 0, False, None
                while not self.at_sym(";"):
                    if self.eat_word("twist"):
                        self.expect_sym("=")
                        twist = self.expect_int("a twist")
                    elif self.eat_word("odd"):
                        odd = True
                    elif self.eat_word("frob"):
                        self.expect_sym("=")
                        frob = self.expect_int("a Frobenius exponent")
                    else:
                        self.fail(
                            "found %r" % self.peek().value,
                            ("twist", "odd", "frob", ";"),
                        )
                self.expect_sym(";")
                gens.append(GenDecl(gname, deg, twist, odd, frob, span=ispan))
            elif self.eat_word("rule"):
                gname = self.expect_ident("a generator name")
                self.expect_sym("^")
                power = self.expect_int("a power")
                self.expect_sym("=")
                rhs = self.parse_poly()
                self.expect_sym(";")
                rules.append(RuleDecl(gname, power, rhs, span=ispan))
            elif self.eat_word("action"):
                kind, index = self.parse_opname()
                self.expect_sym("(")
                gname = self.expect_ident("a generator name")
                self.expect_sym(")")
                self.expect_sym("=")
                rhs = self.parse_poly()
                self.expect_sym(";")
                actions.append(ActionDecl(kind, index, gname, rhs, span=ispan))
            elif self.eat_word("omega"):
                self.expect_sym("=")
                omega = self.expect_ident("a generator name")
                self.expect_sym(";")
            else:
                self.fail(
                    "found %r" % (self.peek().value or "end of input"),
                    ("gen", "rule", "action", "omega", "}"),
                )
        self.expect_sym("}")
        return RingBlock(name, prime, tuple(gens), tuple(rules), tuple(actions), omega, span=span)

    def parse_bundle(self):
        span = (self.peek().line, self.peek().col)
        self.expect_word("bundle")
        name = self.expect_ident("a bundle name")
        self.expect_word("in")
        ring = self.expect_ident("a ring name")
        self.expect_sym("{")
        self.expect_word("rank")
        self.expect_sym("=")
        rank_sign = 1
        if self.at_sym("-"):
            self.next()
            rank_sign = -1
        rank = rank_sign * self.expect_int("a rank")
        self.expect_sym(";")
        trunc, chern, denom = 10, {}, {}
        while not self.at_sym("}"):
            if self.eat_word("trunc"):
                self.expect_sym("=")
                trunc = self.expect_int("a truncation")
                self.expect_sym(";")
            elif self.at_word("chern", "denom"):
                target = denom if self.next().value == "denom" else chern
                idx = self.expect_int("a Chern index")
                self.expect_sym("=")
                rhs = self.parse_poly()
                self.expect_sym(";")
                if idx < 1 or idx in target:
                    self.fail("Chern indices must be distinct and start at 1")
                target[idx] = rhs
            else:
                self.fail(
                    "found %r" % (self.peek().value or "end of input"),
                    ("trunc", "chern", "denom", "}"),
                )
        self.expect_sym("}")
        for label, table in (("chern", chern), ("denom", denom)):
            if table and sorted(table) != list(range(1, max(table) + 1)):
                raise DslSyntaxError(
                    "%s classes of %s must be consecutive from 1" % (label, name),
                    span[0], span[1],
                )
        return BundleDecl(
            name, ring, rank, trunc,
            tuple(chern[i] for i in sorted(chern)),
            tuple(denom[i] for i in sorted(denom)),
            span=span,
        )

    # -------- queries

    def _parse_flags(self, allowed):
        out = {}
        while self.peek().kind == "flag":
            tok = self.next()
            key = tok.value[2:]
            if key not in allowed:
                raise DslSyntaxError(
                    "unknown flag --%s" % key, tok.line, tok.col,
                    tuple("--" + a for a in allowed),
                )
            out[key] = self.expect_int("a value for --%s" % key)
        return out

    def _parse_twist_clause(self):
        if self.eat_word("twist"):
            self.expect_sym("=")
            return self.expect_int("a twist")
        return None

    def _parse_verdict(self):
        # verdicts may be hyphenated (not-in-image), which the lexer splits
        word = self.expect_ident("a verdict")
        while self.at_sym("-"):
            self.next()
            word += "-" + self.expect_ident("a verdict word")
        return word

    def parse_query(self):
        span = (self.peek().line, self.peek().col)
        verb = self.peek().value
        if verb == "apply":
            self.next()
            op_text = self.expect_string()
            self.expect_word("to")
            poly = self.parse_poly()
            self.expect_word("in")
            ring = self.expect_ident("a ring name")
            twist = self._parse_twist_clause()
            expect = self.parse_poly() if self.eat_word("expect") else None
            self.expect_sym(";")
            return ApplyQuery(op_text, poly, ring, twist, expect, span=span)
        if verb == "normalize":
            self.next()
            poly = self.parse_poly()
            self.expect_word("in")
            ring = self.expect_ident("a ring name")
            expect = self.parse_poly() if self.eat_word("expect") else None
            self.expect_sym(";")
            return NormalizeQuery(poly, ring, expect, span=span)
        if verb == "adem":
            self.next()
            op_text = self.expect_string()
            prime = 2
            if self.eat_word("prime"):
                self.expect_sym("=")
                prime = self.expect_int("a prime")
            expect = self.expect_string() if self.eat_word("expect") else None
            self.expect_sym(";")
            return AdemQuery(op_text, prime, expect, span=span)
        if verb == "obstruct":
            self.next()
            kind = self.expect_ident("odd, weird, frobenius, or hs")
            if kind not in ("odd", "weird", "frobenius", "hs"):
                self.fail("found %r" % kind, ("odd", "weird", "frobenius", "hs"))
            flags = self._parse_flags(("codim", "which", "q", "max-degree"))
            self.expect_word("on")
            poly = self.parse_poly()
            self.expect_word("in")
            ring = self.expect_ident("a ring name")
            twist = self._parse_twist_clause()
            expect = None
            if self.eat_word("expect"):
                expect = self.parse_poly() if kind == "weird" else self._parse_verdict()
            self.expect_sym(";")
            return ObstructQuery(
                kind, poly, ring,
                codim=flags.get("codim"),
                which=flags.get("which", 2),
                q=flags.get("q"),
                max_degree=flags.get("max-degree", 7),
                twist=twist, expect=expect, span=span,
            )
        if verb == "wu-check":
            self.next()
            flags = self._parse_flags(("n", "m"))
            if "n" not in flags or "m" not in flags:
                self.fail("wu-check needs --n and --m", ("--n", "--m"))
            self.expect_word("in")
            ring = self.expect_ident("a ring name")
            y = None
            hyperplane = "l"
            if self.eat_word("y"):
                self.expect_sym("=")
                y = self.parse_poly()
            if self.eat_word("hyperplane"):
                self.expect_sym("=")
                hyperplane = self.expect_ident("a generator name")
            expect = self.expect_ident("true or false") if self.eat_word("expect") else None
            self.expect_sym(";")
            return WuQuery(flags["n"], flags["m"], ring, y, hyperplane, expect, span=span)
        if verb == "charclass":
            self.next()
            kind = self.expect_ident("w or wet")
            if kind not in ("w", "wet"):
                self.fail("found %r" % kind, ("w", "wet"))
            self.expect_word("of")
            bundle = self.expect_ident("a bundle name")
            expect = self.expect_string() if self.eat_word("expect") else None
            self.expect_sym(";")
            return CharclassQuery(kind, bundle, expect, span=span)
        if verb == "corpus":
            self.next()
            action = self.expect_ident("list or run")
            if action not in ("list", "run"):
                self.fail("found %r" % action, ("list", "run"))
            name = None
            if action == "run":
                name = self.expect_ident("a scenario name or all")
            self.expect_sym(";")
            return CorpusQuery(action, name, span=span)
        self.fail(
            "found %r" % (verb or "end of input"),
            ("ring", "bundle", "apply", "normalize", "adem", "obstruct",
             "wu-check", "charclass", "corpus"),
        )

    def parse_file(self):
        rings, bundles, queries = [], [], []
        while self.peek().kind != "eof":
            if self.at_word("ring"):
                rings.append(self.parse_ring())
            elif self.at_word("bundle"):
                bundles.append(self.parse_bundle())
            else:
                queries.append(self.parse_query())
        return FileAst(tuple(rings), tuple(bundles), tuple(queries))


def parse(source: str) -> FileAst:
    """Parse a source file into its syntax tree.  Syntax only: name and
    homogeneity errors surface from build_program."""
    return _Parser(_lex(source)).parse_file()


def parse_poly(text: str) -> Poly:
    """Parse a standalone polynomial, e.g. from a CLI argument."""
    parser = _Parser(_lex(text))
    poly = parser.parse_poly()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after the polynomial")
    return poly


# ------------------------------------------------------------- rendering


def render_gen(g: GenDecl):
    bits = ["gen %s deg=%d" % (g.name, g.degree)]
    if g.twist:
        bits.append("twist=%d" % g.twist)
    if g.odd:
        bits.append("odd")
    if g.frob is not None:
        bits.append("frob=%d" % g.frob)
    return " ".join(bits) + ";"


def render_ring(r: RingBlock):
    lines = ["ring %s {" % r.name, "  prime = %d;" % r.prime]
    for g in r.gens:
        lines.append("  " + render_gen(g))
    for rule in r.rules:
        lines.append("  rule %s^%d = %s;" % (rule.gen, rule.power, rule.rhs.render()))
    for a in r.actions:
        lines.append("  action %s(%s) = %s;" % (a.op_text(), a.gen, a.rhs.render()))
    if r.omega is not None:
        lines.append("  omega = %s;" % r.omega)
    lines.append("}")
    return "\n".join(lines)


def render_bundle(b: BundleDecl):
    lines = ["bundle %s in %s {" % (b.name, b.ring), "  rank = %d;" % b.rank]
    lines.append("  trunc = %d;" % b.trunc)
    for i, p in enumerate(b.chern, start=1):
        lines.append("  chern %d = %s;" % (i, p.render()))
    for i, p in enumerate(b.denom, start=1):
        lines.append("  denom %d = %s;" % (i, p.render()))
    lines.append("}")
    return "\n".join(lines)


def render_query(q):
    if isinstance(q, ApplyQuery):
        out = 'apply "%s" to %s in %s' % (q.op_text, q.poly.render(), q.ring)
        if q.twist is not None:
            out += " twist = %d" % q.twist
        if q.expect is not None:
            out += " expect %s" % q.expect.render()
        return out + ";"
    if isinstance(q, NormalizeQuery):
        out = "normalize %s in %s" % (q.poly.render(), q.ring)
        if q.expect is not None:
            out += " expect %s" % q.expect.render()
        return out + ";"
    if isinstance(q, AdemQuery):
        out = 'adem "%s"' % q.op_text
        if q.prime != 2:
            out += " prime = %d" % q.prime
        if q.expect is not None:
            out += ' expect "%s"' % q.expect
        return out + ";"
    if isinstance(q, ObstructQuery):
        out = "obstruct %s" % q.kind
        if q.codim is not None:
            out += " --codim %d" % q.codim
        if q.kind == "weird":
            out += " --which %d" % q.which
        if q.q is not None:
            out += " --q %d" % q.q
        if q.kind == "odd" and q.max_degree != 7:
            out += " --max-degree %d" % q.max_degree
        out += " on %s in %s" % (q.poly.render(), q.ring)
        if q.twist is not None:
            out += " twist = %d" % q.twist
        if q.expect is not None:
            out += " expect %s" % (q.expect.render() if q.kind == "weird" else q.expect)
        return out + ";"
    if isinstance(q, WuQuery):
        out = "wu-check --n %d --m %d in %s" % (q.n, q.m, q.ring)
        if q.y is not None:
            out += " y = %s" % q.y.render()
        if q.hyperplane != "l":
            out += " hyperplane = %s" % q.hyperplane
        if q.expect is not None:
            out += " expect %s" % q.expect
        return out + ";"
    if isinstance(q, CharclassQuery):
        out = "charclass %s of %s" % (q.kind, q.bundle)
        if q.expect is not None:
            out += ' expect "%s"' % q.expect
        return out + ";"
    if isinstance(q, CorpusQuery):
        out = "corpus %s" % q.action
        if q.name is not None:
            out += " %s" % q.name
        return out + ";"
    raise TypeError("not a query: %r" % (q,))


def render(ast: FileAst) -> str:
    parts = [render_ring(r) for r in ast.rings]
    parts.extend(render_bundle(b) for b in ast.bundles)
    parts.extend(render_query(q) for q in ast.queries)
    return "\n".join(parts) + ("\n" if parts else "")


# ------------------------------------------------------------- semantics


def poly_to_element(pres: RingPresentation, poly: Poly, span=None):
    """Evaluate a Poly in a presentation: each term becomes one raw monomial
    (see _poly_to_raw), reduced to normal form once.  An exponent overflow,
    in the source or reached through a rule, carries the span."""
    gens = {g.name: (i, g.parity == "odd") for i, g in enumerate(pres.generators)}
    raw = _poly_to_raw(pres.prime, gens, poly, span)
    try:
        return pres.element(raw)
    except InvalidArgument as exc:
        if span is None:
            raise
        raise InvalidArgument("%s%s" % (exc, _at(span))) from exc


def _poly_to_raw(prime, gens, poly, span=None):
    """A Poly over generators gens (name -> (index, odd)) as a raw
    exponent-tuple dict, before any rewrite rule: exponents add, an odd
    factor taken past the odd ones of higher index already in the term flips
    the sign, so signs land where the source put them, and odd squares
    vanish.  Every factor's name is checked, in source order, even in a term
    that is already zero.  An exponent at or above the packed field limit
    raises InvalidArgument, with the span, only in a term that is kept."""
    out = {}
    for coeff, factors in poly.terms:
        c = coeff % prime
        exps, odds = [0] * len(gens), [0] * len(gens)
        for name, exp in factors:
            if name not in gens:
                raise UnknownGenerator("unknown generator %r%s" % (name, _at(span)))
            gi, odd = gens[name]
            if c and odd and exp:
                if odds[gi] or exp > 1:
                    c = 0
                elif sum(odds[gi + 1:]) % 2:
                    c = prime - c
                odds[gi] = 1
            exps[gi] += exp
        if c:
            m = tuple(exps)
            new = (out.get(m, 0) + c) % prime
            if new:
                out[m] = new
            else:
                del out[m]
    if gens and out and max(map(max, out)) >= _FIELD_LIMIT:
        e = next(e for m in out for e in m if e >= _FIELD_LIMIT)
        raise InvalidArgument("exponent %d outside 0..%d%s" % (e, _FIELD_LIMIT - 1, _at(span)))
    return out


def _at(span):
    return " at %d:%d" % span if span else ""


def build_ring(block: RingBlock) -> RingPresentation:
    seen = set()
    for g in block.gens:
        if g.name in seen:
            raise DuplicateGenerator(
                "generator %r declared twice in ring %s" % (g.name, block.name)
            )
        seen.add(g.name)
    specs = [
        GeneratorSpec(
            g.name, g.degree, twist=g.twist,
            parity="odd" if g.odd else "even",
            frobenius_exponent=g.frob,
        )
        for g in block.gens
    ]
    try:
        check_generators(block.prime, specs, block.omega)
    except (NonHomogeneousInput, ValueError) as exc:
        raise NonHomogeneous(str(exc)) from exc
    gens = {g.name: (i, g.odd) for i, g in enumerate(block.gens)}
    rules = [
        RewriteRule(r.gen, r.power, _poly_to_raw(block.prime, gens, r.rhs, r.span))
        for r in block.rules
    ]
    for r in block.rules:
        if r.gen not in gens:
            raise UnknownGenerator("rule on unknown generator %r" % r.gen)
    for a in block.actions:
        if a.gen not in gens:
            raise UnknownGenerator("action on unknown generator %r" % a.gen)
        if a.kind == "Sq" and block.prime != 2:
            raise NonHomogeneous("Sq actions need prime 2 (ring %s)" % block.name)
        if a.kind == "P" and block.prime == 2:
            raise NonHomogeneous("P actions need an odd prime (ring %s)" % block.name)
        action = specs[gens[a.gen][0]].action
        key = "b" if a.kind == "b" else a.index
        if key in action:
            raise DuplicateGenerator(
                "action %s(%s) declared twice" % (a.op_text(), a.gen)
            )
        action[key] = _poly_to_raw(block.prime, gens, a.rhs, a.span)
    try:
        return RingPresentation(block.prime, specs, rules=rules, omega=block.omega)
    except (NonHomogeneousInput, ValueError) as exc:
        raise NonHomogeneous(str(exc)) from exc


@dataclass
class Program:
    rings: dict
    bundles: dict  # name -> BundleDecl
    queries: tuple


def build_program(ast: FileAst) -> Program:
    rings = {}
    for block in ast.rings:
        if block.name in rings:
            raise DuplicateGenerator("ring %r declared twice" % block.name)
        rings[block.name] = build_ring(block)
    bundles = {}
    for b in ast.bundles:
        if b.name in bundles:
            raise DuplicateGenerator("bundle %r declared twice" % b.name)
        if b.ring not in rings:
            raise UnknownGenerator("bundle %s names unknown ring %r" % (b.name, b.ring))
        # chern polys must evaluate; degrees are checked when the bundle is used
        for poly in b.chern + b.denom:
            poly_to_element(rings[b.ring], poly, b.span)
        bundles[b.name] = b
    return Program(rings, bundles, ast.queries)
