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
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, count
from operator import add, itemgetter
from typing import Optional, Union

from .errors import (
    DslSyntaxError,
    DuplicateGenerator,
    InvalidArgument,
    NonHomogeneous,
    NonHomogeneousInput,
    OmegaUndeclared,
    RuleNonTermination,
    UnknownGenerator,
)
from .charclasses import VirtualBundle
from .rings import _FIELD_LIMIT, GeneratorSpec, RewriteRule, RingPresentation, check_generators

# ----------------------------------------------------------------- lexing

# One match per token: the whitespace and comments before it, then the token
# itself as group 1.  The skip is greedy and stops only at a character some
# token starts with, so each match is the first one tried and the matches
# tile the source.  At the end of the source the token is empty: that is the
# eof token, and it may come twice.  A character no token starts with ends a
# match of its own, with no group 1.  The most frequent kinds come first.
_TOKEN = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (?:( wu-check                  # the one hyphenated word, an ident
       | [A-Za-z_][A-Za-z_0-9]*    # ident
       | [{}();=^*+,]              # sym
       | \d+                       # int, in any script's decimal digits
       | --[a-z][a-z-]*            # flag
       | -                         # sym
       | "[^"\n]*"                 # string, quotes kept
       | \Z                        # eof
       )
    | .                            # a bad character
    )
    """,
    re.VERBOSE,
)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _scan(source):
    """(texts, matches): the token texts, ending in the eof token "", and
    their matches, from which a token's offset is read when it is needed.
    Raises DslSyntaxError at the first character no token starts with."""
    matches = list(_TOKEN.finditer(source))
    texts = list(map(itemgetter(1), matches))
    if None in texts:
        bad = matches[texts.index(None)]
        raise DslSyntaxError(
            "unexpected character %r" % bad[0][-1], *_line_col(_newlines(source), bad.end() - 1)
        )
    return texts, matches


def _newlines(source):
    """Offsets of the newlines in source, then len(source)."""
    return list(map(add, accumulate(map(len, source.split("\n"))), count()))


def _line_col(newlines, offset):
    """1-based (line, col) of offset; only a newline starts a line."""
    k = bisect_left(newlines, offset)
    return (k + 1, offset - newlines[k - 1] if k else offset + 1)


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
    trunc: int = VirtualBundle.truncation
    chern: tuple = ()  # Poly for c_1, c_2, ... in order
    denom: tuple = ()
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class ApplyQuery:
    op_text: str
    poly: Poly
    ring: str
    expect: Optional[Poly] = None
    span: Optional[Span] = field(default=None, compare=False)
    op_span: Optional[Span] = field(default=None, compare=False)  # of the opening quote


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
    op_span: Optional[Span] = field(default=None, compare=False)  # of the opening quote
    expect_span: Optional[Span] = field(default=None, compare=False)


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
    """Recursive descent over the token texts.  A symbol or keyword test is
    a string comparison, since a string token keeps its quotes; positions
    are worked out only for spans and errors."""

    def __init__(self, source):
        self.source = source
        self.newlines = None  # found at the first span
        self.pos = 0

    def scan(self):
        """Read the token texts and matches; each entry point (parse_file,
        parse_operation, the parse_poly function) calls it first, so an
        operation word can look for '#' before its text is scanned."""
        self.toks, self.matches = _scan(self.source)

    def span(self):
        """(line, col) of the current token."""
        if self.newlines is None:
            self.newlines = _newlines(self.source)
        return _line_col(self.newlines, self.matches[self.pos].start(1))

    def next(self):
        # never moves past the eof token, so pos is always in range
        tok = self.toks[self.pos]
        if tok:
            self.pos += 1
        return tok

    def fail(self, message, expected=()):
        raise DslSyntaxError(message, *self.span(), expected)

    def unexpected(self, *expected):
        self.fail("found %r" % (self.toks[self.pos] or "end of input"), expected)

    def expect(self, *texts):
        """Consume the symbol or keyword texts, in order."""
        for text in texts:
            if self.toks[self.pos] != text:
                self.unexpected(text)
            self.pos += 1

    def expect_int(self, what="an integer"):
        tok = self.toks[self.pos]
        if not tok.isdecimal():
            self.unexpected(what)
        self.pos += 1
        return int(tok)

    def expect_ident(self, what="a name"):
        tok = self.toks[self.pos]
        if tok[:1] not in _IDENT_START:
            self.unexpected(what)
        self.pos += 1
        return tok

    def expect_keyword(self, what, words):
        """One of the identifiers words; a wrong one is reported where it
        stands."""
        tok = self.toks[self.pos]
        if tok not in words:
            if tok[:1] not in _IDENT_START:
                self.unexpected(what)
            self.fail("found %r" % tok, words)
        self.pos += 1
        return tok

    def expect_string(self):
        tok = self.toks[self.pos]
        if tok[:1] != '"':
            self.unexpected('"..."')
        self.pos += 1
        return tok[1:-1]

    def eat(self, text):
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    # -------- polynomials

    def parse_poly(self):
        toks = self.toks
        terms = []
        negate = self.eat("-")
        while True:
            terms.extend(self._parse_term(negate))
            tok = toks[self.pos]
            if tok != "+" and tok != "-":
                return Poly(tuple(terms))
            self.pos += 1
            negate = tok == "-"

    def _starts_factor(self):
        tok = self.toks[self.pos]
        return tok == "(" or tok[:1] in _IDENT_START

    def _parse_term(self, negate):
        """One term as a list of (coeff, factors); a parenthesized factor
        multiplies out."""
        toks = self.toks
        coeff = 1
        if toks[self.pos].isdecimal():
            coeff = int(self.next())
            if self.eat("*"):
                if not self._starts_factor():
                    self.unexpected("a generator", "(")
            elif not self._starts_factor():
                return [(-coeff if negate else coeff, ())]
        elif not self._starts_factor():
            self.unexpected("a generator", "an integer", "(")
        terms = [(-coeff if negate else coeff, ())]
        pos = self.pos
        while True:
            tok = toks[pos]
            if tok == "(":
                self.pos = pos + 1
                sub = self.parse_poly()
                self.expect(")")
                pos = self.pos
                terms = [(c1 * c2, f1 + f2) for c1, f1 in terms for c2, f2 in sub.terms]
            else:
                if tok[:1] not in _IDENT_START:
                    self.pos = pos
                    self.unexpected("a generator")
                exp = 1
                if toks[pos + 1] == "^":
                    self.pos = pos + 2
                    exp = self.expect_int("an exponent")
                    pos += 2
                pos += 1
                if exp:
                    terms = [(c, f + ((tok, exp),)) for c, f in terms]
            if toks[pos] != "*":
                self.pos = pos
                return terms
            pos += 1

    # -------- operation letters like Sq^2, P^1, b, and words of them

    def parse_opname(self):
        name = self.toks[self.pos]
        if name != "Sq" and name != "P" and name != "b":
            self.unexpected("Sq", "P", "b")
        self.pos += 1
        if name == "b":
            return ("b", None)
        self.expect("^")
        return (name, self.expect_int("an exponent"))

    def parse_operation(self, prime):
        """The terms (word -> coefficient) of an operation word at prime:
        terms joined by + and -, each an optional integer coefficient (with
        an optional *) and letters separated by whitespace or *."""
        at = self.source.find("#")
        if at >= 0:  # a quoted string holds no comment
            raise DslSyntaxError("unexpected character '#'", *_line_col(_newlines(self.source), at))
        self.scan()
        toks = self.toks
        if not toks[self.pos]:
            self.fail("empty operation", ("Sq", "P", "b", "integer"))
        terms, sign = {}, 1
        while True:
            coeff, letter, word = sign, True, []
            if toks[self.pos].isdecimal():
                coeff *= int(self.next())
                letter = self.eat("*") or toks[self.pos][:1] in _IDENT_START
            elif toks[self.pos][:1] not in _IDENT_START:
                self.unexpected("Sq", "P", "b", "an integer")
            while letter:
                tok = toks[self.pos]
                if tok == "Sq" and prime != 2:
                    self.fail("Sq is a prime-2 letter", ("P", "b"))
                if tok == "P" and prime == 2:
                    self.fail("P is an odd-prime letter", ("Sq", "b"))
                kind, index = self.parse_opname()
                if kind == "b":
                    word.append(1 if prime == 2 else 0)  # b at prime 2 is Sq^1
                elif index:  # Sq^0 and P^0 are the identity
                    word.append(index)
                letter = self.eat("*") or toks[self.pos][:1] in _IDENT_START
            word = tuple(word)
            terms[word] = terms.get(word, 0) + coeff
            if not toks[self.pos]:
                return terms
            sign = {"+": 1, "-": -1}.get(toks[self.pos]) or self.unexpected("+", "-")
            self.pos += 1

    # -------- declarations

    def parse_ring(self):
        span = self.span()
        self.expect("ring")
        name = self.expect_ident("a ring name")
        self.expect("{", "prime", "=")
        prime = self.expect_int("a prime")
        self.expect(";")
        gens, rules, actions, omega = [], [], [], None
        while not self.eat("}"):
            ispan = self.span()
            item = self.toks[self.pos]
            if item not in ("gen", "rule", "action", "omega"):
                self.unexpected("gen", "rule", "action", "omega", "}")
            self.pos += 1
            if item == "gen":
                gname = self.expect_ident("a generator name")
                self.expect("deg", "=")
                deg = self.expect_int("a degree")
                twist, odd, frob = 0, False, None
                while not self.eat(";"):
                    if self.eat("twist"):
                        self.expect("=")
                        twist = self.expect_int("a twist")
                    elif self.eat("odd"):
                        odd = True
                    elif self.eat("frob"):
                        self.expect("=")
                        frob = self.expect_int("a Frobenius exponent")
                    else:
                        self.unexpected("twist", "odd", "frob", ";")
                gens.append(GenDecl(gname, deg, twist, odd, frob, ispan))
            elif item == "rule":
                gname = self.expect_ident("a generator name")
                self.expect("^")
                power = self.expect_int("a power")
                self.expect("=")
                rhs = self.parse_poly()
                self.expect(";")
                rules.append(RuleDecl(gname, power, rhs, ispan))
            elif item == "action":
                kind, index = self.parse_opname()
                self.expect("(")
                gname = self.expect_ident("a generator name")
                self.expect(")", "=")
                rhs = self.parse_poly()
                self.expect(";")
                actions.append(ActionDecl(kind, index, gname, rhs, ispan))
            else:
                self.expect("=")
                omega = self.expect_ident("a generator name")
                self.expect(";")
        return RingBlock(name, prime, tuple(gens), tuple(rules), tuple(actions), omega, span)

    def parse_bundle(self):
        span = self.span()
        self.expect("bundle")
        name = self.expect_ident("a bundle name")
        self.expect("in")
        ring = self.expect_ident("a ring name")
        self.expect("{", "rank", "=")
        rank_sign = -1 if self.eat("-") else 1
        rank = rank_sign * self.expect_int("a rank")
        self.expect(";")
        options, chern, denom = {}, {}, {}
        while not self.eat("}"):
            if self.eat("trunc"):
                self.expect("=")
                options["trunc"] = self.expect_int("a truncation")
                self.expect(";")
            elif self.toks[self.pos] in ("chern", "denom"):
                target = denom if self.next() == "denom" else chern
                idx = self.expect_int("a Chern index")
                if idx < 1 or idx in target:
                    self.pos -= 1  # report it at the index
                    self.fail("Chern indices must be distinct and start at 1")
                self.expect("=")
                target[idx] = self.parse_poly()
                self.expect(";")
            else:
                self.unexpected("trunc", "chern", "denom", "}")
        for label, table in (("chern", chern), ("denom", denom)):
            if table and sorted(table) != list(range(1, max(table) + 1)):
                raise DslSyntaxError(
                    "%s classes of %s must be consecutive from 1" % (label, name),
                    span[0], span[1],
                )
        return BundleDecl(
            name, ring, rank,
            chern=tuple(chern[i] for i in sorted(chern)),
            denom=tuple(denom[i] for i in sorted(denom)),
            span=span, **options,
        )

    # -------- queries
    # A query's options are keyword arguments given only when their clause
    # is present, so each default is written once, on the query class.

    def _parse_flags(self, allowed):
        """The --flag int pairs, keyed by the flag's field name."""
        out = {}
        while self.toks[self.pos][:2] == "--":
            key = self.toks[self.pos][2:]
            if key not in allowed:
                self.fail("unknown flag --%s" % key, tuple("--" + a for a in allowed))
            self.pos += 1
            out[key.replace("-", "_")] = self.expect_int("a value for --%s" % key)
        return out

    def _parse_verdict(self):
        # verdicts may be hyphenated (not-in-image), which the lexer splits
        word = self.expect_ident("a verdict")
        while self.eat("-"):
            word += "-" + self.expect_ident("a verdict word")
        return word

    def parse_query(self):
        span = self.span()
        verb = self.toks[self.pos]
        if verb == "apply":
            self.next()
            op_span = self.span()
            op_text = self.expect_string()
            self.expect("to")
            poly = self.parse_poly()
            self.expect("in")
            ring = self.expect_ident("a ring name")
            expect = self.parse_poly() if self.eat("expect") else None
            self.expect(";")
            return ApplyQuery(op_text, poly, ring, expect, span, op_span)
        if verb == "normalize":
            self.next()
            poly = self.parse_poly()
            self.expect("in")
            ring = self.expect_ident("a ring name")
            expect = self.parse_poly() if self.eat("expect") else None
            self.expect(";")
            return NormalizeQuery(poly, ring, expect, span)
        if verb == "adem":
            self.next()
            op_span = self.span()
            op_text = self.expect_string()
            options = {}
            if self.eat("prime"):
                self.expect("=")
                options["prime"] = self.expect_int("a prime")
            if self.eat("expect"):
                options["expect_span"] = self.span()
                options["expect"] = self.expect_string()
            self.expect(";")
            return AdemQuery(op_text, span=span, op_span=op_span, **options)
        if verb == "obstruct":
            self.next()
            kind = self.expect_keyword("odd, weird, frobenius, or hs",
                                       ("odd", "weird", "frobenius", "hs"))
            flags = self._parse_flags(("codim", "which", "q", "max-degree"))
            self.expect("on")
            poly = self.parse_poly()
            self.expect("in")
            ring = self.expect_ident("a ring name")
            if self.eat("twist"):
                self.expect("=")
                flags["twist"] = self.expect_int("a twist")
            if self.eat("expect"):
                flags["expect"] = self.parse_poly() if kind == "weird" else self._parse_verdict()
            self.expect(";")
            return ObstructQuery(kind, poly, ring, span=span, **flags)
        if verb == "wu-check":
            self.next()
            flags = self._parse_flags(("n", "m"))
            if "n" not in flags or "m" not in flags:
                self.fail("wu-check needs --n and --m", ("--n", "--m"))
            self.expect("in")
            ring = self.expect_ident("a ring name")
            if self.eat("y"):
                self.expect("=")
                flags["y"] = self.parse_poly()
            if self.eat("hyperplane"):
                self.expect("=")
                flags["hyperplane"] = self.expect_ident("a generator name")
            if self.eat("expect"):
                flags["expect"] = self.expect_ident("true or false")
            self.expect(";")
            return WuQuery(ring=ring, span=span, **flags)
        if verb == "charclass":
            self.next()
            kind = self.expect_keyword("w or wet", ("w", "wet"))
            self.expect("of")
            bundle = self.expect_ident("a bundle name")
            expect = self.expect_string() if self.eat("expect") else None
            self.expect(";")
            return CharclassQuery(kind, bundle, expect, span)
        if verb == "corpus":
            self.next()
            action = self.expect_keyword("list or run", ("list", "run"))
            name = None
            if action == "run":
                name = self.expect_ident("a scenario name or all")
            self.expect(";")
            return CorpusQuery(action, name, span)
        self.unexpected(
            "ring", "bundle", "apply", "normalize", "adem", "obstruct",
            "wu-check", "charclass", "corpus",
        )

    def parse_file(self):
        self.scan()
        rings, bundles, queries = [], [], []
        toks = self.toks
        while toks[self.pos]:
            if toks[self.pos] == "ring":
                rings.append(self.parse_ring())
            elif toks[self.pos] == "bundle":
                bundles.append(self.parse_bundle())
            else:
                queries.append(self.parse_query())
        return FileAst(tuple(rings), tuple(bundles), tuple(queries))


def parse(source: str) -> FileAst:
    """Parse a source file into its syntax tree.  Syntax only: name and
    homogeneity errors surface from build_program."""
    return _Parser(source).parse_file()


def parse_poly(text: str) -> Poly:
    """Parse a standalone polynomial, e.g. from a CLI argument."""
    parser = _Parser(text)
    parser.scan()
    poly = parser.parse_poly()
    if parser.toks[parser.pos]:
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
    """The source text of a query.  An option is left out at its class
    default and where its kind does not read it, but weird always shows
    --which; an expectation comes last, quoted for adem and charclass."""
    if isinstance(q, ApplyQuery):
        out = 'apply "%s" to %s in %s' % (q.op_text, q.poly.render(), q.ring)
    elif isinstance(q, NormalizeQuery):
        out = "normalize %s in %s" % (q.poly.render(), q.ring)
    elif isinstance(q, AdemQuery):
        out = 'adem "%s"' % q.op_text
        if q.prime != AdemQuery.prime:
            out += " prime = %d" % q.prime
    elif isinstance(q, ObstructQuery):
        out = "obstruct %s" % q.kind
        if q.codim is not None:
            out += " --codim %d" % q.codim
        if q.kind == "weird":
            out += " --which %d" % q.which
        if q.q is not None:
            out += " --q %d" % q.q
        if q.kind == "odd" and q.max_degree != ObstructQuery.max_degree:
            out += " --max-degree %d" % q.max_degree
        out += " on %s in %s" % (q.poly.render(), q.ring)
        if q.twist is not None:
            out += " twist = %d" % q.twist
    elif isinstance(q, WuQuery):
        out = "wu-check --n %d --m %d in %s" % (q.n, q.m, q.ring)
        if q.y is not None:
            out += " y = %s" % q.y.render()
        if q.hyperplane != WuQuery.hyperplane:
            out += " hyperplane = %s" % q.hyperplane
    elif isinstance(q, CharclassQuery):
        out = "charclass %s of %s" % (q.kind, q.bundle)
    elif isinstance(q, CorpusQuery):
        return "corpus %s%s;" % (q.action, "" if q.name is None else " " + q.name)
    else:
        raise TypeError("not a query: %r" % (q,))
    if isinstance(q.expect, Poly):
        out += " expect " + q.expect.render()
    elif q.expect is not None:
        form = ' expect "%s"' if isinstance(q, (AdemQuery, CharclassQuery)) else " expect %s"
        out += form % q.expect
    return out + ";"


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
        raise type(exc)(exc.message, span) from exc


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
                raise UnknownGenerator("unknown generator %r" % name, span)
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
        raise InvalidArgument("exponent %d outside 0..%d" % (e, _FIELD_LIMIT - 1), span)
    return out


def _declared_at(block, specs, rules, item):
    """The span of the declaration that a presentation error names by its
    `item` (a generator spec, a rewrite rule, or a (spec, action key) pair),
    else the block's."""
    for decl, spec in zip(block.gens, specs):
        if spec is item:
            return decl.span
    for decl, rule in zip(block.rules, rules):
        if rule is item:
            return decl.span
    if isinstance(item, tuple):
        spec, key = item
        for a in block.actions:
            if a.gen == spec.name and ("b" if a.kind == "b" else a.index) == key:
                return a.span
    return block.span


@contextmanager
def _at_block(block, specs, rules=()):
    """Errors from checking or building a ring block, raised again at the
    span of the generator, rule or action they name, else at the block's:
    omega and rule errors keep their class, the others become
    NonHomogeneous."""
    try:
        yield
    except (OmegaUndeclared, RuleNonTermination, NonHomogeneousInput, ValueError) as exc:
        span = _declared_at(block, specs, rules, getattr(exc, "item", None))
        if isinstance(exc, (OmegaUndeclared, RuleNonTermination)):
            raise type(exc)(exc.message, span) from exc
        raise NonHomogeneous(str(exc), span) from exc


def build_ring(block: RingBlock) -> RingPresentation:
    seen = set()
    for g in block.gens:
        if g.name in seen:
            raise DuplicateGenerator(
                "generator %r declared twice in ring %s" % (g.name, block.name), g.span
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
    with _at_block(block, specs):
        check_generators(block.prime, specs, block.omega)
    gens = {g.name: (i, g.odd) for i, g in enumerate(block.gens)}
    rules = [
        RewriteRule(r.gen, r.power, _poly_to_raw(block.prime, gens, r.rhs, r.span))
        for r in block.rules
    ]
    for r in block.rules:
        if r.gen not in gens:
            raise UnknownGenerator("rule on unknown generator %r" % r.gen, r.span)
    for a in block.actions:
        if a.gen not in gens:
            raise UnknownGenerator("action on unknown generator %r" % a.gen, a.span)
        if a.kind == "Sq" and block.prime != 2:
            raise NonHomogeneous("Sq actions need prime 2 (ring %s)" % block.name, a.span)
        if a.kind == "P" and block.prime == 2:
            raise NonHomogeneous("P actions need an odd prime (ring %s)" % block.name, a.span)
        action = specs[gens[a.gen][0]].action
        key = "b" if a.kind == "b" else a.index
        twin = {"b": 1, 1: "b"}.get(key) if block.prime == 2 else None  # b is Sq^1 at l = 2
        if key in action or twin in action:
            raise DuplicateGenerator("action %s(%s) declared twice" % (a.op_text(), a.gen), a.span)
        action[key] = _poly_to_raw(block.prime, gens, a.rhs, a.span)
    with _at_block(block, specs, rules):
        return RingPresentation(block.prime, specs, rules=rules, omega=block.omega)


@dataclass
class Program:
    rings: dict
    bundles: dict  # name -> BundleDecl
    queries: tuple


def build_program(ast: FileAst) -> Program:
    rings = {}
    for block in ast.rings:
        if block.name in rings:
            raise DuplicateGenerator("ring %r declared twice" % block.name, block.span)
        rings[block.name] = build_ring(block)
    bundles = {}
    for b in ast.bundles:
        if b.name in bundles:
            raise DuplicateGenerator("bundle %r declared twice" % b.name, b.span)
        if b.ring not in rings:
            raise UnknownGenerator("bundle %s names unknown ring %r" % (b.name, b.ring), b.span)
        try:
            VirtualBundle(b.rank, truncation=b.trunc).validate(rings[b.ring])
        except InvalidArgument as exc:
            raise type(exc)(exc.message, b.span) from exc
        # chern polys must evaluate; degrees are checked when the bundle is used
        for poly in b.chern + b.denom:
            poly_to_element(rings[b.ring], poly, b.span)
        bundles[b.name] = b
    return Program(rings, bundles, ast.queries)
