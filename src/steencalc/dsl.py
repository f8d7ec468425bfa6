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
split from meaning: parse() builds the syntax tree, then build_program, the
semantic pass, checks names and homogeneity and builds the presentations.
The nodes are frozen records (record.FrozenRecord): each carries a line:col
span, left out of equality and hashing, so rendered trees round-trip and a
query is the same answer-cache key wherever it stands.
Parenthesized subpolynomials are expanded at parse time; factor order inside
a term is preserved, since at odd primes x2*x1 is not x1*x2.

Each statement's grammar is written once, in _LAYOUTS, as the text render()
writes.  parse() reads a line in its statement's layout directly; from the
first other line on, the token parser _Parser reads the rest, queries along
the same layouts.  Trees, spans and errors are the same either way: every
DslSyntaxError comes from _Parser.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate, count
from operator import add, attrgetter, itemgetter
from sys import intern

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
from .record import FrozenRecord, Record
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


def _scan(source, offset=0):
    """(texts, matches): the token texts from offset on, ending in the eof
    token "", and their matches, from which a token's offset is read when it
    is needed.  Raises DslSyntaxError at the first character no token starts
    with."""
    matches = list(_TOKEN.finditer(source, offset))
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

# Every cold parse and build makes Polys, GenDecls, RuleDecls, ActionDecls,
# a FileAst and a Program, so each writes its own __init__ over its fields,
# faster than the Record one; Poly also its own == and hash.


class Poly(FrozenRecord):
    """Flat sum of terms; each term is (coefficient, ((gen, exp), ...)) with
    factor order as written."""

    terms: tuple

    def __init__(self, terms):  # no __dict__ made: .terms, read by == and hash, reads fastest
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        return self.terms == other.terms if other.__class__ is Poly else NotImplemented

    def __hash__(self):
        return hash(self.terms)

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

    __str__ = render


class GenDecl(FrozenRecord):
    name: str
    degree: int
    twist: int = 0
    odd: bool = False
    frob: int | None = None
    span: Span | None = None

    def __init__(self, name, degree, twist=0, odd=False, frob=None, span=None):
        self.__dict__.update(name=name, degree=degree, twist=twist, odd=odd, frob=frob, span=span)


class RuleDecl(FrozenRecord):
    gen: str
    power: int
    rhs: Poly
    span: Span | None = None

    def __init__(self, gen, power, rhs, span=None):
        self.__dict__.update(gen=gen, power=power, rhs=rhs, span=span)


class ActionDecl(FrozenRecord):
    kind: str  # Sq | P | b
    index: int | None
    gen: str
    rhs: Poly
    span: Span | None = None

    def __init__(self, kind, index, gen, rhs, span=None):
        self.__dict__.update(kind=kind, index=index, gen=gen, rhs=rhs, span=span)

    def op_text(self):
        return self.kind if self.kind == "b" else "%s^%d" % (self.kind, self.index)


class RingBlock(FrozenRecord):
    name: str
    prime: int
    gens: tuple = ()
    rules: tuple = ()
    actions: tuple = ()
    omega: str | None = None
    span: Span | None = None


class BundleDecl(FrozenRecord):
    name: str
    ring: str
    rank: int
    trunc: int = VirtualBundle.truncation
    chern: tuple = ()  # Poly for c_1, c_2, ... in order
    denom: tuple = ()
    span: Span | None = None


class ApplyQuery(FrozenRecord):
    op_text: str
    poly: Poly
    ring: str
    expect: Poly | None = None
    span: Span | None = None
    op_span: Span | None = None  # of the opening quote


class NormalizeQuery(FrozenRecord):
    poly: Poly
    ring: str
    expect: Poly | None = None
    span: Span | None = None


class AdemQuery(FrozenRecord):
    op_text: str
    prime: int = 2
    expect: str | None = None
    span: Span | None = None
    op_span: Span | None = None  # of the opening quote
    expect_span: Span | None = None


class ObstructQuery(FrozenRecord):
    kind: str  # odd | weird | frobenius | hs
    poly: Poly
    ring: str
    codim: int | None = None
    which: int = 2
    q: int | None = None
    max_degree: int = 7
    twist: int | None = None
    expect: Poly | str | None = None  # Poly for weird, else a verdict word
    span: Span | None = None


class WuQuery(FrozenRecord):
    n: int
    m: int
    ring: str
    y: Poly | None = None
    hyperplane: str = "l"
    expect: str | None = None  # "true" | "false"
    span: Span | None = None


class CharclassQuery(FrozenRecord):
    kind: str  # w | wet
    bundle: str
    expect: str | None = None  # rendered TotalClass
    span: Span | None = None


class CorpusQuery(FrozenRecord):
    action: str  # list | run
    name: str | None = None
    span: Span | None = None
    expect = None  # no expect clause: a run passes or fails with its scenarios


class FileAst(FrozenRecord):
    rings: tuple = ()
    bundles: tuple = ()
    queries: tuple = ()

    def __init__(self, rings=(), bundles=(), queries=()):
        self.__dict__.update(rings=rings, bundles=bundles, queries=queries)


# ----------------------------------------------------------------- parser


class _Parser:
    """Recursive descent over the token texts.  A symbol or keyword test is
    a string comparison, since a string token keeps its quotes; positions
    are worked out only for spans and errors."""

    def __init__(self, source):
        self.source = source
        self.newlines = None  # found at the first span
        self.pos = 0

    def scan(self, offset=0):
        """Read the token texts and matches from offset on; each entry point
        (parse_file, parse_operation, the parse_poly function) calls it
        first, so an operation word can look for '#' before its text is
        scanned."""
        self.toks, self.matches = _scan(self.source, offset)

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
        """One term as a list of (coeff, factors): a bare integer, or factors
        joined by * after an optional N*; a parenthesized factor multiplies
        out."""
        toks = self.toks
        coeff = 1
        if toks[self.pos].isdecimal():
            coeff = int(self.next())
            if not self.eat("*"):
                return [(-coeff if negate else coeff, ())]
            if not self._starts_factor():
                self.unexpected("a generator", "(")
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

    def parse_query(self):
        """A query, along its layout; a field left out takes its class default."""
        verb, values = self.toks[self.pos], {"span": self.span()}
        if verb not in _VERBS:
            self.unexpected("ring", "bundle", *_VERBS)
        layout = _layout(verb[:2])
        self._walk(layout, layout.steps, values)
        return layout.cls._from(values)

    def _walk(self, layout, steps, values):
        toks = self.toks
        for step in steps:
            tok = toks[self.pos]
            if step[0] == "word":
                if tok != step[1]:
                    self.unexpected(step[1])
                self.pos += 1
            elif step[0] == "flags":
                flags, required = layout.flags, layout.required
                while toks[self.pos][:2] == "--":
                    if toks[self.pos] not in flags:
                        self.fail("unknown flag %s" % toks[self.pos], tuple(flags))
                    self._walk(layout, [flags[self.next()]], values)
                if any(flags[flag][1] not in values for flag in required):
                    self.fail("%s needs %s" % (layout.verb, " and ".join(required)), required)
            elif step[0] == "clause":
                if tok == step[1] if step[1] else values.get(layout.choice) == step[2]:
                    self._walk(layout, step[3], values)
            else:
                _, name, kind, what, span_name, override = step
                if override and values.get(layout.choice) == override[0]:
                    kind = override[1]
                if kind == "p":
                    values[name] = self.parse_poly()
                elif kind == "i":
                    values[name] = self.expect_int(what)
                elif kind == "v":  # hyphenated words (not-in-image), which the lexer splits
                    word = self.expect_ident("a verdict")
                    while self.eat("-"):
                        word += "-" + self.expect_ident("a verdict word")
                    values[name] = word
                elif kind == "s":
                    if tok[:1] != '"':
                        self.unexpected('"..."')
                    if span_name:
                        values[span_name] = self.span()
                    values[name] = self.next()[1:-1]
                else:  # a name, or one of the words kind
                    if tok[:1] not in _IDENT_START:
                        self.unexpected(what)
                    if kind != "n" and tok not in kind:
                        self.fail("found %r" % tok, kind)
                    values[name] = self.next()

    def parse_file(self, offset=0):
        self.scan(offset)
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


# ---------------------------------------------------------------- layouts

# Each statement, and each line of a ring block, written once, as render()
# writes it.  {f:k} is field f, of kind s (a quoted string), p (a
# polynomial), n (a name), i (an integer), v (a verdict: words joined by
# hyphens) or the words a|b, the statement's choice; "k,w:k2" is k2 after
# the choice w, and "k/text" says what an error expects there.  [...] is a
# clause, written when its field is not the class default and read when its
# first word comes next; [w: ...] is also written after the choice w unless
# its field is None, and, if a field starts it, read after w only.  Flags in
# a row are read in any order; one whose field has no class default must be
# given.  A space is whitespace, which a line may leave out next to a symbol
# or a string.  The line reader's patterns, the token parser's queries and
# render() are made from these, each layout at its first use.
_LAYOUTS = (
    (RingBlock, "ring {name:n} {"),
    (RingBlock, "prime = {prime:i};"),
    (GenDecl, "gen {name:n} deg={degree:i}[ twist={twist:i}][ odd][ frob={frob:i}];"),
    (RuleDecl, "rule {gen:n}^{power:i} = {rhs:p};"),
    (ActionDecl, "action {kind:Sq|P|b}[^{index:i}]({gen:n}) = {rhs:p};"),
    (RingBlock, "omega = {omega:n};"),
    (ApplyQuery, "apply {op_text:s} to {poly:p} in {ring:n}[ expect {expect:p}];"),
    (NormalizeQuery, "normalize {poly:p} in {ring:n}[ expect {expect:p}];"),
    (AdemQuery, "adem {op_text:s}[ prime = {prime:i}][ expect {expect:s}];"),
    (ObstructQuery, "obstruct {kind:odd|weird|frobenius|hs}[ --codim {codim:i}]"
                    "[weird: --which {which:i}][ --q {q:i}][ --max-degree {max_degree:i}]"
                    " on {poly:p} in {ring:n}[ twist = {twist:i}][ expect {expect:v,weird:p}];"),
    (WuQuery, "wu-check --n {n:i} --m {m:i} in {ring:n}[ y = {y:p}]"
              "[ hyperplane = {hyperplane:n/a generator name}][ expect {expect:n/true or false}];"),
    (CharclassQuery, "charclass {kind:w|wet} of {bundle:n}[ expect {expect:s}];"),
    (CorpusQuery, "corpus {action:list|run}[run: {name:n/a scenario name or all}];"),
)
_QUERIES = tuple(cls for cls, text in _LAYOUTS if cls.__name__.endswith("Query"))
_VERBS = tuple(text.split()[0] for cls, text in _LAYOUTS if cls in _QUERIES)
_LAYOUT_TOKEN = r"( ?)(?:\{(\w+):([^}/]*)/?([^}]*)\}|(\[)(?:(\w+):)?|(\])|([\w-]+)|(.))"
# a name; the lexer reads wu-check as one word wherever a token starts
_NAME = "(?!wu-check)[A-Za-z_][A-Za-z_0-9]*"


class _Layout:
    """A layout, compiled: the line reader's pattern, a group per field in
    order (or bool word); the token parser's steps, (word, text), a field,
    (clause, first word, guard, steps) and (flags,) at each flag, the first
    reading the row; and render()'s parts."""

    def __init__(self, cls, text):
        self.cls, self.verb = cls, text.split()[0]
        self.choice, self.fields, self.bound, self.parts = None, [], [], []
        self.flags, self.source, self.last = {}, "", None
        self.steps = self._compile(iter(re.findall(_LAYOUT_TOKEN, text)))
        self.pattern = re.compile(self.source)
        self.required = tuple(f for f, step in self.flags.items() if not hasattr(cls, step[1]))

    def _compile(self, tokens, guard=False):
        """The steps of the tokens up to the end, or the ] of a clause with
        guard, adding to the pattern and the parts.  Two words need a gap."""
        steps, fmt, names, flag, start = [], "", [], None, len(self.source)
        for gap, field, kind, what, bracket, clause, close, word, sym in tokens:
            if close:
                break
            elif bracket:
                self._part(fmt, names)
                fmt, names = "", []
                body = self._compile(tokens, clause or None)
                if body[0] == ("flags",):
                    steps.append(body[0])
                else:
                    first = body[0][1] if body[0][0] == "word" else None
                    if first is None:
                        self.bound.append((body[0][1], clause))
                    steps.append(("clause", first, clause or None, body))
            else:
                is_word = bool(word or field and kind != "s")
                if self.last is not None:
                    self.source += r"\s+" if gap and is_word and self.last else r"\s*"
                self.last, fmt = is_word, fmt + gap
                if field:
                    step = self._field(field, kind, what, flag)
                    fmt += '"%s"' if step[2] == "s" else "%s"
                    names.append(step[1])
                    if flag:
                        self.flags[flag] = step
                    else:
                        steps.append(step)
                else:
                    fmt += word + sym
                    self.source += word or re.escape(sym)
                    flag = word if word[:2] == "--" else None
                    steps.append(("flags",) if flag else ("word", word + sym))
        if guard is not False:
            self.source = "%s(?%s%s)?" % (self.source[:start], ":" if names else
                                          "P<%s>" % fmt.split()[-1], self.source[start:])
        self._part(fmt, names, guard)
        return steps

    def _field(self, name, kind, what, flag):
        """The step of a field, its group added to the pattern.  Its name is
        interned, as attribute names are: a node's dict keyed by a copy is
        read on the slow path."""
        name, (kind, _, override) = intern(name), kind.partition(",")
        if "|" in kind:
            self.source += "(?P<%s>%s)" % (name, kind)
            kind = tuple(kind.split("|"))
            self.choice = self.choice or name
            what = what or ", ".join(kind[:-1]) + "," * (len(kind) > 2) + " or " + kind[-1]
        else:
            self.source += '"(?P<%s>[^"]*)"' % name if kind == "s" else "(?P<%s>%s)" % (
                name, r"\d+" if kind == "i" else _NAME if kind == "n" else ".+?")
            what = what or ("a %s name" % name if kind == "n" else
                            "a value for " + flag if flag else "a " + name)
        span = intern(name.partition("_")[0] + "_span")
        self.fields.append(("field", name, kind, what, span if kind == "s" and hasattr(
            self.cls, span) else None, override and tuple(override.split(":"))))
        return self.fields[-1]

    def _part(self, fmt, names, guard=False):
        """Add a part; a clause's is tested on its field, or its bool word."""
        if fmt:
            test = guard is not False and (names[0] if names else fmt.split()[-1])
            self.parts.append((fmt, attrgetter(*names) if names else None, test,
                               test and getattr(self.cls, test, None), guard))

    def render(self, node):
        out = ""
        for fmt, get, test, default, guard in self.parts:
            if test:
                value = getattr(node, test)  # `is` first: Poly.__eq__ is slow
                if (value is default or default is not None and value == default) and (
                        guard is None or value is None or getattr(node, self.choice) != guard):
                    continue
            out += fmt % get(node) if get else fmt
        return out

    def read(self, m, line, col):
        """The query of a line matched; _Unread unless _Parser reads it alike."""
        if self.cls not in _QUERIES:
            raise _Unread
        choice = self.choice and m[self.choice]
        values = {"span": (line, col)}
        for (_, name, kind, _, span_name, override), value in zip(self.fields, m.groups()):
            if value is None:
                continue
            if override and choice == override[0]:
                kind = override[1]
            if kind == "i":
                value = int(value)
            elif kind == "p":
                value = _flat_poly(value)
            elif kind == "v" and not re.fullmatch("{0}(?:-{0})*".format(_NAME), value):
                raise _Unread
            elif span_name:
                values[span_name] = (line, col + m.start(name) - 1)
            values[name] = value
        for name, guard in self.bound:
            if (name in values) != (choice == guard):
                raise _Unread
        return self.cls._from(values)


@lru_cache(maxsize=32)
def _layout(key):
    """The layout whose first two characters, or node class, are key; None for none."""
    return next((_Layout(cls, text) if key == text[:2] else _layout(text[:2])
                 for cls, text in _LAYOUTS if key in (text[:2], cls)), None)


# ------------------------------------------------------------ line reader

# A line in its statement's layout is read by the pattern of the layout its
# first two characters name, its polynomials checked by _POLY (the flat ones
# _Parser reads) and read by a findall of _POLY_ATOM; its span is its number
# and first column.  At the first other line the rest of the source goes to
# _Parser, from the header of the ring block it is in, if any: so _Parser is
# the only source of DslSyntaxError.
_FACTOR = _NAME + r"(?:\s*\^\s*\d+)?"
_TERM = r"(?:(?:\d+\s*\*\s*)?{0}(?:\s*\*\s*{0})*|\d+)".format(_FACTOR)
_POLY = re.compile(r"(?:-\s*)?{0}(?:\s*[+-]\s*{0})*".format(_TERM))
_POLY_ATOM = re.compile(r"([+-])|(\d+)|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(\d+))?")


class _Unread(Exception):
    """A line the line reader leaves to _Parser."""


def _flat_poly(text):
    """The Poly _Parser reads from text.  Raises _Unread if _POLY does not
    match."""
    if not _POLY.fullmatch(text):
        raise _Unread
    negate = text[0] == "-"
    terms, coeff, factors = [], 1, ()
    for sign, num, name, exp in _POLY_ATOM.findall(text, int(negate)):
        if sign:
            terms.append((-coeff if negate else coeff, factors))
            negate, coeff, factors = sign == "-", 1, ()
        elif num:
            coeff = int(num)
        elif not exp or int(exp):
            factors += ((name, int(exp or 1)),)
    terms.append((-coeff if negate else coeff, factors))
    return Poly(tuple(terms))


def _read_lines(source):
    """(rings, queries, resume): the ring blocks and queries of the lines
    read from the top, and the offset _Parser goes on from, None if every
    line was read."""
    rings, queries = [], []
    block, resume, offset = None, 0, 0
    try:
        for number, line in enumerate(source.split("\n"), 1):
            here, offset = offset, offset + len(line) + 1
            text = line.strip()
            if not text or text[0] == "#":  # a comment runs to the end of the line
                continue
            if block is None:
                resume = here
            elif text == "}" and prime is not None:
                rings.append(RingBlock(name, prime, tuple(gens), tuple(rules), tuple(actions),
                                       omega, span))
                block = None
                continue
            col, item, layout = line.find(text[0]) + 1, text[:2], _layout(text[:2])
            m = layout and layout.pattern.fullmatch(text)
            if not m:
                raise _Unread
            if block is None:
                if item == "ri":
                    name, span, prime, omega = m[1], (number, col), None, None
                    gens, rules, actions = block = ([], [], [])
                else:
                    queries.append(layout.read(m, number, col))
                continue
            if (item == "pr") != (prime is None):
                raise _Unread
            if item == "pr":
                prime = int(m[1])
            elif item == "ge":
                gens.append(GenDecl(m[1], int(m[2]), int(m[3] or 0), bool(m[4]),
                                    m[5] and int(m[5]), (number, col)))
            elif item == "ru":
                rules.append(RuleDecl(m[1], int(m[2]), _flat_poly(m[3]), (number, col)))
            elif item == "ac":
                if (m[1] == "b") != (m[2] is None):
                    raise _Unread
                actions.append(ActionDecl(m[1], m[2] and int(m[2]), m[3], _flat_poly(m[4]),
                                          (number, col)))
            elif item == "om":
                omega = m[1]
            else:
                raise _Unread  # a query, or a ring header
    except _Unread:
        return rings, queries, resume
    return rings, queries, None if block is None else resume


def parse(source: str) -> FileAst:
    """Parse a source file into its syntax tree.  Syntax only: name and
    homogeneity errors surface from build_program."""
    rings, queries, resume = _read_lines(source)
    if resume is None:
        return FileAst(tuple(rings), (), tuple(queries))
    rest = _Parser(source).parse_file(resume)
    return FileAst(tuple(rings) + rest.rings, rest.bundles, tuple(queries) + rest.queries)


def parse_poly(text: str) -> Poly:
    """Parse a standalone polynomial, e.g. from a CLI argument."""
    try:
        return _flat_poly(text.strip())
    except _Unread:
        pass
    parser = _Parser(text)
    parser.scan()
    poly = parser.parse_poly()
    if parser.toks[parser.pos]:
        parser.fail("trailing input after the polynomial")
    return poly


# ------------------------------------------------------------- rendering


def render_ring(r: RingBlock):
    lines = [_layout("ri").render(r)]
    for key, nodes in (("pr", [r]), ("ge", r.gens), ("ru", r.rules), ("ac", r.actions),
                       ("om", [r] if r.omega is not None else [])):
        lines.extend("  " + _layout(key).render(node) for node in nodes)
    return "\n".join(lines + ["}"])


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
    """A query's source text, in its layout: an option is written whenever it
    differs from its class default, and weird always writes --which."""
    if type(q) not in _QUERIES:
        raise TypeError("not a query: %r" % (q,))
    return _layout(type(q)).render(q)


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


class Program(Record):
    rings: dict
    bundles: dict  # name -> BundleDecl
    queries: tuple

    def __init__(self, rings, bundles, queries):
        self.rings, self.bundles, self.queries = rings, bundles, queries


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
