"""Differential references that run on the package's own objects.

Unlike the closed-form models in oracles.py, these call into the package:

- `CartanReference` runs the per-component Cartan path on a given
  presentation through that presentation's public methods, as a
  differential check of the cached one;
- `total_class_mul_reference` multiplies total classes through the public
  RingElement operators;
- `reference_total_operation_class` and `reference_twisted_total_on_cycle`
  build the total operation and the twisted total through public calls
  only: one apply_letter call per component of each monomial, and at l = 2
  the powers of eta = 1 + omega in `ReferenceTotalClass`;
- `ReferenceTotalClass` is the total class that kept a map from degree to
  RingElement: products one pair of degrees at a time, the inverse by a
  recurrence over every degree up to the bound, and the pushforward one
  degree at a time, read off the exponent tuples of `terms`;
- `reference_eigenvalue` and `reference_frobenius_witnesses` are the
  Frobenius membership test that read one Tate twist for the whole class,
  in place of each monomial's own;
- `reference_lex` is the character-by-character lexer the DSL front end
  once used;
- `reference_parse` and `reference_parse_poly` are the DSL front end the
  token-text parser replaced: a lexer that builds one Token per match and
  a parser over those tokens, building the package's own syntax-tree nodes;
- `reference_parse_operation` is the separate tokenizer and parser that
  read quoted operation words before the DSL grammar did;
- `reference_normalize_words` is the Adem normaliser that rescanned every
  word from its first letter, over the engine's own Adem pair tables;
- `ReferenceSteenrodElement` is the Steenrod element that kept a map from
  SteenrodMonomial to coefficient, one monomial object per term, over the
  engine's own `_normalize_words` and `_multiply_words`;
- `reference_admissible_words` is the enumerator that grew words inward,
  with no excess bound;
- `reference_basis_of_degree` is the monomial enumerator that tried every
  exponent of every generator, the last one included.

`data_file_path` names the source file a scenario is read from.
"""

import re
from typing import NamedTuple

from steencalc import corpus
from steencalc.charclasses import TotalClass
from steencalc.dsl import (
    ActionDecl,
    AdemQuery,
    ApplyQuery,
    BundleDecl,
    CharclassQuery,
    CorpusQuery,
    FileAst,
    GenDecl,
    NormalizeQuery,
    ObstructQuery,
    Poly,
    RingBlock,
    RuleDecl,
    WuQuery,
)
from steencalc.errors import DslSyntaxError, InternalNonTermination, MissingActionComponent
from steencalc.errors import MissingFrobeniusData, MixedPrimes, OmegaUndeclared
from steencalc.steenrod import (
    _MAX_REWRITE_STEPS,
    SteenrodMonomial,
    _adem_pbp,
    _adem_pp,
    _multiply_words,
    _normalize_words,
    _require_prime,
)


def data_file_path(name):
    """The .steen file scenario name is read from."""
    return corpus._path(corpus._corpus_dir(), name)


# ------------------------------------ per-cap Cartan reference path


class CartanReference:
    """The engine's former Cartan and Bockstein path, kept as a differential
    reference: every request recomputes the total operation on a monomial
    from the generators, truncated at the requested component, by
    convolving one generator factor at a time in index order.

    It reads only a presentation's public surface: its generator specs and
    their declared actions, `element`, `gen`, `zero`, `one` and `multiply`.
    """

    def __init__(self, R):
        self.R = R
        self.declared = []
        for g in R.generators:
            comp = {}
            for key, raw in (g.action or {}).items():
                comp[1 if (key == "b" and R.prime == 2) else key] = R.element(raw)
            self.declared.append(comp)

    def _gen_total(self, gi, cap):
        R = self.R
        g = R.generators[gi]
        top = g.degree if R.prime == 2 else g.degree // 2
        out = [R.gen(g.name)]
        for i in range(1, min(cap, top) + 1):
            if i in self.declared[gi]:
                out.append(self.declared[gi][i])
            elif i == top and (R.prime == 2 or g.degree % 2 == 0):
                out.append(R.gen(g.name) ** R.prime)
            else:
                raise MissingActionComponent(
                    "component %d of the action on %s is needed but not declared"
                    % (i, g.name)
                )
        return out

    def _oppoly_mul(self, a, b, cap):
        out = [self.R.zero() for _ in range(cap + 1)]
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j > cap:
                    break
                out[i + j] = out[i + j] + self.R.multiply(ai, bj)
        return out

    def _total_on_monomial(self, m, cap):
        R = self.R
        deg = sum(e * g.degree for e, g in zip(m, R.generators))
        cap = min(cap, deg if R.prime == 2 else deg // 2)
        result = [R.one()] + [R.zero()] * cap
        for gi, e in enumerate(m):
            if e:
                base = self._gen_total(gi, cap)
                for _ in range(e):
                    result = self._oppoly_mul(result, base, cap)
        return result

    def _beta_monomial(self, m):
        R = self.R
        gi = next((i for i, e in enumerate(m) if e), None)
        if gi is None:
            return R.zero()
        g = R.generators[gi]
        e = m[gi]
        rest = m[:gi] + (0,) + m[gi + 1:]
        if "b" not in self.declared[gi]:
            raise MissingActionComponent(
                "Bockstein of generator %s is needed but not declared" % g.name
            )
        count = e if g.degree % 2 == 0 else e % 2
        head = R.multiply(self.declared[gi]["b"].scale(count), R.gen(g.name, e - 1))
        out = R.multiply(head, R.element({rest: 1}))
        sign = -1 if (e * g.degree) % 2 else 1
        return out + R.multiply(R.gen(g.name, e), self._beta_monomial(rest)).scale(sign)

    def apply_letter(self, letter, x):
        """Sq^letter / P^letter of x, or the Bockstein for letter 0 at odd l."""
        out = self.R.zero()
        for m, c in x.terms.items():
            if self.R.prime > 2 and letter == 0:
                out = out + self._beta_monomial(m).scale(c)
                continue
            total = self._total_on_monomial(m, letter)
            if letter < len(total):
                out = out + total[letter].scale(c)
        return out

    def bockstein(self, x):
        return self.apply_letter(1 if self.R.prime == 2 else 0, x)


# ------------------------------------------- total-class product reference


def total_class_mul_reference(a, b):
    """Components of the product of two TotalClasses (degree -> RingElement),
    summed one RingElement product at a time with `+`."""
    bound = min(a.bound, b.bound)
    comps = {}
    for d1, e1 in a.components.items():
        for d2, e2 in b.components.items():
            d = d1 + d2
            if d > bound:
                continue
            prod = e1 * e2
            if not prod:
                continue
            acc = comps.get(d)
            comps[d] = prod if acc is None else acc + prod
    return {d: e for d, e in comps.items() if e}


# ------------------------- total classes from one letter at a time


def reference_total_operation_class(x, bound):
    """Total Sq (l=2) or total P (odd l) of an element, as a TotalClass:
    Sq^i (P^i) of each monomial by one apply_letter call per i up to the
    instability top, summed as RingElements and cut at bound."""
    parent = x.parent
    total = parent.zero()
    for m, c in x.terms.items():
        mono = parent.element({m: c})
        for i in range(parent.monomial_degree(m) // (1 if parent.prime == 2 else 2) + 1):
            total = total + (parent.apply_letter(i, mono) if i else mono)  # letter 0 is b at odd l
    return TotalClass.of_element(total, bound)


def reference_twisted_total_on_cycle(x, codim, bound):
    """sum_i (1+omega)^(codim-i) Sq^(2i)(x) at l = 2 for a homogeneous x, one
    apply_letter call per Sq^(2i), with the powers of eta = 1 + omega and the
    truncated sum taken in ReferenceTotalClass; the reference total P at odd l."""
    parent = x.parent
    if parent.prime != 2:
        return reference_total_operation_class(x, bound)
    if parent.omega is None:
        raise OmegaUndeclared("the prime-2 etale class needs a distinguished omega")
    eta = ReferenceTotalClass.of_element(parent, parent.one() + parent.gen(parent.omega), bound)
    total = ReferenceTotalClass(parent, bound)
    for i in range((x.degree() or 0) // 2 + 1):
        piece = parent.apply_letter(2 * i, x) if i else x  # Sq^0 x = x
        power = ReferenceTotalClass.unit(parent, bound)
        for _ in range(abs(codim - i)):
            power = power * eta
        total = total + (power if codim >= i else power.inverse()) * piece
    return TotalClass.of_element(sum(total.components.values(), parent.zero()), bound)


# ------------------------------------ Frobenius eigenvalues from a class twist


def reference_eigenvalue(parent, q, m, twist):
    """Frobenius on the monomial m of a class of twist `twist`, acting
    diagonally: the generator g scales by q^f_g and the class's Tate twist j
    contributes q^(-j)."""
    ell = parent.prime
    total = 0
    for e, g in zip(m, parent.generators):
        if not e:
            continue
        if g.frobenius_exponent is None:
            raise MissingFrobeniusData("generator %s has no Frobenius exponent" % g.name)
        total += e * g.frobenius_exponent
    return pow(q % ell, total - twist, ell)


def reference_frobenius_witnesses(x, q, twist):
    """The eigenvalue-1 monomials of x, as the membership test rendered them
    when it read one twist for the whole class, in (degree, exponent) order."""
    parent = x.parent
    return tuple(parent.render_monomial(m)
                 for m in sorted(x.terms, key=lambda m: (parent.monomial_degree(m), m))
                 if reference_eigenvalue(parent, q, m, twist) == 1)


class ReferenceTotalClass:
    """Finite inhomogeneous class: cohomological degree -> RingElement,
    truncated above `bound` (components beyond it are dropped, not zero)."""

    def __init__(self, parent, bound, components=None):
        self.parent = parent
        self.bound = bound
        comps = {}
        for d, elt in (components or {}).items():
            if d < 0 or d > bound or not elt:
                continue
            comps[d] = elt
        self.components = comps

    @classmethod
    def unit(cls, parent, bound):
        return cls(parent, bound, {0: parent.one()})

    @classmethod
    def of_element(cls, parent, elt, bound):
        """Split a (possibly inhomogeneous) element into degree components."""
        comps = {}
        for m, c in elt.terms.items():
            d = parent.monomial_degree(m)
            comps[d] = comps.get(d, parent.zero()) + parent.element({m: c})
        return cls(parent, bound, comps)

    def component(self, d):
        return self.components.get(d, self.parent.zero())

    def __add__(self, other):
        bound = min(self.bound, other.bound)
        comps = {}
        for d in set(self.components) | set(other.components):
            if d > bound:
                continue
            s = self.component(d) + other.component(d)
            if s:
                comps[d] = s
        return ReferenceTotalClass(self.parent, bound, comps)

    def scale(self, c):
        return ReferenceTotalClass(
            self.parent, self.bound, {d: e.scale(c) for d, e in self.components.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, ReferenceTotalClass):
            other = ReferenceTotalClass.of_element(self.parent, other, self.bound)
        bound = min(self.bound, other.bound)
        comps = {}
        for d1, e1 in self.components.items():
            for d2, e2 in other.components.items():
                if d1 + d2 <= bound:
                    comps[d1 + d2] = comps.get(d1 + d2, self.parent.zero()) + e1 * e2
        return ReferenceTotalClass(self.parent, bound, comps)

    def inverse(self):
        """Multiplicative inverse of a class with scalar unit part, degree by
        degree: g_d = -f_0^-1 sum_{i>=1} f_i g_(d-i)."""
        one = self.parent.one()
        scalar = next((s for s in range(1, self.parent.prime)
                       if self.component(0) == one.scale(s)), None)
        if scalar is None:
            raise ValueError("inverse needs an invertible scalar in degree 0")
        inv0 = pow(scalar, -1, self.parent.prime)
        out = {0: one.scale(inv0)}
        for d in range(1, self.bound + 1):
            acc = self.parent.zero()
            for i in range(1, d + 1):
                if i in self.components and d - i in out:
                    acc = acc + self.components[i] * out[d - i]
            if acc:
                out[d] = acc.scale(-inv0)
        return ReferenceTotalClass(self.parent, self.bound, out)

    def projective_pushforward(self, n, hyperplane="l"):
        """Integration over a P^n fiber, one degree at a time: the
        coefficient of hyperplane^n, read from each component's exponent
        tuples, with that factor removed."""
        gi, comps = self.parent.index[hyperplane], {}
        for d, elt in self.components.items():
            pushed = {m[:gi] + (0,) + m[gi + 1:]: c for m, c in elt.terms.items() if m[gi] == n}
            if pushed:
                comps[d - 2 * n] = self.parent.element(pushed)
        return ReferenceTotalClass(self.parent, self.bound - 2 * n, comps)

    def __eq__(self, other):
        return self.parent is other.parent and self.components == other.components

    def render(self):
        if not self.components:
            return "0"
        parts = []
        for d in sorted(self.components):
            parts.append("[%d] %s" % (d, self.components[d].render()))
        return "; ".join(parts)


# -------------------------------------------------------- reference lexer


_REFERENCE_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<flag>--[a-z][a-z-]*)
  | (?P<kw>wu-check)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"[^"\n]*")
  | (?P<sym>[{}();=^*+\-,])
    """,
    re.VERBOSE,
)


def reference_lex(source):
    """Tokens of a DSL source as (kind, value, line, col) tuples, ending in
    an eof token; one anchored match per token, tracking line and column
    as it goes.  Raises DslSyntaxError on a character no token starts with."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _REFERENCE_TOKEN.match(source, pos)
        if m is None:
            raise DslSyntaxError("unexpected character %r" % source[pos], line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "kw":
            kind = "ident"
        if kind != "ws":
            tokens.append((kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# ---------------------------------------- token-object DSL front end


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

    def expect_keyword(self, what, words):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("found %r" % (tok.value or "end of input"), (what,))
        if tok.value not in words:
            self.fail("found %r" % tok.value, words)
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
                    self.fail(
                        "found %r" % (self.peek().value or "end of input"), ("a generator", "(")
                    )
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
        tok = self.peek()
        if tok.kind != "ident" or tok.value not in ("Sq", "P", "b"):
            self.fail("found %r" % (tok.value or "end of input"), ("Sq", "P", "b"))
        name = self.next().value
        if name == "b":
            return ("b", None)
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
                            "found %r" % (self.peek().value or "end of input"),
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
                at = self.peek()
                idx = self.expect_int("a Chern index")
                if idx < 1 or idx in target:
                    raise DslSyntaxError("Chern indices must be distinct and start at 1",
                                         at.line, at.col)
                self.expect_sym("=")
                target[idx] = self.parse_poly()
                self.expect_sym(";")
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
            op_span = (self.peek().line, self.peek().col)
            op_text = self.expect_string()
            self.expect_word("to")
            poly = self.parse_poly()
            self.expect_word("in")
            ring = self.expect_ident("a ring name")
            expect = self.parse_poly() if self.eat_word("expect") else None
            self.expect_sym(";")
            return ApplyQuery(op_text, poly, ring, expect, span=span, op_span=op_span)
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
            op_span = (self.peek().line, self.peek().col)
            op_text = self.expect_string()
            prime = 2
            if self.eat_word("prime"):
                self.expect_sym("=")
                prime = self.expect_int("a prime")
            expect = expect_span = None
            if self.eat_word("expect"):
                expect_span = (self.peek().line, self.peek().col)
                expect = self.expect_string()
            self.expect_sym(";")
            return AdemQuery(op_text, prime, expect, span=span, op_span=op_span,
                             expect_span=expect_span)
        if verb == "obstruct":
            self.next()
            kind = self.expect_keyword("odd, weird, frobenius, or hs",
                                       ("odd", "weird", "frobenius", "hs"))
            flags = self._parse_flags(("codim", "which", "q", "max-degree"))
            self.expect_word("on")
            poly = self.parse_poly()
            self.expect_word("in")
            ring = self.expect_ident("a ring name")
            twist = None
            if self.eat_word("twist"):
                self.expect_sym("=")
                twist = self.expect_int("a twist")
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
            kind = self.expect_keyword("w or wet", ("w", "wet"))
            self.expect_word("of")
            bundle = self.expect_ident("a bundle name")
            expect = self.expect_string() if self.eat_word("expect") else None
            self.expect_sym(";")
            return CharclassQuery(kind, bundle, expect, span=span)
        if verb == "corpus":
            self.next()
            action = self.expect_keyword("list or run", ("list", "run"))
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


def reference_parse(source):
    """Parse a source file into its syntax tree.  Syntax only: name and
    homogeneity errors surface from build_program."""
    return _Parser(_lex(source)).parse_file()


def reference_parse_poly(text):
    """Parse a standalone polynomial, e.g. from a CLI argument."""
    parser = _Parser(_lex(text))
    poly = parser.parse_poly()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after the polynomial")
    return poly


# ------------------------------------------- operation-word reference parser


_OP_TOKEN = re.compile(r"\s*(Sq|P|b|\d+|\^|\+|-|\*)")


def _tokenize_op(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _OP_TOKEN.match(text, pos)
        if not m:
            raise DslSyntaxError("bad character %r in operation" % text[pos], 1, pos + 1)
        out.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return out


def reference_parse_operation(text, prime):
    """Terms (word -> coefficient) of an operation word, by the regex
    tokenizer and hand parser that read quoted operations before they
    shared the DSL grammar.  It accepts more: letters written together
    (bb), and a * anywhere in a term."""
    tokens = _tokenize_op(text)
    if not tokens:
        raise DslSyntaxError("empty operation", 1, 1, ("Sq", "P", "b", "integer"))
    terms = {}
    idx = 0
    sign = 1
    while True:
        coeff = sign
        word = []
        saw_anything = False
        if idx < len(tokens) and tokens[idx][0].isdigit():
            coeff = sign * int(tokens[idx][0])
            saw_anything = True
            idx += 1
            if idx < len(tokens) and tokens[idx][0] == "*":
                idx += 1
        while idx < len(tokens) and tokens[idx][0] in ("Sq", "P", "b", "*"):
            tok, col = tokens[idx]
            idx += 1
            if tok == "*":
                continue
            saw_anything = True
            if tok == "b":
                word.append(1 if prime == 2 else 0)
                continue
            if tok == "Sq" and prime != 2:
                raise DslSyntaxError("Sq is a prime-2 letter", 1, col, ("P", "b"))
            if tok == "P" and prime == 2:
                raise DslSyntaxError("P is an odd-prime letter", 1, col, ("Sq", "b"))
            if idx >= len(tokens) or tokens[idx][0] != "^":
                raise DslSyntaxError("missing exponent", 1, col, ("^",))
            idx += 1
            if idx >= len(tokens) or not tokens[idx][0].isdigit():
                raise DslSyntaxError("missing exponent value", 1, col, ("integer",))
            i = int(tokens[idx][0])
            idx += 1
            if i > 0:
                word.append(i)
        if not saw_anything:
            col = tokens[idx][1] if idx < len(tokens) else len(text) + 1
            raise DslSyntaxError("expected an operation term", 1, col, ("Sq", "P", "b", "integer"))
        key = tuple(word)
        terms[key] = terms.get(key, 0) + coeff
        if idx >= len(tokens):
            return terms
        tok, col = tokens[idx]
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise DslSyntaxError("unexpected %r" % tok, 1, col, ("+", "-"))
        idx += 1


# ------------------------------------------------- Adem rewriting, restarted


def _leftmost_rewrite(prime, word):
    """Find the leftmost non-admissible spot.

    Returns (start, width, expansion) where expansion is a list of
    (replacement_letters, coeff), or None when the word is admissible.
    """
    n = len(word)
    for j in range(n - 1):
        a = word[j]
        if a == 0:
            if word[j + 1] == 0:
                return j, 2, []  # b b = 0
            continue
        nxt = word[j + 1]
        if nxt > 0:
            if a < prime * nxt:
                return j, 2, _adem_pp(prime, a, nxt)
        elif j + 2 < n and word[j + 2] > 0:
            if a <= prime * word[j + 2]:
                return j, 3, _adem_pbp(prime, a, word[j + 2])
    return None


def reference_normalize_words(prime, terms):
    """Rewrite a dict word -> coeff into admissible form.  Internal raw words
    (for example with adjacent Bocksteins from concatenation) are allowed."""
    result = {}
    pending = list(terms.items())
    steps = 0
    while pending:
        word, coeff = pending.pop()
        coeff %= prime
        if not coeff:
            continue
        spot = _leftmost_rewrite(prime, word)
        if spot is None:
            new = (result.get(word, 0) + coeff) % prime
            if new:
                result[word] = new
            else:
                result.pop(word, None)
            continue
        steps += 1
        if steps > _MAX_REWRITE_STEPS:
            raise InternalNonTermination("Adem rewriting exceeded %d steps" % _MAX_REWRITE_STEPS)
        j, width, expansion = spot
        head, tail = word[:j], word[j + width:]
        for repl, c in expansion:
            pending.append((head + repl + tail, coeff * c))
    return result


# ------------------------------------------- monomial-keyed Steenrod element


class ReferenceSteenrodElement:
    """F_l-linear combination of operation words, as a dict SteenrodMonomial
    -> coefficient in 1..l-1."""

    __slots__ = ("prime", "terms")

    def __init__(self, prime, terms=None):
        _require_prime(prime)
        self.prime = prime
        clean = {}
        for mono, coeff in (terms or {}).items():
            if not isinstance(mono, SteenrodMonomial):
                mono = SteenrodMonomial(prime, tuple(mono))
            if mono.prime != prime:
                raise MixedPrimes("term at prime %d in element at prime %d" % (mono.prime, prime))
            coeff %= prime
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    def _check(self, other):
        if self.prime != other.prime:
            raise MixedPrimes("%d vs %d" % (self.prime, other.prime))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            new = (terms.get(m, 0) + c) % self.prime
            if new:
                terms[m] = new
            else:
                del terms[m]
        return ReferenceSteenrodElement(self.prime, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c %= self.prime
        terms = {m: (c * v) % self.prime for m, v in self.terms.items()} if c else {}
        return ReferenceSteenrodElement(self.prime, terms)

    def multiply(self, other):
        self._check(other)
        p = self.prime
        words = _multiply_words(p, {m.word: c for m, c in self.terms.items()},
                                {m.word: c for m, c in other.terms.items()})
        return ReferenceSteenrodElement(p, {SteenrodMonomial(p, w): c for w, c in words.items()})

    def adem_normalize(self):
        return self._normalized({m.word: c for m, c in self.terms.items()})

    def _normalized(self, raw):
        p = self.prime
        words = _normalize_words(p, raw)
        return ReferenceSteenrodElement(p, {SteenrodMonomial(p, w): c for w, c in words.items()})

    def is_admissible(self):
        return all(m.is_admissible() for m in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, ReferenceSteenrodElement)
            and self.prime == other.prime
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.prime, frozenset(self.terms.items())))

    def is_homogeneous(self):
        degs = {m.degree() for m in self.terms}
        return len(degs) <= 1

    def degree(self):
        degs = {m.degree() for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def monomials(self):
        return sorted(self.terms, key=lambda m: (m.degree(), m.word))

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for m in self.monomials():
            c = self.terms[m]
            if not m.word:
                parts.append("%d" % c)
            elif c == 1:
                parts.append(m.render())
            else:
                parts.append("%d %s" % (c, m.render()))
        return " + ".join(parts)


# ------------------------------------------- admissible words, grown inward


def reference_admissible_words(prime, max_degree):
    """The words of all admissible monomials of degree <= max_degree, sorted
    by (degree, word): words grow by appending letters, with no excess bound."""
    out = [()]
    if prime == 2:
        def grow(word, budget):
            cap = min(budget, word[-1] // 2) if word else budget
            for i in range(1, cap + 1):
                w = word + (i,)
                out.append(w)
                grow(w, budget - i)

        grow((), max_degree)
    else:
        step = 2 * (prime - 1)
        if max_degree >= 1:
            out.append((0,))

        def grow(word, last_s, budget):
            # word ends with the power P^last_s; extend by [b] P^s
            if budget >= 1:
                out.append(word + (0,))
            for eps in (0, 1):
                middle = (0,) if eps else ()
                cap = min((last_s - eps) // prime, (budget - eps) // step)
                for s in range(1, cap + 1):
                    w = word + middle + (s,)
                    out.append(w)
                    grow(w, s, budget - eps - step * s)

        for eps0 in (0, 1):
            for s1 in range(1, (max_degree - eps0) // step + 1):
                w = ((0,) if eps0 else ()) + (s1,)
                out.append(w)
                grow(w, s1, max_degree - eps0 - step * s1)

    def degree(w):
        return sum(w) if prime == 2 else sum(1 if s == 0 else step * s for s in w)

    return sorted((w for w in set(out) if degree(w) <= max_degree),
                  key=lambda w: (degree(w), w))


# ------------------------------------------------ monomial basis, exhaustive


def reference_basis_of_degree(pres, degree, twist=None):
    """pres.basis_of_degree by trying every exponent of every generator up
    to its cap and keeping the tuples that land on the degree."""
    out = []
    caps = [1 if g.parity == "odd" else pres.rules.get(gi, (degree + 2,))[0] - 1
            for gi, g in enumerate(pres.generators)]

    def rec(gi, left, exps):
        if gi == pres.n:
            if left == 0:
                out.append(tuple(exps))
            return
        g = pres.generators[gi]
        for e in range(min(caps[gi], left // g.degree) + 1):
            exps.append(e)
            rec(gi + 1, left - e * g.degree, exps)
            exps.pop()

    rec(0, degree, [])
    if twist is not None and pres.prime > 2:
        out = [m for m in out if (pres.monomial_twist(m) - twist) % (pres.prime - 1) == 0]
    return sorted(out)
