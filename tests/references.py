"""Differential references that run on the package's own objects.

Unlike the closed-form models in oracles.py, these call into the package:

- `CartanReference` runs the per-component Cartan path on a given
  presentation through that presentation's public methods, as a
  differential check of the cached one;
- `total_class_mul_reference` multiplies total classes through the public
  RingElement operators;
- `reference_lex` is the character-by-character lexer the DSL front end
  once used;
- `reference_normalize_words` is the Adem normaliser that rescanned every
  word from its first letter, over the engine's own Adem pair tables.
"""

import re

from steencalc.errors import DslSyntaxError, InternalNonTermination, MissingActionComponent
from steencalc.steenrod import _MAX_REWRITE_STEPS, _adem_pbp, _adem_pp, _adem_sq


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
                exp = _adem_sq(a, nxt) if prime == 2 else _adem_pp(prime, a, nxt)
                return j, 2, exp
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
