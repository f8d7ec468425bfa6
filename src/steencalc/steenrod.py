"""Words in the mod-l Steenrod algebra: Adem rewriting, excess, admissibility.

A monomial is a word of operation letters over a fixed prime l.  For l = 2
the word is a tuple of integers (i1, ..., ik) with ij >= 1, read as
Sq^i1 ... Sq^ik.  For odd l the letter 0 stands for the Bockstein b and a
letter s >= 1 stands for the reduced power P^s, so (0, 2, 0, 1) reads
b P^2 b P^1.  The empty word is the identity operation.

Elements are finite F_l-linear combinations of words, kept as one dict
word -> coefficient in 1..l-1.  SteenrodMonomial is the public view of one
word: an element's `terms` builds the SteenrodMonomial -> coefficient view on
each read, as RingElement.terms does for its packed monomials, and
SteenrodElement(l, e.terms) == e.  adem_normalize rewrites elements into the
admissible basis; the rewriting is validated against an independent
Cartan-formula oracle in the test suite, not trusted.

A product puts each left word's letters, last first, in front of the right
operand's terms, one letter at a time: the normal form of one letter in front
of one word comes from a bounded table, _letter_product, filled by the same
rewriting.  So a product's terms follow that route in their insertion order;
render(), monomials(), equality and hashing do not depend on it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

from .errors import (
    InternalNonTermination,
    InvalidArgument,
    MixedPrimes,
    NotAdmissible,
)
from .record import FrozenRecord

# Pair rewrites are memoized; one normalization call that exceeds this many
# expansions indicates a cycle and raises InternalNonTermination.  A product
# normalizes one letter in front of one word per call, so there the bound
# applies to each letter product.
_MAX_REWRITE_STEPS = 1_000_000

# Entries of the letter table, _letter_product: about twice what one pass of
# products over words of degree <= 32 at l = 2, 3 and 5 fills.
_LETTER_TABLE_SIZE = 4096


# Miller-Rabin with the first k of these bases decides primality exactly below
# _BASE_BOUNDS[k - 1], the least strong pseudoprime to all k (Jaeschke;
# Zhang and Tang), so with all of them below _PRIME_BOUND.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASE_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 341550071728321, 3825123056546413051,
                3825123056546413051, 3825123056546413051, 318665857834031151167461,
                3317044064679887385961981)
_PRIME_BOUND = _BASE_BOUNDS[-1]


def _is_prime(n):
    """Whether the integer n is prime.  An n at or above _PRIME_BOUND with no
    factor among _BASES is not decided: it raises InvalidArgument."""
    for p in _BASES:
        if p * p > n:
            return n >= 2
        if n % p == 0:
            return False
    if n < 43 * 43:  # no prime factor up to 41
        return True
    if n >= _PRIME_BOUND:
        raise InvalidArgument("cannot decide whether %d is prime: the test is exact "
                              "only below %d" % (n, _PRIME_BOUND))
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _BASES[:bisect_right(_BASE_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _require_prime(ell):
    # every element checks its prime; the small primes skip the call
    if isinstance(ell, int) and (ell in _BASES or _is_prime(ell)):
        return ell
    raise InvalidArgument("not a prime: %r" % (ell,))


def _require_int(c):
    # a coefficient; a bool is an int
    if not isinstance(c, int):
        raise InvalidArgument("coefficient %r is not an integer" % (c,))
    return c


def binom_mod_ell(n: int, k: int, ell: int) -> int:
    """Binomial coefficient mod l, with the descending-factorial convention
    for negative upper index: binom(n, k) = n(n-1)...(n-k+1) / k!.

    In particular binom(-1, 0) = 1 and binom(n, k) = 0 for k < 0.
    """
    _require_prime(ell)
    if k < 0:
        return 0
    if n < 0:
        # binom(n, k) = (-1)^k binom(k - n - 1, k) as polynomials in n
        sign = -1 if k % 2 else 1
        return (sign * _lucas(k - n - 1, k, ell)) % ell
    return _lucas(n, k, ell)


def _lucas(n, k, ell):
    # n, k >= 0
    result = 1
    while k:
        result = (result * math.comb(n % ell, k % ell)) % ell
        if result == 0:
            return 0
        n //= ell
        k //= ell
    return result


class SteenrodMonomial(FrozenRecord):
    """One operation word over a fixed prime.

    Invariants: letters are >= 1 for prime 2 (Sq^i), >= 0 for odd primes
    (0 = Bockstein).  Identity letters Sq^0 / P^0 are never stored.
    """

    prime: int
    word: tuple

    def __init__(self, prime, word):
        _require_prime(prime)
        _check_word(prime, word)
        self.__dict__.update(prime=prime, word=word)

    def degree(self) -> int:
        return _word_degree(self.prime, self.word)

    def is_admissible(self) -> bool:
        return _is_admissible_word(self.prime, self.word)

    def excess(self) -> int:
        """Excess of an admissible word; NotAdmissible otherwise.

        For l = 2 this is i1 - (i2 + ... + ik).  For odd l it is
        2*l*s1 + e0 - degree, where s1 is the first reduced-power index
        (0 when the word is empty or a bare Bockstein) and e0 records a
        leading Bockstein.  The empty word has excess 0.
        """
        if not self.is_admissible():
            raise NotAdmissible("excess is defined on admissible words only: %r" % (self,))
        if not self.word:
            return 0
        if self.prime == 2:
            return 2 * self.word[0] - self.degree()
        eps0 = 1 if self.word[0] == 0 else 0
        s1 = next((s for s in self.word if s > 0), 0)
        return 2 * self.prime * s1 + eps0 - self.degree()

    def render(self) -> str:
        return _render_word(self.prime, self.word) if self.word else "1"

    def __repr__(self):
        return "SteenrodMonomial(p=%d, %s)" % (self.prime, self.render())


def _monomial(prime, word):
    """SteenrodMonomial(prime, word) without re-validation, for words this
    module built from validated words and Adem table entries."""
    mono = object.__new__(SteenrodMonomial)
    fields = mono.__dict__
    fields["prime"] = prime
    fields["word"] = word
    return mono


def _check_word(prime, word):
    low = 1 if prime == 2 else 0
    if any((not isinstance(i, int)) or i < low for i in word):
        raise ValueError("bad letter in word %r at prime %d" % (word, prime))


def _word_degree(prime, word):
    if prime == 2:
        return sum(word)
    return sum(1 if s == 0 else 2 * s * (prime - 1) for s in word)


def _render_word(prime, word):
    # a nonempty word; the empty one renders as "1" or as its coefficient
    if prime == 2:
        return " ".join("Sq^%d" % i for i in word)
    return " ".join("b" if s == 0 else "P^%d" % s for s in word)


def _is_admissible_word(prime, word):
    if prime == 2:
        return all(word[j] >= 2 * word[j + 1] for j in range(len(word) - 1))
    # no double Bocksteins, and s_j >= l*s_{j+1} + eps_j between powers
    for j in range(len(word) - 1):
        if word[j] == 0 and word[j + 1] == 0:
            return False
    powers = [j for j, s in enumerate(word) if s > 0]
    for a, b in zip(powers, powers[1:]):
        eps = b - a - 1  # number of Bocksteins strictly between, 0 or 1
        if word[a] < prime * word[b] + eps:
            return False
    return True


# --------------------------------------------------------------------------
# Adem pair expansions, memoized.  Each returns a list of (word, coeff) with
# coeff already reduced mod l and nonzero.


@lru_cache(maxsize=None)
def _adem_pp(ell, a, b):
    # P^a P^b with a < l*b; at l = 2 this is Sq^a Sq^b with a < 2b
    out = []
    for t in range(a // ell + 1):
        coeff = binom_mod_ell((ell - 1) * (b - t) - 1, a - ell * t, ell)
        coeff = (coeff if (a + t) % 2 == 0 else -coeff) % ell
        if coeff:
            out.append(((a + b - t, t) if t else (a + b,), coeff))
    return out


@lru_cache(maxsize=None)
def _adem_pbp(ell, a, b):
    # P^a b P^b with a <= l*b
    out = []
    for t in range(a // ell + 1):
        coeff = binom_mod_ell((ell - 1) * (b - t), a - ell * t, ell)
        coeff = (coeff if (a + t) % 2 == 0 else -coeff) % ell
        if coeff:
            out.append(((0, a + b - t, t) if t else (0, a + b), coeff))
    for t in range((a - 1) // ell + 1):
        coeff = binom_mod_ell((ell - 1) * (b - t) - 1, a - ell * t - 1, ell)
        coeff = (coeff if (a + t) % 2 == 1 else -coeff) % ell
        if coeff:
            out.append(((a + b - t, 0, t) if t else (a + b, 0), coeff))
    return out


def _normalize_words(prime, terms):
    """Rewrite a dict word -> coeff into admissible form.  Internal raw words
    (for example with adjacent Bocksteins from concatenation) are allowed.

    Each word is rewritten at its leftmost non-admissible spot until none is
    left.  After a rewrite at position j, word[:j] holds no such spot, and
    the P^a b P^b check looks two letters back, so the scan of each product
    resumes at j - 2.  Coefficients are kept in 1..l-1: table entries are
    nonzero mod l, so no product of them vanishes."""
    adem_pp, adem_pbp = _adem_pp, _adem_pbp
    result = {}
    pending = [(word, c % prime, 0) for word, c in terms.items() if c % prime]
    pop, push = pending.pop, pending.append
    steps = 0
    while pending:
        word, coeff, j = pop()
        last = len(word) - 1
        while j < last:
            a = word[j]
            nxt = word[j + 1]
            if not a:
                if not nxt:
                    width, expansion = 2, ()  # b b = 0
                    break
            elif nxt:
                if a < prime * nxt:
                    width, expansion = 2, adem_pp(prime, a, nxt)
                    break
            elif j < last - 1:
                b = word[j + 2]
                if b and a <= prime * b:
                    width, expansion = 3, adem_pbp(prime, a, b)
                    break
            j += 1
        else:
            new = (result.get(word, 0) + coeff) % prime
            if new:
                result[word] = new
            else:
                del result[word]
            continue
        steps += 1
        if steps > _MAX_REWRITE_STEPS:
            raise InternalNonTermination("Adem rewriting exceeded %d steps" % _MAX_REWRITE_STEPS)
        head, tail = word[:j], word[j + width:]
        j = j - 2 if j > 2 else 0
        for repl, c in expansion:
            push((head + repl + tail, coeff * c % prime, j))
    return result


@lru_cache(maxsize=_LETTER_TABLE_SIZE)
def _letter_product(prime, a, word):
    """The normal form of the letter a in front of word, a raw word allowed,
    as a tuple of (word, coeff) pairs."""
    return tuple(_normalize_words(prime, {(a,) + word: 1}).items())


def _multiply_words(prime, left, right):
    """The normal form of the product of two dicts word -> coeff, raw words
    and coefficients allowed.  Each left word's letters, last first, go in
    front of the right operand's terms through _letter_product, and the
    first letter's products add straight into the result.  An empty left
    word adds the normal form of right itself."""
    letter_product = _letter_product
    c0 = left.get((), 0) % prime
    result = _normalize_words(prime, {w: c0 * c for w, c in right.items()}) if c0 else {}
    for w1, c1 in left.items():
        c1 %= prime
        if not (w1 and c1):
            continue
        terms = right
        for a in reversed(w1[1:]):
            step = {}
            for w, c in terms.items():
                for w2, c2 in letter_product(prime, a, w):
                    step[w2] = step.get(w2, 0) + c * c2
            terms = step
        a = w1[0]
        for w, c in terms.items():
            c = c1 * c % prime
            if c:
                for w2, c2 in letter_product(prime, a, w):
                    new = (result.get(w2, 0) + c * c2) % prime
                    if new:
                        result[w2] = new
                    else:
                        del result[w2]
    return result


class SteenrodElement:
    """F_l-linear combination of operation words.

    Kept as one dict _words, word tuple -> coefficient in 1..l-1.  `terms`
    builds the SteenrodMonomial -> coefficient view on each read, so
    mutating it leaves the element as it was, and SteenrodElement(l,
    e.terms) == e.  The constructor takes word tuples or SteenrodMonomials
    as keys.  Elements are treated as immutable; all operations return
    fresh instances.
    """

    __slots__ = ("prime", "_words")

    def __init__(self, prime, terms=None):
        _require_prime(prime)
        self.prime = prime
        words = {}
        for key, coeff in (terms or {}).items():
            if isinstance(key, SteenrodMonomial):
                if key.prime != prime:
                    raise MixedPrimes("term at prime %d in element at prime %d" % (key.prime, prime))
                word = key.word
            else:
                word = tuple(key)
                _check_word(prime, word)
            coeff = _require_int(coeff) % prime
            if coeff:
                words[word] = coeff
        self._words = words

    @classmethod
    def _trusted(cls, prime, words):
        """An element over a checked prime whose dict maps words this module
        built from validated words and Adem table entries to coefficients in
        1..l-1."""
        element = object.__new__(cls)
        element.prime = prime
        element._words = words
        return element

    @property
    def terms(self):
        p = self.prime
        return {_monomial(p, w): c for w, c in self._words.items()}

    # ------------------------------------------------------------ arithmetic

    def _check(self, other):
        if not isinstance(other, SteenrodElement):
            raise TypeError("cannot combine a SteenrodElement with %s" % type(other).__name__)
        if self.prime != other.prime:
            raise MixedPrimes("%d vs %d" % (self.prime, other.prime))

    def __add__(self, other):
        self._check(other)
        words = dict(self._words)
        for w, c in other._words.items():
            new = (words.get(w, 0) + c) % self.prime
            if new:
                words[w] = new
            else:
                del words[w]
        return SteenrodElement._trusted(self.prime, words)

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(-1)

    def scale(self, c):
        c = _require_int(c) % self.prime
        words = {w: (c * v) % self.prime for w, v in self._words.items()} if c else {}
        return SteenrodElement._trusted(self.prime, words)

    def multiply(self, other) -> "SteenrodElement":
        """The product in admissible form, by _multiply_words: each of this
        element's words applies its letters, last first, to other's terms
        through the letter table, so the result's term order follows that
        route.  An int scales, as it does a RingElement."""
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        words = _multiply_words(self.prime, self._words, other._words)
        return SteenrodElement._trusted(self.prime, words)

    __mul__ = multiply

    def __rmul__(self, c):
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def adem_normalize(self) -> "SteenrodElement":
        return SteenrodElement._trusted(self.prime, _normalize_words(self.prime, self._words))

    def is_admissible(self) -> bool:
        return all(_is_admissible_word(self.prime, w) for w in self._words)

    # ----------------------------------------------------------- inspection

    def __bool__(self):
        return bool(self._words)

    def __eq__(self, other):
        return (
            isinstance(other, SteenrodElement)
            and self.prime == other.prime
            and self._words == other._words
        )

    def __hash__(self):
        return hash((self.prime, frozenset(self._words.items())))

    def is_homogeneous(self) -> bool:
        return len({_word_degree(self.prime, w) for w in self._words}) <= 1

    def degree(self):
        """Common degree of all words, or None for 0 / mixed elements."""
        degs = {_word_degree(self.prime, w) for w in self._words}
        return degs.pop() if len(degs) == 1 else None

    def _sorted_words(self):
        p = self.prime
        return sorted(self._words, key=lambda w: (_word_degree(p, w), w))

    def monomials(self):
        return [_monomial(self.prime, w) for w in self._sorted_words()]

    def render(self) -> str:
        if not self._words:
            return "0"
        parts = []
        for w in self._sorted_words():
            c = self._words[w]
            if not w:
                parts.append("%d" % c)
            elif c == 1:
                parts.append(_render_word(self.prime, w))
            else:
                parts.append("%d %s" % (c, _render_word(self.prime, w)))
        return " + ".join(parts)

    def __repr__(self):
        return "<SteenrodElement p=%d %s>" % (self.prime, self.render())


# --------------------------------------------------------------------------
# Text format.  Example inputs: "Sq^3 Sq^1", "b P^2 b", "2 P^2 + P^1 P^1".

def parse_operation(text: str, prime: int) -> SteenrodElement:
    """Parse an operation word; the inverse of render on canonical output.
    The grammar is the DSL's: see dsl._Parser.parse_operation."""
    from .dsl import _Parser  # dsl imports this module

    _require_prime(prime)
    return SteenrodElement(prime, _Parser(text).parse_operation(prime))


def admissible_monomials(prime, max_degree, max_excess=None):
    """All admissible words of degree <= max_degree, and of excess <=
    max_excess when one is given, sorted by (degree, word).

    Words grow outward: a letter (a power P^s, or a Bockstein at odd l) is
    put in front of an admissible word.  The excess never falls as a word
    grows so, past the bound, no word grows further.  A word of excess e is
    zero on every class of degree below e, by instability of its first
    power, so max_excess = |x| keeps every word that can act nonzero on x."""
    _require_prime(prime)
    top = max_degree if max_excess is None else max_excess
    out = []
    if prime == 2:
        def grow(word, degree):
            # Sq^a word has excess a - degree
            out.append((degree, word))
            low = 2 * word[0] if word else 1
            for a in range(low, min(max_degree - degree, top + degree) + 1):
                grow((a,) + word, degree + a)
    else:
        step = 2 * (prime - 1)

        def grow(word, degree, first=0):
            # first is the index of the word's first power (0 if none); P^s word
            # has excess 2s - degree, and a front Bockstein leaves it as it is
            out.append((degree, word))
            bockstein = bool(word) and word[0] == 0
            if not bockstein and degree < max_degree:
                grow((0,) + word, degree + 1, first)
            high = min((max_degree - degree) // step, (top + degree) // 2)
            for s in range(max(1, prime * first + bockstein), high + 1):
                grow((s,) + word, degree + step * s, s)

    if min(max_degree, top) >= 0:
        grow((), 0)
    out.sort()
    return [_monomial(prime, word) for _, word in out]
