"""Finitely presented graded-commutative F_l-algebras carrying Steenrod actions.

A presentation fixes a prime l, an ordered list of generators (degree, Tate
twist, Koszul parity, declared operation action, optional Frobenius
data), and rewrite rules of the shape g^k = lower-order terms.
Monomials are exponent tuples over the generator order; elements are kept in
normal form: no monomial divisible by a rule's lead power, odd-parity
exponents at most 1.

Operations act through the Cartan formula from the declared generator
actions.  Total operations are finite degreewise, so no truncation is needed
beyond the requested component; missing low components of a generator's
action raise MissingActionComponent only when a computation actually needs
them, while the top component defaults to the l-th power (instability) and
everything above it is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Optional

from .errors import (
    MissingActionComponent,
    MixedPrimes,
    NonHomogeneousInput,
    OmegaUndeclared,
    RuleNonTermination,
)
from .steenrod import _require_prime, parse_operation

_MAX_REDUCTIONS = 1_000_000


@dataclass
class GeneratorSpec:
    """One ring generator.

    action maps operation components to polynomials (raw exponent-tuple
    dicts before the presentation is built): integer keys are Sq^i for l=2
    and P^i for odd l, and the key "b" is the Bockstein (for l=2 it is an
    alias of 1).  Components above the degree (resp. half degree for P) are
    rejected; the top one defaults to the l-th power when left out.
    """

    name: str
    degree: int
    twist: int = 0
    parity: str = "even"
    action: dict = field(default_factory=dict)
    frobenius_exponent: Optional[int] = None


@dataclass
class RewriteRule:
    """g^power = rhs, with rhs lead-reduced (every monomial has g-exponent
    below power)."""

    gen: str
    power: int
    rhs: dict


class RingElement:
    """Normal-form F_l-linear combination of monomials of one presentation."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent, terms):
        self.parent = parent
        self.terms = terms  # exponent tuple -> coeff in 1..l-1; kept normal

    def _check(self, other):
        if self.parent is not other.parent:
            raise MixedPrimes("elements of different presentations")

    def __add__(self, other):
        self._check(other)
        ell = self.parent.prime
        terms = dict(self.terms)
        for m, c in other.terms.items():
            new = (terms.get(m, 0) + c) % ell
            if new:
                terms[m] = new
            else:
                terms.pop(m, None)
        return RingElement(self.parent, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        ell = self.parent.prime
        c %= ell
        if c == 0:
            return RingElement(self.parent, {})
        return RingElement(self.parent, {m: (c * v) % ell for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        return self.parent.multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a ring element")
        result = self.parent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.parent is other.parent
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_homogeneous(self):
        degs = {self.parent.monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Common degree of the terms, None for zero or mixed elements."""
        degs = {self.parent.monomial_degree(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def homogeneous_components(self):
        out = {}
        for m, c in self.terms.items():
            d = self.parent.monomial_degree(m)
            out.setdefault(d, {})[m] = c
        return {d: RingElement(self.parent, t) for d, t in sorted(out.items())}

    def monomials(self):
        return sorted(self.terms)

    def render(self):
        return self.parent.render_element(self)

    def __repr__(self):
        return "<RingElement %s>" % self.render()


@dataclass(frozen=True)
class TwistedClass:
    """A homogeneous class with its degree, Tate twist, and (for cycle
    classes) the codimension it came from."""

    value: RingElement
    degree: int
    twist: int = 0
    codim: Optional[int] = None

    def __post_init__(self):
        p = self.value.parent
        for m in self.value.terms:
            if p.monomial_degree(m) != self.degree:
                raise NonHomogeneousInput(
                    "monomial %s has degree %d, class declared %d"
                    % (p.render_monomial(m), p.monomial_degree(m), self.degree)
                )
            if p.prime > 2 and (p.monomial_twist(m) - self.twist) % (p.prime - 1):
                raise NonHomogeneousInput(
                    "monomial %s has twist %d != %d mod %d"
                    % (p.render_monomial(m), p.monomial_twist(m), self.twist, p.prime - 1)
                )


class RingPresentation:
    """Immutable presented algebra; all heavy state is caching."""

    def __init__(self, prime, generators, rules=(), omega=None):
        _require_prime(prime)
        self.prime = prime
        self.generators = tuple(generators)
        self.omega = omega
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.index = {n: i for i, n in enumerate(names)}
        self.n = len(names)
        self._odd = tuple(i for i, g in enumerate(self.generators) if g.parity == "odd")
        for g in self.generators:
            if g.degree < 1:
                raise ValueError("generator %s must have positive degree" % g.name)
            if g.parity not in ("even", "odd"):
                raise ValueError("parity must be even or odd")
            if g.parity == "odd" and prime == 2:
                raise ValueError("odd-parity generators need an odd prime")
            if prime > 2 and g.parity != ("odd" if g.degree % 2 else "even"):
                raise ValueError(
                    "generator %s: parity must match degree mod 2 at odd primes" % g.name
                )
        if omega is not None:
            if omega not in self.index:
                raise OmegaUndeclared("omega names undeclared generator %r" % omega)
            if self.generators[self.index[omega]].degree != 1:
                raise OmegaUndeclared("omega must have degree 1")

        self.rules = {}
        for r in rules:
            if r.gen not in self.index:
                raise ValueError("rule on undeclared generator %r" % r.gen)
            gi = self.index[r.gen]
            if gi in self.rules:
                raise ValueError("two rules on generator %r" % r.gen)
            if r.power < 2:
                raise ValueError("rule power must be >= 2")
            self.rules[gi] = (r.power, dict(r.rhs))
        self._reduce_cache = {}
        self._reducing = set()
        self._steps = 0
        self._total_cache = {}
        self._beta_cache = {}
        self._gen_totals = [None] * self.n
        # validate rules now that reduction is available
        g_by_i = self.generators
        for gi, (k, rhs) in self.rules.items():
            lead_deg = k * g_by_i[gi].degree
            lead_twist = k * g_by_i[gi].twist
            for m, c in rhs.items():
                if len(m) != self.n:
                    raise ValueError("rule rhs monomial of wrong width")
                if m[gi] >= k:
                    raise RuleNonTermination(
                        "rule %s^%d has a right side not lead-reduced"
                        % (g_by_i[gi].name, k)
                    )
                if self.monomial_degree(m) != lead_deg:
                    raise NonHomogeneousInput("rule on %s is not degree-homogeneous" % g_by_i[gi].name)
                if prime > 2 and (self.monomial_twist(m) - lead_twist) % (prime - 1):
                    raise NonHomogeneousInput("rule on %s is not twist-homogeneous" % g_by_i[gi].name)
            if g_by_i[gi].parity == "odd" and any(c % prime for c in rhs.values()):
                raise ValueError("odd-parity generator %s already squares to zero" % g_by_i[gi].name)
        # normalize declared actions into RingElements
        self._action = []
        for g in self.generators:
            comp = {}
            for key, raw in (g.action or {}).items():
                k = 1 if (key == "b" and prime == 2) else key
                if k == "b":
                    comp["b"] = self.element(raw)
                    self._validate_component(g, comp["b"], g.degree + 1)
                    continue
                if not isinstance(k, int) or k < 1:
                    raise ValueError("bad action key %r on %s" % (key, g.name))
                top = g.degree if prime == 2 else g.degree // 2
                if k > top:
                    raise ValueError(
                        "action component %d on %s lies above instability" % (k, g.name)
                    )
                shift = k if prime == 2 else 2 * k * (prime - 1)
                comp[k] = self.element(raw)
                self._validate_component(g, comp[k], g.degree + shift)
            self._action.append(comp)

    # ------------------------------------------------------------- structure

    def _validate_component(self, g, elt, expected_degree):
        for m in elt.terms:
            if self.monomial_degree(m) != expected_degree:
                raise NonHomogeneousInput(
                    "action on %s: component has degree %d, expected %d"
                    % (g.name, self.monomial_degree(m), expected_degree)
                )
            if self.prime > 2 and (self.monomial_twist(m) - g.twist) % (self.prime - 1):
                raise NonHomogeneousInput(
                    "action on %s: component twist %d != %d mod %d"
                    % (g.name, self.monomial_twist(m), g.twist, self.prime - 1)
                )

    def monomial_degree(self, m):
        return sum(e * g.degree for e, g in zip(m, self.generators))

    def monomial_twist(self, m):
        return sum(e * g.twist for e, g in zip(m, self.generators))

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return RingElement(self, {(0,) * self.n: 1})

    def gen(self, name, power=1):
        gi = self.index[name]
        exps = [0] * self.n
        exps[gi] = power
        return self.element({tuple(exps): 1})

    def element(self, raw):
        """Build an element from a raw dict exponent-tuple -> int, reducing
        to normal form."""
        if isinstance(raw, RingElement):
            return raw
        terms = {}
        for m, c in raw.items():
            if not c % self.prime:
                continue
            if len(m) != self.n:
                raise ValueError("monomial of width %d in %d-generator ring" % (len(m), self.n))
            self._addmul(terms, c, self._reduce(tuple(m)))
        return RingElement(self, terms)

    # ----------------------------------------------------------- arithmetic

    def _koszul_sign(self, m1, m2):
        # sign from moving odd factors of m1 past lower-index odd factors of m2
        swaps = 0
        for i in self._odd:
            if not m1[i]:
                continue
            for j in self._odd:
                if j >= i:
                    break
                swaps += m1[i] * m2[j]
        return -1 if swaps % 2 else 1

    def _mul_monomials(self, m1, m2):
        """(sign, combined exponents) or (0, None) when an odd square appears."""
        for i in self._odd:
            if m1[i] + m2[i] > 1:
                return 0, None
        sign = self._koszul_sign(m1, m2) if self._odd else 1
        return sign, tuple(map(add, m1, m2))

    def _reduce(self, m):
        """Normal form of a single raw monomial, as a terms dict."""
        cached = self._reduce_cache.get(m)
        if cached is not None:
            return cached
        for i in self._odd:
            if m[i] > 1:
                self._reduce_cache[m] = {}
                return {}
        hit = None
        for gi, (k, rhs) in self.rules.items():
            if m[gi] >= k:
                hit = (gi, k, rhs)
                break
        if hit is None:
            self._reduce_cache[m] = {m: 1}
            return {m: 1}
        if m in self._reducing:
            raise RuleNonTermination("rule cycle at monomial %r" % (m,))
        if not self._reducing:
            self._steps = 0  # the bound applies to one top-level reduction
        self._steps += 1
        if self._steps > _MAX_REDUCTIONS:
            raise RuleNonTermination("rewriting exceeded %d steps" % _MAX_REDUCTIONS)
        self._reducing.add(m)
        try:
            gi, k, rhs = hit
            rest = list(m)
            rest[gi] -= k
            rest = tuple(rest)
            out = {}
            for rm, rc in rhs.items():
                if not rc % self.prime:
                    continue
                sign, comb = self._mul_monomials(rest, rm)
                if sign:
                    self._addmul(out, sign * rc, self._reduce(comb))
        finally:
            self._reducing.discard(m)
        self._reduce_cache[m] = out
        return out

    def _addmul(self, acc, c, a, b=None):
        """acc += c*a*b in place, on terms dicts (acc += c*a when b is None);
        returns acc.  Products are reduced to normal form."""
        ell = self.prime
        if b is None:
            for m, v in a.items():
                new = (acc.get(m, 0) + c * v) % ell
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
            return acc
        mul, reduced = self._mul_monomials, self._reduce_cache.get
        for m1, c1 in a.items():
            c1 *= c
            for m2, c2 in b.items():
                sign, comb = mul(m1, m2)
                if not sign:
                    continue
                cc = sign * c1 * c2 % ell
                if not cc:
                    continue
                nf = reduced(comb)
                if nf is None:
                    nf = self._reduce(comb)
                for red, rc in nf.items():
                    new = (acc.get(red, 0) + cc * rc) % ell
                    if new:
                        acc[red] = new
                    else:
                        acc.pop(red, None)
        return acc

    def multiply(self, a, b):
        return RingElement(self, self._addmul({}, 1, a.terms, b.terms))

    # -------------------------------------------------------------- actions

    def _gen_total(self, gi):
        """(components, top) of the total operation on generator gi: the
        components 0, 1, ... as terms dicts indexed by operation degree
        (Sq^i or P^i), and the instability bound top above which all vanish.
        The list stops before the first undeclared component, so it is
        shorter than top + 1 exactly when one is missing; computed once."""
        cached = self._gen_totals[gi]
        if cached is None:
            g = self.generators[gi]
            top = g.degree if self.prime == 2 else g.degree // 2
            comp = self._action[gi]
            out = [self.gen(g.name).terms]
            for i in range(1, top + 1):
                if i in comp:
                    out.append(comp[i].terms)
                elif i == top and (self.prime == 2 or g.degree % 2 == 0):
                    # instability: the operation dual to the degree squares / l-th
                    # powers the class; for odd-degree generators at odd primes
                    # no component is forced, so it must be declared
                    out.append((self.gen(g.name) ** self.prime).terms)
                else:
                    break
            cached = self._gen_totals[gi] = (out, top)
        return cached

    def _total_on_monomial(self, m, k):
        """Components 0..min(k, instability bound) of the total Sq (l=2) or
        total P (odd l) on a raw monomial, as a list of terms dicts.

        The cache holds one entry per monomial: the longest prefix of
        components computed so far, extended in place when a later request
        reaches further.  The Cartan formula is applied multiplicatively,
        total(m) = total(m - e_g) * total(g) with g the last generator of m,
        so factors are taken in generator-index order and need no Koszul
        sign at odd primes.  A missing action component raises
        MissingActionComponent only when component k reaches it, naming the
        first such generator in index order."""
        cache = self._total_cache
        entry = cache.get(m)
        if entry is not None and len(entry) > k:
            return entry
        # walk down m, m - e_g, ... to a monomial cached far enough (or the
        # unit), then build the prefixes back up
        chain = []
        deg = self.monomial_degree(m)
        while True:
            cap = min(k, deg if self.prime == 2 else deg // 2)
            entry = cache.get(m)
            if entry is not None and len(entry) > cap:
                break
            if not deg:
                entry = cache[m] = [{m: 1}]
                break
            gi = max(i for i, e in enumerate(m) if e)
            chain.append((m, gi, cap))
            m = m[:gi] + (m[gi] - 1,) + m[gi + 1:]
            deg -= self.generators[gi].degree
        for m, gi, cap in reversed(chain):
            sub = entry
            comps, top = self._gen_total(gi)
            if len(comps) <= min(cap, top):
                raise MissingActionComponent(
                    "component %d of the action on %s is needed but not declared"
                    % (len(comps), self.generators[gi].name)
                )
            entry = cache.setdefault(m, [])
            for i in range(len(entry), cap + 1):
                acc = {}
                for j in range(max(0, i - len(sub) + 1), min(i, top) + 1):
                    self._addmul(acc, 1, sub[i - j], comps[j])
                entry.append(acc)
        return entry

    def _beta_monomial(self, m):
        """Bockstein of one monomial at an odd prime, as a terms dict
        (signed derivation)."""
        cached = self._beta_cache.get(m)
        if cached is not None:
            return cached
        out = {}
        gi = next((i for i, e in enumerate(m) if e), None)
        if gi is not None:
            g = self.generators[gi]
            e = m[gi]
            rest = m[:gi] + (0,) + m[gi + 1:]
            comp = self._action[gi]
            if "b" not in comp:
                raise MissingActionComponent(
                    "Bockstein of generator %s is needed but not declared" % g.name
                )
            # beta(g^e * rest) = beta(g^e)*rest + (-1)^{deg(g^e)} g^e * beta(rest)
            # where beta(g^e) = [e] beta(g) g^{e-1} and [e] alternates for
            # odd-degree g (moving beta(g) past g flips a sign per factor)
            count = e if g.degree % 2 == 0 else e % 2
            g_before = self._reduce(_power_tuple(self.n, gi, e - 1))
            head = self._addmul({}, count, comp["b"].terms, g_before)
            self._addmul(out, 1, head, self._reduce(rest))
            sign = -1 if (e * g.degree) % 2 else 1
            g_power = self._reduce(_power_tuple(self.n, gi, e))
            self._addmul(out, sign, g_power, self._beta_monomial(rest))
        self._beta_cache[m] = out
        return out

    def apply_letter(self, letter, x):
        """Apply one word letter (int i for Sq^i / P^i, 0 for the odd-prime
        Bockstein) to a RingElement."""
        out = {}
        if self.prime > 2 and letter == 0:
            for m, c in x.terms.items():
                self._addmul(out, c, self._beta_monomial(m))
            return RingElement(self, out)
        for m, c in x.terms.items():
            total = self._total_on_monomial(m, letter)
            if letter < len(total):
                self._addmul(out, c, total[letter])
        return RingElement(self, out)

    def apply_word(self, word, x):
        for letter in reversed(word):
            x = self.apply_letter(letter, x)
        return x

    def apply_op_value(self, op, x):
        """Apply a SteenrodElement (or operation text) to a RingElement."""
        if isinstance(op, str):
            op = parse_operation(op, self.prime)
        if op.prime != self.prime:
            raise MixedPrimes("operation at prime %d on ring at prime %d" % (op.prime, self.prime))
        out = {}
        for mono, coeff in op.terms.items():
            self._addmul(out, coeff, self.apply_word(mono.word, x).terms)
        return RingElement(self, out)

    def apply_op(self, op, x):
        """Apply a degree-homogeneous operation to a TwistedClass."""
        if isinstance(op, str):
            op = parse_operation(op, self.prime)
        if not op.is_homogeneous():
            raise NonHomogeneousInput("apply_op needs a degree-homogeneous operation")
        value = self.apply_op_value(op, x.value)
        shift = op.degree() if op.terms else 0
        return TwistedClass(value, x.degree + shift, x.twist)

    def total_sq(self, x):
        """All components of the total Sq (or total P at odd primes) of a
        homogeneous element, as a dict operation-degree -> RingElement.

        One pass: each monomial's cached Cartan prefix (see
        _total_on_monomial) is asked for once, up to its own instability
        bound.  A missing action component raises the error the
        letter-by-letter order meets first: the lowest component needed."""
        cap = max((self.monomial_degree(m) for m in x.terms), default=0)
        if self.prime > 2:
            cap //= 2
        comps = [{} for _ in range(cap + 1)]
        try:
            for m, c in x.terms.items():
                for acc, t in zip(comps, self._total_on_monomial(m, cap)):
                    self._addmul(acc, c, t)
        except MissingActionComponent:
            for i in range(1, cap + 1):
                self.apply_letter(i, x)
            raise
        return {i: RingElement(self, t) for i, t in enumerate(comps) if t}

    def bockstein(self, x):
        if self.prime == 2:
            return self.apply_letter(1, x)
        return self.apply_letter(0, x)

    def bockstein_twisted(self, x: TwistedClass) -> TwistedClass:
        """Twisted Bockstein d_r = b + r*omega on a class of twist r."""
        r = x.twist % self.prime
        beta = self.bockstein(x.value)
        if r and x.value:
            if self.omega is None:
                raise OmegaUndeclared("twisted Bockstein on twist %d needs omega" % x.twist)
            beta = beta + self.gen(self.omega).scale(r) * x.value
        return TwistedClass(beta, x.degree + 1, x.twist)

    # ------------------------------------------------------------ inspection

    def basis_of_degree(self, degree, twist=None):
        """Normal-form monomials of the given degree (and twist residue,
        when one is supplied), sorted lexicographically."""
        out = []
        caps = []
        for gi, g in enumerate(self.generators):
            cap = degree // g.degree
            if g.parity == "odd":
                cap = min(cap, 1)
            if gi in self.rules:
                cap = min(cap, self.rules[gi][0] - 1)
            caps.append(cap)

        def rec(gi, left, exps):
            if gi == self.n:
                if left == 0:
                    out.append(tuple(exps))
                return
            g = self.generators[gi]
            for e in range(min(caps[gi], left // g.degree) + 1):
                exps.append(e)
                rec(gi + 1, left - e * g.degree, exps)
                exps.pop()

        rec(0, degree, [])
        if twist is not None and self.prime > 2:
            out = [m for m in out if (self.monomial_twist(m) - twist) % (self.prime - 1) == 0]
        return sorted(out)

    def check_action_consistency(self, max_degree):
        """Re-derive every rewrite rule under all operations of degree up to
        max_degree and compare both evaluation paths; also compare declared
        top action components against the l-th power.  Returns a
        ConsistencyReport."""
        failures = []
        for gi, (k, rhs) in sorted(self.rules.items()):
            g = self.generators[gi]
            lead = _power_tuple(self.n, gi, k)
            rhs_elt = self.element(rhs)
            cap = max_degree if self.prime == 2 else max_degree // (2 * (self.prime - 1))
            # the Cartan formula on the raw lead follows the other side of the rule
            total = self._total_on_monomial(lead, cap)
            for i in range(1, cap + 1):
                via_lead = RingElement(self, total[i] if i < len(total) else {})
                via_rhs = self.apply_letter(i, rhs_elt)
                if via_lead != via_rhs:
                    op = "Sq^%d" % i if self.prime == 2 else "P^%d" % i
                    failures.append(
                        "%s(%s^%d): lead gives %s, rhs gives %s"
                        % (op, g.name, k, via_lead.render(), via_rhs.render())
                    )
            if self.prime > 2:
                via_lead = RingElement(self, self._beta_monomial(lead))
                via_rhs = self.bockstein(rhs_elt)
                if via_lead != via_rhs:
                    failures.append(
                        "b(%s^%d): lead gives %s, rhs gives %s"
                        % (g.name, k, via_lead.render(), via_rhs.render())
                    )
        for gi, g in enumerate(self.generators):
            top = g.degree if self.prime == 2 else (g.degree // 2 if g.degree % 2 == 0 else None)
            if top is None or top == 0:
                continue
            declared = self._action[gi].get(top)
            if declared is not None and declared != self.gen(g.name) ** self.prime:
                failures.append(
                    "top action on unstable %s differs from its %d-th power"
                    % (g.name, self.prime)
                )
        return ConsistencyReport(not failures, tuple(failures))

    # -------------------------------------------------------------- printing

    def render_monomial(self, m):
        if not any(m):
            return "1"
        parts = []
        for gi, e in enumerate(m):
            if not e:
                continue
            name = self.generators[gi].name
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts)

    def render_element(self, x):
        if not x.terms:
            return "0"
        parts = []
        for m in sorted(x.terms, key=lambda m: (self.monomial_degree(m), m)):
            c = x.terms[m]
            body = self.render_monomial(m)
            if c == 1:
                parts.append(body)
            elif body == "1":
                parts.append("%d" % c)
            else:
                parts.append("%d*%s" % (c, body))
        return " + ".join(parts)


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    failures: tuple


def _power_tuple(n, gi, e):
    exps = [0] * n
    exps[gi] = e
    return tuple(exps)
