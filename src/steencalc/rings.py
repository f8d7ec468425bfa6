"""Finitely presented graded-commutative F_l-algebras carrying Steenrod actions.

A presentation fixes a prime l, an ordered list of generators (degree, Tate
twist, Koszul parity, declared operation action, optional Frobenius
data), and rewrite rules of the shape g^k = lower-order terms.
Elements are kept in normal form: no monomial divisible by a rule's lead
power, odd-parity exponents at most 1.

Internally a monomial is one int: a _FIELD_BITS-bit field per generator,
generator 0 most significant, under a top field (_tag_shift) holding its
degree.  Each generator's unit carries its degree, so a product (a sum of
ints), a homogeneous rule rewrite and the Frobenius keep every degree exact,
and int order is (degree, exponent tuple) order.  Exponents stay below
_FIELD_LIMIT, so adding two never reaches a field's top (guard) bit; adding
the presentation's offsets sets it exactly where an exponent reaches its
rule's power (2 for odd generators, else the limit, which raises
InvalidArgument).  Tuples remain the surface of terms, element(),
monomial_degree, render_monomial and basis_of_degree.

Operations act through the Cartan formula from the declared generator
actions, by one recursion on raw monomials with one cached total per
monomial.  The total on a monomial that is not a generator power is one
product: the total on its prefix (the monomial without its last, lowest-field
generator power g^e) times the total on g^e, in generator order (so with no
Koszul sign); monomials that share a prefix share its cached total.  When
l = 2 or g has even degree, total(g^(lq+r)) = F(total(g^q)) * total(g^r),
where the Frobenius F multiplies every packed exponent by l and keeps the
coefficient (c^l = c): it is exact on the commutative even part, and sends
a monomial with an odd factor to zero.  Below l, or for an odd-parity g
(exponent at most 1, or a raw rule lead), g^e is split in halves, g^(e//2)
times g^(e - e//2), so the products grow with log e, not e.  Component i
(Sq^i or P^i) of the total on m is its part of degree deg(m) + i (l = 2) or
deg(m) + 2i(l - 1), so one product capped at a degree makes all components
at once, dropping through the guard test every term above the requested
one; total_sq and apply_letter read each term's component from its degree
tag.  _addmul is the one mod-l product; a Frobenius image adds its l-th
powers whose guard test is clear as they are, and reduces the others.

Total operations are finite degreewise, so no truncation is needed beyond
the requested component; missing low components of a generator's action
raise MissingActionComponent only when a computation actually needs them,
while the top component defaults to the l-th power (instability) and
everything above it is zero.
"""

from __future__ import annotations

import math
import struct
from operator import mul

from .errors import (
    InvalidArgument,
    MissingActionComponent,
    MixedPrimes,
    NonHomogeneousInput,
    OmegaUndeclared,
    RuleNonTermination,
    SteencalcError,
    UnknownGenerator,
)
from .record import Record
from .steenrod import _require_int, _require_prime

_MAX_REDUCTIONS = 1_000_000
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD_LIMIT = 1 << (_FIELD_BITS - 2)
_GUARD = 1 << (_FIELD_BITS - 1)


class GeneratorSpec(Record):
    """One ring generator.

    action maps operation components to polynomials (raw exponent-tuple
    dicts before the presentation is built): integer keys are Sq^i for l=2
    and P^i for odd l, and the key "b" is the Bockstein (for l=2 it is an
    alias of 1, so only one of the two may be given).  Components above the
    degree (resp. half degree for P) are rejected; the top one defaults to
    the l-th power when left out.
    """

    name: str
    degree: int
    twist: int = 0
    parity: str = "even"
    action: dict = {}
    frobenius_exponent: int | None = None

    def __init__(self, name, degree, twist=0, parity="even", action=None,
                 frobenius_exponent=None):  # built for every generator of every ring
        self.name, self.degree, self.twist = name, degree, twist
        self.parity, self.action = parity, {} if action is None else action
        self.frobenius_exponent = frobenius_exponent


class RewriteRule(Record):
    """g^power = rhs, with rhs lead-reduced (every monomial has g-exponent
    below power)."""

    gen: str
    power: int
    rhs: dict

    def __init__(self, gen, power, rhs):  # built for every rule of every ring
        self.gen, self.power, self.rhs = gen, power, rhs


class RingElement:
    """Normal-form F_l-linear combination of monomials of one presentation,
    kept as a dict packed monomial -> coeff in 1..l-1.  `terms` builds its
    exponent-tuple view on each read; RingElement(parent, terms) takes one
    and normalises it, as parent.element(terms) does."""

    __slots__ = ("parent", "_packed")

    def __init__(self, parent, terms):
        self.parent = parent
        self._packed = parent.element(terms)._packed

    @property
    def terms(self):
        unpack = self.parent._unpack
        return {unpack(m): c for m, c in self._packed.items()}

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self.parent._own(other)
        return self.parent._wrap(self.parent._addmul(dict(self._packed), 1, other._packed))

    def __sub__(self, other):
        return self + other.scale(-1) if isinstance(other, RingElement) else NotImplemented

    def scale(self, c):
        return self.parent._wrap(self.parent._addmul({}, _require_int(c), self._packed))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.parent.multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a ring element")
        result, base = self.parent.one(), self
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
            and self._packed == other._packed
        )

    def __hash__(self):
        return hash(frozenset(self._packed.items()))

    def __bool__(self):
        return bool(self._packed)

    def is_homogeneous(self):
        return self.degree() is not None or not self._packed

    def degree(self):
        """Common degree of the terms, None for zero or mixed elements."""
        degs = {m >> self.parent._tag_shift for m in self._packed}
        return degs.pop() if len(degs) == 1 else None

    def monomials(self):
        return sorted(map(self.parent._unpack, self._packed))

    def render(self):
        return self.parent.render_element(self)

    def __repr__(self):
        return "<RingElement %s>" % self.render()


def check_generators(prime, generators, omega=None):
    """A presentation's checks on prime, generators and omega, made first.
    An error about one generator carries its spec as the error's `item`."""
    _require_prime(prime)
    names = [g.name for g in generators]
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    for g in generators:
        try:
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
        except ValueError as exc:
            exc.item = g
            raise
    if omega is not None:
        if omega not in names:
            raise OmegaUndeclared("omega names undeclared generator %r" % omega)
        if generators[names.index(omega)].degree != 1:
            raise OmegaUndeclared("omega must have degree 1")


class RingPresentation:
    """Immutable presented algebra; all heavy state is caching.  An error
    about one generator, rule or action carries, as the error's `item`, its
    GeneratorSpec, its RewriteRule, or (spec, action key)."""

    def __init__(self, prime, generators, rules=(), omega=None):
        self.generators = tuple(generators)
        check_generators(prime, self.generators, omega)
        self.prime = prime
        self.omega = omega
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        self.n = len(self.generators)
        self._degrees = tuple(g.degree for g in self.generators)
        self._twists = tuple(g.twist for g in self.generators)
        self._shifts = tuple(range((self.n - 1) * _FIELD_BITS, -1, -_FIELD_BITS))
        self._tag_shift = self.n * _FIELD_BITS  # the degree field, above the generators
        self._low = (1 << self._tag_shift) - 1  # the generator fields
        bits = [1 << s for s in self._shifts]
        self._units = tuple(b + (d << self._tag_shift) for b, d in zip(bits, self._degrees))
        self._fields = struct.Struct(">%dI" % self.n)  # "I": one unsigned _FIELD_BITS = 32 field
        self._odd_bits = sum(b for b, g in zip(bits, self.generators) if g.parity == "odd")
        self._odd_high = self._odd_bits * (_FIELD_MASK - 1)  # odd exponents above 1
        self._guard = _GUARD * sum(bits)
        self._over = _FIELD_LIMIT * sum(bits)
        # sets a field's guard bit where l times its exponent reaches the limit
        self._frobenius_over = (_GUARD + _FIELD_LIMIT // -prime) * sum(bits)
        # the degree field's guard bit: above the degree of any product of two
        # monomials, whose exponents are below 2 * _FIELD_LIMIT
        self._tag_top = 1 << (2 * _FIELD_LIMIT * sum(self._degrees)).bit_length()
        self._step = 1 if prime == 2 else 2 * (prime - 1)  # the degree of Sq^1 or P^1

        self.rules = {}
        self._reduce_cache = {}
        self._total_cache = {}
        self._beta_cache = {}
        g_by_i = self.generators
        for r in rules:
            try:
                if r.gen not in self.index:
                    raise ValueError("rule on undeclared generator %r" % r.gen)
                gi = self.index[r.gen]
                if gi in self.rules:
                    raise ValueError("two rules on generator %r" % r.gen)
                k, rhs = r.power, dict(r.rhs)
                if k < 2:
                    raise ValueError("rule power must be >= 2")
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
            except (ValueError, SteencalcError) as exc:
                exc.item = r
                raise
            self.rules[gi] = (k, rhs)
        # packed rules, and per field the offset that sets its guard bit once
        # the exponent reaches the rule's power (2 for odd generators)
        self._rules = tuple((self._shifts[gi], k, k * self._units[gi],
                             {self._pack(m): c % prime for m, c in rhs.items() if c % prime})
                            for gi, (k, rhs) in self.rules.items())
        caps = [2 if g.parity == "odd" else self.rules.get(gi, (_FIELD_LIMIT,))[0]
                for gi, g in enumerate(g_by_i)]
        self._offsets = sum((_GUARD - min(c, _FIELD_LIMIT)) * b for c, b in zip(caps, bits))
        # normalize declared actions into RingElements; per generator, keep
        # the first component neither declared nor forced (inf if none):
        # instability forces the top one to the l-th power, except for
        # odd-degree generators at odd primes
        self._action, self._missing = [], []
        for g in self.generators:
            comp, top = {}, g.degree if prime == 2 else g.degree // 2
            for key, raw in (g.action or {}).items():
                k = 1 if (key == "b" and prime == 2) else key
                try:
                    if k in comp:
                        raise ValueError("action on %s declares both b and Sq^1" % g.name)
                    if k == "b":
                        shift = 1
                    elif not isinstance(k, int) or k < 1:
                        raise ValueError("bad action key %r on %s" % (key, g.name))
                    elif k > top:
                        raise ValueError(
                            "action component %d on %s lies above instability" % (k, g.name)
                        )
                    else:
                        shift = k * self._step
                    comp[k] = self.element(raw)
                    self._validate_component(g, comp[k], g.degree + shift)
                except (ValueError, SteencalcError) as exc:
                    exc.item = (g, key)
                    raise
            self._action.append(comp)
            missing = 1
            while missing in comp or missing == top and (prime == 2 or g.degree % 2 == 0):
                missing += 1
            self._missing.append(missing if missing <= top else math.inf)

    # ------------------------------------------------------------- structure

    def _validate_component(self, g, elt, expected_degree):
        for p in elt._packed:
            degree = p >> self._tag_shift
            if degree != expected_degree:
                raise NonHomogeneousInput(
                    "action on %s: component has degree %d, expected %d"
                    % (g.name, degree, expected_degree)
                )
            if self.prime > 2 and (self.monomial_twist(self._unpack(p)) - g.twist) % (self.prime - 1):
                raise NonHomogeneousInput(
                    "action on %s: component twist %d != %d mod %d"
                    % (g.name, self.monomial_twist(self._unpack(p)), g.twist, self.prime - 1)
                )

    def monomial_degree(self, m):
        return sum(map(mul, m, self._degrees))

    def monomial_twist(self, m):
        return sum(map(mul, m, self._twists))

    def _pack(self, m):
        """The packed int of an exponent tuple, its degree in the tag: the
        fields pack through the presentation's Struct, as _unpack unpacks."""
        if len(m) != self.n:
            raise ValueError("monomial of width %d in %d-generator ring" % (len(m), self.n))
        try:
            packed = int.from_bytes(self._fields.pack(*m), "big")
        except struct.error:  # a negative, too large or non-int exponent
            packed = self._guard
        if packed & (self._guard | self._over):
            e = next(e for e in m if not (isinstance(e, int) and 0 <= e < _FIELD_LIMIT))
            raise InvalidArgument("exponent %s outside 0..%d" % (e, _FIELD_LIMIT - 1))
        return packed | self.monomial_degree(m) << self._tag_shift

    def _too_large(self, exps):
        """The error for a monomial, given as exponents, past _FIELD_LIMIT."""
        return InvalidArgument("monomial %s has an exponent of %d or more"
                               % (self.render_monomial(exps), _FIELD_LIMIT))

    def _unpack(self, m):
        return self._fields.unpack((m & self._low).to_bytes(self._fields.size, "big"))

    def _wrap(self, packed):
        """The element with this packed terms dict, taken as normal."""
        x = object.__new__(RingElement)
        x.parent, x._packed = self, packed
        return x

    def zero(self):
        return self._wrap({})

    def one(self):
        return self._wrap({0: 1})

    def gen(self, name, power=1):
        if not (isinstance(power, int) and 0 <= power < _FIELD_LIMIT):
            raise InvalidArgument("exponent %s outside 0..%d" % (power, _FIELD_LIMIT - 1))
        if name not in self.index:
            raise UnknownGenerator("unknown generator %r" % (name,))
        return self._wrap(dict(self._reduce(power * self._units[self.index[name]])))

    def element(self, raw):
        """Build an element from a raw dict exponent-tuple -> int, reducing
        to normal form: a monomial whose guard test is clear is added as it
        is.  A coefficient that is not an int raises InvalidArgument."""
        if isinstance(raw, RingElement):
            self._own(raw)
            return raw
        ell, terms, offsets, guard = self.prime, {}, self._offsets, self._guard
        for m, c in raw.items():
            if _require_int(c) % ell:
                p = self._pack(m)
                if (p + offsets) & guard:
                    self._addmul(terms, c, self._reduce(p))
                    continue
                new = (terms.get(p, 0) + c) % ell
                if new:
                    terms[p] = new
                else:
                    terms.pop(p, None)
        return self._wrap(terms)

    # ----------------------------------------------------------- arithmetic

    def _reduce(self, m):
        """Normal form of a single raw packed monomial, as a terms dict.

        Each round rewrites every pending monomial once, merging equal
        results, until all are normal; at most _MAX_REDUCTIONS rewrites."""
        cached = self._reduce_cache.get(m)
        if cached is not None:
            return cached
        ell, odd_bits = self.prime, self._odd_bits
        out, pending, steps = {}, {m: 1}, 0
        while pending:
            rewritten = {}
            for p, c in pending.items():
                if p & self._over:
                    raise self._too_large(self._unpack(p))
                c %= ell
                if not c or p & self._odd_high:
                    continue
                for shift, k, lead, rhs in self._rules:
                    if p >> shift & _FIELD_MASK >= k:
                        break
                else:
                    out[p] = out.get(p, 0) + c
                    continue
                steps += 1
                if steps > _MAX_REDUCTIONS:
                    raise RuleNonTermination("rewriting exceeded %d steps" % _MAX_REDUCTIONS)
                rest = p - lead
                odd = rest & odd_bits
                for rm, rc in rhs.items():
                    if not odd & rm:
                        sign = -1 if _swap_parity(odd, rm & odd_bits) else 1
                        rewritten[rest + rm] = rewritten.get(rest + rm, 0) + sign * c * rc
            pending = rewritten
        out = self._reduce_cache[m] = {p: c % ell for p, c in out.items() if c % ell}
        return out

    def _addmul(self, acc, c, a, b=None, cap=None):
        """acc += c*a*b in place, on packed terms dicts (acc += c*a when b is
        None), mod l and without zero terms; returns acc.  Products are
        reduced to normal form: a product whose guard test is clear is
        already normal and is added directly.  With a cap, the guard test
        also drops every product of degree above cap: the degree field's
        guard bit, _tag_top, lies above every product's degree, so a cap at
        or past it drops nothing."""
        ell = self.prime
        if b is None:
            for m, v in a.items():
                new = (acc.get(m, 0) + c * v) % ell
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
            return acc
        odd, shift, top = self._odd_bits, self._tag_shift, self._tag_top
        if cap is None or cap >= top:
            cap = top - 1
        offsets = self._offsets + (top - 1 - cap << shift)
        guard = self._guard + (top << shift)
        above = cap + 1 << shift
        for m1, c1 in a.items():
            c1 *= c
            o1 = m1 & odd
            for m2, c2 in b.items():
                if o1 and m2 & odd:
                    if o1 & m2:
                        continue  # an odd square
                    if _swap_parity(o1, m2 & odd):
                        c2 = -c2
                m = m1 + m2
                if (m + offsets) & guard:
                    if m < above:
                        self._addmul(acc, c1 * c2, self._reduce_cache.get(m) or self._reduce(m))
                    continue
                new = (acc.get(m, 0) + c1 * c2) % ell
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
        return acc

    def _own(self, x):
        """Refuse an element, or a total class, of another presentation."""
        if x.parent is not self:
            raise MixedPrimes("elements of different presentations")

    def multiply(self, a, b):
        self._own(a)
        self._own(b)
        return self._wrap(self._addmul({}, 1, a._packed, b._packed))

    # -------------------------------------------------------------- actions

    def _split(self, packed):
        """A terms dict as degree -> terms dict, in increasing degree."""
        shift, parts = self._tag_shift, {}
        for m, c in packed.items():
            parts.setdefault(m >> shift, {})[m] = c
        return dict(sorted(parts.items()))

    def _frobenius(self, m, k):
        """F, as in the module docstring, of components 0..k of the total on
        a raw packed monomial of even degree.  F is injective on monomials,
        so an l-th power whose guard test is clear is added as it is and the
        others are reduced.  Raises InvalidArgument before a field would
        reach _FIELD_LIMIT (at l >= 5 it would carry into the next field)."""
        ell, shift, odd = self.prime, self._tag_shift, self._odd_bits
        offsets, guard = self._offsets, self._guard
        above, out = (m >> shift) + k * self._step + 1 << shift, {}
        for p, c in self._total(m, k).items():
            if p >= above or p & odd:
                continue
            if (p + self._frobenius_over) & guard:
                raise self._too_large([e * ell for e in self._unpack(p)])
            p *= ell
            if (p + offsets) & guard:
                self._addmul(out, c, self._reduce(p))
                continue
            new = (out.get(p, 0) + c) % ell
            if new:
                out[p] = new
            else:
                out.pop(p, None)
        return out

    def _total(self, m, k):
        """Components 0..min(k, instability bound) of the total Sq (l=2) or
        total P (odd l) on a raw packed monomial, as one terms dict in which
        component i is the part of degree deg(m) + i * _step, by the
        recursion of the module docstring.  Cached as (k, total), exact
        through k, or as (inf, total) once k reaches the bound, above which
        nothing lies.  A missing action component raises
        MissingActionComponent only when component k reaches it, naming the
        first such generator in index order: a prefix is asked for before
        its last power, and every power at the cap a product of all powers
        would give it, min(k, its own bound)."""
        cache = self._total_cache
        entry = cache.get(m)
        if entry is not None and entry[0] >= k:
            return entry[1]
        if not (k and m):  # component 0 alone, or the unit: m itself
            return self._reduce_cache.get(m) or self._reduce(m)
        ell, step, shift = self.prime, self._step, self._tag_shift
        gi = self.n - 1 - ((m & -m).bit_length() - 1) // _FIELD_BITS  # lowest field
        unit = self._units[gi]
        e = m >> self._shifts[gi] & _FIELD_MASK
        deg = m >> shift
        bound = deg if ell == 2 else deg // 2  # instability
        cap = min(k, bound)
        top = deg + cap * step  # the degree of component cap
        if m - e * unit:  # not a generator power: its prefix's total times g^e's
            total = self._addmul({}, 1, self._total(m - e * unit, cap), self._total(e * unit, cap), top)
        elif e > 1 and (e < ell or m & self._odd_bits):
            half = (e >> 1) * unit
            total = self._addmul({}, 1, self._total(half, cap), self._total(m - half, cap), top)
        elif self._missing[gi] <= cap:
            raise MissingActionComponent(
                "component %d of the action on %s is needed but not declared"
                % (self._missing[gi], self.generators[gi].name))
        elif e > 1:
            q, r = divmod(e, ell)
            total = self._frobenius(q * unit, cap // ell)
            if r:
                total = self._addmul({}, 1, total, self._total(r * unit, cap), top)
        else:
            comp, total = self._action[gi], {m: 1}
            for i in range(1, cap + 1):
                if i in comp:
                    total.update(comp[i]._packed)
                elif ell < _FIELD_LIMIT:
                    total.update(self._reduce(ell * m))  # the forced top component
                else:
                    raise self._too_large([ell if j == gi else 0 for j in range(self.n)])
        cache[m] = (k if k < bound else math.inf, total)
        return total

    def _beta_monomial(self, m):
        """Bockstein of one monomial at an odd prime, as a terms dict
        (signed derivation)."""
        cached = self._beta_cache.get(m)
        if cached is not None:
            return cached
        out = {}
        if m:
            low = m & self._low
            gi = self.n - 1 - (low.bit_length() - 1) // _FIELD_BITS  # highest field
            g = self.generators[gi]
            e = low >> self._shifts[gi]
            rest = m - e * self._units[gi]
            comp = self._action[gi]
            if "b" not in comp:
                raise MissingActionComponent(
                    "Bockstein of generator %s is needed but not declared" % g.name
                )
            # beta(g^e * rest) = beta(g^e)*rest + (-1)^{deg(g^e)} g^e * beta(rest)
            # where beta(g^e) = [e] beta(g) g^{e-1} and [e] alternates for
            # odd-degree g (moving beta(g) past g flips a sign per factor)
            count = e if g.degree % 2 == 0 else e % 2
            # (at e = 1, head is count * beta(g): no product with the unit)
            g_before = self._reduce((e - 1) * self._units[gi]) if e > 1 else None
            head = self._addmul({}, count, comp["b"]._packed, g_before) if comp["b"] else {}
            if rest and head:  # skip the products with an empty or a unit side
                head = self._addmul({}, 1, head, self._reduce(rest))
            out, beta_rest = head, self._beta_monomial(rest) if rest else {}
            if beta_rest:
                sign = -1 if (e * g.degree) % 2 else 1
                self._addmul(out, sign, self._reduce(m - rest), beta_rest)
        self._beta_cache[m] = out
        return out

    def apply_letter(self, letter, x):
        """Apply one word letter (int i for Sq^i / P^i, 0 for the odd-prime
        Bockstein) to a RingElement: of each monomial m's cached total, the
        terms of degree deg(m) + letter * _step, each added straight into
        the result."""
        self._own(x)
        ell, out, shift = self.prime, {}, self._tag_shift
        beta = ell > 2 and letter == 0
        for m, c in x._packed.items():
            if beta:
                self._addmul(out, c, self._beta_monomial(m))
                continue
            target = (m >> shift) + letter * self._step
            for p, v in self._total(m, letter).items():
                if p >> shift == target:
                    new = (out.get(p, 0) + c * v) % ell
                    if new:
                        out[p] = new
                    else:
                        out.pop(p, None)
        return self._wrap(out)

    def apply_word(self, word, x):
        self._own(x)  # the empty word applies no letter
        for letter in reversed(word):
            x = self.apply_letter(letter, x)
        return x

    def apply_op_value(self, op, x):
        """Apply a SteenrodElement to a RingElement."""
        if op.prime != self.prime:
            raise MixedPrimes("operation at prime %d on ring at prime %d" % (op.prime, self.prime))
        out = {}
        for word, coeff in op._words.items():
            self._addmul(out, coeff, self.apply_word(word, x)._packed)
        return self._wrap(out)

    def total_sq(self, x):
        """All components of the total Sq (or total P at odd primes) of an
        element, as a dict operation index -> RingElement (Sq^i or P^i of
        x); for an inhomogeneous x a component mixes degrees.  charclasses
        reads Cartan totals only through this method.

        One pass: each monomial m's cached total (_total) is asked for once,
        up to its instability bound, and each of its terms, of degree d, is
        added straight into component (d - deg(m)) / _step.  A missing action
        component raises the error that letter-by-letter order meets first."""
        self._own(x)
        ell, shift, step = self.prime, self._tag_shift, self._step
        cap = max((m >> shift for m in x._packed), default=0) // (2 if ell > 2 else 1)
        parts = {}
        try:
            for m, c in x._packed.items():
                d = m >> shift
                for p, v in self._total(m, cap).items():
                    i = ((p >> shift) - d) // step
                    part = parts.get(i) or parts.setdefault(i, {})
                    new = (part.get(p, 0) + c * v) % ell
                    if new:
                        part[p] = new
                    else:
                        part.pop(p, None)
        except MissingActionComponent:
            for i in range(1, cap + 1):
                self.apply_letter(i, x)
            raise
        return {i: self._wrap(t) for i, t in sorted(parts.items()) if t}

    def bockstein(self, x):
        return self.apply_letter(1 if self.prime == 2 else 0, x)

    # ------------------------------------------------------------ inspection

    def basis_of_degree(self, degree, twist=None):
        """Normal-form monomials of the given degree (and twist residue, when
        one is supplied), as exponent tuples in lexicographic order.

        The generators split at n // 2.  Each half lists its exponent tuples
        of degree at most `degree` in order (at most 1 on an odd generator,
        below a rule's power), the second half's grouped by degree.  Each
        first-half prefix p of degree s, in order, is joined to the tails of
        degree `degree - s`: p orders before its tail, so the list is in order."""
        for name, value in (("degree", degree), ("twist", 0 if twist is None else twist)):
            if not isinstance(value, int):
                raise InvalidArgument("%s %r is not an integer" % (name, value))
        caps = [1 if g.parity == "odd" else self.rules.get(gi, (degree + 2,))[0] - 1
                for gi, g in enumerate(self.generators)]

        def half(gens):  # (exponent tuple, degree) pairs of gens, in order
            pairs = [((), 0)]
            for d, cap in zip(self._degrees[gens], caps[gens]):
                pairs = [(t + (e,), s + e * d) for t, s in pairs
                         for e in range(min(cap, (degree - s) // d) + 1)]
            return pairs
        tails = {}
        for t, s in half(slice(self.n // 2, self.n)):
            tails.setdefault(s, []).append(t)
        out = []
        for p, s in half(slice(self.n // 2)):
            out.extend(map(p.__add__, tails.get(degree - s, ())))
        if twist is not None and self.prime > 2:
            out = [m for m in out if (self.monomial_twist(m) - twist) % (self.prime - 1) == 0]
        return out

    def check_action_consistency(self):
        """Re-derive every rewrite rule g^k = rhs under every operation and
        compare both evaluation paths; also compare declared top action
        components against the l-th power.  Returns the failure lines, in
        rule order, then letter order.  Both sides of a rule have degree
        k*|g|, so by instability no Sq^i with i > k*|g| (no P^i with
        2i > k*|g|) acts on either: the whole Cartan total of the raw lead
        is compared with total_sq of rhs, and at odd l the Bocksteins too."""
        failures, op, zero = [], "Sq" if self.prime == 2 else "P", self.zero()
        for gi, (k, rhs) in sorted(self.rules.items()):
            g = self.generators[gi]
            lead, deg = k * self._units[gi], k * g.degree
            rhs_elt = self.element(rhs)
            # the Cartan formula on the raw lead follows the other side of the rule
            total = self._split(self._total(lead, deg))
            via_lead = {(d - deg) // self._step: self._wrap(t) for d, t in total.items()}
            via_rhs = self.total_sq(rhs_elt)
            paths = [("%s^%d" % (op, i), via_lead.get(i, zero), via_rhs.get(i, zero))
                     for i in sorted(via_lead.keys() | via_rhs.keys()) if i]
            if self.prime > 2:
                paths.append(("b", self._wrap(self._beta_monomial(lead)), self.bockstein(rhs_elt)))
            for name, by_lead, by_rhs in paths:
                if by_lead != by_rhs:
                    failures.append("%s(%s^%d): lead gives %s, rhs gives %s"
                                    % (name, g.name, k, by_lead.render(), by_rhs.render()))
        for gi, g in enumerate(self.generators):
            if self.prime > 2 and g.degree % 2:
                continue
            declared = self._action[gi].get(g.degree if self.prime == 2 else g.degree // 2)
            if declared is not None and declared != self.gen(g.name) ** self.prime:
                failures.append("top action on unstable %s differs from %s^%d"
                                % (g.name, g.name, self.prime))
        return tuple(failures)

    # -------------------------------------------------------------- printing

    def render_monomial(self, m):
        return "*".join(g.name if e == 1 else "%s^%d" % (g.name, e)
                        for g, e in zip(self.generators, m) if e) or "1"

    def render_element(self, x):
        parts = []
        for m in sorted(x._packed):  # in degree, then exponent-tuple order
            c, body = x._packed[m], self.render_monomial(self._unpack(m))
            parts.append(body if c == 1 else "%d" % c if body == "1" else "%d*%s" % (c, body))
        return " + ".join(parts) or "0"


def _swap_parity(o1, o2):
    """Parity of the swaps moving each odd factor of a left monomial (bits o1)
    past the right one's odd factors of lower index (bits of o2 above it)."""
    swaps = 0
    while o1:
        low = o1 & -o1
        swaps += (o2 >> low.bit_length()).bit_count()
        o1 ^= low
    return swaps & 1
