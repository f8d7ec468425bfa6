"""Characteristic classes attached to the twisted operations.

Two total classes are computed for (virtual) bundles presented by truncated
Chern classes: the Chow-theoretic one obtained from the splitting principle
as prod_i (1 + t_i^(l-1)) over Chern roots t_i, and the etale-cohomology one,
which for l = 2 is prod_i (1 + omega + t_i) and for odd l coincides with the
Chow formula.  The Chow class needs no symmetric functions: over F_l,
prod_{a in F_l^x} (1 + a t) = 1 - t^(l-1), so the product of the l - 1
classes c(a) = 1 + sum_j a^j c_j is prod_i (1 - t_i^(l-1)), and negating its
degree-2(l-1)m part for odd m gives prod_i (1 + t_i^(l-1)).  At l = 2 this
is the total Chern class itself.

Inhomogeneous results are carried by TotalClass: a presentation, a bound on
the cohomological degree, and a RingElement's packed terms dict, in which
every monomial carries its degree: a truncated product is one _addmul capped
at the bound, a sum is a dict merge, and degree components are split off
only for output.  A bound must be below 2^30 (_FIELD_LIMIT), and a
bundle's truncation below 2^29; larger ones raise InvalidArgument.  The
degree tag does not need this (its guard bit is per presentation): the
limit only bounds _omega_powers, whose list grows with the bound when omega
is not nilpotent.  ROADMAP item 12's per-call budget is meant to replace it.

Powers of eta = 1 + omega and the normal class of P^n over the base have
closed forms, so no truncated series is raised to a power on their paths:
eta^e = sum_i C(e, i) omega^i for every integer e, and, because the
hyperplane class satisfies lambda^(n+1) = 0, the normal class
eta (eta + lambda)^-(n+1) is sum_{k<=n} C(-(n+1), k) lambda^k eta^-(n+k) at
l = 2 and (1 + lambda^(l-1))^-(n+1) = sum_{k<=n} C(-(n+1), k) lambda^(k(l-1))
at odd l.  The binomials C(e, i) mod 2 are Lucas's bit test, the others
steenrod.binom_mod_ell.  The fiber dimension n is the presentation's, read
from that rule: the pushforward and the normal class take no n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InvalidArgument,
    MissingCodim,
    NonHomogeneousInput,
    NotProjectiveBundleScenario,
    OmegaUndeclared,
)
from .rings import _FIELD_LIMIT, _FIELD_MASK, RingElement, RingPresentation
from .steenrod import binom_mod_ell


class TotalClass:
    """Finite inhomogeneous class truncated above degree `bound` (components
    beyond it are dropped, not zero), as one packed terms dict; see the
    module docstring.  An int scales it, and a RingElement operand of + or *
    is taken through of_element at its bound."""

    __slots__ = ("parent", "bound", "_packed")

    def __init__(self, parent, bound, packed=None):
        if bound >= _FIELD_LIMIT:
            raise InvalidArgument("degree bound %d is not below %d" % (bound, _FIELD_LIMIT))
        self.parent = parent
        self.bound = bound
        self._packed = packed or {}

    @classmethod
    def unit(cls, parent, bound):
        return cls(parent, bound, {0: 1})

    @classmethod
    def of_element(cls, elt, bound):
        """A (possibly inhomogeneous) element, through degree bound."""
        above = bound + 1 << elt.parent._tag_shift
        return cls(elt.parent, bound, {m: c for m, c in elt._packed.items() if m < above})

    @property
    def components(self):
        """degree -> RingElement, in increasing degree."""
        return {d: self.parent._wrap(t) for d, t in self.parent._split(self._packed).items()}

    def component(self, d):
        return self.parent._wrap(self.parent._split(self._packed).get(d, {}))

    def _upto(self, bound):
        """The terms of degree at most bound."""
        if bound >= self.bound:
            return self._packed
        above = bound + 1 << self.parent._tag_shift
        return {m: c for m, c in self._packed.items() if m < above}

    def __add__(self, other):
        if isinstance(other, RingElement):
            other = TotalClass.of_element(other, self.bound)
        elif not isinstance(other, TotalClass):
            return NotImplemented
        self.parent._own(other)
        bound = min(self.bound, other.bound)
        packed = self.parent._addmul(dict(self._upto(bound)), 1, other._upto(bound))
        return TotalClass(self.parent, bound, packed)

    __radd__ = __add__

    def scale(self, c):
        return TotalClass(self.parent, self.bound, self.parent._addmul({}, c, self._packed))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, RingElement):
            other = TotalClass.of_element(other, self.bound)
        elif not isinstance(other, TotalClass):
            return NotImplemented
        self.parent._own(other)
        bound = min(self.bound, other.bound)
        packed = self.parent._addmul({}, 1, self._packed, other._packed, bound)
        return TotalClass(self.parent, bound, packed)

    def __rmul__(self, other):
        """elt * total, elt kept on the left for the Koszul sign at odd l."""
        if isinstance(other, RingElement):
            return TotalClass.of_element(other, self.bound) * self
        return self.__mul__(other)  # an int scales; anything else is NotImplemented

    def inverse(self):
        """Multiplicative inverse of a class with scalar unit part, by Newton's
        iteration g <- g + g(1 - fg): g exact below degree p makes 1 - fg start
        in degree p and the new g exact below 2p, so both products are capped
        at 2p - 1, and a step whose 1 - fg is 0 there makes no update."""
        f, bound, parent = self._packed, self.bound, self.parent
        if not f.get(0):
            raise NonHomogeneousInput("inverse needs an invertible scalar in degree 0")
        addmul = parent._addmul
        g, p = {0: pow(f[0], -1, parent.prime)}, 1
        while p <= bound:
            cap = min(2 * p - 1, bound)
            e = addmul({0: 1}, -1, self._upto(cap), g, cap)
            if e:
                g = addmul(dict(g), 1, g, e, cap)
            p = cap + 1
        return TotalClass(parent, bound, g)

    def __eq__(self, other):
        return isinstance(other, TotalClass) and (self.parent, self._packed) == (other.parent, other._packed)

    def __bool__(self):
        return bool(self._packed)

    def render(self):
        return "; ".join("[%d] %s" % (d, e.render()) for d, e in self.components.items()) or "0"

    def __repr__(self):
        return "<TotalClass %s>" % self.render()


@dataclass
class VirtualBundle:
    """Difference of two bundles given by truncated total Chern classes.

    rank is the virtual rank.  Chern lists hold c_1, c_2, ... as homogeneous
    RingElements of degree 2j (twist j); omitted tails are zero.  truncation
    is the codimension bound: classes are computed modulo degree > 2*truncation.
    """

    rank: int
    numerator_chern: list = field(default_factory=list)
    denominator_chern: list = field(default_factory=list)
    truncation: int = 10

    def validate(self, parent):
        if 2 * self.truncation >= _FIELD_LIMIT:
            raise InvalidArgument("truncation %d is not below %d" % (self.truncation, _FIELD_LIMIT // 2))
        for chern in (self.numerator_chern, self.denominator_chern):
            for j, c in enumerate(chern, start=1):
                if not isinstance(c, RingElement) or c.parent is not parent:
                    raise ValueError("Chern class c_%d is not an element of the base ring" % j)
                for m in c.terms:
                    if parent.monomial_degree(m) != 2 * j:
                        raise NonHomogeneousInput("c_%d must be homogeneous of degree %d" % (j, 2 * j))
                    if parent.prime > 2 and (parent.monomial_twist(m) - j) % (parent.prime - 1):
                        raise NonHomogeneousInput("c_%d must have twist %d" % (j, j))


def _splitting_total(parent, chern, truncation):
    """prod_i (1 + t_i^(l-1)) over the Chern roots of chern, as a TotalClass:
    the product of the classes c(a), a = 1..l-1, with the sign of each
    degree-2(l-1)m part flipped for odd m (see the module docstring)."""
    ell, shift, bound = parent.prime, parent._tag_shift, 2 * truncation
    chern = [TotalClass.of_element(cj, bound)._packed for cj in chern]
    total = None
    for a in range(1, ell):
        c_a = {0: 1}
        for j, cj in enumerate(chern, start=1):
            parent._addmul(c_a, pow(a, j, ell), cj)
        total = c_a if total is None else parent._addmul({}, 1, total, c_a, bound)
    step = 2 * (ell - 1)
    return TotalClass(parent, bound, {
        m: ell - c if (m >> shift) // step % 2 else c for m, c in total.items()
    })


def _omega_powers(parent, bound):
    """[1, omega, omega^2, ...] through degree bound, as tagged terms dicts,
    stopping before the first zero power, as one running product."""
    if parent.omega is None:
        raise OmegaUndeclared("the prime-2 etale class needs a distinguished omega")
    omega = TotalClass.of_element(parent.gen(parent.omega), bound)._packed
    powers = [{0: 1}]
    while len(powers) <= bound:
        power = parent._addmul({}, 1, powers[-1], omega, bound)
        if not power:
            break
        powers.append(power)
    return powers


def _eta_power(parent, omegas, e, bound):
    """eta^e = (1 + omega)^e = sum_i C(e, i) omega^i for any integer e, at
    l = 2, through degree bound, from the powers omegas of _omega_powers.
    By Lucas, C(e, i) is odd exactly when i & ~e == 0: the binary digits of
    i lie among those of e, read 2-adically (~e = -e - 1) for negative e."""
    packed = {}
    for i in range(min(bound if e < 0 else e, bound, len(omegas) - 1) + 1):
        if not i & ~e:
            packed.update(omegas[i])
    return TotalClass(parent, bound, packed)


def w_bro(parent: RingPresentation, v: VirtualBundle) -> TotalClass:
    """Chow-theoretic total class prod (1 + t^(l-1)), extended to virtual
    classes multiplicatively."""
    v.validate(parent)
    num = _splitting_total(parent, v.numerator_chern, v.truncation)
    if not v.denominator_chern:
        return num
    den = _splitting_total(parent, v.denominator_chern, v.truncation)
    return num * den.inverse()


def w_et(parent: RingPresentation, v: VirtualBundle) -> TotalClass:
    """Etale total class: prod (1 + omega + t) for l = 2, the Chow formula
    for odd l.  At l = 2 a bundle of rank r with Chern classes c_j has
    prod_i (eta + t_i) = sum_j eta^(r-j) c_j (c_0 = 1, eta = 1 + omega), each
    eta power in closed form.  A virtual bundle with d denominator classes
    divides the numerator's sum at the virtual rank plus d by the
    denominator's sum at rank d (both sides times eta^d): a polynomial, so
    each Newton step of its inverse leaves 1 - fg in a few degrees."""
    v.validate(parent)
    if parent.prime != 2:
        return w_bro(parent, v)
    bound = 2 * v.truncation
    omegas = _omega_powers(parent, bound)
    sides, d = [], len(v.denominator_chern)
    for rank, chern in ((v.rank + d, v.numerator_chern), (d, v.denominator_chern)):
        side = _eta_power(parent, omegas, rank, bound)
        for j, cj in enumerate(chern, start=1):
            side = side + _eta_power(parent, omegas, rank - j, bound) * cj
        sides.append(side)
    num, den = sides
    return num * den.inverse() if v.denominator_chern else num


def verify_wet_chow(parent: RingPresentation, v: VirtualBundle) -> bool:
    """Check w_et(v) = sum_j (1 + omega)^(rank - j) * (degree-2j part of
    w_bro(v)) at l = 2, one term of w_bro(v) at a time; for odd l both sides
    are the same formula."""
    if parent.prime != 2:
        return w_et(parent, v) == w_bro(parent, v)
    bound, shift = 2 * v.truncation, parent._tag_shift
    omegas = _omega_powers(parent, bound)
    rhs = {}
    for m, c in w_bro(parent, v)._packed.items():
        eta = _eta_power(parent, omegas, v.rank - (m >> shift) // 2, bound)
        parent._addmul(rhs, c, eta._packed, {m: 1}, bound)
    return w_et(parent, v) == TotalClass(parent, bound, rhs)


# --------------------------------------------------------------------------
# Projective-bundle pushforward and the relative Wu verification.


def _hyperplane_data(parent, hyperplane):
    if hyperplane not in parent.index:
        raise NotProjectiveBundleScenario("no generator %r" % hyperplane)
    gi = parent.index[hyperplane]
    rule = parent.rules.get(gi)
    if rule is None or rule[1]:
        raise NotProjectiveBundleScenario(
            "generator %r is not nilpotent by a rule with zero right side" % hyperplane
        )
    if parent.generators[gi].degree != 2:  # check_generators makes it even
        raise NotProjectiveBundleScenario("hyperplane class must be even of degree 2")
    return gi, rule[0] - 1  # fiber dimension n


def fiber_dimension(parent: RingPresentation, hyperplane: str = "l") -> int:
    """The n for which the hyperplane class satisfies l^(n+1) = 0."""
    return _hyperplane_data(parent, hyperplane)[1]


def projective_pushforward(x, hyperplane: str = "l"):
    """Coefficient of hyperplane^n: integration over the P^n fiber, n read
    from the rule hyperplane^(n+1) = 0 of x's presentation.  Accepts a
    RingElement or TotalClass; the result lives in the same presentation
    (supported on hyperplane-free monomials), and a TotalClass's bound drops
    by 2n."""
    parent = x.parent
    gi, n = _hyperplane_data(parent, hyperplane)
    shift, drop = parent._shifts[gi], n * parent._units[gi]
    packed = {m - drop: c for m, c in x._packed.items() if m >> shift & _FIELD_MASK == n}
    if isinstance(x, TotalClass):
        return TotalClass(parent, x.bound - 2 * n, packed)
    return parent._wrap(packed)


def normal_bundle_total(parent: RingPresentation, bound: int,
                        hyperplane: str = "l") -> TotalClass:
    """w_et of the relative virtual normal bundle of P^n -> point over the
    base, n read from the rule lambda^(n+1) = 0 on the hyperplane class
    lambda: eta/(eta + lambda)^(n+1) with eta = 1 + omega at l = 2, and
    (1 + lambda^(l-1))^-(n+1) at odd l.  Both are finite sums in closed form:
    sum_{k<=n} C(-(n+1), k) lambda^k eta^-(n+k) at l = 2 and
    sum_{k<=n} C(-(n+1), k) lambda^(k(l-1)) at odd l."""
    n = _hyperplane_data(parent, hyperplane)[1]
    ell = parent.prime
    step = 1 if ell == 2 else ell - 1  # lambda-power per k
    omegas = None  # built on first use, so an empty range of k needs no omega
    packed = {}
    for k in range(min(n, bound // (2 * step)) + 1):
        # at l = 2 Lucas's bit test, as in _eta_power: ~(-(n+1)) = n
        coeff = int(not k & n) if ell == 2 else binom_mod_ell(-(n + 1), k, ell)
        if not coeff:
            continue
        lam_k = TotalClass.of_element(parent.gen(hyperplane, k * step), bound)
        eta = {0: 1}
        if ell == 2:
            omegas = omegas or _omega_powers(parent, bound)
            eta = _eta_power(parent, omegas, -(n + k), bound - 2 * k * step)._packed
        parent._addmul(packed, coeff, eta, lam_k._packed, bound)
    return TotalClass(parent, bound, packed)


def total_operation_class(x: RingElement, bound: int) -> TotalClass:
    """Total Sq (l=2) or total P (odd l) of an element, as a TotalClass: the
    sum of the components of total_sq, through degree bound.  A missing
    action component raises what total_sq raises."""
    return TotalClass.of_element(sum(x.parent.total_sq(x).values(), x.parent.zero()), bound)


def verify_relative_wu_projective(y: RingElement, m: int, hyperplane: str = "l") -> bool:
    """Check Sq(f_* x) = f_*(Sq(x) . w_et(N_f)) for x = y * hyperplane^m over
    the projective-bundle presentation of y (f the bundle projection, y a
    base class).  Exact in every degree up to the instability-forced bound."""
    parent = y.parent
    gi, n = _hyperplane_data(parent, hyperplane)
    if not 0 <= m <= n:
        raise InvalidArgument("need 0 <= m <= n")
    if any(mono[gi] for mono in y.terms):
        raise InvalidArgument("y must be a base class (no hyperplane factor)")
    ydeg = max((parent.monomial_degree(mo) for mo in y.terms), default=0)
    bound = parent.prime * (ydeg + 2 * m) + 2 * (n - m) + 2
    lam = parent.gen(hyperplane)
    x = y * lam ** m
    lhs = total_operation_class(y if m == n else parent.zero(), bound - 2 * n)
    sq_x = total_operation_class(x, bound)
    rhs = projective_pushforward(sq_x * normal_bundle_total(parent, bound, hyperplane), hyperplane)
    return lhs == rhs


def twisted_total_on_cycle(x: RingElement, codim: int, bound: int) -> TotalClass:
    """The operation tracking cycle classes of codimension codim:
    sum_i (1+omega)^(codim-i) Sq^(2i)(x) for l = 2, total P for odd l."""
    if codim is None:
        raise MissingCodim("twisted_total_on_cycle needs the cycle codimension")
    parent = x.parent
    if parent.prime != 2:
        return total_operation_class(x, bound)
    omegas = _omega_powers(parent, bound)
    total = TotalClass(parent, bound)
    for j, piece in parent.total_sq(x).items():
        if j % 2 == 0:  # Sq^(2i) with i = j // 2
            total = total + _eta_power(parent, omegas, codim - j // 2, bound) * piece
    return total
