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

Inhomogeneous results are carried by TotalClass, a finite sum of homogeneous
pieces below a truncation bound on the cohomological degree.

Powers of eta = 1 + omega and the normal class of P^n over the base have
closed forms, so no truncated series is raised to a power on their paths:
eta^e = sum_i C(e, i) omega^i for every integer e, and, because the
hyperplane class satisfies lambda^(n+1) = 0, the normal class
eta (eta + lambda)^-(n+1) is sum_{k<=n} C(-(n+1), k) lambda^k eta^-(n+k) at
l = 2 and (1 + lambda^(l-1))^-(n+1) = sum_{k<=n} C(-(n+1), k) lambda^(k(l-1))
at odd l.  The binomials are taken mod l with steenrod.binom_mod_ell.
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
from .rings import RingElement, RingPresentation, TwistedClass
from .steenrod import binom_mod_ell


class TotalClass:
    """Finite inhomogeneous class: cohomological degree -> RingElement,
    truncated above `bound` (components beyond it are dropped, not zero)."""

    __slots__ = ("parent", "bound", "components")

    def __init__(self, parent, bound, components=None):
        self.parent = parent
        self.bound = bound
        comps = {}
        for d, elt in (components or {}).items():
            if d < 0 or d > bound or not elt:
                continue
            if not isinstance(elt, RingElement):
                elt = parent.element(elt)
            comps[d] = elt
        self.components = comps

    @classmethod
    def unit(cls, parent, bound):
        return cls(parent, bound, {0: parent.one()})

    @classmethod
    def of_element(cls, parent, elt, bound):
        """Split a (possibly inhomogeneous) element into degree components."""
        return cls(parent, bound, {d: e for d, e in elt.homogeneous_components().items()})

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
        return TotalClass(self.parent, bound, comps)

    def scale(self, c):
        return TotalClass(
            self.parent, self.bound, {d: e.scale(c) for d, e in self.components.items()}
        )

    def __mul__(self, other):
        if isinstance(other, RingElement):
            other = TotalClass.of_element(self.parent, other, self.bound)
        bound = min(self.bound, other.bound)
        addmul = self.parent._addmul
        comps = {}
        for d1, e1 in self.components.items():
            for d2, e2 in other.components.items():
                if d1 + d2 <= bound:
                    addmul(comps.setdefault(d1 + d2, {}), 1, e1._packed, e2._packed)
        return self._from_terms(self.parent, bound, comps)

    @classmethod
    def _from_terms(cls, parent, bound, comps):
        return cls(parent, bound, {d: parent._wrap(t) for d, t in comps.items()})

    def inverse(self):
        """Multiplicative inverse of a class with scalar unit part."""
        c0 = self.component(0)
        one = self.parent.one()
        scalar = None
        for s in range(1, self.parent.prime):
            if c0 == one.scale(s):
                scalar = s
        if scalar is None:
            raise NonHomogeneousInput("inverse needs an invertible scalar in degree 0")
        inv0 = pow(scalar, -1, self.parent.prime)
        addmul = self.parent._addmul
        out = {0: one.scale(inv0)._packed}
        for d in range(1, self.bound + 1):
            acc = {}
            for i in range(1, d + 1):
                fi = self.components.get(i)
                gj = out.get(d - i)
                if fi and gj:
                    addmul(acc, -inv0, fi._packed, gj)
            if acc:
                out[d] = acc
        return self._from_terms(self.parent, self.bound, out)

    def __eq__(self, other):
        return (
            isinstance(other, TotalClass)
            and self.parent is other.parent
            and self.components == other.components
        )

    def __bool__(self):
        return bool(self.components)

    def render(self):
        if not self.components:
            return "0"
        parts = []
        for d in sorted(self.components):
            parts.append("[%d] %s" % (d, self.components[d].render()))
        return "; ".join(parts)

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
    ell = parent.prime
    bound = 2 * truncation
    classes = [
        TotalClass(parent, bound, {0: parent.one(), **{
            2 * j: cj.scale(pow(a, j, ell)) for j, cj in enumerate(chern, start=1)
        }})
        for a in range(1, ell)
    ]
    total = classes[0]
    for c_a in classes[1:]:
        total = total * c_a
    step = 2 * (ell - 1)
    return TotalClass(parent, bound, {
        d: piece.scale(-1) if d // step % 2 else piece for d, piece in total.components.items()
    })


def _omega_powers(parent, bound):
    """[1, omega, omega^2, ...] through degree bound, stopping before the
    first zero power, as one running product."""
    if parent.omega is None:
        raise OmegaUndeclared("the prime-2 etale class needs a distinguished omega")
    omega = parent.gen(parent.omega)
    powers = [parent.one()]
    while len(powers) <= bound:
        power = powers[-1] * omega
        if not power:
            break
        powers.append(power)
    return powers


def _eta_power(parent, omegas, e, bound):
    """eta^e = (1 + omega)^e = sum_i C(e, i) omega^i for any integer e, at
    l = 2, through degree bound, from the powers omegas of _omega_powers."""
    comps = {}
    for i in range(min(bound if e < 0 else e, bound, len(omegas) - 1) + 1):
        if binom_mod_ell(e, i, 2):
            comps[i] = omegas[i]
    return TotalClass(parent, bound, comps)


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
    eta power in closed form; a virtual bundle divides the numerator's sum at
    the virtual rank by the denominator's sum at rank 0."""
    v.validate(parent)
    if parent.prime != 2:
        return w_bro(parent, v)
    bound = 2 * v.truncation
    omegas = _omega_powers(parent, bound)
    sides = []
    for rank, chern in ((v.rank, v.numerator_chern), (0, v.denominator_chern)):
        side = _eta_power(parent, omegas, rank, bound)
        for j, cj in enumerate(chern, start=1):
            side = side + _eta_power(parent, omegas, rank - j, bound) * cj
        sides.append(side)
    num, den = sides
    return num * den.inverse() if v.denominator_chern else num


def verify_wet_chow(parent: RingPresentation, v: VirtualBundle) -> bool:
    """Check w_et(v) = sum_j (1 + omega)^(rank - j) * (degree-2j part of
    w_bro(v)) at l = 2; for odd l both sides are the same formula."""
    if parent.prime != 2:
        return w_et(parent, v) == w_bro(parent, v)
    bound = 2 * v.truncation
    rhs = TotalClass(parent, bound)
    omegas = _omega_powers(parent, bound)
    for d, piece in w_bro(parent, v).components.items():
        rhs = rhs + _eta_power(parent, omegas, v.rank - d // 2, bound) * piece
    return w_et(parent, v) == rhs


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
    if parent.generators[gi].degree != 2 or parent.generators[gi].parity != "even":
        raise NotProjectiveBundleScenario("hyperplane class must be even of degree 2")
    return gi, rule[0] - 1  # fiber dimension n


def fiber_dimension(parent: RingPresentation, hyperplane: str = "l") -> int:
    """The n for which the hyperplane class satisfies l^(n+1) = 0."""
    return _hyperplane_data(parent, hyperplane)[1]


def projective_pushforward(parent: RingPresentation, x, n: int, hyperplane: str = "l"):
    """Coefficient of hyperplane^n: integration over a P^n fiber.  Accepts a
    RingElement or TotalClass; the result lives in the same presentation
    (supported on hyperplane-free monomials)."""
    gi, fiber_n = _hyperplane_data(parent, hyperplane)
    if fiber_n != n:
        raise NotProjectiveBundleScenario(
            "presentation truncates at %d but pushforward was asked for n=%d" % (fiber_n, n)
        )
    if isinstance(x, TotalClass):
        comps = {}
        for d, elt in x.components.items():
            pushed = projective_pushforward(parent, elt, n, hyperplane)
            if pushed:
                comps[d - 2 * n] = pushed
        return TotalClass(parent, x.bound - 2 * n, comps)
    terms = {}
    lam_n = n * parent._units[gi]
    for m, c in x._packed.items():
        if parent._unpack(m)[gi] == n:
            terms[m - lam_n] = c
    return parent._wrap(terms)


def normal_bundle_total(parent: RingPresentation, n: int, bound: int,
                        hyperplane: str = "l") -> TotalClass:
    """w_et of the relative virtual normal bundle of P^n -> point over the
    base: eta/(eta + lambda)^(n+1) with eta = 1 + omega at l = 2, and
    (1 + lambda^(l-1))^-(n+1) at odd l, for lambda the hyperplane class.
    Since lambda^(n+1) = 0 both are finite sums in closed form:
    sum_{k<=n} C(-(n+1), k) lambda^k eta^-(n+k) at l = 2 and
    sum_{k<=n} C(-(n+1), k) lambda^(k(l-1)) at odd l."""
    _hyperplane_data(parent, hyperplane)
    ell = parent.prime
    step = 1 if ell == 2 else ell - 1  # lambda-power per k
    omegas = None  # built on first use, so an empty range of k needs no omega
    comps = {}
    for k in range(min(n, bound // (2 * step)) + 1):
        coeff = binom_mod_ell(-(n + 1), k, ell)
        if not coeff:
            continue
        shift = 2 * k * step
        eta = {0: parent.one()}
        if ell == 2:
            omegas = omegas or _omega_powers(parent, bound)
            eta = _eta_power(parent, omegas, -(n + k), bound - shift).components
        lam_k = parent.gen(hyperplane, k * step)._packed
        for d, piece in eta.items():
            parent._addmul(comps.setdefault(d + shift, {}), coeff, piece._packed, lam_k)
    return TotalClass._from_terms(parent, bound, comps)


def total_operation_class(parent: RingPresentation, x, bound: int) -> TotalClass:
    """Total Sq (l=2) or total P (odd l) of an element, as a TotalClass."""
    comps = {}
    for m, c in x._packed.items():
        deg = parent._degree(m)
        for i, piece in parent.total_sq(parent._wrap({m: c})).items():
            shift = i if parent.prime == 2 else 2 * i * (parent.prime - 1)
            d = deg + shift
            if d > bound:
                continue
            acc = comps.get(d)
            comps[d] = piece if acc is None else acc + piece
    return TotalClass(parent, bound, comps)


def verify_relative_wu_projective(parent: RingPresentation, y, m: int,
                                  hyperplane: str = "l") -> bool:
    """Check Sq(f_* x) = f_*(Sq(x) . w_et(N_f)) for x = y * hyperplane^m over
    the projective-bundle presentation (f the bundle projection, y a base
    class).  Exact in every degree up to the instability-forced bound."""
    gi, n = _hyperplane_data(parent, hyperplane)
    if not 0 <= m <= n:
        raise InvalidArgument("need 0 <= m <= n")
    for mono in y.terms:
        if mono[gi]:
            raise InvalidArgument("y must be a base class (no hyperplane factor)")
    ydeg = max((parent.monomial_degree(mo) for mo in y.terms), default=0)
    bound = parent.prime * (ydeg + 2 * m) + 2 * (n - m) + 2
    lam = parent.gen(hyperplane)
    x = y * lam ** m
    lhs = total_operation_class(parent, y if m == n else parent.zero(), bound - 2 * n)
    sq_x = total_operation_class(parent, x, bound)
    rhs = projective_pushforward(
        parent, sq_x * normal_bundle_total(parent, n, bound, hyperplane), n, hyperplane
    )
    return lhs == rhs


def twisted_total_on_cycle(parent: RingPresentation, x: TwistedClass,
                           bound: int) -> TotalClass:
    """The operation tracking cycle classes: sum_i (1+omega)^(codim-i)
    Sq^(2i)(x) for l = 2, total P for odd l.  Needs x.codim."""
    if x.codim is None:
        raise MissingCodim("twisted_total_on_cycle needs the cycle codimension")
    if parent.prime != 2:
        return total_operation_class(parent, x.value, bound)
    omegas = _omega_powers(parent, bound)
    out = _eta_power(parent, omegas, x.codim, bound) * x.value  # Sq^0 x = x
    for i in range(1, x.degree // 2 + 1):
        piece = parent.apply_letter(2 * i, x.value)
        if piece:
            out = out + _eta_power(parent, omegas, x.codim - i, bound) * piece
    return out
