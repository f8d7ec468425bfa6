"""Algebraicity obstructions.

A class claiming to be a cycle class of codimension c must be killed by all
odd-degree operations, by the omega-corrected operators at the prime 2, and
(over a finite field) must come from an eigenvalue-1 part of Frobenius.  The
evaluators here apply those criteria and return small reports; they never
decide geometry, only the symbolic consequences of it.

The descent argument (hs_scripted_check) runs in a two-step filtration model:
a wrapper psi shifts a geometric class into filtration 1, operations commute
with psi, anything of filtration 2 or more is zero, and psi(u) vanishes
exactly when u lies in the image of F - Id.  Those four rules are the model;
the check is the chain they force.
"""

from __future__ import annotations

from .errors import (InvalidArgument, MissingCodim, MissingFrobeniusData, NonHomogeneousInput,
                     OmegaUndeclared)
from .record import FrozenRecord
from .rings import RingElement
from .steenrod import _is_prime, admissible_monomials


class ObstructionReport(FrozenRecord):
    operator: str
    input_text: str
    output_text: str
    verdict: str  # vanishes | nonvanishing | in-image | not-in-image
    witnesses: tuple = ()

    @property
    def fires(self):
        return self.verdict in ("nonvanishing", "not-in-image")

    def render(self):
        lines = ["%s on %s: %s" % (self.operator, self.input_text, self.verdict)]
        if self.output_text not in ("", "0"):
            lines.append("  output: %s" % self.output_text)
        for w in self.witnesses:
            lines.append("  witness: %s" % (w if isinstance(w, str) else "%s -> %s" % w))
        return "\n".join(lines)


def odd_vanishing_check(x: RingElement, max_degree: int) -> ObstructionReport:
    """Apply every admissible odd-degree monomial operation up to max_degree.
    Where omega = 0, any nonzero output rules out algebraicity.  On a ring
    that declares omega a cycle class x of codimension c has Sq^1 x = c
    omega x, so this raw check can flag algebraic classes (obstruct odd l
    --ring P2REAL says nonvanishing) until ROADMAP item 23 reads it from the
    Chow decomposition of Sq.  Words of excess above the degree of x are
    zero on x by instability, so they are never built; a nonzero x must
    therefore be homogeneous."""
    if max_degree < 0:
        raise InvalidArgument("max degree must be >= 0, got %d" % max_degree)
    degree = x.degree()
    if degree is None and x:
        raise NonHomogeneousInput("odd_vanishing_check needs a degree-homogeneous class")
    parent = x.parent
    hits = []
    for mono in admissible_monomials(parent.prime, max_degree, degree or 0):
        if mono.degree() % 2 == 0 or not mono.word:
            continue
        out = parent.apply_word(mono.word, x)
        if out:
            hits.append((mono.render(), out.render()))
    verdict = "nonvanishing" if hits else "vanishes"
    return ObstructionReport(
        operator="odd-degree operations through %d" % max_degree,
        input_text=x.render(),
        output_text=hits[0][1] if hits else "0",
        verdict=verdict,
        witnesses=tuple(hits),
    )


def weird_operator(x: RingElement, which: int, codim: int) -> RingElement:
    """The omega-corrected operators at the prime 2 for a class of
    codimension c = codim: which=1: Sq^2 + binom(c,2) omega^2, which=2:
    Sq^3 + (c+1) omega Sq^2 + binom(c,2) omega^3.  The second kills every
    algebraic class of codimension c."""
    parent, c = x.parent, codim
    if parent.prime != 2:
        raise InvalidArgument("the omega-corrected operators live at the prime 2")
    if which not in (1, 2):
        raise InvalidArgument("which must be 1 or 2")
    if c is None:
        raise MissingCodim("weird_operator needs the cycle codimension")
    half = (c * (c - 1) // 2) % 2
    linear = (c + 1) % 2
    if half or (which == 2 and linear):
        if parent.omega is None:
            raise OmegaUndeclared("weird_operator needs omega for codimension %d" % c)
        omega = parent.gen(parent.omega)
    sq2 = parent.apply_letter(2, x)
    if which == 1:
        return sq2 + omega * omega * x if half else sq2
    value = parent.apply_letter(3, x)
    if linear:
        value = value + omega * sq2
    if half:
        value = value + omega * omega * omega * x
    return value


def _is_prime_power(q):
    """q = p^k for a prime p and k >= 1: q is the size of a finite field.
    Only the root of the highest exact power of q is tested for primality."""
    base = q
    for k in range(2, q.bit_length()):
        root = _integer_root(q, k)
        if root ** k == q:
            base = root
    return _is_prime(base)


def _integer_root(n, k):
    """The largest r with r^k <= n, for n >= 1."""
    low, high = 1, 1 << (n.bit_length() + k - 1) // k
    while low < high:
        mid = (low + high + 1) // 2
        if mid ** k <= n:
            low = mid
        else:
            high = mid - 1
    return low


def _eigenvalue(parent, q, m):
    """Frobenius on the monomial m, acting diagonally: the generator g
    scales by q^f_g and the monomial's Tate twist j contributes q^(-j)."""
    ell = parent.prime
    total = 0
    for e, g in zip(m, parent.generators):
        if not e:
            continue
        if g.frobenius_exponent is None:
            raise MissingFrobeniusData("generator %s has no Frobenius exponent" % g.name)
        total += e * g.frobenius_exponent
    return pow(q % ell, total - parent.monomial_twist(m), ell)


def in_image_F_minus_Id(x: RingElement, q: int) -> ObstructionReport:
    """With F diagonal on monomials over the field of q elements, x lies in
    im(F - Id) exactly when its coefficients vanish on every eigenvalue-1
    monomial."""
    parent = x.parent
    if q % parent.prime == 0:
        raise InvalidArgument("q must be prime to %d" % parent.prime)
    if not _is_prime_power(q):
        raise InvalidArgument("q must be a prime power, got %d" % q)
    witnesses = []
    for m in sorted(x.terms, key=lambda m: (parent.monomial_degree(m), m)):
        if _eigenvalue(parent, q, m) == 1:
            witnesses.append(parent.render_monomial(m))
    verdict = "in-image" if not witnesses else "not-in-image"
    return ObstructionReport(
        operator="F - Id membership (q=%d)" % q,
        input_text=x.render(),
        output_text="",
        verdict=verdict,
        witnesses=tuple(witnesses),
    )


def hs_scripted_check(z: RingElement, q: int) -> ObstructionReport:
    """Run the filtration argument on z over the field of q elements.  At
    the prime 2 the composite Sq^3 Sq^1 must miss im(F - Id); the wrapper
    y = psi(b z) then has Sq^3(y) = psi(Sq^3 Sq^1 z) nonzero in the graded
    model, omega Sq^2(y) and omega^3 y die in filtration 2, so the
    codimension-2 operator fires on y.  Odd primes route through b P^1 b
    instead."""
    pres = z.parent
    ell = pres.prime
    if ell == 2:
        word = (3, 1)
        op_name = "Sq^3 + omega Sq^2 (codimension 2) on psi(Sq^1 z)"
        inner = "Sq^3 Sq^1"
    else:
        word = (0, 1, 0)
        op_name = "b P^1 on psi(b z)"
        inner = "b P^1 b"
    u = pres.apply_word(word, z)
    membership = in_image_F_minus_Id(u, q)
    fires = membership.verdict == "not-in-image" and bool(u)
    return ObstructionReport(
        operator=op_name,
        input_text=z.render(),
        output_text="psi(%s)" % u.render() if fires else "0",
        verdict="nonvanishing" if fires else "vanishes",
        witnesses=(("%s(z)" % inner, u.render()),) + membership.witnesses,
    )
