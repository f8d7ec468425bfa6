"""Independent closed-form models used to cross-check the engine.

Nothing here imports the package's ring machinery.  The model space is the
cohomology of an n-fold product of cyclic classifying spaces:

  l = 2:  F_2[x_1..x_n],  Sq^k(x^a) = C(a,k) x^{a+k}  (Cartan convolution)
  odd l:  exterior(x_1..x_n) (x) F_l[y_1..y_n],
          P^k(y^a) = C(a,k) y^{a+k(l-1)}, P^k(x) = 0 for k >= 1,
          beta(x_i) = y_i as a signed derivation, beta(y_i) = 0.

Words are tuples applied rightmost letter first; at odd l the letter 0 is
the Bockstein and a positive letter s is P^s.

The references that run on the package's own objects or tables live in
references.py.
"""

from math import comb


def binom2(a, k):
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k) % 2
    # C(a, k) = (-1)^k C(k - a - 1, k) and -1 is 1 mod 2
    return comb(k - a - 1, k) % 2


def binom_mod(a, k, ell):
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k) % ell
    sign = -1 if k % 2 else 1
    return (sign * comb(k - a - 1, k)) % ell


# -------------------------------------------------------------- l = 2 model


class Model2:
    """Polynomial model at l = 2; elements are dicts exponent-tuple -> 1."""

    def __init__(self, n):
        self.n = n
        self.ell = 2

    def add(self, a, b):
        out = dict(a)
        for m in b:
            if m in out:
                del out[m]
            else:
                out[m] = 1
        return out

    def degree(self, m):
        return sum(m)

    def sq_mono(self, k, m):
        """Sq^k of one monomial, by convolving single-variable actions."""
        states = {((), 0): 1}  # (prefix exponents, degree spent) -> coeff
        for a in m:
            nxt = {}
            for (prefix, spent), _ in states.items():
                for j in range(0, min(a, k - spent) + 1):
                    if binom2(a, j):
                        key = (prefix + (a + j,), spent + j)
                        if key in nxt:
                            del nxt[key]
                        else:
                            nxt[key] = 1
                states = nxt if nxt else {}
            if not states:
                return {}
        out = {}
        for (prefix, spent), _ in states.items():
            if spent == k:
                out = self.add(out, {prefix: 1})
        return out

    def apply_letter(self, k, cls):
        if k == 0:
            return dict(cls)
        out = {}
        for m in cls:
            out = self.add(out, self.sq_mono(k, m))
        return out

    def apply_word(self, word, cls):
        out = dict(cls)
        for k in reversed(word):
            out = self.apply_letter(k, out)
        return out


# ------------------------------------------------------------ odd-l model


class ModelOdd:
    """Exterior-tensor-polynomial model at an odd prime.  Monomials are
    (xbits, ypows): a 0/1 tuple for the exterior part and an exponent tuple
    for the polynomial part, with the x factors written first in ascending
    index order."""

    def __init__(self, ell, n):
        self.ell = ell
        self.n = n

    def add_term(self, out, m, c):
        c = (out.get(m, 0) + c) % self.ell
        if c:
            out[m] = c
        else:
            out.pop(m, None)

    def add(self, a, b):
        out = dict(a)
        for m, c in b.items():
            self.add_term(out, m, c)
        return out

    def degree(self, m):
        xbits, ypows = m
        return sum(xbits) + 2 * sum(ypows)

    def p_mono(self, k, m):
        """P^k of one monomial; only the polynomial part moves, and every
        shift is even so no signs appear."""
        xbits, ypows = m
        states = {((), 0): 1}
        for a in ypows:
            nxt = {}
            for (prefix, spent), coeff in states.items():
                for j in range(0, min(a, k - spent) + 1):
                    c = binom_mod(a, j, self.ell)
                    if c:
                        key = (prefix + (a + j * (self.ell - 1),), spent + j)
                        self.add_term(nxt, key, coeff * c)
            states = nxt
            if not states:
                return {}
        out = {}
        for (prefix, spent), coeff in states.items():
            if spent == k:
                self.add_term(out, (xbits, prefix), coeff)
        return out

    def beta_mono(self, m):
        xbits, ypows = m
        out = {}
        before = 0  # odd-degree factors to move the Bockstein past
        for i, bit in enumerate(xbits):
            if not bit:
                continue
            sign = -1 if before % 2 else 1
            nx = list(xbits)
            nx[i] = 0
            ny = list(ypows)
            ny[i] += 1
            self.add_term(out, (tuple(nx), tuple(ny)), sign)
            before += 1
        return out

    def apply_letter(self, k, cls):
        out = {}
        for m, c in cls.items():
            hit = self.beta_mono(m) if k == 0 else self.p_mono(k, m)
            for hm, hc in hit.items():
                self.add_term(out, hm, hc * c)
        return out

    def apply_word(self, word, cls):
        out = dict(cls)
        for k in reversed(word):
            out = self.apply_letter(k, out)
        return out


# ----------------------------------------------- mod-l linear algebra


def rref_mod(rows, ell):
    """Row-reduce a list of row vectors over F_l; returns (basis rows, pivots)."""
    rows = [list(r) for r in rows]
    basis, pivots = [], []
    for row in rows:
        row = [c % ell for c in row]
        for b, p in zip(basis, pivots):
            if row[p]:
                f = row[p]
                row = [(c - f * bc) % ell for c, bc in zip(row, b)]
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, ell)
        row = [(c * inv) % ell for c in row]
        basis.append(row)
        pivots.append(lead)
    return basis, pivots


def in_span(vectors, target, ell):
    """Membership of target in the F_l-span of the given vectors."""
    basis, pivots = rref_mod(vectors, ell)
    t = [c % ell for c in target]
    for b, p in zip(basis, pivots):
        if t[p]:
            f = t[p]
            t = [(c - f * bc) % ell for c, bc in zip(t, b)]
    return not any(t)


# ---------------------------------------- symmetric function expansion


def product_one_plus_power(r, power):
    """prod_{i<=r} (1 + t_i^power) as a dict exponent-tuple -> 1."""
    out = {(0,) * r: 1}
    for i in range(r):
        nxt = {}
        for m, c in out.items():
            nxt[m] = (nxt.get(m, 0) + c)
            lifted = list(m)
            lifted[i] += power
            lifted = tuple(lifted)
            nxt[lifted] = (nxt.get(lifted, 0) + c)
        out = nxt
    return out


def elementary_symmetric(r, j):
    """e_j in r variables as a dict exponent-tuple -> 1."""
    from itertools import combinations

    out = {}
    for picks in combinations(range(r), j):
        m = [0] * r
        for i in picks:
            m[i] = 1
        out[tuple(m)] = 1
    return out


def poly_mul(a, b, ell):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = (out.get(m, 0) + ca * cb) % ell
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def weight_piece(poly, weight):
    return {m: c for m, c in poly.items() if sum(m) == weight}
