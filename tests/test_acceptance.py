"""End-to-end acceptance gates, one verdict line per gate.

Run with -s to see the scoreboard; every check is exact arithmetic and the
gates with a runtime target assert it.  The six tests are ordered and
self-contained so a failure names its gate even under plain pytest.
"""

import itertools
import random
import time
from contextlib import contextmanager

from steencalc import (
    FrobeniusContext,
    GeneratorSpec,
    HsInput,
    RingPresentation,
    SteenrodElement,
    TwistedClass,
    VirtualBundle,
    binom_mod_ell,
    hs_scripted_check,
    in_image_F_minus_Id,
    verify_relative_wu_projective,
    verify_wet_chow,
    w_bro,
    w_et,
    weird_operator,
)
from steencalc import corpus, dsl

from oracles import Model2, ModelOdd, in_span


@contextmanager
def _gate(label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("[acceptance] %s: FAIL (%.1fs)" % (label, time.perf_counter() - start))
        raise
    elapsed = time.perf_counter() - start
    print("[acceptance] %s: PASS (%.1fs)" % (label, elapsed))
    if budget is not None:
        assert elapsed < budget, "%s took %.1fs, target %.0fs" % (label, elapsed, budget)


# -------------------------------------------------------------------- gate 1
# Every operation word of degree <= 20 and length <= 4 is applied to the
# polynomial model on four variables, once letter by letter and once through
# its Adem normal form, and the two answers must agree on every class of
# degree <= 16.  Operations commute with permutations of the variables, so
# one representative per sorted exponent multiset covers the whole basis; at
# odd primes a permutation also introduces a sign, but it multiplies both
# sides alike.


def _sq_expansions(i, e):
    """Monomials of Sq^i(x^e) over F_2: exponent tuples e + k where each k_j
    is a bit-submask of e_j (the subset criterion for an odd binomial) and
    the k_j sum to i."""
    n = len(e)
    room = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        room[j] = room[j + 1] + e[j]
    out = []

    def rec(j, left, acc):
        if not left:
            out.append(tuple(a + b for a, b in zip(e, acc + (0,) * (n - j))))
            return
        if j == n or left > room[j]:
            return
        sub = e[j]
        while True:
            if sub <= left:
                rec(j + 1, left - sub, acc + (sub,))
            if not sub:
                break
            sub = (sub - 1) & e[j]

    rec(0, i, ())
    return out


class _MonomialBits:
    """Classes of one degree on the four-variable model over F_2 as int
    bitmasks: bit b of a mask in degree d is the b-th monomial of degree d
    met so far, and a sum is an XOR.  Sq^i of each monomial is expanded
    once, as a mask, and kept for every later class of the sweep."""

    def __init__(self):
        self.bits = {}  # degree -> {exponent tuple: bit}
        self.monomials = {}  # degree -> [exponent tuple by bit]
        self.rows = {}  # (i, degree) -> {bit: mask of Sq^i of that monomial}

    def mask(self, e, degree):
        """The one-bit mask of the monomial with exponents e."""
        bits = self.bits.setdefault(degree, {})
        b = bits.get(e)
        if b is None:
            b = bits[e] = len(bits)
            self.monomials.setdefault(degree, []).append(e)
        return 1 << b

    def apply_sq(self, i, mask, degree):
        """Sq^i of the class mask of the given degree."""
        row = self.rows.setdefault((i, degree), {})
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            b = low.bit_length() - 1
            hit = row.get(b)
            if hit is None:
                hit = 0
                for e in _sq_expansions(i, self.monomials[degree][b]):
                    hit ^= self.mask(e, degree + i)
                row[b] = hit
            out ^= hit
        return out


def _words_over(letters_with_degree, max_degree, max_length):
    out = []

    def rec(prefix, deg):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) >= max_length:
            return
        for letter, d in letters_with_degree:
            if deg + d > max_degree:
                continue
            prefix.append(letter)
            rec(prefix, deg + d)
            prefix.pop()

    rec([], 0)
    return out


def _orbit_reps_2(max_degree):
    """Sorted exponent 4-tuples of total degree <= max_degree."""
    reps = []

    def rec(minv, slots, left, acc):
        if not slots:
            reps.append(tuple(acc))
            return
        for v in range(minv, left + 1):
            rec(v, slots - 1, left - v, acc + [v])

    rec(0, 4, max_degree, [])
    return reps


def _orbit_reps_odd(max_degree):
    """Sorted per-variable slots (exterior bit, polynomial power) with total
    degree <= max_degree, in the ModelOdd monomial encoding."""
    slots = [(a, b) for a in (0, 1) for b in range((max_degree - a) // 2 + 1)]
    reps = []

    def rec(start, left, acc):
        if len(acc) == 4:
            reps.append((tuple(s[0] for s in acc), tuple(s[1] for s in acc)))
            return
        for idx in range(start, len(slots)):
            a, b = slots[idx]
            if a + 2 * b <= left:
                acc.append(slots[idx])
                rec(idx, left - a - 2 * b, acc)
                acc.pop()

    rec(0, max_degree, [])
    return reps


def _sweep_prime_2(words, norms):
    model = _MonomialBits()
    bad = []
    for rep in _orbit_reps_2(16):
        base = sum(rep)
        start = model.mask(rep, base)
        cache = {(): start}

        def admissible_value(word):
            hit = cache.get(word)
            if hit is None:
                hit = model.apply_sq(word[0], admissible_value(word[1:]), base + sum(word[1:]))
                cache[word] = hit
            return hit

        stack = [((), start, 0)]
        while stack:
            word, value, deg = stack.pop()
            if word:
                via_normal = 0
                for w in norms[word]:
                    via_normal ^= admissible_value(w)
                if value != via_normal:
                    bad.append((rep, word))
            if len(word) < 4:
                for i in range(1, 21 - deg):
                    stack.append(((i,) + word, model.apply_sq(i, value, base + deg), deg + i))
    return bad


def _sweep_prime_3(words, norms):
    model = ModelOdd(3, 4)
    bad = []

    def letter(k, cls, memo):
        out = {}
        for m, c in cls.items():
            hit = memo.get((k, m))
            if hit is None:
                hit = model.beta_mono(m) if k == 0 else model.p_mono(k, m)
                memo[(k, m)] = hit
            for hm, hc in hit.items():
                v = (out.get(hm, 0) + hc * c) % 3
                if v:
                    out[hm] = v
                else:
                    out.pop(hm, None)
        return out

    for rep in _orbit_reps_odd(16):
        memo = {}
        cache = {(): {rep: 1}}

        def value_of(word):
            hit = cache.get(word)
            if hit is None:
                hit = letter(word[0], value_of(word[1:]), memo)
                cache[word] = hit
            return hit

        for word in words:
            direct = value_of(word)
            via_normal = {}
            for w, coeff in norms[word]:
                for m, c in value_of(w).items():
                    v = (via_normal.get(m, 0) + c * coeff) % 3
                    if v:
                        via_normal[m] = v
                    else:
                        via_normal.pop(m, None)
            if direct != via_normal:
                bad.append((rep, word))
    return bad


def test_gate_1_adem_normal_forms_match_direct_action():
    with _gate("1 Adem normal forms vs direct action", 60.0):
        # keep the fast expansion honest against the convolution model
        rng = random.Random(11)
        model = Model2(4)
        for _ in range(200):
            e = tuple(rng.randint(0, 12) for _ in range(4))
            i = rng.randint(1, 10)
            assert sorted(_sq_expansions(i, e)) == sorted(model.sq_mono(i, e))

        words2 = _words_over([(i, i) for i in range(1, 21)], 20, 4)
        norms2 = {
            w: [m.word for m in SteenrodElement(2, {w: 1}).adem_normalize().monomials()]
            for w in words2
        }
        # a class mask is read against its own degree's monomial index
        assert all(sum(w) == sum(word) for word, ws in norms2.items() for w in ws)
        assert not _sweep_prime_2(words2, norms2)

        letters3 = [(0, 1)] + [(s, 4 * s) for s in range(1, 6)]
        words3 = _words_over(letters3, 20, 4)
        norms3 = {
            w: [
                (m.word, c)
                for m, c in SteenrodElement(3, {w: 1}).adem_normalize().terms.items()
            ]
            for w in words3
        }
        assert not _sweep_prime_3(words3, norms3)


# -------------------------------------------------------------------- gate 2


def _survival_composite(pres, x):
    """Sq^2 Sq^1(x) x^2 + Sq^1(x)^3 + Sq^1(x) Sq^2(x) x."""
    sq1 = pres.apply_letter(1, x)
    sq2 = pres.apply_letter(2, x)
    return pres.apply_letter(2, sq1) * x * x + sq1 ** 3 + sq1 * sq2 * x


def test_gate_2_displayed_identities():
    with _gate("2 displayed identities", 10.0):
        R2 = corpus.resolve_ring("CLASSIFYING2")
        x1, x2 = R2.gen("x1"), R2.gen("x2")
        want = R2.gen("x1", 4) * R2.gen("x2", 2) + R2.gen("x1", 2) * R2.gen("x2", 4)
        assert R2.apply_word((3, 1), x1 * x2) == want

        for ell in (3, 5):
            R = corpus.resolve_ring("CLASSIFYING%d" % ell)
            got = R.apply_word((0, 1, 0), R.gen("x1") * R.gen("x2"))
            assert got == R.gen("y1", ell) * R.gen("y2") - R.gen("y1") * R.gen("y2", ell)

        P = corpus.resolve_ring("P2REAL")
        lam, w = P.gen("l"), P.gen("w")
        assert P.apply_letter(1, lam) == w * lam
        assert P.apply_letter(2, lam * lam) == w * w * lam * lam

        Q = corpus.resolve_ring("PROP5")
        s, t = Q.gen("s"), Q.gen("t")
        assert Q.apply_letter(3, s * t) == s * s * t

        F = corpus.resolve_ring("REALFOURFOLD")
        b, omega = F.gen("b"), F.gen("w")
        out = weird_operator(TwistedClass(b * omega ** 3, 4, 2), 2, 2)
        assert out.value == b * omega ** 6
        assert out.value

        M3 = corpus.resolve_ring("MO3")
        w1, w2, w3, s3 = M3.gen("w1"), M3.gen("w2"), M3.gen("w3"), M3.gen("s")
        assert _survival_composite(M3, w2 * s3) == (
            w1 * w2 * w3 ** 4 + w3 ** 5
        ) * s3
        assert _survival_composite(M3, (w1 ** 2 + w2) * s3) == (
            w1 ** 3 * w2 ** 3 * w3 ** 2
            + w1 ** 2 * w2 ** 2 * w3 ** 3
            + w1 * w2 * w3 ** 4
            + w3 ** 5
        ) * s3

        M5 = corpus.resolve_ring("MO5")
        s5 = M5.gen("s")
        sq1, sq2 = M5.apply_letter(1, s5), M5.apply_letter(2, s5)
        assert M5.apply_letter(2, sq1) * s5 * s5 == sq1 ** 3 + sq1 * sq2 * s5


# -------------------------------------------------------------------- gate 3


def test_gate_3_relative_wu_over_projective_fibers():
    with _gate("3 relative Wu over projective fibers", 30.0):
        for ell in (2, 3):
            for n in range(1, 5):
                R = corpus.resolve_ring("PROJ%d_%d" % (n, ell))
                if ell == 2:
                    bases = [
                        R.gen("w", a) * R.gen("u", b) if a or b else R.one()
                        for a in range(9)
                        for b in range((8 - a) // 2 + 1)
                    ]
                else:
                    bases = [R.gen("v", b) if b else R.one() for b in range(5)]
                for y in bases:
                    for m in range(n + 1):
                        assert verify_relative_wu_projective(R, y, m), (ell, n, m, y.render())

        assert binom_mod_ell(0, 0, 2) == 1
        for k in range(1, 65):
            assert binom_mod_ell(2 * k, k, 2) == 0, k


# -------------------------------------------------------------------- gate 4


def _formal_bundles(R, names):
    roots = [R.gen(n) for n in names]
    e1 = roots[0] + roots[1] + roots[2]
    e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    e3 = roots[0] * roots[1] * roots[2]
    return [
        VirtualBundle(1, [roots[0]], [], 10),
        VirtualBundle(1, [e1], [], 10),
        VirtualBundle(1, [e1], [roots[2]], 10),
        VirtualBundle(2, [e1, e2], [], 10),
        VirtualBundle(3, [e1, e2, e3], [], 10),
    ]


def test_gate_4_etale_class_against_cycle_class():
    with _gate("4 etale vs cycle-side total classes"):
        R = RingPresentation(
            2,
            [GeneratorSpec("w", 1)]
            + [GeneratorSpec("t%d" % i, 2, twist=1) for i in (1, 2, 3)],
            omega="w",
        )
        for v in _formal_bundles(R, ("t1", "t2", "t3")):
            assert verify_wet_chow(R, v)
        assert verify_wet_chow(R, VirtualBundle(1, [R.gen("w") ** 2], [], 10))

        for ell in (3, 5):
            S = RingPresentation(
                ell,
                [GeneratorSpec("t%d" % i, 2, twist=1, action={"b": {}}) for i in (1, 2, 3)],
            )
            for v in _formal_bundles(S, ("t1", "t2", "t3")):
                assert verify_wet_chow(S, v)
                assert w_et(S, v) == w_bro(S, v)


# -------------------------------------------------------------------- gate 5
# The membership routine is checked against two independent answers on each
# graded piece of dimension <= 12: rank reduction over the columns of F - Id,
# and, whenever l^dim stays enumerable, the literal image of every domain
# vector.


def _piece_targets(rng, ell, diag, dim):
    targets = [tuple([0] * dim)]
    targets += [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    for _ in range(5):
        targets.append(tuple(rng.randrange(ell) for _ in range(dim)))
    for _ in range(3):
        vec = [rng.randrange(ell) for _ in range(dim)]
        targets.append(tuple((d * c) % ell for d, c in zip(diag, vec)))
    return targets


def test_gate_5_frobenius_membership_controls():
    with _gate("5 Frobenius image membership"):
        rng = random.Random(5)
        image_cache = {}
        for name, q in (("CLASSIFYING2", 3), ("CLASSIFYING3", 2), ("CLASSIFYING5", 2)):
            R = corpus.resolve_ring(name)
            ell = R.prime
            ctx = FrobeniusContext(R, q)
            for degree in range(13):
                for twist in range(4):
                    basis = R.basis_of_degree(degree, twist=twist)
                    dim = len(basis)
                    if not dim or dim > 12:
                        continue
                    diag = tuple((ctx.eigenvalue(m, twist) - 1) % ell for m in basis)
                    rows = [
                        [diag[i] if j == i else 0 for j in range(dim)]
                        for i in range(dim)
                    ]
                    image = None
                    if ell ** dim <= 600000:
                        image = image_cache.get((ell, diag))
                        if image is None:
                            image = set()
                            for vec in itertools.product(range(ell), repeat=dim):
                                image.add(tuple((d * c) % ell for d, c in zip(diag, vec)))
                            image_cache[(ell, diag)] = image
                    for tgt in _piece_targets(rng, ell, diag, dim):
                        elt = R.zero()
                        for c, m in zip(tgt, basis):
                            if c:
                                elt = elt + R.element({m: c})
                        report = in_image_F_minus_Id(TwistedClass(elt, degree, twist), ctx)
                        verdict = report.verdict == "in-image"
                        assert verdict == in_span(rows, list(tgt), ell), (name, degree, twist, tgt)
                        if image is not None:
                            assert verdict == (tgt in image), (name, degree, twist, tgt)

        # q = 1 mod 2 forces F = Id, so membership collapses to vanishing
        R2 = corpus.resolve_ring("CLASSIFYING2")
        ctx2 = FrobeniusContext(R2, 3)
        for trial in range(100):
            degree = rng.randint(1, 12)
            elt = R2.zero()
            if trial % 7:
                basis = R2.basis_of_degree(degree)
                for m in rng.sample(basis, rng.randint(1, min(4, len(basis)))):
                    elt = elt + R2.element({m: 1})
            report = in_image_F_minus_Id(TwistedClass(elt, degree, rng.randrange(4)), ctx2)
            assert (report.verdict == "in-image") == (not elt)

        for name in ("CLASSIFYING2", "CLASSIFYING3"):
            scn = corpus.get_scenario(name)
            query = next(q for q in scn.queries
                         if isinstance(q, dsl.ObstructQuery) and q.kind == "hs")
            z = dsl.poly_to_element(scn.presentation, query.poly)
            data = HsInput(scn.presentation, TwistedClass(z, z.degree(), query.twist), query.q)
            assert hs_scripted_check(data).fires
            quiet = hs_scripted_check(
                HsInput(data.presentation, TwistedClass(data.presentation.zero(), 2, 2), data.q)
            )
            assert not quiet.fires


# -------------------------------------------------------------------- gate 6


def _random_homogeneous(R, rng, degree):
    basis = R.basis_of_degree(degree)
    out = R.zero()
    for m in rng.sample(basis, rng.randint(1, min(3, len(basis)))):
        out = out + R.element({m: rng.randint(1, R.prime - 1)})
    return out


def _random_raw(R, rng, even_only=False):
    """Raw polynomial data, deliberately allowed to overflow the rule caps."""
    raw = {}
    for _ in range(rng.randint(1, 3)):
        exps = []
        for gi, g in enumerate(R.generators):
            if g.parity == "odd":
                exps.append(0 if even_only else rng.randint(0, 1))
                continue
            cap = R.rules[gi][0] + 1 if gi in R.rules else 3
            exps.append(rng.randint(0, cap))
        key = tuple(exps)
        raw[key] = raw.get(key, 0) + rng.randint(1, R.prime - 1)
    return raw


def _raw_product(raw1, raw2):
    out = {}
    for m1, c1 in raw1.items():
        for m2, c2 in raw2.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _check_cartan(R, u, v):
    su, sv, suv = R.total_sq(u), R.total_sq(v), R.total_sq(u * v)
    conv = {}
    for i, cu in su.items():
        for j, cv in sv.items():
            p = cu * cv
            if p:
                conv[i + j] = conv.get(i + j, R.zero()) + p
    for k in set(conv) | set(suv):
        assert conv.get(k, R.zero()) == suv.get(k, R.zero()), k


def _check_bockstein_derivation(R, u, udeg, v):
    lhs = R.bockstein(u * v)
    if R.prime == 2 or udeg % 2 == 0:
        rhs = R.bockstein(u) * v + u * R.bockstein(v)
    else:
        rhs = R.bockstein(u) * v - u * R.bockstein(v)
    assert lhs == rhs


def test_gate_6_property_suites():
    with _gate("6 Cartan, Bockstein, normal form, consistency, round-trip"):
        rng = random.Random(6)
        for name in corpus.scenario_names():
            R = corpus.resolve_ring(name)
            degrees = [d for d in range(1, 12) if R.basis_of_degree(d)]
            pairs = 0
            while pairs < 500:
                du = rng.choice(degrees)
                partners = [d for d in degrees if d + du <= 12] or degrees[:1]
                dv = rng.choice(partners)
                u = _random_homogeneous(R, rng, du)
                v = _random_homogeneous(R, rng, dv)
                _check_cartan(R, u, v)
                _check_bockstein_derivation(R, u, du, v)
                pairs += 1

            for _ in range(25):
                raw1 = _random_raw(R, rng)
                raw2 = _random_raw(R, rng, even_only=True)
                n1, n2 = R.element(raw1), R.element(raw2)
                assert R.element(n1) == n1
                # raw2 is even throughout, so the unreduced product needs no signs
                assert R.element(_raw_product(raw1, raw2)) == n1 * n2

            report = R.check_action_consistency(18)
            assert report.ok and report.failures == (), name

        for name in corpus.scenario_names():
            scn = corpus.get_scenario(name)
            once = dsl.render(dsl.parse(scn.source))
            assert dsl.render(dsl.parse(once)) == once, name
            program = dsl.build_program(dsl.parse(once))
            assert name in program.rings
