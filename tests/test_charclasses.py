"""Total classes, splitting-principle reduction, pushforward identities."""

import re
from functools import lru_cache, reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from steencalc import (
    GeneratorSpec,
    MissingActionComponent,
    MixedPrimes,
    NonHomogeneousInput,
    NotProjectiveBundleScenario,
    OmegaUndeclared,
    RewriteRule,
    RingPresentation,
    SteencalcError,
    TotalClass,
    VirtualBundle,
    binom_mod_ell,
    normal_bundle_total,
    projective_pushforward,
    total_operation_class,
    verify_relative_wu_projective,
    verify_wet_chow,
    w_bro,
    w_et,
)
from steencalc import corpus, dsl, model_ring
from steencalc.charclasses import _eta_power, _omega_powers, fiber_dimension

from oracles import elementary_symmetric, poly_mul, product_one_plus_power, weight_piece
from references import (
    ReferenceTotalClass,
    reference_total_operation_class,
    total_class_mul_reference,
)


def _root_ring(ell, r):
    """F_ell[t_1..t_r] with deg 2, twist 1 generators (Chern roots)."""
    action = {} if ell == 2 else {"b": {}}
    return RingPresentation(
        ell, [GeneratorSpec("t%d" % i, 2, twist=1, action=dict(action)) for i in range(1, r + 1)]
    )


def _elementary_in_ring(R, r, j):
    out = R.zero()
    for m in elementary_symmetric(r, j):
        out = out + R.element({m: 1})
    return out


def test_split_bundle_matches_root_product():
    """On a sum of line bundles the total class is the literal product
    prod (1 + t_i^(l-1)), which the oracle expands directly."""
    for ell, r in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
        R = _root_ring(ell, r)
        chern = [_elementary_in_ring(R, r, j) for j in range(1, r + 1)]
        bound = 2 * r * (ell - 1) + 2
        total = w_bro(R, VirtualBundle(r, chern, [], truncation=bound))
        want = product_one_plus_power(r, ell - 1)
        # oracle grades by root exponent weight; ring degree is twice that
        for w in range(0, r * (ell - 1) + 1):
            want_elt = R.zero()
            for m, c in weight_piece(want, w).items():
                want_elt = want_elt + R.element({m: c})
            assert total.component(2 * w) == want_elt, (ell, r, w)


def test_rank_zero_bundle_is_unit():
    R = _root_ring(2, 2)
    v = VirtualBundle(0, [], [], truncation=6)
    assert w_bro(R, v) == TotalClass.unit(R, 6)


def test_whitney_product_formula():
    R = _root_ring(2, 4)
    a = [R.gen("t1") + R.gen("t2"), R.gen("t1") * R.gen("t2")]
    b = [R.gen("t3") + R.gen("t4"), R.gen("t3") * R.gen("t4")]
    # chern classes of the direct sum from the product of total chern classes
    ta = TotalClass.unit(R, 12) + TotalClass.of_element(a[0], 12) + TotalClass.of_element(a[1], 12)
    tb = TotalClass.unit(R, 12) + TotalClass.of_element(b[0], 12) + TotalClass.of_element(b[1], 12)
    tsum = ta * tb
    csum = [tsum.component(2 * j) for j in range(1, 5)]
    va, vb = VirtualBundle(2, a, [], 12), VirtualBundle(2, b, [], 12)
    vsum = VirtualBundle(4, csum, [], 12)
    assert w_bro(R, vsum) == w_bro(R, va) * w_bro(R, vb)


def test_virtual_bundle_divides():
    R = _root_ring(2, 2)
    num = [R.gen("t1") + R.gen("t2"), R.gen("t1") * R.gen("t2")]
    den = [R.gen("t1")]
    v = VirtualBundle(1, num, den, truncation=10)
    direct = w_bro(R, VirtualBundle(2, num, [], 10)) * w_bro(
        R, VirtualBundle(1, den, [], 10)
    ).inverse()
    assert w_bro(R, v) == direct


def _power(x, n):
    """x^n for a TotalClass x by repeated squaring, through x.inverse() for
    n < 0: the route the closed forms for eta powers are checked against."""
    if n < 0:
        return _power(x.inverse(), -n)
    result = TotalClass.unit(x.parent, x.bound)
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def test_totalclass_inverse_and_power():
    R = _root_ring(3, 2)
    f = TotalClass.unit(R, 12) + TotalClass.of_element(R.gen("t1", 2), 12).scale(2)
    assert f * f.inverse() == TotalClass.unit(R, 12)
    assert _power(f, -2) == (f * f).inverse()
    assert _power(f, 0) == TotalClass.unit(R, 12)


# ------------------------------- total-class arithmetic against the reference


TOTAL_RINGS = ["model:2:3", "model:3:2", "model:5:2"]
TOTAL_RINGS += [n for n in corpus.scenario_names() if n.startswith("PROJ")]
_total_rings = {}


def _total_ring(key):
    if key not in _total_rings:
        if key.startswith("model:"):
            R = model_ring(*map(int, key.split(":")[1:]))
        else:
            R = corpus.resolve_ring(key)
        _total_rings[key] = (R, {d: R.basis_of_degree(d) for d in range(1, 9)})
    return _total_rings[key]


def _total(R, bound, comps):
    """The TotalClass with the degree components comps."""
    return TotalClass.of_element(reduce(add, comps.values(), R.zero()), bound)


def _draw_components(data, key, unit=None):
    """(ring, bound, components) of a random class truncated at a bound of
    0..8, with up to three monomials per degree and the given scalar (or a
    random one) in degree 0."""
    R, bases = _total_ring(key)
    bound = data.draw(st.integers(0, 8))
    if unit is None:
        unit = data.draw(st.integers(0, R.prime - 1))
    comps = {0: R.one().scale(unit)}
    for d in range(1, bound + 1):
        if bases[d] and data.draw(st.booleans()):
            monos = data.draw(st.lists(st.sampled_from(bases[d]), max_size=3, unique=True))
            comps[d] = R.element({m: data.draw(st.integers(1, R.prime - 1)) for m in monos})
    return R, bound, comps


def _draw_total(data, key, unit=None):
    return _total(*_draw_components(data, key, unit))


def _reference_product(a, b):
    return _total(a.parent, min(a.bound, b.bound), total_class_mul_reference(a, b))


@pytest.mark.parametrize("key", TOTAL_RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_totalclass_product_matches_reference(key, data):
    a, b = _draw_total(data, key), _draw_total(data, key)
    assert a * b == _reference_product(a, b)
    assert (a * b).components == total_class_mul_reference(a, b)


@pytest.mark.parametrize("key", TOTAL_RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_totalclass_power_and_inverse(key, data):
    R, _ = _total_ring(key)
    x = _draw_total(data, key, unit=data.draw(st.integers(1, R.prime - 1)))
    unit = TotalClass.unit(R, x.bound)
    inv = x.inverse()
    assert _reference_product(x, inv) == unit
    assert _reference_product(inv, x) == unit
    n = data.draw(st.integers(-4, 9))
    base = x if n >= 0 else inv
    want = unit
    for _ in range(abs(n)):
        want = _reference_product(want, base)
    assert _power(x, n) == want


def _agrees(x, ref):
    assert (x.bound, x.render(), x.components) == (ref.bound, ref.render(), ref.components)


@pytest.mark.parametrize("key", TOTAL_RINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_totalclass_matches_reference_class(key, data):
    """Sums, scalings, products (by a class and by an element), inverses and,
    on the P^n-bundle rings, pushforwards agree with the degree-map class."""
    R, _ = _total_ring(key)
    drawn_a = _draw_components(data, key, unit=data.draw(st.integers(1, R.prime - 1)))
    drawn_b = _draw_components(data, key)
    (a, ref_a), (b, ref_b) = ((_total(*d), ReferenceTotalClass(*d)) for d in (drawn_a, drawn_b))
    _agrees(a, ref_a)
    _agrees(a + b, ref_a + ref_b)
    c = data.draw(st.integers(0, R.prime - 1))
    _agrees(a.scale(c), ref_a.scale(c))
    _agrees(a * b, ref_a * ref_b)
    elt = reduce(add, drawn_b[2].values(), R.zero())
    _agrees(a * elt, ref_a * elt)
    _agrees(a.inverse(), ref_a.inverse())
    if key.startswith("PROJ"):
        n = fiber_dimension(R)
        for x, ref in ((a * b, ref_a * ref_b), (a.inverse(), ref_a.inverse())):
            _agrees(projective_pushforward(x), ref.projective_pushforward(n))


def test_far_truncation_on_a_nilpotent_ring():
    """At the largest truncation, 2^29 - 1, the inverse takes one Newton
    step per doubling of its exact degrees, each on a few terms."""
    R = _dsl_ring("FAR", ["prime = 2", "gen w deg=1", "gen t deg=2", "rule w^3 = 0",
                          "rule t^3 = 0", "omega = w"])
    t, far = R.gen("t"), 2 ** 29 - 1
    assert w_bro(R, VirtualBundle(1, [t], [t], far)) == TotalClass.unit(R, 2 * far)
    assert w_et(R, VirtualBundle(1, [t], [t], far)).render() == "[0] 1; [1] w"


def test_bounds_must_fit_the_degree_tag():
    from steencalc import InvalidArgument

    R = _proj(1)
    with pytest.raises(InvalidArgument, match="truncation 536870912 is not below 536870912"):
        w_bro(R, VirtualBundle(1, [R.gen("l")], [], 2 ** 29))
    for call in (lambda: normal_bundle_total(R, 2 ** 30),
                 lambda: total_operation_class(R.gen("l"), 2 ** 30),
                 lambda: TotalClass.unit(R, 2 ** 30)):
        with pytest.raises(InvalidArgument, match="degree bound 1073741824 is not below"):
            call()


def test_totalclass_inverse_needs_unit():
    from steencalc import NonHomogeneousInput

    R = _root_ring(2, 1)
    f = TotalClass.of_element(R.gen("t1"), 6)
    with pytest.raises(NonHomogeneousInput):
        f.inverse()


def _p2r():
    source = (
        "ring P {\n"
        "  prime = 2;\n"
        "  gen w deg=1;\n"
        "  gen l deg=2 twist=1;\n"
        "  rule l^3 = 0;\n"
        "  action Sq^1(l) = w*l;\n"
        "  omega = w;\n"
        "}\n"
    )
    return dsl.build_program(dsl.parse(source)).rings["P"]


def test_line_bundle_etale_class():
    R = _p2r()
    v = VirtualBundle(1, [R.gen("l")], [], truncation=8)
    total = w_et(R, v)
    # eta * (1 + eta^{-1} l) = 1 + w + l
    assert total.component(0) == R.one()
    assert total.component(1) == R.gen("w")
    assert total.component(2) == R.gen("l")
    assert not total.component(3)


def test_wet_needs_omega_at_2():
    R = RingPresentation(2, [GeneratorSpec("l", 2, twist=1, action={1: {}})])
    v = VirtualBundle(1, [R.gen("l")], [], truncation=6)
    with pytest.raises(OmegaUndeclared):
        w_et(R, v)


def test_wet_chow_line_and_rank2():
    R = _p2r()
    assert verify_wet_chow(R, VirtualBundle(1, [R.gen("l")], [], 8))
    assert verify_wet_chow(R, VirtualBundle(2, [R.gen("l"), R.gen("l", 2)], [], 8))
    # virtual difference of line bundles
    assert verify_wet_chow(R, VirtualBundle(0, [R.gen("l")], [R.gen("w", 2)], 8))


def test_wet_equals_wbro_at_odd_primes():
    R = _root_ring(3, 2)
    v = VirtualBundle(2, [_elementary_in_ring(R, 2, 1), _elementary_in_ring(R, 2, 2)], [], 10)
    assert w_et(R, v) == w_bro(R, v)


# ------------------------------------- closed forms against power and inverse
#
# The engine writes eta^e = (1 + omega)^e, the normal class of P^n over the
# base and the etale class as finite binomial sums; _power (above) and
# TotalClass.inverse, truncated-series routes of their own, give the same
# classes.

_bundle_rings = {}


def _dsl_ring(name, lines):
    source = "ring %s {\n%s}\n" % (name, "".join("  %s;\n" % line for line in lines))
    return dsl.build_program(dsl.parse(source)).rings[name]


def _bundle_ring(key):
    """P^n-bundle rings: the shipped PROJn_2 and PROJn_3, and PROJn_5 built
    here from DSL text; "NIL" is a base where omega^3 = 0."""
    if key not in _bundle_rings:
        if key == "NIL":
            R = _dsl_ring(key, ["prime = 2", "gen w deg=1", "gen l deg=2 twist=1", "rule w^3 = 0",
                                "rule l^3 = 0", "action Sq^1(l) = w*l", "omega = w"])
        elif key.endswith("_5"):
            R = _dsl_ring(key, ["prime = 5", "gen v deg=2 twist=1", "gen l deg=2 twist=1",
                                "rule l^%d = 0" % (int(key[4:-2]) + 1),
                                "action b(v) = 0", "action b(l) = 0"])
        else:
            R = corpus.resolve_ring(key)
        _bundle_rings[key] = R
    return _bundle_rings[key]


PROJ_KEYS = ["PROJ%d_%d" % (n, ell) for n in range(1, 5) for ell in (2, 3, 5)]
OMEGA_KEYS = [k for k in PROJ_KEYS if k.endswith("_2")] + ["NIL"]


def _eta(R, bound):
    return TotalClass.of_element(R.one() + R.gen(R.omega), bound)


def _draw_homogeneous(data, R, degree):
    monos = R.basis_of_degree(degree)
    picked = data.draw(st.lists(st.sampled_from(monos), max_size=3, unique=True)) if monos else []
    return R.element({m: data.draw(st.integers(1, R.prime - 1)) for m in picked})


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(PROJ_KEYS), bound=st.integers(0, 40))
def test_normal_bundle_total_matches_power_route(key, bound):
    R = _bundle_ring(key)
    n, ell = int(key[4:-2]), R.prime
    lam = R.gen("l")
    if ell == 2:
        eta = _eta(R, bound)
        want = eta * _power(eta + TotalClass.of_element(lam, bound), -(n + 1))
    else:
        step = TotalClass.of_element(lam ** (ell - 1), bound)
        want = _power(TotalClass.unit(R, bound) + step, -(n + 1))
    assert normal_bundle_total(R, bound) == want


@lru_cache(maxsize=None)
def _w_line():
    R = RingPresentation(2, [GeneratorSpec("w", 1)], omega="w")
    return R, _omega_powers(R, 300)


def _eta_power_terms(e):
    """300, and the i with omega^i in eta^e through degree 300, each term
    checked to be omega^i itself."""
    R, omegas = _w_line()
    got = _eta_power(R, omegas, e, 300).components
    assert all(c == R.gen("w", i) for i, c in got.items()), e
    return 300, list(got)


def _normal_class_terms(e):
    """n, and the k with lambda^k in the normal class of P^n, e = -(n+1)
    with n >= 1 (a rule's power is at least 2), over a base where
    omega^2 = 0, so eta^-(n+k) has constant term 1."""
    n = -e - 1
    R = RingPresentation(2, [GeneratorSpec("w", 1), GeneratorSpec("l", 2)],
                         rules=[RewriteRule("w", 2, {}), RewriteRule("l", n + 1, {})], omega="w")
    total = normal_bundle_total(R, 2 * n)
    return n, [k for k in range(n + 1) if (0, k) in total.component(2 * k).terms]


@pytest.mark.parametrize("terms, exponents", [
    *(pytest.param(_eta_power_terms, range(low, low + 100), id=str(low))
      for low in range(-300, 300, 100)),
    pytest.param(_normal_class_terms, range(-200, -1), id="normal-class"),
])
def test_eta_power_odd_binomials_match_lucas(terms, exponents):
    """The closed forms keep a term exactly where C(e, i) is odd, which they
    read as i & ~e == 0 (Lucas, ~e the 2-adic digits of a negative e):
    omega^i in eta^e for e of either sign, and lambda^k in the normal class
    of P^n, where e = -(n+1) and ~e = n."""
    for e in exponents:
        top, kept = terms(e)
        assert kept == [i for i in range(top + 1) if binom_mod_ell(e, i, 2)], e


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(OMEGA_KEYS), e=st.integers(-9, 9), bound=st.integers(0, 24))
def test_eta_power_matches_power_route(key, e, bound):
    R = _bundle_ring(key)
    assert _eta_power(R, _omega_powers(R, bound), e, bound) == _power(_eta(R, bound), e)


def _w_et_by_power(R, v):
    """eta^rank * side(num) * side(den)^-1 with side(c) = sum_j eta^-j c_j,
    every eta power taken by _power and inverse."""
    bound = 2 * v.truncation
    eta = _eta(R, bound)
    inv = eta.inverse()

    def side(chern):
        acc = power = TotalClass.unit(R, bound)
        for cj in chern:
            power = power * inv
            acc = acc + power * cj
        return acc

    return _power(eta, v.rank) * side(v.numerator_chern) * side(v.denominator_chern).inverse()


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(OMEGA_KEYS), data=st.data())
def test_w_et_matches_power_route(key, data):
    R = _bundle_ring(key)
    num, den = (
        [_draw_homogeneous(data, R, 2 * j) for j in range(1, data.draw(st.integers(0, 3)) + 1)]
        for _ in range(2)
    )
    rank = data.draw(st.integers(-5, 5))
    v = VirtualBundle(rank, num, den, truncation=data.draw(st.integers(0, 8)))
    assert w_et(R, v) == _w_et_by_power(R, v)
    assert verify_wet_chow(R, v)


# -------------------- total classes from total_sq against the retagged totals


def _cartan_ring(key):
    """The model rings, the shipped PROJ and MO rings, and two rings whose
    actions leave components out: at l = 2 Sq^1 of t and Sq^2 of a, at
    l = 3 P^1 of y."""
    if key == "MISSING2":
        return _dsl_ring(key, ["prime = 2", "gen w deg=1", "gen t deg=2", "gen a deg=3",
                               "rule w^4 = 0", "action Sq^1(a) = w*a", "omega = w"])
    if key == "MISSING3":
        return _dsl_ring(key, ["prime = 3", "gen x deg=1 odd twist=1", "gen z deg=2 twist=1",
                               "gen y deg=4 twist=2", "action b(x) = z", "action b(z) = 0",
                               "action b(y) = 0"])
    return _total_ring(key)[0]


CARTAN_RINGS = TOTAL_RINGS + [n for n in corpus.scenario_names() if n.startswith("MO")]
CARTAN_RINGS += ["MISSING2", "MISSING3"]


def _same_outcome(run, reference):
    """run() returns what reference() returns, bound included, or raises an
    error of the same class."""
    try:
        want = reference()
    except SteencalcError as exc:
        with pytest.raises(type(exc)):
            run()
        return
    got = run()
    assert (got.bound, got) == (want.bound, want)


@pytest.mark.parametrize("key", CARTAN_RINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_total_operation_class_matches_retagged_totals(key, data):
    """Inhomogeneous inputs of degree up to 8, bounds below and above the
    instability top l * degree."""
    R = _cartan_ring(key)
    x = R.zero()
    for d in data.draw(st.lists(st.integers(0, 8), max_size=3)):
        x = x + _draw_homogeneous(data, R, d)
    bound = data.draw(st.integers(0, R.prime * 8 + 2))
    _same_outcome(lambda: total_operation_class(x, bound),
                  lambda: reference_total_operation_class(x, bound))


@pytest.mark.parametrize("key, name", [("MISSING2", "t"), ("MISSING2", "a"), ("MISSING3", "y")])
def test_total_classes_raise_a_missing_component(key, name):
    R = _cartan_ring(key)
    g = R.gen(name)
    with pytest.raises(MissingActionComponent):
        total_operation_class(g, 20)


def test_element_times_total_class_keeps_operand_order():
    """elt * total equals total * elt at l = 2, and at l = 3 an odd-degree
    factor on the left gives the Koszul sign of its order."""
    P = corpus.resolve_ring("PROJ2_2")
    u, total = P.gen("u"), TotalClass.of_element(P.gen("l"), 6)
    assert (u * total).render() == (total * u).render() == "[4] u*l"
    R = model_ring(3, 2)
    x1, x2 = R.gen("x1"), R.gen("x2")
    left = x1 * TotalClass.of_element(x2 + R.one(), 6)
    right = TotalClass.of_element(x2 + R.one(), 6) * x1
    assert left == TotalClass.of_element(x1 * x2 + x1, 6)
    assert right == TotalClass.of_element(x2 * x1 + x1, 6)
    assert left != right


def test_total_class_arithmetic_with_ints_and_elements():
    """An int scales a total class from either side; a ring element is
    added or multiplied at the class's bound, from either side; any other
    operand raises TypeError."""
    P = corpus.resolve_ring("PROJ2_2")
    u, l = P.gen("u"), P.gen("l")
    total = TotalClass.of_element(l, 6)
    assert total * 3 == 3 * total == total and total * 2 == 2 * total == TotalClass(P, 6)
    assert total + u == u + total == TotalClass.of_element(l + u, 6)
    assert (u + total).bound == 6 and (u + total).render() == "[2] %s" % (l + u).render()
    assert TotalClass.of_element(l, 1) + u == TotalClass(P, 1)
    R = model_ring(3, 2)
    odd = TotalClass.of_element(R.gen("x2") + R.one(), 6)
    assert odd * 2 == 2 * odd == odd.scale(2) != odd
    for bad in (lambda: total + 3, lambda: 3 + total, lambda: total * 2.0, lambda: 2.0 * total,
                lambda: total + "l", lambda: total - u, lambda: u - total, lambda: u + 3):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(MixedPrimes):
        total + model_ring(2, 2).gen("x1")


INVARIANT_RINGS = ["model:2:3", "model:3:2", "model:5:2"] + corpus.scenario_names()


def _maybe(make, *args):
    """[make(*args)], or [] where an action component it needs is missing."""
    try:
        return [make(*args)]
    except MissingActionComponent:
        return []


@pytest.mark.parametrize("key", INVARIANT_RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_packed_monomial_carries_its_degree(key, data):
    """The field above the generators holds each monomial's degree, however
    the element or total class was made."""
    R = _total_ring(key)[0] if key.startswith("model:") else corpus.resolve_ring(key)
    raw = {tuple(data.draw(st.integers(0, 4)) for _ in range(R.n)): data.draw(st.integers(1, 9))
           for _ in range(data.draw(st.integers(0, 3)))}
    x = R.element(raw)
    for d in data.draw(st.lists(st.integers(0, 6), max_size=2)):
        x = x + _draw_homogeneous(data, R, d)
    y = _draw_homogeneous(data, R, data.draw(st.integers(1, 6)))
    made = [x, y, x * y, x ** data.draw(st.integers(0, 3)), y * 2]
    made += _maybe(R.bockstein, x) + [c for t in _maybe(R.total_sq, x) for c in t.values()]
    for letter in range(4):
        made += _maybe(R.apply_letter, letter, x)
    bound = data.draw(st.integers(0, 16))
    a, b = TotalClass.of_element(x, bound), TotalClass.of_element(R.one() + y, bound)
    made += [a, b, a * b, y * a, a + y, b.inverse(), b.inverse() * a]
    made += _maybe(total_operation_class, x, bound)
    for elt in made:
        for m in elt._packed:
            assert m >> R._tag_shift == R.monomial_degree(R._unpack(m))


# --------------------------- the F_l product route against the e-basis route
#
# w_bro takes prod_i (1 + t_i^(l-1)) from the product of the classes
# 1 + sum_j a^j c_j over a in F_l^x.  The reference below is the former
# route: p_n in the elementary symmetric functions over Z by Newton's
# identity, the product as an exponential by a recurrence with exact
# division, and e_j replaced with c_j at the end.  An e-polynomial maps an
# exponent tuple (d_1, d_2, ...) of e_1^d_1 e_2^d_2 ... to its coefficient,
# in Z[e_1..e_r] for a bundle of rank r.


def _dvec_weight(dvec):
    return sum(j * d for j, d in enumerate(dvec, start=1))


def _emul(acc, c, a, b):
    """acc += c*a*b on e-polynomials, in place."""
    for da, ca in a.items():
        ca *= c
        for db, cb in b.items():
            key = tuple(map(add, da, db)) + da[len(db):] + db[len(da):]
            acc[key] = acc.get(key, 0) + ca * cb


@lru_cache(maxsize=None)
def _power_sum_in_elementary(n, r):
    """p_n = e_1 p_{n-1} - e_2 p_{n-2} + ... + (-1)^{n-1} n e_n."""
    if n == 0:
        return {(): 1}
    out = {(0,) * (n - 1) + (1,): (-1) ** (n - 1) * n} if n <= r else {}
    for i in range(1, min(n - 1, r) + 1):
        _emul(out, (-1) ** (i - 1), {(0,) * (i - 1) + (1,): 1}, _power_sum_in_elementary(n - i, r))
    return {dvec: coeff for dvec, coeff in out.items() if coeff}


@lru_cache(maxsize=None)
def _product_one_plus_power_expansion(c, max_weight, r):
    """prod_i (1 + t_i^c) through weight max_weight: W = exp(sum_m
    (-1)^{m+1} p_{cm} / m) by n W_n = sum_{cm <= n} (-1)^{m+1} c p_{cm}
    W_{n-cm}, each sum exactly divisible by n."""
    by_weight = {0: {(): 1}}
    for n in range(1, max_weight + 1):
        acc = {}
        for m in range(1, n // c + 1):
            rest = by_weight.get(n - c * m)
            if rest:
                _emul(acc, c if m % 2 else -c, _power_sum_in_elementary(c * m, r), rest)
        piece = {}
        for dvec, coeff in acc.items():
            if coeff:
                q, rem = divmod(coeff, n)
                assert not rem, "non-integral symmetric expansion"
                piece[dvec] = q
        if piece:
            by_weight[n] = piece
    return {dvec: coeff for chunk in by_weight.values() for dvec, coeff in chunk.items()}


def _reference_splitting_total(R, chern, truncation):
    comps = {0: R.one()}
    for dvec, coeff in _product_one_plus_power_expansion(R.prime - 1, truncation, len(chern)).items():
        w = _dvec_weight(dvec)
        if w:
            term = R.one()
            for cj, d in zip(chern, dvec):
                term = term * cj ** d
            comps[2 * w] = comps.get(2 * w, R.zero()) + term.scale(coeff)
    return _total(R, 2 * truncation, comps)


def _chern_ring(ell, nil):
    """F_ell[u, v], deg u = 2 and deg v = 4, free or with nilpotence rules
    (u^4 = u^2 v, v^3 = 0, so u^8 = 0)."""
    rules = ["rule u^4 = u^2*v", "rule v^3 = 0"] if nil else []
    key = "CHERN%d%s" % (ell, "NIL" if nil else "")
    if key not in _bundle_rings:
        _bundle_rings[key] = _dsl_ring(
            key, ["prime = %d" % ell, "gen u deg=2 twist=1", "gen v deg=4 twist=2"] + rules
        )
    return _bundle_rings[key]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("nil", [False, True])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_w_bro_matches_elementary_symmetric_route(ell, nil, data):
    R = _chern_ring(ell, nil)
    rank = data.draw(st.integers(0, 6))
    num = [_draw_homogeneous(data, R, 2 * j) for j in range(1, rank + 1)]
    den = [_draw_homogeneous(data, R, 2 * j) for j in range(1, data.draw(st.integers(0, 6)) + 1)]
    truncation = data.draw(st.integers(0, 12))
    want = _reference_splitting_total(R, num, truncation)
    if den:
        want = want * _reference_splitting_total(R, den, truncation).inverse()
    assert w_bro(R, VirtualBundle(rank - len(den), num, den, truncation)) == want


def test_nilpotent_bundle_needs_no_long_expansion():
    """Every class of the nilpotent base vanishes above degree 14, so a
    truncation of 1000 gives the truncation-12 answer."""
    R = _chern_ring(3, True)
    u, v = R.gen("u"), R.gen("v")
    chern = [u, u * u + v, u * v, u * u * v + v * v, u * v * v, u * u * v * v]
    w = w_bro(R, VirtualBundle(6, chern, [], truncation=1000))
    assert w.bound == 2000
    assert w.components == w_bro(R, VirtualBundle(6, chern, [], truncation=12)).components
    assert w.components


# ------------------------------------------------------------- pushforward


def _proj(n, ell=2):
    return corpus.resolve_ring("PROJ%d_%d" % (n, ell))


def test_fiber_dimension_reads_the_rule():
    from steencalc.charclasses import fiber_dimension

    for n in (1, 2, 3):
        assert fiber_dimension(_proj(n)) == n


def test_not_projective_scenario():
    R = _p2r()  # rule l^3 = w-free, but hyperplane name differs
    with pytest.raises(NotProjectiveBundleScenario):
        projective_pushforward(R.one(), hyperplane="w")


@pytest.mark.parametrize("call, error, message", [
    (lambda: VirtualBundle(1, [_proj(1, 3).gen("l")]).validate(_proj(1)),
     ValueError, "Chern class c_1 is not an element of the base ring"),
    (lambda R=model_ring(3, 2): VirtualBundle(1, [R.gen("y1")]).validate(R),
     NonHomogeneousInput, "c_1 must have twist 1"),
    (lambda: fiber_dimension(_proj(2), "h"), NotProjectiveBundleScenario, "no generator 'h'"),
    (lambda: fiber_dimension(
        RingPresentation(2, [GeneratorSpec("w", 1)], rules=[RewriteRule("w", 3, {})]), "w"),
     NotProjectiveBundleScenario, "hyperplane class must be even of degree 2"),
])
def test_bundles_and_pushforwards_reject_bad_input(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


def test_pushforward_picks_top_power():
    R = _proj(2)
    l, u = R.gen("l"), R.gen("u")
    # integrates l^n against the fiber and drops lower powers
    assert projective_pushforward(l * l) == R.one()
    assert not projective_pushforward(l)
    assert not projective_pushforward(u)
    assert projective_pushforward(u * l * l) == u


def test_pushforward_is_linear():
    R = _proj(2)
    l, u, w = R.gen("l"), R.gen("u"), R.gen("w")
    x = u * l * l + w.scale(1) * l
    assert projective_pushforward(x) == u


def test_normal_bundle_total_p1():
    R = _proj(1)
    total = normal_bundle_total(R, 8)
    # eta(eta+l)^{-2} at l=2: degree-0 part is 1
    assert total.component(0) == R.one()
    assert total


def test_relative_wu_holds_across_corpus():
    for n in (1, 2):
        for ell in (2, 3):
            R = _proj(n, ell)
            for m in range(n + 1):
                assert verify_relative_wu_projective(R.one(), m)


def test_relative_wu_rejects_fiber_classes():
    R = _proj(2)
    with pytest.raises(ValueError):
        verify_relative_wu_projective(R.gen("l"), 1)


def test_relative_wu_fails_on_wrong_action():
    """If the hyperplane class pretends Sq^1 l = 0 while omega is nonzero,
    the pushforward identity must break somewhere: the check has teeth."""
    source = (
        "ring FAKE {\n"
        "  prime = 2;\n"
        "  gen w deg=1;\n"
        "  gen u deg=2 twist=1;\n"
        "  gen l deg=2 twist=1;\n"
        "  rule l^2 = 0;\n"
        "  action Sq^1(u) = w*u;\n"
        "  action Sq^1(l) = 0;\n"
        "  omega = w;\n"
        "}\n"
    )
    R = dsl.build_program(dsl.parse(source)).rings["FAKE"]
    results = [
        verify_relative_wu_projective(y, m)
        for m in (0, 1)
        for y in (R.one(), R.gen("u"), R.gen("w", 2))
    ]
    assert not all(results)
