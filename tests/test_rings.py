"""Presented rings: normal forms, Koszul signs, operation actions, twists."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from steencalc import (
    GeneratorSpec,
    InvalidArgument,
    MissingActionComponent,
    MixedPrimes,
    NonHomogeneousInput,
    RewriteRule,
    RingElement,
    RingPresentation,
    corpus,
    dsl,
    model_ring,
    parse_operation,
    rings,
    UnknownGenerator,
    total_operation_class,
)
from steencalc.cli import main
from steencalc.errors import RuleNonTermination

from oracles import Model2, ModelOdd
from references import CartanReference, data_file_path, reference_basis_of_degree


@pytest.fixture(scope="module")
def R2():
    return model_ring(2, 3)


@pytest.fixture(scope="module")
def R3():
    return model_ring(3, 2)


def _to_engine2(R, cls):
    out = R.zero()
    for m, c in cls.items():
        out = out + R.element({m: c})
    return out


def _to_engine3(R, cls):
    # oracle monomial ((xbits), (ypows)) -> engine exponent tuple x..y..
    out = R.zero()
    for (xbits, ypows), c in cls.items():
        out = out + R.element({tuple(xbits) + tuple(ypows): c})
    return out


# ----------------------------------------------------------- normal forms


def test_rule_rewrites_iterate():
    R = RingPresentation(
        2,
        [GeneratorSpec("w", 1), GeneratorSpec("s", 3)],
        rules=[RewriteRule("s", 2, {(3, 1): 1})],
    )
    s = R.gen("s")
    assert (s * s) == R.gen("w", 3) * s
    # s^3 = w^3 s^2 = w^6 s
    assert (s * s * s) == R.gen("w", 6) * s


def test_rule_cycle_detected():
    with pytest.raises(RuleNonTermination):
        R = RingPresentation(
            2,
            [GeneratorSpec("g", 2), GeneratorSpec("h", 2)],
            rules=[
                RewriteRule("g", 2, {(0, 2): 1}),
                RewriteRule("h", 2, {(2, 0): 1}),
            ],
        )
        R.gen("g", 2)


def test_reduction_bound_is_per_call(monkeypatch):
    """The rewrite step bound limits one reduction, not the presentation's
    lifetime: many cheap reductions in a row never trip it."""
    monkeypatch.setattr(rings, "_MAX_REDUCTIONS", 50)
    with open(data_file_path("MO3"), encoding="utf-8") as fh:
        mo3 = dsl.build_program(dsl.parse(fh.read())).rings["MO3"]
    for a in range(120):  # each w1^a*s^2 needs one rewrite step
        assert mo3.element({(a, 0, 0, 2): 1}) == mo3.element({(a, 0, 1, 1): 1})
    # a single reduction longer than the bound still raises
    R = RingPresentation(
        2, [GeneratorSpec("x", 1), GeneratorSpec("y", 2)],
        rules=[RewriteRule("x", 2, {(0, 1): 1})],
    )
    assert R.gen("x", 80) == R.gen("y", 40)  # 40 rewrite steps
    with pytest.raises(RuleNonTermination):
        R.gen("x", 120)


def test_long_rewrite_chains_do_not_recurse():
    R = RingPresentation(
        2, [GeneratorSpec("x", 1), GeneratorSpec("y", 2)],
        rules=[RewriteRule("x", 2, {(0, 1): 1})],
    )
    assert R.gen("x", 20000) == R.gen("y", 10000)  # 10000 rewrite steps


def test_rewrite_rounds_merge_equal_results():
    # x^2 = x*y + y^2 over F_2: x^3 = y^3 and x^4 = x*y^3, where x*y^2 and
    # x*y^3 are reached twice (once within a round) and cancel
    R = RingPresentation(
        2, [GeneratorSpec("x", 1), GeneratorSpec("y", 1)],
        rules=[RewriteRule("x", 2, {(1, 1): 1, (0, 2): 1})],
    )
    assert R.gen("x", 3) == R.gen("y", 3)
    assert R.gen("x", 4) == R.gen("x") * R.gen("y", 3)


def test_rule_rhs_must_be_lead_reduced():
    with pytest.raises(RuleNonTermination):
        RingPresentation(
            2,
            [GeneratorSpec("g", 1)],
            rules=[RewriteRule("g", 2, {(3,): 1})],
        )


def test_rule_rhs_must_be_homogeneous():
    with pytest.raises(NonHomogeneousInput):
        RingPresentation(
            2,
            [GeneratorSpec("g", 2), GeneratorSpec("w", 1)],
            rules=[RewriteRule("g", 2, {(0, 1): 1})],
        )


def test_odd_squares_vanish(R3):
    x1 = R3.gen("x1")
    assert not (x1 * x1)
    assert not R3.element({(2, 0, 0, 0): 1})


def test_koszul_sign(R3):
    x1, x2 = R3.gen("x1"), R3.gen("x2")
    assert x2 * x1 == (x1 * x2).scale(-1)
    # even classes commute with everything
    y1 = R3.gen("y1")
    assert x1 * y1 == y1 * x1


def test_parity_degree_agreement_enforced():
    with pytest.raises(ValueError):
        RingPresentation(3, [GeneratorSpec("x", 1)])  # even parity, odd degree
    with pytest.raises(ValueError):
        RingPresentation(2, [GeneratorSpec("x", 1, parity="odd")])


# ------------------------------------------------------- actions vs oracle


mono2 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
cls2 = st.dictionaries(mono2, st.just(1), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(cls2, st.integers(1, 7))
def test_letter_action_matches_oracle_l2(cls, k):
    R = model_ring(2, 3)
    model = Model2(3)
    # keep inputs homogeneous so the comparisons stay simple
    degree = sum(next(iter(cls)))
    cls = {m: 1 for m in cls if sum(m) == degree}
    got = R.apply_letter(k, _to_engine2(R, cls))
    want = _to_engine2(R, model.apply_letter(k, cls))
    assert got == want


xbits = st.tuples(st.integers(0, 1), st.integers(0, 1))
ypows = st.tuples(st.integers(0, 3), st.integers(0, 3))
mono3 = st.tuples(xbits, ypows)
cls3 = st.dictionaries(mono3, st.integers(1, 2), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(cls3, st.integers(0, 4))
def test_letter_action_matches_oracle_l3(cls, k):
    R = model_ring(3, 2)
    model = ModelOdd(3, 2)
    got = R.apply_letter(k, _to_engine3(R, cls))
    want = _to_engine3(R, model.apply_letter(k, cls))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    mono2.filter(any),
)
def test_word_action_matches_oracle_l2(word, m):
    R = model_ring(2, 3)
    model = Model2(3)
    got = R.apply_word(word, R.element({m: 1}))
    want = _to_engine2(R, model.apply_word(word, {m: 1}))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
    mono3,
)
def test_word_action_matches_oracle_l3(word, m):
    R = model_ring(3, 2)
    model = ModelOdd(3, 2)
    got = R.apply_word(word, _to_engine3(R, {m: 1}))
    want = _to_engine3(R, model.apply_word(word, {m: 1}))
    assert got == want


# --------------------------------------------------- Cartan and Bockstein


@settings(max_examples=100, deadline=None)
@given(mono2, mono2, st.integers(1, 6))
def test_cartan_on_products_l2(ma, mb, k):
    R = model_ring(2, 3)
    a, b = R.element({ma: 1}), R.element({mb: 1})
    lhs = R.apply_letter(k, a * b)
    rhs = R.zero()
    for i in range(k + 1):
        rhs = rhs + R.apply_letter(i, a) * R.apply_letter(k - i, b)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(mono3, mono3)
def test_bockstein_is_signed_derivation_l3(ma, mb):
    R = model_ring(3, 2)
    a = _to_engine3(R, {ma: 1})
    b = _to_engine3(R, {mb: 1})
    dega = sum(ma[0]) + 2 * sum(ma[1])
    lhs = R.bockstein(a * b)
    sign = -1 if dega % 2 else 1
    rhs = R.bockstein(a) * b + (a * R.bockstein(b)).scale(sign)
    assert lhs == rhs


def test_bockstein_collapses_to_sq1_at_2(R2):
    x = R2.gen("x1") * R2.gen("x2") + R2.gen("x3", 2)
    assert R2.bockstein(x) == R2.apply_letter(1, x)


def test_b_and_sq1_on_one_generator_are_rejected_at_2():
    # at l = 2 the key "b" is Sq^1: giving both would let one silently win
    with pytest.raises(ValueError, match="^action on y declares both b and Sq\\^1$"):
        RingPresentation(2, [GeneratorSpec("x", 1),
                             GeneratorSpec("y", 2, action={1: {(1, 1): 1}, "b": {}})])


@pytest.mark.parametrize("build, error, message", [
    (lambda: RingPresentation(2, [GeneratorSpec("g", 1)], rules=[RewriteRule("g", 1, {})]),
     ValueError, "rule power must be >= 2"),
    (lambda: RingPresentation(
        3, [GeneratorSpec("x", 1, parity="odd"), GeneratorSpec("y", 2)],
        rules=[RewriteRule("x", 2, {(0, 1): 1})]),
     ValueError, "odd-parity generator x already squares to zero"),
    (lambda: RingPresentation(2, [GeneratorSpec("w", 1, action={0: {}})]),
     ValueError, "bad action key 0 on w"),
    (lambda: RingPresentation(2, [GeneratorSpec("w", 1, action={2: {(2,): 1}})]),
     ValueError, "action component 2 on w lies above instability"),
    (lambda: RingPresentation(
        3, [GeneratorSpec("y", 2, twist=1, action={1: {(2, 1): 1}}), GeneratorSpec("z", 2)]),
     NonHomogeneousInput, "action on y: component twist 2 != 1 mod 2"),
    (lambda: model_ring(2, 1).apply_op_value(parse_operation("P^1", 3), model_ring(2, 1).one()),
     MixedPrimes, "operation at prime 3 on ring at prime 2"),
    (lambda: model_ring(2, 1).gen("x1") * model_ring(2, 2).gen("x1"),
     MixedPrimes, "elements of different presentations"),
    (lambda: model_ring(2, 1).apply_op_value(parse_operation("Sq^0", 2), model_ring(2, 2).gen("x1")),
     MixedPrimes, "elements of different presentations"),
    (lambda: model_ring(2, 1).gen("x1") ** -1, ValueError, "negative power of a ring element"),
    (lambda: RingPresentation(2, [GeneratorSpec("x", 1), GeneratorSpec("x", 2)]),
     ValueError, "duplicate generator names"),
    (lambda: RingPresentation(3, [GeneratorSpec("x", 2, parity="neither")]),
     ValueError, "parity must be even or odd"),
    (lambda: RingPresentation(2, [GeneratorSpec("x", 1)], rules=[RewriteRule("z", 2, {})]),
     ValueError, "rule on undeclared generator 'z'"),
    (lambda: RingPresentation(2, [GeneratorSpec("x", 1), GeneratorSpec("y", 2)],
                              rules=[RewriteRule("y", 2, {(4,): 1})]),
     ValueError, "rule rhs monomial of wrong width"),
    (lambda: RingPresentation(3, [GeneratorSpec("x", 2), GeneratorSpec("y", 4, twist=1)],
                              rules=[RewriteRule("x", 2, {(0, 1): 1})]),
     NonHomogeneousInput, "rule on x is not twist-homogeneous"),
    (lambda: model_ring(2, 2).element({(1,): 1}),
     ValueError, "monomial of width 1 in 2-generator ring"),
    # an exponent overflow reached through a rule, from the library: no span
    (lambda: dsl.poly_to_element(
        RingPresentation(2, [GeneratorSpec("y", 1), GeneratorSpec("w", 1),
                             GeneratorSpec("z", 536870912)],
                         rules=[RewriteRule("z", 2, {(1073741823, 1, 0): 1})]),
        dsl.parse_poly("z^2*y")),
     InvalidArgument, "monomial y^1073741824*w has an exponent of 1073741824 or more"),
])
def test_presentations_reject_bad_input(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()


@pytest.mark.parametrize("power", [1.5, 2.0, -1, 1 << 30, "2"])
def test_gen_checks_its_exponent_as_element_does(power):
    R = model_ring(2, 2)
    message = "^%s$" % re.escape("exponent %s outside 0..1073741823" % power)
    for build in (lambda: R.gen("x1", power), lambda: R.element({(power, 0): 1})):
        with pytest.raises(InvalidArgument, match=message):
            build()


def test_gen_of_an_unknown_name_is_an_unknown_generator():
    with pytest.raises(UnknownGenerator, match="^unknown generator 'x9'$"):
        model_ring(2, 2).gen("x9")


def test_instability_top(R2):
    # Sq^deg squares the class
    u = R2.gen("x1") * R2.gen("x2")
    assert R2.apply_letter(2, u) == u * u
    assert not R2.apply_letter(3, u)


def test_missing_component_raises():
    R = RingPresentation(
        2, [GeneratorSpec("v", 3)]  # Sq^1, Sq^2 on v never given
    )
    with pytest.raises(MissingActionComponent):
        R.apply_letter(1, R.gen("v"))
    S = RingPresentation(3, [GeneratorSpec("y", 2, twist=1)])  # no b on y
    with pytest.raises(MissingActionComponent,
                       match="^Bockstein of generator y is needed but not declared$"):
        S.bockstein(S.gen("y"))


def test_missing_component_raises_lazily_through_the_cache():
    R = RingPresentation(
        2,
        [
            GeneratorSpec("w", 1),
            GeneratorSpec("u", 2),  # Sq^1 never given
            GeneratorSpec("v", 3, action={1: {(4, 0, 0): 1}}),  # Sq^2 never given
        ],
    )
    v = R.gen("v")
    assert R.apply_letter(1, v) == R.gen("w", 4)
    for request in (
        lambda: R.apply_letter(2, v),
        lambda: R.apply_letter(3, v),
        lambda: R.total_sq(v),
        lambda: total_operation_class(v, 12),
    ):
        with pytest.raises(MissingActionComponent, match="^component 2 of the action on v "):
            request()
    assert R.apply_letter(1, v) == R.gen("w", 4)
    # total_sq reports the lowest missing component, as Sq^1, Sq^2, ... would,
    # not the first one its monomial order meets
    x = R.element({(1, 0, 1): 1, (2, 1, 0): 1})  # w*v + w^2*u
    ref = CartanReference(R)
    with pytest.raises(MissingActionComponent) as want:
        for i in range(5):
            ref.apply_letter(i, x)
    for request in (R.total_sq, lambda x: total_operation_class(x, 12)):
        with pytest.raises(MissingActionComponent, match="^component 1 of the action on u ") as got:
            request(x)
        assert str(got.value) == str(want.value)


def test_odd_degree_generator_needs_declared_p_at_odd_prime():
    S = RingPresentation(
        3, [GeneratorSpec("u", 3, twist=1, parity="odd", action={"b": {}})]
    )
    with pytest.raises(MissingActionComponent):
        S.apply_letter(1, S.gen("u"))


@pytest.mark.parametrize("ell", [3, 5])
def test_cartan_factors_keep_koszul_order(ell):
    # factors are multiplied in generator-index order; taking the first
    # generator off instead moves x1 past x2 and flips the sign
    R = model_ring(ell, 2)
    x1, x2, y2 = R.gen("x1"), R.gen("x2"), R.gen("y2")
    m = x1 * x2 * y2
    assert R.total_sq(m)[0] == m
    u, v = x1 + x2.scale(2), x2 * y2 ** 2
    conv = {}
    for i, a in R.total_sq(u).items():
        for j, b in R.total_sq(v).items():
            conv[i + j] = conv.get(i + j, R.zero()) + a * b
    assert {k: c for k, c in conv.items() if c} == R.total_sq(u * v)


# ------------------------------------- cached Cartan path vs the reference


DIFF_RINGS = ["model:2:3", "model:2:5", "model:3:2", "model:3:3", "model:5:2"]
DIFF_RINGS += corpus.scenario_names()
_diff_cache = {}


def _diff_ring(key):
    # one presentation per key for the whole run, so the cache warms up
    # across examples and later requests extend earlier prefixes
    if key not in _diff_cache:
        if key.startswith("model:"):
            R = model_ring(*map(int, key.split(":")[1:]))
        else:
            R = corpus.resolve_ring(key)
        bases = {d: R.basis_of_degree(d) for d in range(1, 11)}
        _diff_cache[key] = (R, CartanReference(R), {d: b for d, b in bases.items() if b})
    return _diff_cache[key]


@pytest.mark.parametrize("key", DIFF_RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cached_cartan_path_matches_reference(key, data):
    R, ref, bases = _diff_ring(key)
    degree = data.draw(st.sampled_from(sorted(bases)))
    monos = data.draw(st.lists(st.sampled_from(bases[degree]), min_size=1, max_size=4, unique=True))
    x = R.element({m: data.draw(st.integers(1, R.prime - 1)) for m in monos})
    cap = degree if R.prime == 2 else degree // 2
    total_first = data.draw(st.booleans())
    if total_first:
        total = R.total_sq(x)
    for k in data.draw(st.permutations(range(cap + 2))):
        assert R.apply_letter(k, x) == ref.apply_letter(k, x), k
    if not total_first:
        total = R.total_sq(x)
    for i in range(cap + 2):
        want = x if i == 0 else ref.apply_letter(i, x)
        assert total.get(i, R.zero()) == want, i
    assert R.bockstein(x) == ref.bockstein(x)


@pytest.mark.parametrize("key", ["model:2:3", "model:3:2", "model:5:2"] + corpus.scenario_names())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_total_sq_on_inhomogeneous_elements(key, data):
    # total_sq reads each term's component index from the degree of its own
    # monomial, so an element mixing degrees splits as its homogeneous parts
    R, ref, bases = _diff_ring(key)
    bases = {**bases, 0: [(0,) * R.n]}
    degrees = data.draw(st.lists(st.sampled_from(sorted(bases)), min_size=2, max_size=3, unique=True))
    parts = []
    for d in degrees:
        monos = data.draw(st.lists(st.sampled_from(bases[d]), min_size=1, max_size=3, unique=True))
        parts.append(R.element({m: data.draw(st.integers(1, R.prime - 1)) for m in monos}))
    x = sum(parts, R.zero())
    assert x.degree() is None
    total = R.total_sq(x)
    cap = max(degrees) if R.prime == 2 else max(degrees) // 2
    assert total[0] == x and max(total) <= cap
    for i in range(1, cap + 2):
        by_parts = sum((R.apply_letter(i, part) for part in parts), R.zero())
        assert total.get(i, R.zero()) == by_parts == ref.apply_letter(i, x), i


@pytest.mark.parametrize("ell, short, long, low, high", [
    (2, (3, 2, 0), (3, 2, 5), 1, 6),  # x1^3*x2^2 and x1^3*x2^2*x3^5
    (3, (1, 0, 2, 0), (1, 0, 2, 3), 1, 4),  # x1*y1^2 and x1*y1^2*y2^3
    (5, (0, 1, 4, 0), (0, 1, 4, 6), 1, 3),  # x2*y1^4 and x2*y1^4*y2^6
])
def test_prefix_totals_serve_longer_and_shorter_requests(ell, short, long, low, high):
    # the total on a monomial is the cached total on its prefix (the monomial
    # without its last generator power) times the total on that power: a
    # prefix cached through a low component is extended for a longer
    # monomial asked for a higher one, and one cached high answers a low one
    requests = [(short, low), (long, high)]
    for order in (requests, requests[::-1]):
        R = model_ring(ell, 3 if ell == 2 else 2)
        ref = CartanReference(R)
        for m, k in order:
            x = R.element({m: 1})
            assert R.apply_letter(k, x) == ref.apply_letter(k, x), (m, k)
            total = R.total_sq(x)
            for i in range(1, max(total) + 2):
                assert total.get(i, R.zero()) == ref.apply_letter(i, x), (m, i)


def test_missing_component_names_the_lowest_generator_through_the_prefix_cache():
    # u and v each lack a component that Sq^2 and Sq^3 of w*u*v reach: the
    # error names u, the lower index, as the reference does, whether or not
    # the prefix w*u already has a total cached through Sq^1
    message = "^component %d of the action on %s is needed but not declared$"
    for warm in (False, True):
        R = RingPresentation(2, [
            GeneratorSpec("w", 1),
            GeneratorSpec("u", 4, action={1: {(5, 0, 0): 1}}),  # Sq^2 never given
            GeneratorSpec("v", 3),  # Sq^1 and Sq^2 never given
        ])
        ref = CartanReference(R)
        wu, wuv = R.element({(1, 1, 0): 1}), R.element({(1, 1, 1): 1})
        if warm:
            assert R.apply_letter(1, wu) == ref.apply_letter(1, wu)
        for k, missing, name in ((1, 1, "v"), (2, 2, "u"), (3, 2, "u")):
            with pytest.raises(MissingActionComponent) as want:
                ref.apply_letter(k, wuv)
            with pytest.raises(MissingActionComponent, match=message % (missing, name)) as got:
                R.apply_letter(k, wuv)
            assert str(got.value) == str(want.value)
        with pytest.raises(MissingActionComponent, match=message % (1, "v")):
            R.total_sq(wuv)  # the lowest component first, as letter by letter


# ------------------------------------- powers against closed forms

# A generator g of degree 1 at l = 2 or degree 2 at odd l has total
# operation g + g^l, so Sq^k or P^k of g^a h^b is
# sum_s C(a, s) C(b, k - s) g^(a + s(l - 1)) h^(b + (k - s)(l - 1)).
SMALL_PRIME_RINGS = [
    ("model:2", ("x1", "x2")), ("model:3", ("y1", "y2")), ("model:5", ("y1", "y2")),
    ("CLASSIFYING2", ("x1", "x2")), ("CLASSIFYING3", ("y1", "t")), ("CLASSIFYING5", ("y2", "t")),
]
# At l = 1000003 every exponent below l takes the halving path,
# total(g^e) = total(g^(e // 2)) * total(g^(e - e // 2)).
CLOSED_FORM_RINGS = SMALL_PRIME_RINGS + [("model:1000003", ("y1", "y2"))]
_closed_form_cache = {}


def _closed_form_ring(key):
    if key not in _closed_form_cache:
        _closed_form_cache[key] = (model_ring(int(key[6:]), 2) if key.startswith("model:")
                                   else corpus.resolve_ring(key))
    return _closed_form_cache[key]


def _power_action_closed_form(R, names, a, b, k):
    ell = R.prime
    i, j = R.index[names[0]], R.index[names[1]]
    want = {}
    for s in range(k + 1):
        c = math.comb(a, s) * math.comb(b, k - s) % ell
        if c:
            m = [0] * R.n
            m[i], m[j] = a + s * (ell - 1), b + (k - s) * (ell - 1)
            want[tuple(m)] = c
    return want


@pytest.mark.parametrize("key, names", CLOSED_FORM_RINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_power_actions_match_closed_forms(key, names, data):
    R = _closed_form_ring(key)
    ell = R.prime
    # the results' exponents, up to 2^20 + 40(l - 1), stay below the field limit
    far = ell ** 8 if ell < 7 else ell
    exponents = st.one_of(
        st.integers(0, 64), st.integers(0, 2 ** 20),
        st.sampled_from([2 ** 20 - 1, 2 ** 20, far - 1, far, far + 1]),
    )
    # letter 0 is the Bockstein at odd primes
    a, b, k = data.draw(exponents), data.draw(exponents), data.draw(st.integers(ell > 2, 40))
    want = _power_action_closed_form(R, names, a, b, k)
    x = R.element({m: 1 for m in _power_action_closed_form(R, names, a, b, 0)})
    assert R.apply_letter(k, x).terms == want
    if a + b <= 64:
        assert R.total_sq(x).get(k, R.zero()).terms == want


@pytest.mark.parametrize("shift", [-1, 0, 1, None])
def test_halving_powers_match_closed_forms(shift):
    # exponents l - 1, l, l + 1 and 2^20 at l = 1000003: halving below l,
    # one Frobenius step with remainder 0 or 1, and halving again
    R = _closed_form_ring("model:1000003")
    ell = R.prime
    a = 2 ** 20 if shift is None else ell + shift
    for b, k in ((0, 1), (0, 40), (3, 2), (a, 5)):
        x = R.element({m: 1 for m in _power_action_closed_form(R, ("y1", "y2"), a, b, 0)})
        assert R.apply_letter(k, x).terms == _power_action_closed_form(R, ("y1", "y2"), a, b, k)


@pytest.mark.parametrize("key, names", SMALL_PRIME_RINGS)
def test_sparse_power_actions_far_up(key, names):
    # (g + g^l)^(l^j) = g^(l^j) + g^(l^(j+1)): the top component of a large
    # l-th power, computed through its Frobenius steps alone
    R = _closed_form_ring(key)
    ell = R.prime
    e = 2 ** 20 if ell == 2 else ell ** 8
    x = R.gen(names[0], e)
    assert R.apply_letter(e, x) == R.gen(names[0], ell * e)
    assert not R.apply_letter(e - 1, x)
    assert R.total_sq(R.gen(names[1], e)) == {0: R.gen(names[1], e), e: R.gen(names[1], ell * e)}


def test_exponents_reaching_the_limit_through_an_operation_raise(capsys):
    limit = rings._FIELD_LIMIT
    R = model_ring(2, 2)
    # Sq^1 x1^(2^30 - 1) = x1^(2^30), met in the product with total(x1)
    with pytest.raises(InvalidArgument, match=r"^monomial x1\^1073741824 has an exponent of "):
        R.apply_letter(1, R.gen("x1", limit - 1))
    assert not R.apply_letter(1, R.gen("x1", limit - 2))
    R = model_ring(5, 1)
    # P^5 y1^(2^30 - 1) at l = 5 takes the 5th power of y1^(q + 4), q = (2^30 - 1) // 5,
    # whose exponent would carry out of its field
    with pytest.raises(InvalidArgument, match=r"^monomial y1\^1073741840 has an exponent of "):
        R.apply_letter(5, R.gen("y1", limit - 1))
    assert R.apply_letter(1, R.gen("y1", limit - 5)) == R.gen("y1", limit - 1).scale(4)
    # P^5 z^5 = (P^1 z)^5 = y^(5(N + 4)): 5(N + 4) does not fit a 32-bit field
    N = limit - 30
    R = RingPresentation(5, [GeneratorSpec("z", 2 * N, action={i: {(0, N + 4 * i): 1} for i in range(1, 6)}),
                             GeneratorSpec("y", 2)])
    assert R.apply_letter(1, R.gen("z")) == R.gen("y", N + 4)
    with pytest.raises(InvalidArgument, match=r"^monomial y\^%d has an exponent of " % (5 * (N + 4))):
        R.apply_letter(5, R.gen("z", 5))
    assert main(["apply", "P^5", "y1^%d" % (limit - 1), "--ring", "CLASSIFYING5"]) == 2
    assert capsys.readouterr().err.startswith("error: monomial y1^1073741840 has an exponent of ")
    # the default top component P^1 x = x^l, at primes past the field limit:
    # at l >= 2^31 the l-th power would carry out of x's field
    for ell in (1073741827, 1000000000000000003):
        R = RingPresentation(ell, [GeneratorSpec("x", 2)])
        with pytest.raises(InvalidArgument, match=r"^monomial x\^%d has an exponent of " % ell):
            R.apply_letter(1, R.gen("x"))


# ------------------------------------------------------------- inspection


def test_basis_of_degree_counts(R2):
    # monomials of degree d in three degree-1 variables
    for d, want in [(0, 1), (1, 3), (2, 6), (3, 10)]:
        assert len(R2.basis_of_degree(d)) == want
    # model_ring(2, n): the monomials of degree d in n degree-1 variables
    for n in range(1, 6):
        R = model_ring(2, n)
        for d in range(-1, 13):
            want = math.comb(d + n - 1, n - 1) if d >= 0 else 0
            assert len(R.basis_of_degree(d)) == want
    # model_ring(l, n), l odd: k of the n degree-1 exterior generators times
    # a monomial of degree d - k in the n degree-2 polynomial ones
    for ell, n in itertools.product((3, 5), range(1, 5)):
        R = model_ring(ell, n)
        for d in range(-1, 13):
            want = sum(math.comb(n, k) * math.comb((d - k) // 2 + n - 1, n - 1)
                       for k in range(min(n, d) + 1) if (d - k) % 2 == 0)
            assert len(R.basis_of_degree(d)) == want


def test_basis_respects_rules_and_parity(R3):
    basis = R3.basis_of_degree(2)
    # x_i x_j (i<j), y_1, y_2: squares of odd generators excluded
    assert (2, 0, 0, 0) not in basis
    assert len(basis) == 3
    # twist filter keeps residues mod (l-1)
    assert R3.basis_of_degree(2, twist=0) == basis


def test_basis_twist_filter():
    R = RingPresentation(
        3,
        [
            GeneratorSpec("a", 2, twist=1, action={"b": {}}),
            GeneratorSpec("c", 2, twist=2, action={"b": {}}),
        ],
    )
    full = R.basis_of_degree(4)
    assert len(full) == 3
    # a^2 has twist 2, ac twist 3, c^2 twist 4; listing is sorted
    assert R.basis_of_degree(4, twist=0) == [(0, 2), (2, 0)]
    assert R.basis_of_degree(4, twist=1) == [(1, 1)]


def test_basis_matches_exhaustive_enumerator():
    """Joining the two half-tables lists what trying every exponent lists, on
    the model rings and every shipped ring, with and without a twist."""
    rings_ = [model_ring(ell, n) for ell in (2, 3, 5) for n in (3, 4, 5)]
    rings_ += [corpus.resolve_ring(name) for name in corpus.scenario_names()]
    for R in rings_:
        for degree in range(-1, 15):
            assert R.basis_of_degree(degree) == reference_basis_of_degree(R, degree)
        for degree, twist in itertools.product(range(8), range(max(1, R.prime - 1))):
            assert (R.basis_of_degree(degree, twist)
                    == reference_basis_of_degree(R, degree, twist))


@st.composite
def basis_presentations(draw):
    """0-7 generators of degree 1-5 at l = 2, 3 or 5 (parity from the degree
    at odd l, a twist 0-3), some with a rule g^k = 0, k = 2..4: the two
    halves of the basis split are empty, equal or one apart."""
    ell = draw(st.sampled_from((2, 3, 5)))
    gens, rules = [], []
    for i in range(draw(st.integers(0, 7))):
        degree = draw(st.integers(1, 5))
        parity = "odd" if ell > 2 and degree % 2 else "even"
        gens.append(GeneratorSpec("g%d" % i, degree, draw(st.integers(0, 3)), parity))
        if draw(st.booleans()):
            rules.append(RewriteRule("g%d" % i, draw(st.integers(2, 4)), {}))
    return RingPresentation(ell, gens, rules=rules)


@settings(max_examples=60, deadline=None)
@given(basis_presentations())
def test_basis_matches_exhaustive_enumerator_on_random_presentations(R):
    # the reference sorts what it finds, so the order is checked too
    for degree in range(-1, 13):
        for twist in (None, *range(max(1, R.prime - 1))):
            assert (R.basis_of_degree(degree, twist)
                    == reference_basis_of_degree(R, degree, twist))


@pytest.mark.parametrize("degree, twist, text", [
    (2.0, None, "degree 2.0 is not an integer"),
    ("3", None, "degree '3' is not an integer"),
    (None, None, "degree None is not an integer"),
    (2, 1.0, "twist 1.0 is not an integer"),
    (2, "1", "twist '1' is not an integer"),
])
def test_basis_rejects_a_degree_or_twist_that_is_not_an_int(degree, twist, text):
    for R in (model_ring(2, 2), model_ring(3, 2)):
        with pytest.raises(InvalidArgument, match="^%s$" % re.escape(text)):
            R.basis_of_degree(degree, twist)
    # a bool is an int
    R = model_ring(3, 2)
    assert R.basis_of_degree(True, False) == R.basis_of_degree(1, 0)


def test_normal_form_idempotent_and_multiplicative():
    R = RingPresentation(
        2,
        [GeneratorSpec("w", 1), GeneratorSpec("b", 1)],
        rules=[RewriteRule("b", 2, {(1, 1): 1}), RewriteRule("w", 8, {})],
    )
    import random

    rng = random.Random(7)
    basis = [m for d in range(6) for m in R.basis_of_degree(d)]
    for _ in range(120):
        raw_a = {tuple(rng.randrange(4) for _ in range(2)): 1 for _ in range(2)}
        a = R.element(raw_a)
        again = R.element(dict(a.terms))
        assert again == a  # idempotent
        b = R.element({rng.choice(basis): 1})
        prod = a * b
        # multiplicativity against distributing monomial by monomial
        acc = R.zero()
        for m, c in a.terms.items():
            acc = acc + (R.element({m: c}) * b)
        assert prod == acc


def test_consistency_report_clean_on_model_rings():
    for ell in (2, 3, 5):
        failures = model_ring(ell).check_action_consistency()
        assert not failures, failures


def _ring(source, name):
    return dsl.build_program(dsl.parse(source)).rings[name]


def test_consistency_reports_planted_failures():
    bad2 = _ring(
        "ring A { prime = 2; gen w deg=1; gen l deg=2; rule l^2 = w^4;"
        " action Sq^1(l) = w*l; }", "A",
    )
    failures = bad2.check_action_consistency()
    assert failures
    assert "Sq^2(l^2): lead gives w^6, rhs gives 0" in failures

    odd = (
        "ring B { prime = 3; gen x deg=1 odd; gen y deg=2; gen v deg=4;"
        " rule y^2 = v; action b(x) = 0; action b(y) = x*y; action b(v) = %s;"
        " action P^1(v) = 2*v^2; }"
    )
    failures = _ring(odd % "0", "B").check_action_consistency()
    assert failures == ("b(y^2): lead gives 2*x*v, rhs gives 0",)
    assert _ring(odd % "2*x*v", "B").check_action_consistency() == ()
    # a declared top component must be the l-th power
    top = _ring("ring C { prime = 2; gen w deg=1; action Sq^1(w) = 0; }", "C")
    assert top.check_action_consistency() == ("top action on unstable w differs from w^2",)


def test_consistency_covers_every_letter_that_acts():
    # l^7 has degree 14, so Sq^1..Sq^14 act on the rule's two sides; Sq^14
    # is the square and agrees, and every other letter fails up to Sq^13
    ring = _ring("ring R { prime = 2; gen w deg=1; gen l deg=2; rule l^7 = w^14;"
                 " action Sq^1(l) = w*l; }", "R")
    assert ring.check_action_consistency() == (
        "Sq^1(l^7): lead gives w^15, rhs gives 0",
        "Sq^2(l^7): lead gives w^14*l + w^16, rhs gives w^16",
        "Sq^3(l^7): lead gives w^17, rhs gives 0",
        "Sq^4(l^7): lead gives w^14*l^2 + w^16*l + w^18, rhs gives w^18",
        "Sq^5(l^7): lead gives w^15*l^2 + w^19, rhs gives 0",
        "Sq^6(l^7): lead gives w^14*l^3 + w^18*l + w^20, rhs gives w^20",
        "Sq^7(l^7): lead gives w^21, rhs gives 0",
        "Sq^8(l^7): lead gives w^14*l^4 + w^18*l^2 + w^20*l, rhs gives w^22",
        "Sq^9(l^7): lead gives w^15*l^4 + w^19*l^2, rhs gives 0",
        "Sq^10(l^7): lead gives w^14*l^5 + w^16*l^4 + w^18*l^3, rhs gives w^24",
        "Sq^11(l^7): lead gives w^17*l^4, rhs gives 0",
        "Sq^12(l^7): lead gives w^14*l^6 + w^16*l^5, rhs gives w^26",
        "Sq^13(l^7): lead gives w^15*l^6, rhs gives 0",
    )


@pytest.mark.parametrize("ell, n", [(ell, n) for ell in (2, 3, 5) for n in range(1, 6)])
def test_consistency_clean_on_model_rings_of_every_width(ell, n):
    assert model_ring(ell, n).check_action_consistency() == ()


# --------------------------------------------- packed monomials vs tuples


class TupleReference:
    """The tuple-keyed kernel that packed monomials replaced: exponent
    tuples, the first matching rule in declaration order rewritten as
    rest * rhs, odd squares vanishing, and the Koszul sign counted pair by
    pair.  total() takes the Cartan factors in generator-index order with
    the generator's l-th power formed as RingElement.__pow__ forms it, so it
    matches the engine even where the rules are not confluent."""

    def __init__(self, R):
        self.R, self.cache = R, {}
        self.odd = [i for i, g in enumerate(R.generators) if g.parity == "odd"]

    def sign(self, m1, m2):
        swaps = sum(m1[i] * m2[j] for i in self.odd for j in self.odd if j < i)
        return -1 if swaps % 2 else 1

    def mul_monomials(self, m1, m2):
        if any(m1[i] + m2[i] > 1 for i in self.odd):
            return 0, None
        return self.sign(m1, m2), tuple(a + b for a, b in zip(m1, m2))

    def reduce(self, m):
        if m not in self.cache:
            out = {}
            hit = next(((gi, k, rhs) for gi, (k, rhs) in self.R.rules.items() if m[gi] >= k), None)
            if any(m[i] > 1 for i in self.odd):
                pass  # an odd square
            elif hit is None:
                out = {m: 1}
            else:
                gi, k, rhs = hit
                rest = m[:gi] + (m[gi] - k,) + m[gi + 1:]
                for rm, rc in rhs.items():
                    sign, comb = self.mul_monomials(rest, rm)
                    if sign and rc % self.R.prime:
                        self.add(out, sign * rc, self.reduce(comb))
            self.cache[m] = out
        return self.cache[m]

    def add(self, acc, c, terms):
        for m, v in terms.items():
            acc[m] = (acc.get(m, 0) + c * v) % self.R.prime
            if not acc[m]:
                del acc[m]
        return acc

    def nf(self, raw):
        out = {}
        for m, c in raw.items():
            self.add(out, c, self.reduce(m))
        return out

    def multiply(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                sign, comb = self.mul_monomials(m1, m2)
                if sign:
                    self.add(out, sign * c1 * c2, self.reduce(comb))
        return out

    def total(self, m, cap):
        R = self.R
        out = [self.nf({(0,) * R.n: 1})] + [{} for _ in range(cap)]
        for gi, e in enumerate(m):
            g = R.generators[gi]
            top = g.degree if R.prime == 2 else g.degree // 2
            unit = tuple(int(i == gi) for i in range(R.n))
            power, base, k = self.nf({(0,) * R.n: 1}), self.nf({unit: 1}), R.prime
            while k:
                power = self.multiply(power, base) if k & 1 else power
                base, k = (self.multiply(base, base) if k > 1 else base), k >> 1
            comps = [self.nf({unit: 1})] + [self.nf(g.action[i]) if i in g.action else power
                                            for i in range(1, top + 1)]
            for _ in range(e):
                out = [self.add_all(self.multiply(out[i - j], comps[j])
                                    for j in range(min(i, top) + 1))
                       for i in range(cap + 1)]
        return out

    def add_all(self, pieces):
        out = {}
        for piece in pieces:
            self.add(out, 1, piece)
        return out


def _monomials(degrees, degree, odd, first=0, cap=None):
    """Raw exponent tuples of the given degree over generators first, ...,
    with odd exponents up to 2 (so raw odd squares occur) and the exponent
    of generator `first` at most cap when one is given."""
    ranges = []
    for i, d in enumerate(degrees):
        top = 0 if i < first else min(degree // d, 2 if i in odd else degree)
        if i == first and cap is not None:
            top = min(top, cap)
        ranges.append(range(top + 1))
    return [m for m in itertools.product(*ranges)
            if sum(e * d for e, d in zip(m, degrees)) == degree]


@st.composite
def packed_cases(draw):
    """A random presentation at l = 2, 3, 5: odd generators at odd primes,
    rules whose right sides reuse their own generator (chained, like
    s^2 = w5*s) and other rules' leads, every action component the Cartan
    formula needs, two raw polynomials, the first holding each rule's lead
    squared, and a homogeneous element of it."""
    ell = draw(st.sampled_from([2, 3, 5]))
    degrees = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    n = len(degrees)
    odd = {i for i, d in enumerate(degrees) if ell > 2 and d % 2}
    coeff = st.integers(0, ell)  # ell itself is a zero coefficient

    def poly(degree, first=0, cap=None, nonzero=0):
        """Up to 3 terms; given nonzero > 0, at least that many (as far as
        there are monomials), and none with a zero coefficient."""
        monos = _monomials(degrees, degree, odd, first, cap)
        chosen = draw(st.lists(st.sampled_from(monos), min_size=min(nonzero, len(monos)),
                               max_size=3, unique=True)) if monos else []
        return {m: draw(st.integers(1, ell - 1) if nonzero else coeff) for m in chosen}

    rules, squares = [], []
    for gi in range(n):
        if gi not in odd and draw(st.booleans()):
            k = draw(st.integers(2, 3))
            # right sides over generators gi, gi+1, ... only: lex order
            # with generator 0 largest drops at every rewrite, so it stops
            rhs = poly(k * degrees[gi], gi, k - 1, nonzero=draw(st.sampled_from([0, 2])))
            rules.append(RewriteRule("g%d" % gi, k, rhs))
            squares.append(tuple(2 * k if i == gi else 0 for i in range(n)))
    gens = []
    for gi, d in enumerate(degrees):
        top = d if ell == 2 else d // 2
        needed = range(1, top + 1 if gi in odd else top)
        shift = 1 if ell == 2 else 2 * (ell - 1)
        action = {i: poly(d + shift * i) for i in needed}
        gens.append(GeneratorSpec("g%d" % gi, d, parity="odd" if gi in odd else "even",
                                  action=action))
    R = RingPresentation(ell, gens, rules=rules)
    reachable = [d for d in range(1, 9) if _monomials(degrees, d, odd)]
    raw = [poly(draw(st.sampled_from(reachable)), nonzero=1) for _ in range(2)]
    for square in squares:
        # a rule's lead squared: when its right side has two terms, the two
        # monomials of the first rewrite rewrite again in one round and meet
        raw[0][square] = draw(st.integers(1, ell - 1))
    bases = [b for b in map(R.basis_of_degree, range(1, 7)) if b]
    basis = draw(st.sampled_from(bases)) if bases else []
    x = {m: draw(st.integers(1, ell - 1))
         for m in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
         } if basis else {}
    return R, raw, x


@settings(max_examples=120, deadline=None)
@given(packed_cases())
def test_packed_kernel_matches_tuple_reference(case):
    R, (raw_a, raw_b), x = case
    ref = TupleReference(R)
    a, b = R.element(raw_a), R.element(raw_b)
    assert a.terms == ref.nf(raw_a) and b.terms == ref.nf(raw_b)
    assert (a * b).terms == ref.multiply(a.terms, b.terms)
    assert (b * a).terms == ref.multiply(b.terms, a.terms)
    # every raw monomial of low degree, and every pair of low-degree normal
    # monomials in both orders
    degrees = [g.degree for g in R.generators]
    odd = {i for i, g in enumerate(R.generators) if g.parity == "odd"}
    for m in (m for d in range(1, 7) for m in _monomials(degrees, d, odd)):
        assert R.element({m: 1}).terms == ref.nf({m: 1})
    low = [m for d in range(1, 4) for m in R.basis_of_degree(d)]
    for m1, m2 in itertools.product(low, repeat=2):
        o1, o2 = R._pack(m1) & R._odd_bits, R._pack(m2) & R._odd_bits
        if not o1 & o2:
            assert (-1 if rings._swap_parity(o1, o2) else 1) == ref.sign(m1, m2)
        product = R.element({m1: 1}) * R.element({m2: 1})
        assert product.terms == ref.multiply({m1: 1}, {m2: 1})
    x = R.element(x)
    degree = x.degree() or 0
    cap = degree if R.prime == 2 else degree // 2
    want = {}
    for m, c in x.terms.items():
        for i, piece in enumerate(ref.total(m, cap)):
            ref.add(want.setdefault(i, {}), c, piece)
    got = R.total_sq(x)
    assert {i: y.terms for i, y in got.items()} == {i: t for i, t in want.items() if t}


@pytest.mark.parametrize("name", ["MO3", "MO5", "PROJ2_3", "REALFOURFOLD"])
def test_packed_kernel_matches_tuple_reference_on_shipped_rings(name):
    R = corpus.resolve_ring(name)
    ref = TupleReference(R)
    rng = random.Random(name)
    basis = [m for d in range(1, 9) for m in R.basis_of_degree(d)]
    for _ in range(60):
        raw = {tuple(rng.randrange(4) for _ in range(R.n)): rng.randrange(1, R.prime)
               for _ in range(3)}
        a, b = R.element(raw), R.element({rng.choice(basis): 1})
        assert a.terms == ref.nf(raw)
        assert (a * b).terms == ref.multiply(a.terms, b.terms)


def test_rule_rewrite_carries_the_koszul_sign():
    # a^2 = a*x1*x3 rewrites a^2*x2 as x2 * (a*x1*x3): x2 moves past x1
    R = RingPresentation(
        3, [GeneratorSpec("a", 2)] + [GeneratorSpec("x%d" % i, 1, parity="odd") for i in (1, 2, 3)],
        rules=[RewriteRule("a", 2, {(1, 1, 0, 1): 1})],
    )
    raw = {(2, 0, 1, 0): 1}
    assert R.element(raw).terms == {(1, 1, 1, 1): 2} == TupleReference(R).nf(raw)


def test_exponents_at_the_field_limit_raise():
    limit = rings._FIELD_LIMIT
    R = RingPresentation(2, [GeneratorSpec("x", 1), GeneratorSpec("y", 2)],
                         rules=[RewriteRule("y", 3, {})])
    with pytest.raises(InvalidArgument):
        R.element({(limit, 0): 1})
    with pytest.raises(InvalidArgument):
        R.gen("x", limit)
    top = R.gen("x", limit - 1)
    assert top.terms == {(limit - 1, 0): 1}
    with pytest.raises(InvalidArgument):
        top * R.gen("x")
    # a field at its limit leaves its neighbours and their rules alone
    assert (top * R.gen("y", 2)).terms == {(limit - 1, 2): 1}
    assert not top * R.gen("y", 2) * R.gen("y")
    assert (R.gen("x") * R.gen("x", limit - 2)) == top


@pytest.mark.parametrize("e", [-1, rings._FIELD_LIMIT, 2 ** 32, 2 ** 64, 1.5, 2.0])
def test_exponents_outside_a_field_raise_invalid_argument(e):
    R = RingPresentation(2, [GeneratorSpec("x", 1), GeneratorSpec("y", 2)])
    message = r"^exponent %s outside 0\.\.1073741823$" % re.escape(str(e))
    for build in (R.element, lambda terms: RingElement(R, terms)):
        for m in ((1, e), (e, 0)):
            with pytest.raises(InvalidArgument, match=message):
                build({m: 1})


@pytest.mark.parametrize("c", [1.5, 2.0, "1", None])
def test_non_integer_coefficients_raise_invalid_argument(c):
    R = model_ring(3, 2)
    message = r"^coefficient %s is not an integer$" % re.escape(repr(c))
    for build in (R.element, lambda terms: RingElement(R, terms)):
        with pytest.raises(InvalidArgument, match=message):
            build({(0, 0, 1, 0): 1, (1, 0, 0, 0): c})
    with pytest.raises(InvalidArgument, match=message):
        R.gen("y1").scale(c)
    assert R.element({(0, 0, 1, 0): True}) == R.gen("y1").scale(True) == R.gen("y1")


LARGE_DEGREE_RING = (
    "ring B { prime = 2; gen x deg=8; gen y deg=9; rule y^2 = 0; "
    "action Sq^1(x) = y; action Sq^1(y) = 0; }\n"
)


def test_degrees_past_two_to_the_31_with_a_rule(tmp_path, capsys):
    # x^(2^30 - 1) has degree 8 * (2^30 - 1), about 8.6e9: more than 32 bits
    # of degree, carried exactly through the Frobenius steps, the capped
    # products and the rule y^2 = 0
    R = dsl.build_program(dsl.parse(LARGE_DEGREE_RING)).rings["B"]
    e = rings._FIELD_LIMIT - 1
    x, y = R.gen("x", e), R.gen("y")
    assert x.degree() == 8 * e > 2 ** 32
    want = R.gen("x", e - 1) * y
    assert R.apply_letter(1, x) == want and want.degree() == 8 * e + 1
    assert not R.apply_letter(1, x * y) and not x * y * y
    for elt in (x, want, x * y, R.apply_letter(1, x)):
        assert all(m >> R._tag_shift == R.monomial_degree(R._unpack(m)) for m in elt._packed)
    path = tmp_path / "large.steen"
    path.write_text(LARGE_DEGREE_RING)
    for poly, expect in (("x^%d" % e, "x^%d*y" % (e - 1)), ("x^%d*y" % e, "0")):
        argv = ["apply", "Sq^1", poly, "--ring", "B", "--rings", str(path), "--expect", expect]
        assert main(argv) == 0
    capsys.readouterr()


def test_element_refuses_an_element_of_another_presentation():
    R2, R3 = model_ring(2, 2), model_ring(2, 3)
    x = R2.gen("x1") * R2.gen("x2")
    with pytest.raises(MixedPrimes):
        R3.element(x)
    with pytest.raises(MixedPrimes):
        RingElement(R3, x)
    assert R2.element(x) is x and RingElement(R2, x) == x


def test_ring_elements_add_only_ring_elements():
    R = model_ring(3, 2)
    x = R.gen("x1")
    for bad in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x, lambda: x + 1.0):
        with pytest.raises(TypeError):
            bad()
    assert x - R.gen("y1") == x + R.gen("y1").scale(-1)
    with pytest.raises(MixedPrimes):
        x - model_ring(3, 1).gen("y1")


def test_terms_view_is_tuple_keyed_and_round_trips(R3):
    x = (R3.gen("x1") + R3.gen("y2")) * (R3.gen("x2") + R3.gen("y1").scale(2))
    assert x.terms and all(type(m) is tuple and len(m) == R3.n for m in x.terms)
    assert RingElement(R3, dict(x.terms)) == x
    assert RingElement(R3, {}) == R3.zero()


def test_constructor_normalises_its_terms(R3):
    P, R2 = corpus.get_scenario("PROJ1_2").presentation, model_ring(2, 2)
    y1 = R3.gen("y1")
    cases = [
        (RingElement(P, {(0, 0, 2): 1}), P.zero()),  # rule l^2 = 0
        (RingElement(R3, {(2, 0, 0, 0): 1}), R3.zero()),  # odd square
        (RingElement(R3, {(0, 0, 1, 0): -1}), y1.scale(-1)),
        (RingElement(R2, {(1, 0): 2}), R2.zero()),
        (RingElement(R2, {(1, 0): 3}), R2.gen("x1")),
        (RingElement(R3, {(1, 1, 0, 0): 1}), RingElement(R3, {(1, 1, 0, 0): 4})),
        (y1 * 5, RingElement(R3, {(0, 0, 1, 0): -1})),
        (5 * y1, y1.scale(2)),
    ]
    for got, want in cases:
        assert got == want and got.render() == want.render()
        assert hash(got) == hash(want)
    assert not RingElement(P, {(0, 0, 2): 1})
    assert RingElement(R3, {(0, 0, 1, 0): -1}).render() == "2*y1"
    assert len({RingElement(R3, {(0, 0, 1, 0): c}) for c in (2, 5, -1)}) == 1


@pytest.mark.parametrize("ell, monomials, text", [
    (2, [(0, 1, 2), (0, 2, 1), (1, 2, 0), (2, 1, 0)],
     "x2*x3^2 + x2^2*x3 + x1*x2^2 + x1^2*x2"),
    (3, [(0, 1, 1, 0, 0, 1), (1, 1, 0, 0, 0, 1), (1, 1, 1, 0, 0, 0)],
     "2*x1*x2*x3 + x2*x3*y3 + x1*x2*y3"),
    (5, [(0, 1, 1, 0, 0, 1), (1, 1, 0, 0, 0, 1), (1, 1, 1, 0, 0, 0)],
     "4*x1*x2*x3 + x2*x3*y3 + x1*x2*y3"),
])
def test_monomial_and_render_order_on_model_rings(ell, monomials, text):
    # packed-int order is (degree, exponent tuple) order: monomials() sorts
    # the exponent tuples and render sorts the packed ints, degree first, so
    # both listings keep the order they had when monomials were tuples
    R = model_ring(ell, 3)
    g = [R.gen(spec.name) for spec in R.generators]
    x = (g[0] + g[1] - g[2]) * (g[0] + g[-1]) * g[1]
    assert x.monomials() == monomials
    assert x.render() == text
