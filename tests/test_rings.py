"""Presented rings: normal forms, Koszul signs, operation actions, twists."""

import pytest
from hypothesis import given, settings, strategies as st

from steencalc import (
    GeneratorSpec,
    MissingActionComponent,
    NonHomogeneousInput,
    OmegaUndeclared,
    RewriteRule,
    RingPresentation,
    TwistedClass,
    corpus,
    dsl,
    model_ring,
    rings,
)
from steencalc.errors import RuleNonTermination

from oracles import CartanReference, Model2, ModelOdd


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
    with open(corpus.data_file_path("MO3"), encoding="utf-8") as fh:
        mo3 = dsl.build_program(dsl.parse(fh.read())).rings["MO3"]
    for a in range(120):  # each w1^a*s^2 needs one rewrite step
        assert mo3.element({(a, 0, 0, 2): 1}) == mo3.element({(a, 0, 1, 1): 1})
    # a single reduction longer than the bound still raises
    R = RingPresentation(
        2, [GeneratorSpec("x", 1), GeneratorSpec("y", 2)],
        rules=[RewriteRule("x", 2, {(0, 1): 1})],
    )
    assert R.gen("x", 80) == R.gen("y", 40)  # 40 nested steps
    with pytest.raises(RuleNonTermination):
        R.gen("x", 120)


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
    # keep inputs homogeneous so TwistedClass-style comparisons stay simple
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
    with pytest.raises(MissingActionComponent, match="^component 1 of the action on u ") as got:
        R.total_sq(x)
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


# ------------------------------------------------------------- twist data


def test_twisted_class_validates_degree(R3):
    with pytest.raises(NonHomogeneousInput):
        TwistedClass(R3.gen("x1") + R3.gen("y1"), 1)


def test_twisted_class_validates_twist_residue(R3):
    x1x2 = R3.gen("x1") * R3.gen("x2")
    # generators carry no twist here, so twist must be even
    TwistedClass(x1x2, 2, 0)
    with pytest.raises(NonHomogeneousInput):
        TwistedClass(x1x2, 2, 1)


def test_twisted_bockstein_needs_omega(R3):
    # twist 2 is a valid residue here and is nonzero mod 3
    cls = TwistedClass(R3.gen("y1"), 2, 2)
    with pytest.raises(OmegaUndeclared):
        R3.bockstein_twisted(cls)


def test_twisted_bockstein_omega_correction():
    R = RingPresentation(
        2,
        [GeneratorSpec("w", 1), GeneratorSpec("l", 2, twist=1, action={1: {(1, 1): 1}})],
        omega="w",
    )
    # d_1(l) = Sq^1 l + w l = 2 w l = 0
    out = R.bockstein_twisted(TwistedClass(R.gen("l"), 2, 1))
    assert not out.value
    # d_0 is the plain Bockstein
    out0 = R.bockstein_twisted(TwistedClass(R.gen("l"), 2, 0))
    assert out0.value == R.gen("w") * R.gen("l")


# ------------------------------------------------------------- inspection


def test_basis_of_degree_counts(R2):
    # monomials of degree d in three degree-1 variables
    for d, want in [(0, 1), (1, 3), (2, 6), (3, 10)]:
        assert len(R2.basis_of_degree(d)) == want


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
        rep = model_ring(ell).check_action_consistency(10)
        assert rep.ok, rep.failures


def _ring(source, name):
    return dsl.build_program(dsl.parse(source)).rings[name]


def test_consistency_reports_planted_failures():
    bad2 = _ring(
        "ring A { prime = 2; gen w deg=1; gen l deg=2; rule l^2 = w^4;"
        " action Sq^1(l) = w*l; }", "A",
    )
    rep = bad2.check_action_consistency(12)
    assert not rep.ok
    assert "Sq^2(l^2): lead gives w^6, rhs gives 0" in rep.failures

    odd = (
        "ring B { prime = 3; gen x deg=1 odd; gen y deg=2; gen v deg=4;"
        " rule y^2 = v; action b(x) = 0; action b(y) = x*y; action b(v) = %s;"
        " action P^1(v) = 2*v^2; }"
    )
    rep = _ring(odd % "0", "B").check_action_consistency(12)
    assert not rep.ok
    assert rep.failures == ("b(y^2): lead gives 2*x*v, rhs gives 0",)
    rep = _ring(odd % "2*x*v", "B").check_action_consistency(12)
    assert rep.ok and rep.failures == ()
