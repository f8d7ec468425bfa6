"""Obstruction evaluators: odd-degree vanishing, corrected operators at 2,
Frobenius membership, and the scripted descent chain."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from steencalc import (
    GeneratorSpec,
    InvalidArgument,
    MissingCodim,
    MissingFrobeniusData,
    MixedPrimes,
    NonHomogeneousInput,
    OmegaUndeclared,
    RingPresentation,
    TotalClass,
    corpus,
    dsl,
    hs_scripted_check,
    in_image_F_minus_Id,
    obstructions,
    odd_vanishing_check,
    total_operation_class,
    weird_operator,
)
from steencalc.obstructions import _eigenvalue
from steencalc.steenrod import SteenrodMonomial

from oracles import in_span
from references import (reference_admissible_words, reference_eigenvalue,
                        reference_frobenius_witnesses)


REAL4 = corpus.resolve_ring("REALFOURFOLD")
PROP5 = corpus.resolve_ring("PROP5")
CLS2 = corpus.resolve_ring("CLASSIFYING2")
CLS3 = corpus.resolve_ring("CLASSIFYING3")
CLS5 = corpus.resolve_ring("CLASSIFYING5")


# ----------------------------------------------------------- odd vanishing


def test_odd_ops_catch_nonalgebraic_product():
    s, t = PROP5.gen("s"), PROP5.gen("t")
    report = odd_vanishing_check(s * t, 3)
    assert report.fires and report.verdict == "nonvanishing"
    assert ("Sq^3", "s^2*t") in report.witnesses


def test_odd_ops_pass_when_plain_operations_die():
    b, w = REAL4.gen("b"), REAL4.gen("w")
    x = b * w * w * w
    report = odd_vanishing_check(x, 5)
    assert not report.fires and report.verdict == "vanishes"
    assert report.witnesses == ()


def test_odd_ops_zero_and_trivial_bound():
    assert odd_vanishing_check(PROP5.zero(), 9).verdict == "vanishes"
    s = PROP5.gen("s")
    assert odd_vanishing_check(s, 0).verdict == "vanishes"


def test_odd_ops_at_odd_prime():
    x1, y1 = CLS3.gen("x1"), CLS3.gen("y1")
    assert odd_vanishing_check(x1, 5).fires  # b(x1) = y1
    assert not odd_vanishing_check(y1, 5).fires


SHIPPED = {name: corpus.resolve_ring(name) for name in corpus.scenario_names()}


def _low_basis(R, top):
    return [m for d in range(top + 1) for m in R.basis_of_degree(d)]


def test_words_above_excess_vanish_on_shipped_rings():
    """An admissible word of excess above |m| is zero on a basis monomial m:
    the check may skip it without applying it."""
    checked = 0
    for R in SHIPPED.values():
        words = reference_admissible_words(R.prime, 12)
        for m in _low_basis(R, 5):
            x = R.element({m: 1})
            degree = R.monomial_degree(m)
            for w in words:
                if SteenrodMonomial(R.prime, w).excess() > degree:
                    assert not R.apply_word(w, x), (R.generators, m, w)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_odd_check_matches_every_word(name):
    """Verdicts, witnesses and their order are those of applying every
    admissible odd-degree word up to the bound."""
    R = SHIPPED[name]
    for max_degree in (0, 3, 7, 10):
        words = [SteenrodMonomial(R.prime, w)
                 for w in reference_admissible_words(R.prime, max_degree)]
        for m in _low_basis(R, 5):
            x = R.element({m: 1})
            hits = tuple((w.render(), R.apply_word(w.word, x).render())
                         for w in words if w.degree() % 2 and R.apply_word(w.word, x))
            report = odd_vanishing_check(x, max_degree)
            assert report.witnesses == hits
            assert report.verdict == ("nonvanishing" if hits else "vanishes")


def test_odd_check_needs_a_nonnegative_bound():
    with pytest.raises(InvalidArgument, match="max degree must be >= 0, got -5"):
        odd_vanishing_check(CLS2.gen("x1"), -5)


def test_odd_check_refuses_an_inhomogeneous_class():
    # its excess bound is the degree of x, which a mixed class does not have
    x1 = CLS2.gen("x1")
    with pytest.raises(NonHomogeneousInput):
        odd_vanishing_check(x1 + x1 * x1, 5)


def test_odd_check_far_bound_builds_only_low_excess_words():
    # x1 has degree 1, so only the words Sq^(2^k) ... Sq^2 Sq^1 can act
    report = odd_vanishing_check(CLS2.gen("x1"), 100000)
    assert report.verdict == "nonvanishing"
    assert len(report.witnesses) == 16
    assert report.witnesses[-1] == (
        " ".join("Sq^%d" % 2 ** k for k in range(15, -1, -1)), "x1^65536")


# ------------------------------------------------------ corrected operators


def _wants(x, c, which):
    """The documented formulas, assembled from ring primitives only."""
    R = x.parent
    w = R.gen("w")
    half = (c * (c - 1) // 2) % 2
    sq2 = R.apply_letter(2, x)
    if which == 1:
        out = sq2
        if half:
            out = out + w * w * x
        return out
    out = R.apply_letter(3, x)
    if (c + 1) % 2:
        out = out + w * sq2
    if half:
        out = out + w * w * w * x
    return out


def test_weird_coefficients_follow_codimension_mod_4():
    b, w = REAL4.gen("b"), REAL4.gen("w")
    x = b * w * w * w
    for c in range(8):
        for which in (1, 2):
            got = weird_operator(x, which, c)
            assert got == _wants(x, c, which), (c, which)
            assert not got or got.degree() == 4 + 1 + which


def test_weird_golden_fourfold_witness():
    b, w = REAL4.gen("b"), REAL4.gen("w")
    out = weird_operator(b * w * w * w, 2, 2)
    assert out == b * w.scale(1) ** 6
    # the plain odd operations miss this class, the corrected one does not
    assert not odd_vanishing_check(b * w * w * w, 5).fires
    assert out


def test_weird_rejects_bad_arguments():
    x1 = CLS3.gen("x1")
    with pytest.raises(ValueError):
        weird_operator(x1, 1, 2)
    b = REAL4.gen("b")
    with pytest.raises(ValueError):
        weird_operator(b, 3, 2)
    with pytest.raises(MissingCodim, match="^weird_operator needs the cycle codimension$"):
        weird_operator(b, 1, None)


def test_weird_omega_requirement_depends_on_coefficients():
    R = RingPresentation(2, [GeneratorSpec("u", 2, twist=1, action={1: {}})])
    u = R.gen("u")
    # c = 4: binom(4,2) and 4+1 are even resp. odd -> only which=2 needs omega
    assert weird_operator(u, 1, 4) == R.apply_letter(2, u)
    with pytest.raises(OmegaUndeclared):
        weird_operator(u, 2, 4)
    with pytest.raises(OmegaUndeclared):
        weird_operator(u, 1, 2)


# ------------------------------------------------------------- Frobenius


def test_frobenius_context_rejects_divisible_q():
    with pytest.raises(ValueError):
        in_image_F_minus_Id(CLS3.zero(), 6)
    with pytest.raises(ValueError):
        in_image_F_minus_Id(CLS2.zero(), 4)


@pytest.mark.parametrize("ring, q", [("CLASSIFYING2", 15), ("CLASSIFYING2", 1),
                                     ("CLASSIFYING2", -3), ("CLASSIFYING2", 2021),
                                     ("CLASSIFYING3", 10), ("CLASSIFYING5", 6)])
def test_frobenius_context_rejects_q_not_a_prime_power(ring, q):
    with pytest.raises(InvalidArgument, match="q must be a prime power, got %d" % q):
        in_image_F_minus_Id(SHIPPED[ring].zero(), q)


@pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 27, 49, 1849, 2 ** 61 - 1, 3 ** 40,
                               10000000000037 ** 2])
def test_frobenius_context_accepts_prime_powers(q):
    for R in (CLS2, CLS3, CLS5):
        if q % R.prime:
            report = in_image_F_minus_Id(R.zero(), q)
            assert report.operator == "F - Id membership (q=%d)" % q


def test_frobenius_needs_exponents():
    with pytest.raises(MissingFrobeniusData):
        in_image_F_minus_Id(PROP5.gen("s"), 3)


# prime powers q; q = 1 mod l makes every eigenvalue 1, so the draws skip it
_FROBENIUS_Q = (2, 3, 4, 7, 8, 9, 11, 25, 27, 49, 243)


def _drawn_frobenius_ring(R, data):
    """R with a Frobenius exponent in [0, 4] drawn for each generator: on the
    shipped CLASSIFYING rings every exponent equals its generator's twist,
    so every eigenvalue there is 1."""
    return RingPresentation(R.prime, [replace(g, frobenius_exponent=data.draw(st.integers(0, 4)))
                                      for g in R.generators])


def test_frobenius_eigenvalue_multiplicative():
    seen = set()

    @settings(deadline=None)
    @given(data=st.data())
    def check(data):
        R = _drawn_frobenius_ring(data.draw(st.sampled_from([CLS3, CLS5])), data)
        q = data.draw(st.sampled_from([q for q in _FROBENIUS_Q if q % R.prime > 1]))
        e1, e2 = (data.draw(st.tuples(*[st.integers(0, 3)] * R.n)) for _ in "12")
        prod = tuple(a + b for a, b in zip(e1, e2))
        lhs = _eigenvalue(R, q, prod)
        rhs = _eigenvalue(R, q, e1) * _eigenvalue(R, q, e2) % R.prime
        assert lhs == rhs
        seen.update((lhs, rhs))

    check()
    assert seen - {1}


def test_classifying3_golden_membership():
    y1, y2 = CLS3.gen("y1"), CLS3.gen("y2")
    x = y1 ** 3 * y2 - y1 * y2 ** 3
    report = in_image_F_minus_Id(x, 2)
    assert report.verdict == "not-in-image"
    assert "y1^3*y2" in report.witnesses


def _random_element(R, rng, degree, twist):
    basis = R.basis_of_degree(degree, twist)
    elt = R.zero()
    for m in basis:
        c = rng.randrange(R.prime)
        if c:
            elt = elt + R.element({m: c})
    return elt, basis


def test_membership_matches_rank_oracle():
    """(F - Id) is diagonal with entries (eigenvalue - 1); image membership
    must agree with linear algebra over F_ell on the graded piece."""
    rng = random.Random(7)
    cases = [(CLS3, 2, 4, 2), (CLS3, 2, 6, 3), (CLS5, 2, 4, 2), (CLS5, 3, 6, 3)]
    checked = 0
    for R, q, degree, twist in cases:
        for _ in range(40):
            x, basis = _random_element(R, rng, degree, twist)
            if not basis:
                continue
            span = []
            for i, m in enumerate(basis):
                lam = reference_eigenvalue(R, q, m, twist)
                if lam != 1:
                    vec = [0] * len(basis)
                    vec[i] = (lam - 1) % R.prime
                    span.append(vec)
            target = [x.terms.get(m, 0) % R.prime for m in basis]
            expected = in_span(span, target, R.prime)
            got = in_image_F_minus_Id(x, q)
            assert (got.verdict == "in-image") == expected
            checked += 1
    assert checked >= 120


def test_membership_collapses_at_two():
    """Odd q is 1 mod 2, so every eigenvalue is 1 and membership means zero."""
    rng = random.Random(11)
    for _ in range(100):
        degree = rng.randrange(1, 7)
        x, _ = _random_element(CLS2, rng, degree, degree)
        report = in_image_F_minus_Id(x, 3)
        assert (report.verdict == "in-image") == (not x)


@pytest.mark.parametrize("R", [CLS3, CLS5, corpus.model_ring(3, 2), corpus.model_ring(5, 2)],
                         ids=["CLASSIFYING3", "CLASSIFYING5", "model:3", "model:5"])
def test_membership_reads_each_monomial_twist_as_the_class_twist(R):
    """Frobenius on a monomial reads the monomial's own twist; the class
    twist it once read gave the same witnesses for every twist the class
    could be given: one that every monomial twist matches mod l - 1."""
    fewer = []

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        S = _drawn_frobenius_ring(R, data)
        ell = S.prime
        basis = S.basis_of_degree(data.draw(st.integers(1, 6)))
        first = data.draw(st.sampled_from(basis))
        same = [m for m in basis if (S.monomial_twist(m) - S.monomial_twist(first)) % (ell - 1) == 0]
        picked = data.draw(st.lists(st.sampled_from(same), min_size=1, max_size=4, unique=True))
        x = S.element({m: data.draw(st.integers(1, ell - 1)) for m in picked})
        q = data.draw(st.sampled_from([q for q in _FROBENIUS_Q if q % ell > 1]))
        got = in_image_F_minus_Id(x, q).witnesses
        twists = [t for t in range(-2 * (ell - 1), 2 * (ell - 1) + 1)
                  if all((S.monomial_twist(m) - t) % (ell - 1) == 0 for m in x.terms)]
        assert twists
        for twist in twists:
            assert reference_frobenius_witnesses(x, q, twist) == got, twist
        fewer.append(len(got) < len(x.terms))  # some monomial's eigenvalue is not 1

    check()
    assert any(fewer)


# ---------------------------------------------------------------- descent


def _hs_input(scenario):
    """The class and the q named by a scenario's `obstruct hs` query."""
    query = next(q for q in scenario.queries
                 if isinstance(q, dsl.ObstructQuery) and q.kind == "hs")
    return dsl.poly_to_element(scenario.presentation, query.poly), query.q


def test_descent_fires_on_classifying_scenarios():
    for name in ("CLASSIFYING2", "CLASSIFYING3", "CLASSIFYING5"):
        scenario = corpus.get_scenario(name)
        report = hs_scripted_check(*_hs_input(scenario))
        assert report.fires, name
        assert report.verdict == "nonvanishing"


def test_descent_quiet_on_zero_and_on_killed_classes():
    assert hs_scripted_check(CLS2.zero(), 3).verdict == "vanishes"
    # b(y1) = 0 at the odd prime, so the wrapped class never appears
    assert hs_scripted_check(CLS3.gen("y1"), 2).verdict == "vanishes"


# ------------------------------------------- one presentation per computation

PROJ = corpus.resolve_ring("PROJ2_2")
X12 = CLS2.gen("x1") * CLS2.gen("x2")
WB = REAL4.gen("w") * REAL4.gen("b")


@pytest.mark.parametrize("misuse, error", [
    # a second ring beside a class that carries its own, or a codimension
    # given twice: each of these once answered for the wrong ring or codimension
    (lambda: hs_scripted_check(obstructions.HsInput(CLS3, X12, 2)), AttributeError),
    (lambda: weird_operator(WB, 2, 2, codim=3), TypeError),
    (lambda: total_operation_class(CLS3, X12, 6), TypeError),
    (lambda: PROJ.total_sq(X12), MixedPrimes),
    (lambda: CLS3.bockstein(X12), MixedPrimes),
    (lambda: TotalClass.of_element(CLS2.gen("x1"), 6) + TotalClass.of_element(PROJ.gen("l"), 6),
     MixedPrimes),
    (lambda: TotalClass.of_element(CLS2.gen("x1"), 6) * PROJ.gen("l"), MixedPrimes),
], ids=["hs", "weird", "total-operation-class", "total-sq", "bockstein", "total-class-add",
        "total-class-mul"])
def test_a_class_meets_only_its_own_presentation(misuse, error):
    with pytest.raises(error):
        misuse()


@pytest.mark.parametrize("call, want", [
    (lambda: hs_scripted_check(X12, 3).verdict, "nonvanishing"),
    (lambda: weird_operator(WB, 2, 2).render(), "0"),
    (lambda: weird_operator(WB, 2, 3).render(), "w^4*b"),
    (lambda: total_operation_class(X12, 6).render(),
     "[2] x1*x2; [3] x1*x2^2 + x1^2*x2; [4] x1^2*x2^2"),
], ids=["hs", "weird-codim-2", "weird-codim-3", "total-operation-class"])
def test_the_ring_and_codimension_come_from_the_class(call, want):
    assert call() == want
