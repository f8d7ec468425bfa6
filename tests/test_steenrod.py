"""Operation words: parsing, admissibility, Adem normalization."""

import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from steencalc import (
    MixedPrimes,
    SteenrodElement,
    admissible_monomials,
    binom_mod_ell,
    corpus,
    dsl,
    parse_operation,
    runner,
    steenrod,
)
from steencalc.errors import InternalNonTermination, InvalidArgument, NotAdmissible
from steencalc.record import FrozenRecordError
from steencalc.steenrod import SteenrodMonomial, _multiply_words, _normalize_words

from oracles import Model2, ModelOdd, binom_mod
from references import (
    ReferenceSteenrodElement,
    reference_admissible_words,
    reference_normalize_words,
)


def _word_element(word, prime):
    return SteenrodElement(prime, {tuple(word): 1})


def test_binom_small_values():
    assert binom_mod_ell(4, 2, 2) == 0
    assert binom_mod_ell(4, 2, 3) == 0
    assert binom_mod_ell(5, 2, 3) == 1
    assert binom_mod_ell(0, 0, 5) == 1
    assert binom_mod_ell(3, 5, 7) == 0
    assert binom_mod_ell(3, -1, 2) == 0
    assert binom_mod_ell(-2, -3, 5) == 0


def test_binom_negative_upper():
    # C(-1, k) = (-1)^k
    for k in range(8):
        for ell in (2, 3, 5):
            assert binom_mod_ell(-1, k, ell) == (ell - 1 if k % 2 else 1) % ell
    # C(-n-1, k) drives the inverse-series coefficients
    assert binom_mod_ell(-3, 2, 5) == math.comb(2 + 3 - 1, 2) % 5


@given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([2, 3, 5, 7]))
def test_binom_lucas_matches_comb(a, k, ell):
    assert binom_mod_ell(a, k, ell) == math.comb(a, k) % ell


@given(st.integers(-60, -1), st.integers(0, 40), st.sampled_from([2, 3, 5]))
def test_binom_negative_matches_reflection(a, k, ell):
    assert binom_mod_ell(a, k, ell) == binom_mod(a, k, ell)


def test_parse_render_roundtrip():
    for text, prime in [
        ("Sq^3 Sq^1", 2),
        ("Sq^1", 2),
        ("b P^2 b", 3),
        ("P^1 P^1", 5),
        ("b", 3),
    ]:
        op = parse_operation(text, prime)
        assert parse_operation(op.render(), prime) == op


def test_parse_rejects_wrong_prime():
    with pytest.raises(Exception):
        parse_operation("P^1", 2)
    with pytest.raises(Exception):
        parse_operation("Sq^2", 3)


def test_admissibility_even_prime():
    assert SteenrodMonomial(2, (3, 1)).is_admissible()
    assert not SteenrodMonomial(2, (2, 2)).is_admissible()
    assert SteenrodMonomial(2, (6, 3, 1)).is_admissible()


def test_excess_even_prime():
    # excess of Sq^{i1}..Sq^{ik} is i1 - (i2 + ... + ik)
    assert SteenrodMonomial(2, (3, 1)).excess() == 2
    assert SteenrodMonomial(2, (1,)).excess() == 1
    assert SteenrodMonomial(2, (6, 3, 1)).excess() == 2
    with pytest.raises(NotAdmissible, match=r"^excess is defined on admissible words only: "
                                            r"SteenrodMonomial\(p=2, Sq\^1 Sq\^2\)$"):
        SteenrodMonomial(2, (1, 2)).excess()


def test_degree_bookkeeping():
    assert SteenrodMonomial(2, (3, 1)).degree() == 4
    # at l=3 the letter 0 has degree 1 and P^s has degree 4s
    assert SteenrodMonomial(3, (0, 1, 0)).degree() == 6


def test_adem_golden_even():
    assert parse_operation("Sq^1 Sq^1", 2).adem_normalize().render() == "0"
    assert (
        parse_operation("Sq^2 Sq^2", 2).adem_normalize().render()
        == "Sq^3 Sq^1"
    )
    assert (
        parse_operation("Sq^1 Sq^2", 2).adem_normalize().render() == "Sq^3"
    )


def test_adem_golden_odd():
    # P^1 P^1 = 2 P^2 at l=3 is the classical first relation
    out = parse_operation("P^1 P^1", 3).adem_normalize()
    assert out.render() == "2 P^2"
    # b b = 0
    assert parse_operation("b b", 3).adem_normalize().render() == "0"


def test_normalization_is_admissible():
    for prime, words in [
        (2, [(2, 2), (1, 2, 3), (5, 5), (4, 4, 4)]),
        (3, [(1, 1), (0, 1, 0, 1), (2, 1), (1, 0, 1)]),
    ]:
        for word in words:
            normal = _word_element(word, prime).adem_normalize()
            for mono in normal.monomials():
                assert mono.is_admissible(), (prime, word, mono)


def test_mixed_primes_rejected():
    a = _word_element((1,), 2)
    b = _word_element((1,), 3)
    with pytest.raises(MixedPrimes):
        a + b


def test_admissible_monomials_count_low_degrees():
    # dimensions of the mod-2 Steenrod algebra in low degrees
    for d, want in [(0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 2), (6, 3)]:
        got = [m for m in admissible_monomials(2, d) if m.degree() == d]
        assert len(got) == want, (d, got)


@pytest.mark.parametrize("prime, max_degree", [(2, 24), (3, 45), (5, 90)])
def test_admissible_monomials_match_inward_enumerator(prime, max_degree):
    """Growing words outward finds the same words as appending letters; an
    excess bound keeps exactly the words of excess up to it."""
    want = reference_admissible_words(prime, max_degree)
    assert [m.word for m in admissible_monomials(prime, max_degree)] == want
    for bound in range(-1, 8):
        got = [m.word for m in admissible_monomials(prime, max_degree, bound)]
        assert got == [w for w in want if SteenrodMonomial(prime, w).excess() <= bound]
    assert admissible_monomials(prime, -1) == []


def test_admissible_monomials_odd_include_bocksteins():
    mons = list(admissible_monomials(3, 6))
    degrees = {m.degree() for m in mons}
    assert 1 in degrees  # b alone
    assert 4 in degrees  # P^1
    assert 5 in degrees  # b P^1 and P^1 b
    assert any(m.word == (0, 1) for m in mons)
    assert any(m.word == (1, 0) for m in mons)


# ----------------------------------------------------- action comparisons


def _model_apply_element(model, elt, probe):
    out = {}
    for mono, coeff in elt.terms.items():
        hit = model.apply_word(mono.word, probe)
        for m, c in hit.items():
            v = (out.get(m, 0) + coeff * c) % model.ell
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


word2 = st.lists(st.integers(1, 8), min_size=1, max_size=4).map(tuple)
word3 = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)


@settings(max_examples=120, deadline=None)
@given(word2)
def test_normalize_preserves_action_l2(word):
    """A word and its admissible form act identically on the model."""
    model = Model2(3)
    probe = {(1, 1, 1): 1, (2, 1, 0): 1}
    direct = model.apply_word(word, probe)
    via_normal = _model_apply_element(
        model, _word_element(word, 2).adem_normalize(), probe
    )
    assert direct == via_normal, (word, direct, via_normal)


@settings(max_examples=120, deadline=None)
@given(word3)
def test_normalize_preserves_action_l3(word):
    model = ModelOdd(3, 2)
    probe = {((1, 1), (0, 0)): 1, ((0, 0), (2, 1)): 1}
    direct = model.apply_word(word, probe)
    via_normal = _model_apply_element(
        model, _word_element(word, 3).adem_normalize(), probe
    )
    assert direct == via_normal, (word, direct, via_normal)


def test_normalization_degree_preserved():
    for prime, word in [(2, (2, 2, 2)), (3, (1, 1, 0)), (5, (1, 1))]:
        base = SteenrodMonomial(prime, word).degree()
        for mono in _word_element(word, prime).adem_normalize().monomials():
            assert mono.degree() == base


def test_bockstein_squared_is_zero_odd():
    for prime in (3, 5):
        elt = _word_element((0, 0), prime).adem_normalize()
        assert not elt.monomials()


# ------------------------------------------- the rewrite loop, differentially


def _letters(prime, top):
    return st.integers(1 if prime == 2 else 0, top)


def _raw_terms(prime):
    """Raw words (non-admissible ones and adjacent Bocksteins included) with
    coefficients that may vanish mod the prime."""
    words = st.lists(_letters(prime, 9 if prime == 2 else 3), max_size=6).map(tuple)
    return st.dictionaries(words, st.integers(-prime, 2 * prime), max_size=4)


def _table_lookups():
    tables = (steenrod._adem_pp, steenrod._adem_pbp)
    return sum(t.cache_info().hits + t.cache_info().misses for t in tables)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(st.just(p), _raw_terms(p))))
@example((3, {(0, 0): 1, (1, 0, 0, 2): 2, (0, 1, 0, 1): 1}))
@example((5, {(2, 0, 0, 0, 1): 4, (0, 0, 3, 1): 1}))
@example((7, {(1, 1, 0, 1): 3, (0, 3, 0, 1): 6}))
@example((2, {(2, 2, 2, 2): 1, (1, 1): 1, (): 3}))
def test_normalize_words_matches_restarting_reference(case):
    """Resuming each scan two letters before the last rewrite finds the same
    leftmost spots as rescanning every word from its start: the same normal
    form, built in the same order, from the same Adem table lookups."""
    prime, terms = case
    before = _table_lookups()
    got = _normalize_words(prime, dict(terms))
    middle = _table_lookups()
    want = reference_normalize_words(prime, dict(terms))
    assert list(got.items()) == list(want.items())
    assert middle - before == _table_lookups() - middle


def _elements(prime):
    words = st.lists(_letters(prime, 5 if prime == 2 else 2), max_size=3).map(tuple)
    terms = st.dictionaries(words, st.integers(1, prime - 1), max_size=3)
    return terms.map(lambda t: SteenrodElement(prime, t))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(*[_elements(p)] * 3)))
def test_products_are_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


# ------------------------------------- trusted results, validated entry points


def _assert_like_validated(element):
    for mono in element.terms:
        fresh = SteenrodMonomial(element.prime, mono.word)
        assert type(mono) is SteenrodMonomial
        assert mono == fresh and fresh == mono and hash(mono) == hash(fresh)
        with pytest.raises(FrozenRecordError):
            mono.word = ()
        with pytest.raises(FrozenRecordError):
            mono.prime = 2


@pytest.mark.parametrize("prime, a, b", [
    (2, "Sq^2 Sq^2 + Sq^1", "Sq^3 Sq^1 + Sq^2"),
    (3, "b P^1 b P^1 + 2 P^1", "P^1 b + b"),
    (5, "P^2 P^1 + 3 b P^1", "4 P^1 + b"),
])
def test_results_hold_validated_monomials(prime, a, b):
    x, y = parse_operation(a, prime), parse_operation(b, prime)
    for result in (x.adem_normalize(), x.multiply(y), x * y, x + y, x - y,
                   x.scale(2), x.scale(prime), x + x.scale(-1)):
        _assert_like_validated(result)
    assert x.scale(prime) == SteenrodElement(prime)
    assert x + x.scale(-1) == SteenrodElement(prime)


def _small_raw_terms(prime):
    """Raw words short enough that products of two stay quick to normalise."""
    words = st.lists(_letters(prime, 6 if prime == 2 else 3), max_size=4).map(tuple)
    return st.dictionaries(words, st.integers(-prime, 2 * prime), max_size=4)


def _normalized_concatenations(prime, left, right):
    raw = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            raw[w1 + w2] = raw.get(w1 + w2, 0) + c1 * c2
    return _normalize_words(prime, raw)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
    st.just(p), _small_raw_terms(p), _small_raw_terms(p))))
@example((2, {(): 1, (2, 2): 1}, {(1, 1): 1, (2, 3): 1, (): 2}))
@example((3, {(): 2}, {(0, 0): 1, (1, 1, 0): 1, (1, 0, 0, 2): 2, (2,): 3}))
@example((5, {(2, 0, 0, 1): 5, (): 4, (1, 1): 1}, {(0, 0, 3, 1): 1, (): 10, (1, 2): 4}))
def test_multiply_words_matches_normalized_concatenations(case):
    """Putting each left word's letters, last first, in front of the right
    terms through the letter table gives the normal form of the concatenated
    words, from an empty table and from a filled one."""
    prime, left, right = case
    want = _normalized_concatenations(prime, left, right)
    steenrod._letter_product.cache_clear()
    assert _multiply_words(prime, left, right) == want
    assert _multiply_words(prime, left, right) == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
    st.just(p), _small_raw_terms(p), _small_raw_terms(p), st.integers(-9, 9))))
@example((3, {(0, 0): 1, (1, 0, 0, 2): 2, (): 4}, {(0, 1, 0, 1): 1, (1, 1): 2}, 2))
@example((7, {(1, 1, 0, 1): 3, (0, 0): 7}, {(0, 3, 0, 1): 6, (2,): 1}, -1))
@example((2, {(2, 2): 1, (3, 1): 1}, {(3, 1): 1, (1, 1): 1}, 3))
def test_word_keyed_elements_match_the_monomial_keyed_reference(case):
    """Every operation on word-keyed elements gives the terms, in the same
    order, that the element keyed by SteenrodMonomial gives; equality agrees
    with it, and equal elements hash equal."""
    prime, raw_a, raw_b, c = case
    a, b = SteenrodElement(prime, raw_a), SteenrodElement(prime, raw_b)
    ra, rb = ReferenceSteenrodElement(prime, raw_a), ReferenceSteenrodElement(prime, raw_b)
    pairs = [
        (a, ra), (b, rb), (a + b, ra + rb), (b + a, rb + ra), (a - b, ra - rb),
        ((a + b) - b, (ra + rb) - rb), (a.scale(c), ra.scale(c)),
        (a.multiply(b), ra.multiply(rb)), (a * b, ra.multiply(rb)),
        (a.adem_normalize(), ra.adem_normalize()), (b.adem_normalize(), rb.adem_normalize()),
    ]
    for got, want in pairs:
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.render() == want.render()
        assert got.degree() == want.degree()
        assert got.is_homogeneous() == want.is_homogeneous()
        assert got.is_admissible() == want.is_admissible()
        assert got.monomials() == want.monomials()
        assert bool(got) == bool(want.terms)
    for x, rx in pairs:
        for y, ry in pairs:
            assert (x == y) == (rx == ry)
            if x == y:
                assert hash(x) == hash(y)


def test_terms_is_a_view_built_on_each_read():
    e = parse_operation("Sq^2 Sq^2 + Sq^3 + Sq^1", 2)
    first, second = e.terms, e.terms
    assert first == second and first is not second
    first.clear()
    second[SteenrodMonomial(2, (4,))] = 1
    assert e.terms == {SteenrodMonomial(2, w): 1 for w in ((2, 2), (3,), (1,))}
    assert e.render() == "Sq^1 + Sq^3 + Sq^2 Sq^2"
    for x in (e, e.adem_normalize(), parse_operation("2 b P^1 b + P^3 + 1", 5)):
        assert SteenrodElement(x.prime, x.terms) == x


def test_tuple_and_monomial_keys_build_equal_elements():
    words = {(0, 1): 2, (1,): 1, (): 1, (2, 0, 0): 4}
    by_tuple = SteenrodElement(3, words)
    by_monomial = SteenrodElement(3, {SteenrodMonomial(3, w): c for w, c in words.items()})
    assert by_tuple == by_monomial and hash(by_tuple) == hash(by_monomial)
    assert by_tuple.render() == by_monomial.render() == "1 + P^1 + 2 b P^1 + P^2 b b"
    with pytest.raises(MixedPrimes, match="term at prime 5 in element at prime 3"):
        SteenrodElement(3, {SteenrodMonomial(5, (1,)): 1})


def test_arithmetic_with_an_int():
    """An int scales from either side; adding or subtracting a non-element
    is a TypeError, as multiplying by one is."""
    x = parse_operation("P^1 + 2 b", 3)
    assert x * 2 == 2 * x == x.scale(2) == x + x
    assert x * 0 == 0 * x == SteenrodElement(3)
    assert x * 1 == x and x.multiply(4) == x
    for bad in (lambda: x + 0, lambda: x - 1, lambda: 0 + x, lambda: 1 - x,
                lambda: x + "b", lambda: x * "b", lambda: "b" * x, lambda: x * 1.5,
                lambda: x.multiply(None)):
        with pytest.raises(TypeError):
            bad()
    assert SteenrodElement.__mul__ is SteenrodElement.multiply


def test_adem_and_apply_queries_build_no_monomial(monkeypatch):
    """The query pipeline renders and applies words as they are stored: with
    every way of building a SteenrodMonomial refused, cold adem and apply
    queries give the answers they give otherwise."""
    ring = corpus.resolve_ring("CLASSIFYING2")
    queries = [dsl.parse(text).queries[0] for text in (
        'adem "Sq^2 Sq^2 + Sq^1 Sq^2" expect "Sq^3 + Sq^3 Sq^1";',
        'adem "P^1 P^1 + b b + 2 b P^1 b" prime = 3;',
        'apply "Sq^2 Sq^1 + Sq^3" to x1*x2 in CLASSIFYING2;',
        'apply "Sq^2 Sq^2" to x1^2*x2 in CLASSIFYING2 expect 0;',
    )]

    def answers():
        runner._answer.cache_clear()
        try:
            return [runner.execute_query(q, lambda name: ring).lines for q in queries]
        finally:
            runner._answer.cache_clear()

    want = answers()
    assert [lines[1] for lines in want] == [
        "  = Sq^3 + Sq^3 Sq^1", "  = 2 b P^1 b + 2 P^2", "  = x1*x2^4 + x1^4*x2", "  = 0"]

    def refuse(*args):
        raise AssertionError("a SteenrodMonomial was built")

    monkeypatch.setattr(steenrod, "_monomial", refuse)
    monkeypatch.setattr(SteenrodMonomial, "__init__", refuse)
    assert answers() == want


def test_public_entry_points_still_validate():
    with pytest.raises(InvalidArgument, match="not a prime: 4"):
        SteenrodMonomial(4, (1,))
    with pytest.raises(InvalidArgument):
        SteenrodElement(1, {})
    with pytest.raises(InvalidArgument):
        parse_operation("Sq^1", 9)
    with pytest.raises(InvalidArgument):
        admissible_monomials(6, 4)
    with pytest.raises(ValueError, match="bad letter"):
        SteenrodMonomial(2, (0,))
    with pytest.raises(ValueError, match="bad letter"):
        SteenrodElement(3, {(1, -1): 1})
    with pytest.raises(ValueError, match="bad letter"):
        SteenrodElement(5, {(1.0,): 1})
    for ell in (2, 3, 5, 7, 11, 97):
        assert SteenrodElement(ell).prime == ell


@pytest.mark.parametrize("c", [1.5, 2.0, "1", None])
def test_non_integer_coefficient_is_invalid_argument(c):
    message = r"^coefficient %s is not an integer$" % re.escape(repr(c))
    for prime in (2, 3):
        with pytest.raises(InvalidArgument, match=message):
            SteenrodElement(prime, {(1,): c})
        with pytest.raises(InvalidArgument, match=message):
            SteenrodElement(prime, {(1,): 1}).scale(c)
    assert SteenrodElement(3, {(1,): True}) == SteenrodElement(3, {(1,): 2}).scale(True).scale(2)


@pytest.mark.parametrize("prime", [5.0, "5", None])
def test_non_integer_prime_is_invalid_argument(prime):
    with pytest.raises(InvalidArgument, match="not a prime"):
        SteenrodElement(prime, {(1, 1): 1}).adem_normalize()
    with pytest.raises(InvalidArgument, match="not a prime"):
        binom_mod_ell(4, 2, prime)


def test_primality_matches_trial_division():
    small = []  # the primes up to sqrt(n), grown as n grows

    def trial_division(n):
        return n >= 2 and all(n % p for p in small if p * p <= n)

    for n in range(-3, 100000):
        prime = trial_division(n)
        assert steenrod._is_prime(n) is prime, n
        if prime and n * n < 100000:
            small.append(n)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


@pytest.mark.parametrize("k", range(1, len(steenrod._BASE_BOUNDS)))
def test_each_base_bound_is_a_strong_pseudoprime_the_test_rejects(k):
    """Below _BASE_BOUNDS[k - 1] the first k bases suffice; the bound itself
    passes all k and is composite, so it must be tested with one more."""
    n = steenrod._BASE_BOUNDS[k - 1]
    assert all(_strong_probable_prime(n, a) for a in steenrod._BASES[:k])
    assert steenrod._is_prime(n) is False


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),  # to the bases 2 through 23
    (318665857834031151167461, False),  # to the bases 2 through 37
    (1000000000000000001, False),  # 101 * 9901 * 999999000001
    (10000000000037, True),
    (2 ** 61 - 1, True),
    (1000000000000000003, True),
])
def test_primality_on_pseudoprimes_and_large_primes(n, prime):
    assert steenrod._is_prime(n) is prime


def test_primality_at_or_above_the_bound_is_not_guessed():
    # the bound is the least strong pseudoprime to all the bases
    bound = steenrod._PRIME_BOUND
    with pytest.raises(InvalidArgument, match="^cannot decide whether %d is prime" % bound):
        SteenrodElement(bound)
    with pytest.raises(InvalidArgument, match="^not a prime: %d$" % (bound + 2)):
        SteenrodElement(bound + 2)  # 3 divides it
    assert SteenrodElement(1000000000000000003).prime == 1000000000000000003


def test_rewrite_step_bound_is_per_call(monkeypatch):
    """The step bound limits one normalization call: a long rewrite trips
    it, and the next small calls, together past the bound, do not."""
    monkeypatch.setattr(steenrod, "_MAX_REWRITE_STEPS", 3)
    with pytest.raises(InternalNonTermination):
        _word_element((1, 2, 3, 4, 5), 2).adem_normalize()
    for _ in range(10):  # one rewrite step each
        assert parse_operation("Sq^2 Sq^2", 2).adem_normalize().render() == "Sq^3 Sq^1"
