"""The record base: what each of the package's record types gets from its
field table, and the own constructors of the types built on every cold
parse agreeing with that table."""

import pytest

from steencalc import (GeneratorSpec, ObstructionReport, RewriteRule, SteenrodMonomial,
                       VirtualBundle, corpus, dsl, runner)
from steencalc.record import FrozenRecord, FrozenRecordError, Record


def _record_types(base=Record):
    for cls in base.__subclasses__():
        if cls is not FrozenRecord:
            yield cls
        yield from _record_types(cls)


RECORD_TYPES = {cls.__name__: cls for cls in _record_types()}


def test_the_record_types():
    assert sorted(RECORD_TYPES) == sorted([
        "ActionDecl", "AdemQuery", "ApplyQuery", "BundleDecl", "CharclassQuery", "_ClassLine",
        "CorpusQuery", "FileAst", "GenDecl", "NormalizeQuery", "ObstructQuery", "Poly",
        "Program", "RingBlock", "RuleDecl", "WuQuery", "GeneratorSpec", "RewriteRule",
        "SteenrodMonomial", "VirtualBundle", "ObstructionReport", "Scenario", "StepResult",
        "ScenarioReport", "QueryResult"])
    frozen = {name for name, cls in RECORD_TYPES.items() if issubclass(cls, FrozenRecord)}
    assert frozen == {"ActionDecl", "AdemQuery", "ApplyQuery", "BundleDecl", "CharclassQuery",
                      "_ClassLine", "CorpusQuery", "FileAst", "GenDecl", "NormalizeQuery",
                      "ObstructQuery", "Poly", "RingBlock", "RuleDecl", "WuQuery",
                      "SteenrodMonomial", "ObstructionReport"}


def test_fields_come_from_the_annotations_in_order():
    assert dsl.GenDecl._fields == ("name", "degree", "twist", "odd", "frob", "span")
    assert dsl.GenDecl._defaults == {"twist": 0, "odd": False, "frob": None, "span": None}
    assert dsl.CorpusQuery._fields == ("action", "name", "span")  # expect is a class attribute
    assert runner.QueryResult._fields == ("label", "lines", "record", "expected", "fired")


def test_construction_by_position_and_keyword_with_defaults():
    block = dsl.RingBlock("R", 2, omega="w")
    assert (block.name, block.prime, block.gens, block.omega, block.span) == ("R", 2, (), "w", None)
    assert dsl.RingBlock(prime=2, name="R", omega="w") == block
    trusted = dsl.RingBlock._from({"name": "R", "prime": 2, "omega": "w"})
    assert vars(trusted) == vars(block) and type(trusted) is dsl.RingBlock
    assert repr(block) == ("RingBlock(name='R', prime=2, gens=(), rules=(), actions=(), "
                           "omega='w', span=None)")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # name and prime missing
    (("R",), {"omega": "w"}),  # prime missing
    (("R", 2, (), (), (), None, None, 8), {}),  # one positional too many
    (("R", 2), {"name": "S"}),  # name twice
    (("R", 2), {"colour": "red"}),  # no such field
])
def test_a_bad_argument_list_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError) as info:
        dsl.RingBlock(*args, **kwargs)
    assert str(info.value) == (
        "RingBlock(name, prime, gens=(), rules=(), actions=(), omega=None, span=None) does not "
        "take %d positional arguments and the keywords %s" % (len(args), sorted(kwargs)))


def test_spans_take_no_part_in_equality_or_hashing():
    here = dsl.parse('adem "Sq^2 Sq^2" expect "Sq^3 Sq^1";').queries[0]
    there = dsl.parse('\n\n   adem   "Sq^2 Sq^2"   expect "Sq^3 Sq^1";').queries[0]
    assert (here.span, here.op_span, here.expect_span) != (there.span, there.op_span,
                                                          there.expect_span)
    assert here == there and hash(here) == hash(there)
    assert here != dsl.AdemQuery("Sq^2 Sq^2", 3, "Sq^3 Sq^1")
    assert dsl.GenDecl("x", 1, span=(1, 1)) == dsl.GenDecl("x", 1, span=(9, 9))
    assert dsl.GenDecl("x", 1) != dsl.GenDecl("x", 2)
    x = ((1, (("x", 1),)),)
    assert dsl.Poly(x) == dsl.Poly(x) and hash(dsl.Poly(x)) == hash(dsl.Poly(x))
    assert dsl.Poly(x) != dsl.Poly(()) and dsl.Poly(()) != ()
    # records of two types are unequal even with the same field values
    assert dsl.NormalizeQuery(dsl.Poly(()), "R") != dsl.CharclassQuery(dsl.Poly(()), "R")


def test_frozen_records_hash_and_refuse_assignment():
    decl = dsl.GenDecl("x", 1)
    assert {decl: 1}[dsl.GenDecl("x", 1)] == 1
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'degree'"):
        decl.degree = 2
    with pytest.raises(FrozenRecordError):
        del decl.name
    assert issubclass(FrozenRecordError, AttributeError)
    report = ObstructionReport("odd", "x", "0", "vanishes")
    with pytest.raises(FrozenRecordError):
        report.verdict = "nonvanishing"


def test_mutable_records_compare_by_value_and_do_not_hash():
    rule = RewriteRule("x", 2, {(0,): 1})
    assert rule == RewriteRule("x", 2, {(0,): 1}) != RewriteRule("x", 2, {})
    rule.power = 3
    assert rule.power == 3
    with pytest.raises(TypeError):
        hash(rule)


def test_a_list_or_dict_default_is_fresh_per_instance():
    a, b = GeneratorSpec("a", 1), GeneratorSpec("b", 1)
    a.action[1] = {}
    assert b.action == {} and "action" not in vars(GeneratorSpec)
    v, w = VirtualBundle(2), VirtualBundle(rank=2)
    v.numerator_chern.append(1)
    v.denominator_chern.append(2)
    assert (w.numerator_chern, w.denominator_chern) == ([], [])
    assert VirtualBundle(1).truncation == 10


def test_scenarios_hash_by_identity():
    mo3 = corpus.get_scenario("MO3")
    twin = corpus.Scenario(mo3.name, mo3.source, mo3.program, mo3.extra_checks)
    assert mo3 == mo3 and mo3 != twin
    assert len({mo3, twin}) == 2


# Record types that write their own __init__, with the arguments of their
# required fields.
OWN_CONSTRUCTORS = [
    (dsl.Poly, ((),)),
    (dsl.FileAst, ()),
    (dsl.Program, ({}, {}, ())),
    (GeneratorSpec, ("x", 1)),
    (RewriteRule, ("x", 2, {})),
    (SteenrodMonomial, (2, (2, 1))),
    (runner.QueryResult, ("label", [], {})),
]


def test_every_own_constructor_is_listed():
    own = {cls for cls in RECORD_TYPES.values() if "__init__" in vars(cls)}
    assert own == {cls for cls, _ in OWN_CONSTRUCTORS}


@pytest.mark.parametrize("cls, required", OWN_CONSTRUCTORS, ids=lambda v: getattr(v, "__name__", ""))
def test_own_constructors_follow_the_field_table(cls, required):
    code = cls.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == cls._fields
    table = object.__new__(cls)
    Record.__init__(table, *required)
    built = cls(*required)
    assert vars(built) == vars(table) and repr(built) == repr(table)
    assert vars(cls(**vars(table))) == vars(table)
    with pytest.raises(TypeError):
        cls(*range(len(cls._fields) + 1))
