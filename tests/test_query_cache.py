"""The query pipeline's answer cache: a repeated query gets the answer a
cold one gets, errors are never cached, and callers own what they get."""

import copy

import pytest

from steencalc import DslSyntaxError, SteencalcError, UnknownGenerator, corpus, dsl, runner
from steencalc.cli import main


@pytest.fixture(autouse=True)
def cold_answers():
    runner._answer.cache_clear()
    yield
    runner._answer.cache_clear()


def _fields(result):
    """The five fields of a result, copied all the way down."""
    return copy.deepcopy((result.label, result.lines, result.record, result.expected,
                          result.fired))


def _scenario_query_runs():
    """(scenario, query) for every query of every shipped file."""
    for name in corpus.scenario_names():
        scenario = corpus.get_scenario(name)
        for query in scenario.queries:
            yield scenario, query


def _run(scenario, query):
    return runner.execute_query(
        query,
        lambda name: scenario.presentation if name == scenario.name else corpus.resolve_ring(name),
    )


def test_every_shipped_query_answers_the_same_twice():
    runs = list(_scenario_query_runs())
    cold = [_fields(_run(s, q)) for s, q in runs]
    hits = runner._answer.cache_info().hits
    warm = [_fields(_run(s, q)) for s, q in runs]
    assert warm == cold
    assert runner._answer.cache_info().hits - hits == len(runs)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_corpus_run_prints_the_same_twice(fmt, capsys):
    for name in corpus.scenario_names() + ["all"]:
        runner._answer.cache_clear()
        outputs = []
        for _ in range(2):
            code = main(["--format", fmt, "corpus", "run", name])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1], name


SAME_QUERY_TWICE = (
    'apply "Sq^1 %" to x1 in CLASSIFYING2;\n'
    '   apply "Sq^1 %" to x1 in CLASSIFYING2;\n'
)


def test_errors_are_raised_again_with_their_own_position():
    first, second = dsl.parse(SAME_QUERY_TWICE).queries
    assert first == second  # one cache key, two spans
    resolve = corpus.resolve_ring
    for _ in range(3):
        for query, (line, col) in ((first, (1, 13)), (second, (2, 16))):
            with pytest.raises(DslSyntaxError) as caught:
                runner.execute_query(query, resolve)
            assert (type(caught.value), caught.value.line, caught.value.col) == (
                DslSyntaxError, line, col)
            assert str(caught.value).startswith("%d:%d: " % (line, col))
    assert runner._answer.cache_info().currsize == 0


def test_semantic_errors_are_raised_again(tmp_path, capsys):
    path = tmp_path / "bad.steen"
    path.write_text("normalize x1 + y9 in CLASSIFYING2;\n", encoding="utf-8")
    query = dsl.parse(path.read_text(encoding="utf-8")).queries[0]
    messages = set()
    for _ in range(3):
        with pytest.raises(UnknownGenerator) as caught:
            runner.execute_query(query, corpus.resolve_ring)
        messages.add(str(caught.value))
        assert main(["run", str(path)]) == 2
        messages.add(capsys.readouterr().err)
    assert messages == {"unknown generator 'y9' at 1:1",
                        "error: unknown generator 'y9' at 1:1\n"}


def test_mutating_a_result_leaves_the_next_answer_alone():
    query = dsl.parse('apply "Sq^2 Sq^1" to x1*x2 in CLASSIFYING2;').queries[0]
    want = _fields(runner.execute_query(query, corpus.resolve_ring))
    got = runner.execute_query(query, corpus.resolve_ring)
    got.lines[1] = "  = junk"
    got.lines.append("extra")
    got.record["verb"] = "junk"
    got.record["result"][0]["monomial"]["x1"] = 99
    got.record["result"].append({})
    got.expected = False
    assert _fields(runner.execute_query(query, corpus.resolve_ring)) == want


RING_A = "ring R { prime = 2; gen x deg=1; }\n"
RING_B = "ring R { prime = 2; gen x deg=1; rule x^2 = 0; }\n"


def test_one_ring_name_in_two_sources_gets_two_answers(tmp_path, capsys):
    paths = []
    for name, source in (("a", RING_A), ("b", RING_B)):
        paths.append(tmp_path / (name + ".steen"))
        paths[-1].write_text(source, encoding="utf-8")
    for _ in range(2):
        outs = []
        for path in paths:
            assert main(["apply", "Sq^1", "x", "--ring", "R", "--rings", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs == ['apply "Sq^1" to x in R;\n  = x^2\n',
                        'apply "Sq^1" to x in R;\n  = 0\n']
    query = dsl.parse('apply "Sq^1" to x in R;').queries[0]
    for source, want in ((RING_A, "  = x^2"), (RING_B, "  = 0")):
        program = dsl.build_program(dsl.parse(source))
        result = runner.execute_query(query, program.rings.__getitem__)
        assert result.lines[1] == want


@pytest.mark.parametrize("text, message", [
    ("charclass w of E;", "no bundles in scope"),
])
def test_verbs_without_their_resolver_are_refused(text, message):
    (query,) = dsl.parse(text).queries
    with pytest.raises(SteencalcError, match="^%s$" % message):
        runner.execute_query(query, corpus.resolve_ring)
