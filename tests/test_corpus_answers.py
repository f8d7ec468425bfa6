"""Corpus verbs go through runner.execute_query like every other verb: the
answer is the one the command line prints, a repeated one comes from the
answer cache, and the cache is keyed by the scenarios a verb reads, so a
switched or grown corpus directory gets a fresh answer."""

import json

import pytest

from steencalc import corpus, dsl, runner
from steencalc.cli import main


@pytest.fixture(autouse=True)
def cold_answers():
    runner._answer.cache_clear()
    yield
    runner._answer.cache_clear()


def _ask(text):
    (query,) = dsl.parse(text).queries
    return runner.execute_query(query, corpus.resolve_ring)


def _main(argv, capsys):
    """(exit status, stdout) of the command line, with nothing on stderr."""
    status = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return status, out


def _tiny(directory, degree, name="TINY"):
    """A scenario on one generator a of degree 1 or 2, which expects
    Sq^1 a = a^2: it passes at degree 1 and fails at degree 2."""
    directory.mkdir(exist_ok=True)
    action = "  action Sq^1(a) = 0;\n" if degree == 2 else ""
    (directory / (name + ".steen")).write_text(
        "ring %s {\n  prime = 2;\n  gen a deg=%d;\n%s}\n"
        'apply "Sq^1" to a in %s expect a^2;\n' % (name, degree, action, name),
        encoding="utf-8",
    )


@pytest.mark.parametrize("words", [["list"], ["run", "MO3"], ["run", "all"]])
def test_answer_is_what_the_command_line_prints(words, capsys):
    result = _ask("corpus %s;" % " ".join(words))
    status, text = _main(["corpus", *words], capsys)
    assert text == "".join(line + "\n" for line in result.lines)
    assert status == (0 if result.passed else 1) == 0
    status, out = _main(["--format", "json", "corpus", *words], capsys)
    assert json.loads(out) == {"ok": True, "results": [result.record]}
    assert result.record["verb"] == "corpus-" + words[0]


@pytest.mark.parametrize("text", ["corpus list;", "corpus run MO3;", "corpus run all;"])
def test_a_repeated_corpus_verb_is_a_cache_hit(text):
    first = _ask(text)
    first_json = first.record_json()
    before = runner._answer.cache_info()
    again = _ask(text)
    after = runner._answer.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert again.lines == first.lines and again.record_json() == first_json
    assert again.record == first.record == json.loads(first_json)


def test_a_switched_corpus_directory_gets_a_fresh_answer(tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    _tiny(first, 1)
    _tiny(second, 2)
    _tiny(second, 1, "EXTRA")
    for directory in (first, second, first, second):
        monkeypatch.setenv(corpus.ENV_DATA_DIR, str(directory))
        passes = directory == first
        assert _ask("corpus run TINY;").passed == passes
        assert main(["corpus", "run", "TINY"]) == (0 if passes else 1)
        assert capsys.readouterr().out.splitlines()[1] == (
            "  scenario TINY: %s" % ("pass" if passes else "FAIL"))
        listed = _ask("corpus list;").record["result"]
        assert listed == (["TINY"] if passes else ["EXTRA", "TINY"])
        assert [r["scenario"] for r in _ask("corpus run all;").record["result"]] == listed


def test_an_added_file_is_seen_by_the_next_answer(tmp_path, monkeypatch, capsys):
    _tiny(tmp_path, 1, "ONE")
    monkeypatch.setenv(corpus.ENV_DATA_DIR, str(tmp_path))
    assert _main(["corpus", "list"], capsys) == (0, "corpus list;\n  ONE\n")
    before = _main(["corpus", "run", "all"], capsys)
    _tiny(tmp_path, 1, "TWO")
    assert _main(["corpus", "list"], capsys) == (0, "corpus list;\n  ONE\n  TWO\n")
    status, after = _main(["corpus", "run", "all"], capsys)
    assert status == 0 and after.startswith(before[1])
    assert after[len(before[1]):] == (
        '  scenario TWO: pass\n    [ok  ] apply "Sq^1" to a in TWO expect a^2;\n')


def test_a_scenario_cannot_run_a_corpus_verb(tmp_path, monkeypatch, capsys):
    _tiny(tmp_path, 1, "SELF")
    with open(tmp_path / "SELF.steen", "a", encoding="utf-8") as fh:
        fh.write("corpus list;\n")
    monkeypatch.setenv(corpus.ENV_DATA_DIR, str(tmp_path))
    for argv in (["corpus", "run", "SELF"], ["--format", "json", "corpus", "run", "all"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: corpus queries are not available here\n")


def test_a_mutated_corpus_record_changes_no_later_answer():
    for text in ("corpus list;", "corpus run P2REAL;"):
        first = _ask(text)
        want = first.record_json()
        first.record["result"].clear()
        first.record["verb"] = "changed"
        first.lines.append("changed")
        again = _ask(text)
        assert again.record_json() == want
        assert json.loads(want) == again.record
        assert again.record["result"] and "changed" not in again.lines
