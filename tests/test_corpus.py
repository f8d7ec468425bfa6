"""The shipped scenario library must run clean, and the corpus directory
can be switched at run time."""

import dataclasses

import pytest

from steencalc import ScenarioIncomplete, UnknownGenerator, corpus, dsl

from references import data_file_path


def test_listing_is_stable_and_nonempty():
    names = corpus.scenario_names()
    assert names == sorted(names)
    assert {"MO3", "MO5", "CLASSIFYING2", "CLASSIFYING3", "P2REAL"} <= set(names)


@pytest.mark.parametrize("name", corpus.scenario_names())
def test_every_scenario_passes(name):
    report = corpus.run_scenario(corpus.get_scenario(name))
    assert report.ok, report.render()


@pytest.mark.parametrize("name", corpus.scenario_names())
def test_shipped_data_parses(name):
    with open(data_file_path(name), encoding="utf-8") as fh:
        ast = dsl.parse(fh.read())
    assert any(r.name == name for r in ast.rings)


def test_env_override_changes_lookup(tmp_path, monkeypatch):
    custom = tmp_path / "TINY.steen"
    custom.write_text(
        "ring TINY {\n"
        "  prime = 2;\n"
        "  gen a deg=1;\n"
        "}\n"
        'apply "Sq^1" to a in TINY expect a^2;\n',
        encoding="utf-8",
    )
    monkeypatch.setenv(corpus.ENV_DATA_DIR, str(tmp_path))
    try:
        s = corpus.get_scenario("TINY")
        assert s.presentation.prime == 2
        assert corpus.run_scenario(s).ok
        with pytest.raises(ScenarioIncomplete):
            corpus.get_scenario("MO3")  # not present in the override dir
    finally:
        monkeypatch.delenv(corpus.ENV_DATA_DIR)


def test_override_requires_matching_ring_name(tmp_path, monkeypatch):
    bad = tmp_path / "ODD.steen"
    bad.write_text("ring OTHER {\n  prime = 2;\n  gen a deg=1;\n}\n", encoding="utf-8")
    monkeypatch.setenv(corpus.ENV_DATA_DIR, str(tmp_path))
    try:
        with pytest.raises(ScenarioIncomplete):
            corpus.get_scenario("ODD")
        # resolve_ring raises it again: the file is there, its ring is not
        with pytest.raises(ScenarioIncomplete,
                           match="^scenario ODD must define ring ODD$"):
            corpus.resolve_ring("ODD")
    finally:
        monkeypatch.delenv(corpus.ENV_DATA_DIR)


def test_switching_corpus_dir_in_one_process(tmp_path, monkeypatch, capsys):
    from steencalc.cli import main

    first, second = tmp_path / "first", tmp_path / "second"
    for directory, degree in ((first, 1), (second, 2)):
        directory.mkdir()
        (directory / "TINY.steen").write_text(
            "ring TINY {\n  prime = 2;\n  gen a deg=%d;\n}\n" % degree,
            encoding="utf-8",
        )
    (second / "EXTRA.steen").write_text(
        "ring EXTRA {\n  prime = 2;\n  gen e deg=3;\n}\n", encoding="utf-8"
    )
    seen = []
    for directory in (first, second, first):
        monkeypatch.setenv(corpus.ENV_DATA_DIR, str(directory))
        seen.append(corpus.get_scenario("TINY").presentation.generators[0].degree)
        seen.append(corpus.scenario_names())
    assert seen == [1, ["TINY"], 2, ["EXTRA", "TINY"], 1, ["TINY"]]

    # corpus list and corpus run all read the override directory's files
    monkeypatch.setenv(corpus.ENV_DATA_DIR, str(second))
    assert main(["corpus", "list"]) == 0
    assert capsys.readouterr().out.split() == ["corpus", "list;", "EXTRA", "TINY"]
    assert main(["corpus", "run", "all"]) == 0
    out = capsys.readouterr().out
    assert "scenario EXTRA: pass" in out and "scenario TINY: pass" in out
    monkeypatch.delenv(corpus.ENV_DATA_DIR)
    assert "MO3" in corpus.scenario_names()


SCOPED = (
    "ring SCOPED {\n  prime = 2;\n  gen w deg=1;\n  gen t deg=2;\n  rule t^3 = 0;\n"
    "  omega = w;\n}\n"
    "ring HELPER {\n  prime = 2;\n  gen a deg=1;\n}\n"
    "bundle E in SCOPED { rank = 1; trunc = 4; chern 1 = t; }\n"
    'apply "Sq^1" to a in HELPER expect a^2;\n'
    'charclass w of E expect "[0] 1; [2] t";\n'
    'charclass wet of E expect "[0] 1; [1] w; [2] t";\n'
)


def test_scenario_queries_see_the_files_rings_and_bundles(tmp_path, monkeypatch, capsys):
    from steencalc.cli import main

    (tmp_path / "SCOPED.steen").write_text(SCOPED, encoding="utf-8")
    monkeypatch.setenv(corpus.ENV_DATA_DIR, str(tmp_path))
    report = corpus.run_scenario(corpus.get_scenario("SCOPED"))
    assert report.ok, report.render()
    assert [s.label for s in report.steps] == [
        line for line in SCOPED.splitlines() if line.startswith(("apply", "charclass"))
    ]
    assert main(["corpus", "run", "SCOPED"]) == 0
    assert "scenario SCOPED: pass" in capsys.readouterr().out
    # the same file through run: one resolver serves both
    assert main(["run", str(tmp_path / "SCOPED.steen")]) == 0
    capsys.readouterr()


def test_resolve_ring_unknown():
    with pytest.raises(UnknownGenerator):
        corpus.resolve_ring("NOSUCHRING")


@pytest.mark.parametrize("name", corpus.scenario_names())
def test_actions_consistent_on_scenario_rings(name):
    pres = corpus.get_scenario(name).presentation
    assert pres.check_action_consistency() == ()


def test_scenario_reports_render_one_line_per_step():
    report = corpus.run_scenario(corpus.get_scenario("MO3"))
    text = report.render()
    assert text.count("[ok  ]") + text.count("[FAIL]") == len(report.steps)
    assert "MO3" in text
    # a failing step's detail follows it, one indented line per detail line
    planted = corpus._composite_check("planted composite on w2*s", "w2*s", "0")
    scenario = dataclasses.replace(corpus.get_scenario("MO3"), extra_checks=(planted,))
    report = corpus.run_scenario(scenario)
    assert not report.ok
    assert report.render().splitlines()[0] == "scenario MO3: FAIL"
    assert report.render().endswith(
        "\n  [FAIL] planted composite on w2*s"
        "\n         got w3^5*s + w1*w2*w3^4*s, wanted 0"
    )
